"""Symmetric maps, annihilator subspaces, and rank-locus checks.

The heart of this module is the family W-perp = {M symmetric : M W = 0} for a
subspace W of the g-dimensional fiber.  For codim(W) = c its dimension is
c(c+1)/2, and evaluation e_v : M -> M v maps W-perp into the annihilator of
W, a space of dimension c.  So on W-perp every e_v has rank at most c: these
spaces can never contain an i-plane on which some e_v is injective once
i > c.  The converse (only the W-perp spaces are degenerate in this way) is
probed by randomized polynomial identity testing.

Everything here offers an exact path over the rationals.  A RationalSymMap
is Python-int rows over one denominator, and every exact answer is computed
on integers, so a reported witness is a proof and a reported absence is
wrong with probability bounded by Schwartz-Zippel.  Ranks, kernels and
reduced echelon forms run through one fraction-free (Bareiss) elimination.
Both witness searches take (basis, i, ws), ws an iterable of integer
vectors, and return the first witness w with its rank, or None:
_find_witness eliminates one draw at a time, _first_witness expands the
i x i minors of chunks of 1, 2, 4, ... draws at once.  The rigidity suite
searches in two ways: missed counts the spaces of a family that show no
witness in lazy draws from the suite's shared stream, and witness runs
check_evaluation_degeneracy on a space's own stream.  A space of fewer than i maps has no witness and is
not searched, so a short annihilator basis fails annihilator-dimension
instead of raising.  Every minor is computed by extform._minors:
the witness minors and the minor derivatives of rank_locus_tangent_check on
object arrays of Python ints, and the quadratics of find_rank_ones' pencils
on complex arrays.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BadDimension,
    BadParameters,
    BadSampleCount,
    DimensionMismatch,
    InputNotRankOne,
    NotIndependent,
    NotSymmetric,
)
from .extform import _genus, _minors, _subsets
from .linalg import (
    DEFAULT_RANK_TOL,
    LinSubspace,
    SymMap,
    as_sym_array,
    rank_with_kernel,
    sym_basis,
    sym_dim,
    sym_index_pairs,
    sym_pair_table,
    sym_to_vec,
    vec_to_sym,
)
from .report import VerificationReport, passing
from .sampling import derive_rng

V_SAMPLE_BOUND = 1000  # integer box for polynomial identity testing


# ---------------------------------------------------------------------------
# Exact linear algebra over Fraction entries.
# ---------------------------------------------------------------------------


def _integer_rows(mat) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators (same row space), and the lcms."""
    rows, scales = [], []
    for row in mat:
        d = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return rows, scales


def _eliminate(rows: list[list[int]], ncols: int, reduce: bool = False):
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    Each step replaces the rows below the pivot p by (p * row - f * pivot_row)
    // prev, f being the row's entry under p and prev the pivot before (1 at
    first).  Every entry stays an integer minor of the input (Sylvester's
    identity), so the division is exact, also after columns without a pivot.
    reduce=True clears above the pivots too; every pivot then equals the last.
    Returns the pivot columns.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        piv = top[c]
        start = 0 if reduce else c
        for i in range(0 if reduce else r + 1, nrows):
            row = rows[i]
            f = row[c]
            if i == r or (not f and piv == prev):
                continue
            row[start:] = [(piv * a - f * b) // prev
                           for a, b in zip(row[start:], top[start:])]
        prev = piv
        pivots.append(c)
    return pivots


def _rank(rows) -> int:
    """Rank of integer rows; works on a copy."""
    return len(_eliminate([list(r) for r in rows], len(rows[0]) if rows else 0))


def frac_rref(mat) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form as integer rows (last times the form), pivot columns, last."""
    rows, _ = _integer_rows(mat)
    pivots = _eliminate(rows, len(rows[0]) if rows else 0, reduce=True)
    last = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    return rows, pivots, last


def frac_rank(mat) -> int:
    return _rank(_integer_rows(mat)[0])


def frac_nullspace(mat, ncols: int) -> list[list[Fraction]]:
    """Exact basis of the kernel, one vector per free column."""
    basis, last = _int_nullspace(mat, ncols)
    return [[Fraction(x, last) for x in v] for v in basis]


def _int_nullspace(mat, ncols: int) -> tuple[list[list[int]], int]:
    """frac_nullspace's basis times the common pivot last, so every entry is an integer."""
    if not mat:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)], 1
    rows, pivots, last = frac_rref(mat)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = last
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis, last


# ---------------------------------------------------------------------------
# Rational symmetric maps.
# ---------------------------------------------------------------------------


class RationalSymMap:
    """Symmetric rational matrix as Python-int rows num over one denominator den > 0.

    gcd(den, every entry) = 1, so num is the matrix times the lcm of its entry
    denominators; rows gives the Fraction entries.  Symmetric by construction.
    """

    __slots__ = ("num", "den", "g")

    def __init__(self, rows):
        rows = [[Fraction(x) for x in r] for r in rows]
        g = len(rows)
        if any(len(r) != g for r in rows):
            raise DimensionMismatch("rational symmetric map must be square")
        for i in range(g):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric(
                        f"entries ({i},{j}) and ({j},{i}) differ: "
                        f"{rows[i][j]} vs {rows[j][i]}"
                    )
        den = math.lcm(*(x.denominator for r in rows for x in r))
        self.num = tuple(tuple(int(x * den) for x in r) for r in rows)
        self.den, self.g = den, g

    @classmethod
    def _from_int(cls, num, den: int = 1) -> "RationalSymMap":
        """Symmetric rows of Python ints over den != 0, reduced to lowest terms."""
        c = math.gcd(den, *(x for r in num for x in r)) * (1 if den > 0 else -1)
        out = cls.__new__(cls)
        out.num = (tuple(map(tuple, num)) if c == 1  # as for nearly every random map
                   else tuple(tuple(x // c for x in r) for r in num))
        out.den, out.g = den // c, len(num)
        return out

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.num)

    def flatten(self) -> list[Fraction]:
        # plain upper-triangle entries; for the isometric coordinates
        # used by LinSubspace("Sg") go through sym_to_vec on as_float()
        return [Fraction(x, self.den) for x in self._flat()]

    def _flat(self) -> list[int]:
        """Upper triangle of num: den times flatten(), so of the same rank."""
        return [self.num[a][b] for (a, b) in sym_index_pairs(self.g)]

    def scale(self, c) -> "RationalSymMap":
        c = Fraction(c)
        return RationalSymMap._from_int([[x * c.numerator for x in r] for r in self.num],
                                        self.den * c.denominator)

    def add(self, other: "RationalSymMap") -> "RationalSymMap":
        if other.g != self.g:
            raise DimensionMismatch(f"cannot add genus {self.g} and {other.g} maps")
        return RationalSymMap._from_int(
            [[a * other.den + b * self.den for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.num, other.num)], self.den * other.den)

    def as_float(self) -> np.ndarray:
        return np.array([[x / self.den for x in r] for r in self.num], dtype=complex)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.num)


def _random_int_vector(g: int, rng, bound: int = V_SAMPLE_BOUND) -> list[int]:
    while True:
        v = rng.integers(-bound, bound + 1, size=g).tolist()
        if any(v):
            return v


def random_rational_symmap(g: int, rng) -> RationalSymMap:
    vals = rng.integers(-9, 10, size=sym_dim(g))
    return RationalSymMap._from_int(vals[sym_pair_table(g).index].tolist())


# ---------------------------------------------------------------------------
# Annihilator subspaces.
# ---------------------------------------------------------------------------


def wperp(w: LinSubspace) -> LinSubspace:
    """{M symmetric : M W = 0} in flattened coordinates, the SVD kernel of the constraints.

    Its dimension should be c(c+1)/2 for c = codim W.  That is not raised
    here: slice-embed's direction-space-dimension check measures it.
    """
    if w.ambient_tag != "V":
        raise DimensionMismatch(f"expected a fiber subspace, got tag {w.ambient_tag!r}")
    g = w.ambient_dim
    n = sym_dim(g)
    basis = sym_basis(g)
    if w.dim == 0:
        return LinSubspace(np.eye(n, dtype=complex), "Sg")
    # constraint rows: (E_alpha w_j)_r as a (dim W * g) x n system
    cols = np.einsum("agh,jh->jga", basis, w.basis).reshape(w.dim * g, n)
    _, kernel, _ = rank_with_kernel(cols, tol=1e-12)
    return LinSubspace(kernel.basis, "Sg")


def wperp_exact(w_rows, g: int) -> list[RationalSymMap]:
    """Exact rational basis of {M : M w = 0 for the given spanning rows of ints or Fractions}.

    One map per free column of the constraint system.  The count should be
    c(c+1)/2 for c the codimension of the span; that is not raised here:
    eval-rank's annihilator-dimension check measures it.
    """
    if any(len(w) != g for w in w_rows):
        raise DimensionMismatch(f"w rows of lengths {[len(w) for w in w_rows]} for genus {g}")
    n = sym_dim(g)
    index = sym_pair_table(g).index.tolist()
    eqs = []
    for w in w_rows:
        for r in range(g):
            row = [0] * n
            for c in range(g):
                row[index[r][c]] += w[c]
            eqs.append(row)
    null, last = _int_nullspace(eqs, n)
    return [RationalSymMap._from_int([[v[i] for i in r] for r in index], last) for v in null]


def rational_span_to_subspace(basis: list[RationalSymMap]) -> LinSubspace:
    """Float subspace (isometric flattened coordinates) spanned by exact maps."""
    return LinSubspace.from_spanning(sym_to_vec([m.as_float() for m in basis]), "Sg")


# ---------------------------------------------------------------------------
# Degeneracy of evaluation on a subspace of symmetric maps.
# ---------------------------------------------------------------------------


@dataclass
class DegeneracyWitness:
    v: object                 # fiber vector (ndarray, or list of int when exact)
    rank: int


@dataclass
class DegeneracyReport:
    """Outcome of searching for a vector v with rank(e_v) >= i on a subspace."""

    satisfied: bool           # True when no witness was found
    witness: DegeneracyWitness | None
    i: int
    dim: int
    n_samples: int
    exact: bool
    notes: str


def _float_basis(x) -> list[np.ndarray]:
    if isinstance(x, LinSubspace):
        if x.ambient_tag != "Sg":
            raise DimensionMismatch(f"expected Sg coordinates, got {x.ambient_tag!r}")
        return list(vec_to_sym(x.basis, _genus(x.ambient_dim)))
    return [m.as_float() if isinstance(m, RationalSymMap) else as_sym_array(m) for m in x]


def check_evaluation_degeneracy(x, i: int, n_v_samples: int = 100,
                                seed: int = 0) -> DegeneracyReport:
    """Search for v with rank(e_v restricted to span(x)) >= i.

    x is a LinSubspace in flattened symmetric coordinates or a list of maps.
    The search is exact when every map is a RationalSymMap, and in floating
    point otherwise.  Absence of a witness over N integer samples from
    [-1000, 1000]^g is wrong with probability at most (i/2001)^N when a
    witness exists, by Schwartz-Zippel applied to the i x i minors.  The
    exact search owns its stream and hands all N draws to one search:
    _first_witness, or _find_witness where one draw of the p x q matrix e_v
    has more than 2pq i x i minors.
    """
    exact = (isinstance(x, (list, tuple)) and bool(x)
             and all(isinstance(m, RationalSymMap) for m in x))
    if i < 1:
        raise BadDimension(f"target rank must be >= 1, got {i}")
    if n_v_samples < 1:
        raise BadSampleCount(f"need at least one sample vector, got {n_v_samples}")
    mats = list(x) if exact else _float_basis(x)
    dim = len(mats)
    if dim < i:
        raise BadDimension(f"space of dimension {dim} cannot carry rank {i}")

    rng = derive_rng(seed, "degeneracy", i)
    note = (
        f"no-witness verdicts are wrong with probability <= ({i}/2001)^{n_v_samples} "
        "when a witness exists"
    )
    if exact:
        p, q = sorted((dim, mats[0].g))
        # past 2pq minors a draw the expansion outgrows elimination (no benchmark workload there)
        eliminate = math.comb(p, i) * math.comb(q, i) > 2 * p * q
        search = _find_witness if eliminate else _first_witness
        hit = search(mats, i, _int_vectors(mats[0].g, n_v_samples, rng))
        if hit is None:
            return DegeneracyReport(True, None, i, dim, n_v_samples, True, note)
        v, rank = hit
        return DegeneracyReport(False, DegeneracyWitness(v, rank),
                                i, dim, n_v_samples, True, "witness is exact")

    g = mats[0].shape[0]
    for _ in range(n_v_samples):
        v = rng.standard_normal(g) + 1j * rng.standard_normal(g)
        rows = np.array([m @ v for m in mats], dtype=complex)
        rank, _, _ = rank_with_kernel(rows)
        if rank >= i:
            return DegeneracyReport(False, DegeneracyWitness(v, rank),
                                    i, dim, n_v_samples, False, "")
    return DegeneracyReport(True, None, i, dim, n_v_samples, False, note)


def _int_vectors(g: int, n: int, rng):
    """n draws of _random_int_vector, made lazily: a search that stops early draws no more."""
    return (_random_int_vector(g, rng) for _ in range(n))


def _find_witness(basis: list[RationalSymMap], i: int, ws):
    """(w, rank) for the first integer vector w in ws with rank(e_w) >= i, or None.

    The rows of e_w are taken on each map's integer rows num, so each is the
    integer vector den * M w, a positive multiple of M w: the rank is that
    of e_w.  Takes one w at a time from ws and stops at the first witness,
    so a lazy ws is drawn only up to it.
    """
    for w in ws:
        rank = _rank([[sum(map(operator.mul, r, w)) for r in m.num] for m in basis])
        if rank >= i:
            return w, rank
    return None


def _first_witness(basis: list[RationalSymMap], i: int, ws):
    """_find_witness's answer from the draws of ws in growing chunks: (w, rank) or None.

    rank(e_w) >= i exactly when some i x i minor of the dim x g matrix e_w is
    nonzero.  Each chunk of draws (1, 2, 4, ... of them) gives its e_w from
    one integer product, and their minors from one _minors expansion whose
    batch axis runs over (row subset, draw); the rows are taken along the
    shorter side p of e_w (its transpose when dim > g), so there are C(p, i)
    row subsets.  The search stops at the first chunk that holds a witness,
    so a lazy ws is drawn only up to the end of that chunk.  The rank is
    _rank of the found draw.
    """
    ws = iter(ws)
    g, dim = basis[0].g, len(basis)
    rows = _subsets(min(dim, g), i)[0]
    num = np.array([m.num for m in basis], dtype=object)
    size = 1
    while chunk := list(itertools.islice(ws, size)):
        e = num @ np.array(chunk, dtype=object).reshape(len(chunk), g).T  # e[:, :, s]: e_w
        if dim > g:
            e = e.swapaxes(0, 1)
        minors = _minors(np.moveaxis(e[rows], 0, 2))  # (C(q, i), C(p, i), draws)
        hits = np.flatnonzero((minors != 0).any(axis=(0, 1)))
        if len(hits):
            s = int(hits[0])
            return chunk[s], _rank(e[..., s].tolist())
        size *= 2
    return None


# ---------------------------------------------------------------------------
# The rigidity suite: annihilator spaces are the only degenerate ones.
# ---------------------------------------------------------------------------


def _random_rational_w(g: int, dim: int, rng) -> list[list[int]]:
    while True:
        rows = [rng.integers(-9, 10, size=g).tolist() for _ in range(dim)]
        if _rank(rows) == dim:
            return rows


def _random_rational_space(g: int, dim: int, rng) -> list[RationalSymMap]:
    while True:
        basis = [random_rational_symmap(g, rng) for _ in range(dim)]
        if _rank([m._flat() for m in basis]) == dim:
            return basis


def _perturbed(perp: list[RationalSymMap], rank: int, eps: Fraction,
               rng) -> list[RationalSymMap]:
    """perp with eps times a random map outside its span added to its first map.

    Noise is redrawn until it lifts the stacked rank above rank, the rank of
    perp, so the copy keeps that rank; a short or redundant basis of perp
    still finds such noise.
    """
    flat = [m._flat() for m in perp]
    while True:
        noise = random_rational_symmap(perp[0].g, rng)
        if _rank(flat + [noise._flat()]) > rank:
            return [perp[0].add(noise.scale(eps))] + perp[1:]


def annihilator_rigidity_suite(g: int, i: int, trials: int = 50,
                               n_v_samples: int = 100,
                               seed: int = 0) -> VerificationReport:
    """Degenerate evaluation characterizes annihilator spaces, tested exactly.

    For i >= 3 and spaces of dimension i(i-1)/2: annihilators {M : M W = 0}
    of codimension-(i-1) subspaces W never show an evaluation of rank i,
    while perturbed copies and generic spaces of the same dimension (and any
    space one dimension larger) always do.  For i in {1, 2} no space of
    dimension i avoids rank-i evaluations at all.  All ranks are computed
    over the rationals, so every "witness found" verdict is a proof.
    """
    if i < 1 or i > g:
        raise BadDimension(f"target rank {i} outside 1..{g}")
    if trials < 1:
        raise BadParameters(f"need at least one trial, got {trials}")
    report = VerificationReport(
        "eval-rank", {"genus": g, "i": i, "trials": trials,
                      "n_v_samples": n_v_samples, "seed": seed})
    rng = derive_rng(seed, "rigidity", g, i)
    d = i * (i - 1) // 2
    sz_note = (f"no-witness verdicts wrong with probability <= "
               f"({i}/2001)^{n_v_samples} per space when a witness exists")

    def witness(space):
        """A rank-i witness on space from a search on its own stream, or None."""
        own_seed = int(rng.integers(1 << 30))
        if len(space) < i:  # fewer than i maps never carry rank i
            return None
        return check_evaluation_degeneracy(space, i, n_v_samples, seed=own_seed).witness

    def missed(spaces, rank) -> int:
        """How many spaces show no rank-`rank` evaluation in draws of the shared stream."""
        return sum(_find_witness(space, rank, _int_vectors(g, n_v_samples, rng)) is None
                   for space in spaces)

    if i >= 3:
        perps, found = [], []
        for _ in range(3):
            perps.append(wperp_exact(_random_rational_w(g, g - i + 1, rng), g))
            found.append(witness(perps[-1]))
        report.add(passing(
            "annihilator-dimension",
            f"dim {{M : M W = 0}} = {d} for codimension {i - 1}",
            max(abs(len(perp) - d) for perp in perps), 0.5))
        report.add(passing(
            "annihilator-no-witness",
            f"no rank-{i} evaluation on annihilator spaces",
            1.0 if any(found) else 0.0, 0.5, notes=sz_note))

        ranks = [_rank([m._flat() for m in perp]) for perp in perps]
        for label, eps in (("unit", Fraction(1)), ("small", Fraction(1, 1000))):
            copies = (_perturbed(perps[t % 3], ranks[t % 3], eps, rng) for t in range(trials))
            first = witness(next(copies))
            example = "" if first is None else (
                "example witness v = [" + ", ".join(str(x) for x in first.v)
                + f"], rank {first.rank}")
            report.add(passing(
                f"perturbed-witness-eps-{label}",
                f"perturbing one basis vector of the annihilator by {eps} "
                f"times an outside map always restores a rank-{i} evaluation",
                (first is None) + missed(copies, i), 0.5, notes=example))

        report.add(passing(
            "generic-same-dim-witness",
            f"generic {d}-dimensional spaces always show a rank-{i} evaluation",
            missed((_random_rational_space(g, d, rng) for _ in range(trials)), i), 0.5))
        report.add(passing(
            "larger-dim-witness",
            f"spaces of dimension {d + 1} always show a rank-{i} evaluation",
            missed((_random_rational_space(g, d + 1, rng) for _ in range(trials)), i), 0.5))

    for small_i in (1, 2)[:i]:
        report.add(passing(
            f"rank-{small_i}-always-witnessed",
            f"every {small_i}-dimensional space shows a rank-{small_i} evaluation",
            missed((_random_rational_space(g, small_i, rng) for _ in range(10)), small_i), 0.5))
    return report


# ---------------------------------------------------------------------------
# Tangency to rank loci.
# ---------------------------------------------------------------------------


@dataclass
class TangentCheck:
    rank: int
    predicate_holds: bool    # N(ker M) inside im M
    minors_vanish: bool      # directional derivatives of all (rank+1)-minors
    agree: bool
    max_minor_derivative: float
    exact: bool


def _minor_derivatives(m: np.ndarray, n: np.ndarray, k: int) -> np.ndarray:
    """Derivatives at m, in direction n, of every k x k minor of the square array m.

    d/dt det((m + t n)[R, C]) at t = 0 is the sum over j of that minor with
    row R[j] taken from n.  One _minors expansion covers every (row subset R,
    row j taken from n) pair.  The result, in m's dtype, has one row per
    column k-subset and one column per row k-subset.
    """
    rows = _subsets(m.shape[0], k)[0]
    stack = np.repeat(m[rows][:, None], k, axis=1)  # stack[R, j] holds the rows R of m
    j = np.arange(k)
    stack[:, j, j] = n[rows]                        # ... but row R[j] of n in place j
    return _minors(np.moveaxis(stack, (2, 3), (0, 1))).sum(axis=-1)


def rank_locus_tangent_check(m, n) -> TangentCheck:
    """Compare two criteria for N being tangent to the rank locus at M.

    Route one: N maps ker(M) into im(M).  Route two: the directional
    derivatives at M, in direction N, of every (k+1) x (k+1) minor vanish,
    where k = rank(M).  The two verdicts must agree.  Both run exactly when
    M and N are RationalSymMap, and in floating point otherwise.
    """
    if isinstance(m, RationalSymMap) and isinstance(n, RationalSymMap):
        # integer rows: N ker(M) lies in im(M) for any positive scales of both
        g, mm, nn = m.g, m.num, n.num
        if n.g != g:
            raise DimensionMismatch(f"genus-{g} base point with a genus-{n.g} direction")
        kernel = [[x // math.gcd(*v) for x in v] for v in _int_nullspace(mm, g)[0]]
        k = g - len(kernel)
        # N K, K's columns spanning ker(M), lies in im(M) iff appending it keeps rank k
        nk = [tuple(sum(a * b for a, b in zip(r, kv)) for kv in kernel) for r in nn]
        predicate = _rank([r + x for r, x in zip(mm, nk)]) == k
        worst = 0
        if k < g:
            derivs = _minor_derivatives(np.array(mm, dtype=object), np.array(nn, dtype=object),
                                        k + 1)
            worst = max(map(abs, derivs.flat))
        minors_ok = worst == 0
        # each minor has k rows of mm = m.den * M and one of nn = n.den * N;
        # int / int is correctly rounded, as float(Fraction) is
        return TangentCheck(k, predicate, minors_ok, predicate == minors_ok,
                            worst / (m.den ** k * n.den), True)

    ma = m.as_float() if isinstance(m, RationalSymMap) else as_sym_array(m)
    na = n.as_float() if isinstance(n, RationalSymMap) else as_sym_array(n)
    if na.shape != ma.shape:
        raise DimensionMismatch(f"base point of shape {ma.shape} with a direction of {na.shape}")
    g = ma.shape[0]
    k, kernel, image = rank_with_kernel(ma)
    scale = max(1.0, float(np.linalg.norm(na)))
    nk = na @ kernel.basis.T
    outside = np.linalg.norm(nk - image.projector() @ nk, axis=0).max(initial=0.0)
    predicate = bool(outside <= DEFAULT_RANK_TOL * scale)
    minors_ok = True
    worst = 0.0
    if k < g:
        mscale = max(1.0, float(np.max(np.abs(ma)))) ** k * scale
        largest = float(np.abs(_minor_derivatives(ma, na, k + 1)).max())
        worst = largest / mscale
        minors_ok = largest <= DEFAULT_RANK_TOL * mscale
    return TangentCheck(k, predicate, minors_ok, predicate == minors_ok, worst, False)


def random_rank_k_symmap(g: int, k: int, rng):
    """Exact rank-k symmetric map sum of k integer outer squares, with the integer factors."""
    if not (0 < k <= g):
        raise BadDimension(f"rank {k} outside 1..{g}")
    while True:
        factors = [_random_int_vector(g, rng, 5) for _ in range(k)]
        rows = [[0] * g for _ in range(g)]
        for idx, u in enumerate(factors):
            sign = 1 if idx % 2 == 0 else -1  # mixed signature, same rank
            for a in range(g):
                for b in range(g):
                    rows[a][b] += sign * u[a] * u[b]
        if _rank(rows) == k:
            return RationalSymMap._from_int(rows), factors


def tangent_direction(factors, g: int, rng) -> RationalSymMap:
    """Symmetric map guaranteed tangent to the rank locus at sum of outer squares.

    Built as sum u_j w_j^T + w_j u_j^T, which maps the kernel of the base
    point into its image for any choice of the w_j.
    """
    us, dens = _integer_rows(factors)  # u = us[j] / dens[j]
    den = math.lcm(*dens)
    rows = [[0] * g for _ in range(g)]
    for u, d in zip(us, dens):
        w = _random_int_vector(g, rng, 5)
        u = [x * (den // d) for x in u]
        for a in range(g):
            for b in range(g):
                rows[a][b] += u[a] * w[b] + w[a] * u[b]
    return RationalSymMap._from_int(rows, den)


# ---------------------------------------------------------------------------
# Pencils of rank-one maps and rank-one search.
# ---------------------------------------------------------------------------


@dataclass
class PencilProfile:
    max_rank: int
    rank_two_achieved: bool
    n_samples: int


def pencil_rank_profile(m, n) -> PencilProfile:
    """Rank profile of the pencil a M + b N for rank-one M, N, at 24 grid and 24 random points."""
    ma = as_sym_array(m)
    na = as_sym_array(n)
    for name, a in (("first", ma), ("second", na)):
        r, _, _ = rank_with_kernel(a)
        if r != 1:
            raise InputNotRankOne(f"{name} pencil endpoint has rank {r}")
    stack = np.array([ma.reshape(-1), na.reshape(-1)])
    r, _, _ = rank_with_kernel(stack)
    if r != 2:
        raise NotIndependent("pencil endpoints are linearly dependent")
    rng = derive_rng(0, "pencil")
    best = 0
    count = 0
    coeffs = [(np.cos(t), np.sin(t)) for t in np.linspace(0, np.pi, 24, endpoint=False)]
    coeffs += [tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(24)]
    for a, b in coeffs:
        if abs(a) + abs(b) < 1e-12:
            continue
        rank, _, _ = rank_with_kernel(a * ma + b * na)
        best = max(best, rank)
        count += 1
    return PencilProfile(best, best >= 2, count)


def find_rank_ones(x: LinSubspace, v) -> list[SymMap]:
    """Rank-one elements of {M in span(x) : M v = 0}, up to scale.

    The intersection is expected to have dimension at most two (a pencil);
    larger intersections are outside the supported search and raise
    BadDimension.
    """
    mats = _float_basis(x)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not mats:
        return []
    g = mats[0].shape[0]
    rows = np.array([m @ v for m in mats], dtype=complex)  # (dim, g)
    # kernel of rows^T: coefficient vectors c with sum c_j (m_j v) = 0.
    # The cutoff must scale with the inputs, not with rows itself: when every
    # basis element annihilates v the matrix is pure roundoff and a relative
    # cutoff would hallucinate rank.
    scale = max(np.linalg.norm(m) for m in mats) * np.linalg.norm(v)
    cut = 1e-10 * max(scale, 1e-30)
    full = np.linalg.svd(rows.T, full_matrices=True)
    rank = int(np.sum(full[1] > cut))
    coeff_basis = full[2][rank:].conj()
    members = [sum(c * m for c, m in zip(cv, mats)) for cv in coeff_basis]
    dim = len(members)
    if dim == 0:
        return []
    if dim > 2:
        raise BadDimension(f"intersection has dimension {dim}; pencil search handles <= 2")

    def is_rank_one(a):
        s = np.linalg.svd(a, compute_uv=False)
        return s[0] > 1e-8 and s[1] <= 1e-8 * s[0]

    found = []
    if dim == 1:
        if is_rank_one(members[0]):
            found.append(members[0] / np.linalg.norm(members[0]))
    else:
        a, b = members
        # 2x2 minors of s*a + t*b are quadratics q0 s^2 + q1 s t + q2 t^2, one per
        # (row pair, column pair); the roots of the first nonzero one are the candidates
        candidates = [(1.0, 0.0), (0.0, 1.0)]
        pairs = _subsets(g, 2)[0]
        q0, q2 = (_minors(np.moveaxis(m[pairs], 0, 2)) for m in (a, b))
        quads = np.stack([q0.T, _minor_derivatives(a, b, 2).T, q2.T], axis=-1).reshape(-1, 3)
        size = np.abs(quads).max(axis=1)
        big = np.flatnonzero(size > 1e-9 * max(size.max(initial=0.0), 1e-30))
        if len(big):
            candidates.extend((complex(r), 1.0) for r in np.roots(quads[big[0]]))
        for s, t in candidates:
            cand = s * a + t * b
            norm = np.linalg.norm(cand)
            if norm < 1e-8:
                continue
            cand = cand / norm
            if is_rank_one(cand):
                if not any(
                    np.abs(np.vdot(cand.reshape(-1), f.reshape(-1))) > 1 - 1e-6
                    for f in found
                ):
                    found.append(cand)
    return [SymMap(f) for f in found]
