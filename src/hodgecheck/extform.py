"""Dense exterior algebra on the coordinate 1-forms of a symmetric period matrix.

For genus g there are n = g(g+1)/2 generator pairs dt[a,b] / dtbar[a,b], one
per unordered index pair a <= b; dt[a,b] and dt[b,a] are the same generator
because the matrix is symmetric.  A form is a sum of monomials

    coeff * dt[S] ^ dtbar[T]

over index subsets S, T of the n generators.  It is stored as one complex
array per bidegree (p, q), of shape C(n, p) x C(n, q), whose rows and columns
run over the p- and q-subsets in itertools.combinations order.  A block that
is entirely zero is never stored, so the stored bidegrees are exactly the
nonzero ones.  Outside the store a subset is a bitmask over the n generator
indices, and a coefficient is addressed by a bitmask pair (S, T).  The
canonical word order puts holomorphic generators first, each block ascending
by index; every sign in this module is relative to that order.

Conventions that matter elsewhere:

* wedge multiplies block by block.  For each (k1 + k2)-subset U a split
  table lists every way to write U as a k1-subset and its complement, with
  the sign that sorts their concatenation back to U; moving dtbar[T1] past
  dt[S2] contributes the block-swap sign (-1)^{|T1||S2|}.
* conjugate maps coeff * dt[S]^dtbar[T] to conj(coeff) * (-1)^{|S||T|}
  dt[T]^dtbar[S], the sign being the block swap back to canonical order.
* contract pairs dt[a,b] with the (a,b) entry of a holomorphic vector and
  dtbar[a,b] with the conjugated entry of an antiholomorphic vector; a
  (p,q) block against p + q vectors is the vector of p x p minors of the
  holomorphic rows, times the block, times the q x q minors of the
  antiholomorphic rows.
* _minors, the package's one minors kernel, expands along rows; it serves
  contract and the Monte Carlo wedge powers, whose averages travel as
  blocks (from_blocks, block), so no other module lays out coefficients.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations, product
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    GenusMismatch,
    NotUnitScalar,
    OddComponent,
)
from .linalg import (
    LinSubspace,
    as_sym_stack,
    sym_dim,
    sym_index_pairs,
    sym_pair_table,
    vec_to_sym,
)

_SCALARS = (int, float, complex, np.number)  # what forms add to and multiply by


def pair_index(g: int, a: int, b: int) -> int:
    if not (0 <= a < g and 0 <= b < g):
        raise DimensionMismatch(f"index pair ({a}, {b}) out of range for genus {g}")
    return int(sym_pair_table(g).index[a, b])


@functools.cache
def _subsets(n: int, k: int):
    """The k-subsets of range(n) in combinations order.

    Returns (rows, masks, position): rows[i] lists the i-th subset, masks[i]
    is its bitmask and position maps a bitmask back to i.
    """
    rows = np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(math.comb(n, k), k)
    masks = [sum(1 << int(i) for i in r) for r in rows]
    return rows, masks, {m: i for i, m in enumerate(masks)}


@functools.cache
def _split_table(n: int, k1: int, k2: int):
    """Every split of each (k1 + k2)-subset U of range(n) into a k1-subset and the rest.

    Returns (first, rest, sign): first[u, j] and rest[u, j] are the positions
    among the k1- and k2-subsets of the two parts of the j-th split of the
    u-th U, and sign[j] is the sign of sorting their concatenation back to U.
    That sign depends only on which places of U the k1-subset takes.
    """
    splits = list(combinations(range(k1 + k2), k1))
    # the element in place s_i passes the s_i - i smaller elements of the rest
    sign = np.array([-1.0 if (sum(s) - k1 * (k1 - 1) // 2) % 2 else 1.0 for s in splits])
    position1, position2 = _subsets(n, k1)[2], _subsets(n, k2)[2]
    first, rest = [], []
    for u in combinations(range(n), k1 + k2):
        bits = [1 << i for i in u]
        parts = [sum(bits[i] for i in s) for s in splits]
        first.append([position1[m] for m in parts])
        rest.append([position2[m ^ sum(bits)] for m in parts])
    shape = (math.comb(n, k1 + k2), len(splits))
    return (np.array(first, dtype=np.intp).reshape(shape),
            np.array(rest, dtype=np.intp).reshape(shape), sign)


def _wedge_block(a: np.ndarray, b: np.ndarray, n: int, p1: int, q1: int,
                 p2: int, q2: int) -> np.ndarray:
    """The (p1 + p2, q1 + q2) block of a ^ b for a (p1, q1) block a and a (p2, q2) block b.

    out[U, V] sums a[S1, T1] * b[S2, T2] over the splits U = S1 + S2 and
    V = T1 + T2, signed by both merges and by the block swap of T1 past S2.
    """
    hol_first, hol_rest, hol_sign = _split_table(n, p1, p2)
    anti_first, anti_rest, anti_sign = _split_table(n, q1, q2)
    weights = -anti_sign if (q1 * p2) % 2 else anti_sign
    out = np.zeros((hol_first.shape[0], anti_first.shape[0]), dtype=complex)
    for j, sign in enumerate(hol_sign):
        terms = a.take(hol_first[:, j], axis=0).take(anti_first, axis=1)
        terms *= b.take(hol_rest[:, j], axis=0).take(anti_rest, axis=1)
        out += sign * (terms @ weights)
    return out


@functools.cache
def _expansion_tables(n: int, k: int) -> tuple:
    """Index tables for expanding the m x m minors along a row, m = 1..k.

    Entry m - 1 holds (cols, drop), both of shape (C(n, m), m): for the t-th
    m-subset T of columns in combinations order, cols[t, j] = T[j] and
    drop[t, j] is the position of T without T[j] among the (m-1)-subsets.
    """
    tables = []
    for m in range(1, k + 1):
        cols, masks, _ = _subsets(n, m)
        position = _subsets(n, m - 1)[2]
        drop = [[position[mask ^ (1 << int(c))] for c in row] for row, mask in zip(cols, masks)]
        tables.append((cols, np.array(drop, dtype=np.intp).reshape(cols.shape)))
    return tuple(tables)


def _minors(rows: np.ndarray) -> np.ndarray:
    """The k x k minors of k rows of length n, one per column k-subset in combinations order.

    rows has shape (k, n, *batch) and the result (C(n, k), *batch); the
    empty minor (k = 0) is 1.  The minors of rows[:m] over all column
    m-subsets come from those of rows[:m-1] by expansion along row m - 1.
    """
    k, n = rows.shape[:2]
    minors = np.ones((1, *rows.shape[2:]), dtype=rows.dtype)
    for m, (row, (cols, drop)) in enumerate(zip(rows, _expansion_tables(n, k))):
        # row sits at position m, so column j carries (-1)^(m + j)
        minors = sum((-1) ** (m + j) * row[cols[:, j]] * minors[drop[:, j]]
                     for j in range(m + 1))
    return minors


class ExtForm:
    """Exterior form stored as dense per-bidegree blocks; immutable by convention."""

    __slots__ = ("g", "n", "_blocks")
    __array_ufunc__ = None  # keep numpy from coercing us in mixed products

    def __init__(self, g: int, terms: dict[tuple[int, int], complex] | None = None):
        self.g = int(g)
        self.n = sym_dim(self.g)
        blocks: dict[tuple[int, int], np.ndarray] = {}
        if terms:
            limit = 1 << self.n
            for (s, t), c in terms.items():
                if s >= limit or t >= limit:
                    raise DimensionMismatch(
                        f"mask ({s:#x}, {t:#x}) exceeds {self.n} generators"
                    )
                if c == 0:
                    continue
                p, q = s.bit_count(), t.bit_count()
                block = blocks.get((p, q))
                if block is None:
                    block = blocks[(p, q)] = np.zeros(
                        (math.comb(self.n, p), math.comb(self.n, q)), dtype=complex)
                block[_subsets(self.n, p)[2][s], _subsets(self.n, q)[2][t]] = c
        self._blocks = blocks

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_blocks(cls, g: int, blocks: dict[tuple[int, int], np.ndarray]) -> "ExtForm":
        """Form with the given (p, q) -> C(n, p) x C(n, q) coefficient arrays.

        The arrays are kept, not copied; blocks that are entirely zero are
        dropped.
        """
        form = cls(g)
        n = form.n
        for (p, q), block in blocks.items():
            block = np.asarray(block, dtype=complex)
            if block.shape != (math.comb(n, p), math.comb(n, q)):
                raise DimensionMismatch(
                    f"block {(p, q)} has shape {block.shape}, expected "
                    f"{(math.comb(n, p), math.comb(n, q))} for {n} generators")
            if block.any():
                form._blocks[(p, q)] = block
        return form

    @classmethod
    def zero(cls, g: int) -> "ExtForm":
        return cls(g)

    @classmethod
    def scalar(cls, c, g: int) -> "ExtForm":
        return cls(g, {(0, 0): complex(c)})

    @classmethod
    def one(cls, g: int) -> "ExtForm":
        return cls.scalar(1.0, g)

    @classmethod
    def generator(cls, g: int, a: int, b: int, conjugated: bool = False) -> "ExtForm":
        bit = 1 << pair_index(g, a, b)
        key = (0, bit) if conjugated else (bit, 0)
        return cls(g, {key: 1.0})

    # -- bookkeeping --------------------------------------------------------

    def terms(self) -> dict[tuple[int, int], complex]:
        out = {}
        for (p, q), block in self._blocks.items():
            s_masks, t_masks = _subsets(self.n, p)[1], _subsets(self.n, q)[1]
            for i, j in zip(*np.nonzero(block)):
                out[(s_masks[i], t_masks[j])] = complex(block[i, j])
        return out

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(b)) for b in self._blocks.values())

    def coefficient(self, s: int, t: int) -> complex:
        p, q = s.bit_count(), t.bit_count()
        block = self._blocks.get((p, q))
        if block is None or s >> self.n or t >> self.n:
            return 0.0 + 0.0j
        return complex(block[_subsets(self.n, p)[2][s], _subsets(self.n, q)[2][t]])

    @property
    def scalar_part(self) -> complex:
        return self.coefficient(0, 0)

    def block(self, p: int, q: int) -> np.ndarray:
        """The stored (p, q) array (read counterpart of from_blocks), or zeros of its shape."""
        block = self._blocks.get((p, q))
        if block is None:
            return np.zeros((math.comb(self.n, p), math.comb(self.n, q)), dtype=complex)
        return block

    def is_zero(self) -> bool:
        return not self._blocks

    def component(self, p: int, q: int) -> "ExtForm":
        block = self._blocks.get((p, q))
        return ExtForm.from_blocks(self.g, {} if block is None else {(p, q): block})

    def bidegrees(self) -> set[tuple[int, int]]:
        return set(self._blocks)

    def is_even(self) -> bool:
        return all((p + q) % 2 == 0 for p, q in self.bidegrees())

    def norm_inf(self) -> float:
        return max((float(np.abs(b).max()) for b in self._blocks.values()), default=0.0)

    def max_coeff_diff(self, other: "ExtForm") -> float:
        return (self - other).norm_inf()

    def allclose(self, other: "ExtForm", tol: float = 1e-12) -> bool:
        return self.max_coeff_diff(other) <= tol

    def _check_genus(self, other: "ExtForm"):
        if self.g != other.g:
            raise GenusMismatch(f"genus {self.g} vs {other.g}")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = ExtForm.scalar(other, self.g)
        elif not isinstance(other, ExtForm):
            return NotImplemented
        self._check_genus(other)
        blocks = dict(self._blocks)
        for key, b in other._blocks.items():
            blocks[key] = blocks[key] + b if key in blocks else b
        return ExtForm.from_blocks(self.g, blocks)

    __radd__ = __add__

    def __neg__(self):
        return ExtForm.from_blocks(self.g, {k: -b for k, b in self._blocks.items()})

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = ExtForm.scalar(other, self.g)
        return self + (-other) if isinstance(other, ExtForm) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other if isinstance(other, _SCALARS) else NotImplemented

    def __mul__(self, c):
        if not isinstance(c, _SCALARS):
            return NotImplemented
        c = complex(c)
        return ExtForm.from_blocks(self.g, {k: b * c for k, b in self._blocks.items()})

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1.0 / c)

    # -- the algebra --------------------------------------------------------

    def wedge(self, other: "ExtForm", max_degree: int | None = None) -> "ExtForm":
        self._check_genus(other)
        n = self.n
        cap = 2 * n if max_degree is None else max_degree
        out: dict[tuple[int, int], np.ndarray] = {}
        for (p1, q1), a in self._blocks.items():
            for (p2, q2), b in other._blocks.items():
                key = (p1 + p2, q1 + q2)
                if key[0] > n or key[1] > n or sum(key) > cap:
                    continue
                block = _wedge_block(a, b, n, p1, q1, p2, q2)
                out[key] = out[key] + block if key in out else block
        return ExtForm.from_blocks(self.g, out)

    def __xor__(self, other):
        return self.wedge(other)

    def conjugate(self) -> "ExtForm":
        return ExtForm.from_blocks(self.g, {
            (q, p): (-1.0 if p * q % 2 else 1.0) * b.T.conj()
            for (p, q), b in self._blocks.items()
        })

    def contract(self, hol_vectors: Iterable, anti_vectors: Iterable) -> complex | np.ndarray:
        """Evaluate against symmetric-matrix tangent vectors.

        Components whose bidegree does not match (len(hol), len(anti))
        contribute zero.  One stack passed as both (restrict_to_plane) is
        validated once, and its anti minors are the conjugated hol minors.
        (T, k, g, g) arrays give T values, each its set's alone to the bit.
        """
        same = anti_vectors is hol_vectors
        hol = as_sym_stack(hol_vectors, self.g)
        anti = hol if same else as_sym_stack(anti_vectors, self.g)
        if hol.shape[:-3] != anti.shape[:-3]:
            raise DimensionMismatch(f"stacks of {hol.shape[:-3]} and {anti.shape[:-3]} sets")
        values = np.zeros(hol.shape[:-3], dtype=complex)
        block = self._blocks.get((hol.shape[-3], anti.shape[-3]))
        if block is not None:
            hol_minors = _stack_minors(_coordinate_rows(hol, self.g))
            anti_minors = (hol_minors.conj() if same
                           else _stack_minors(_coordinate_rows(anti, self.g).conj()))
            values.flat = [h @ block @ a for h, a in zip(hol_minors.reshape(-1, len(block)),
                                                         anti_minors.reshape(-1, block.shape[1]))]
        return values if values.ndim else complex(values)

    # -- inversion of even forms -------------------------------------------

    def inverse_even(self, max_degree: int | None = None) -> "ExtForm":
        """Multiplicative inverse of 1 + nilpotent, for even forms only.

        max_degree truncates the result to total degree at most that value.
        Writing u_d for the degree-d part of the nilpotent, the degree-d part
        of the inverse is s_d = -sum_i u_i ^ s_(d-i), s_0 = 1; even forms
        commute, so this right inverse is the inverse.
        """
        if not self.is_even():
            bad = sorted(pq for pq in self.bidegrees() if sum(pq) % 2)
            raise OddComponent(f"odd components present: {bad}")
        s0 = self.scalar_part
        if abs(s0 - 1.0) > 1e-12:
            raise NotUnitScalar(f"scalar component {s0} is not 1")
        u: dict[int, ExtForm] = {}
        for p, q in self._blocks:
            if p + q:
                u[p + q] = self.component(p, q) + u.get(p + q, ExtForm.zero(self.g))
        cap = 2 * self.n if max_degree is None else max_degree
        s = [ExtForm.one(self.g)]  # s[d // 2] is the degree-d part
        for d in range(2, cap + 1, 2):
            acc = ExtForm.zero(self.g)
            for i, u_i in u.items():
                if i <= d:
                    acc = acc + u_i.wedge(s[(d - i) // 2])
            s.append(-acc)
        return sum(s[1:], s[0])

    # -- display ------------------------------------------------------------

    def __repr__(self):
        if not self._blocks:
            return f"ExtForm(g={self.g}, 0)"
        pairs = sym_index_pairs(self.g)
        bits = []
        for (s, t), c in sorted(self.terms().items()):
            gens = [f"dt{pairs[i]}" for i in range(self.n) if s >> i & 1]
            gens += [f"dtbar{pairs[i]}" for i in range(self.n) if t >> i & 1]
            word = "^".join(gens) if gens else "1"
            bits.append(f"({c:.6g})*{word}")
        return f"ExtForm(g={self.g}, " + " + ".join(bits) + ")"


def _coordinate_rows(stack: np.ndarray, g: int) -> np.ndarray:
    """Row i holds the generator coordinates (a, b), a <= b, of stack[..., i, :, :]."""
    t = sym_pair_table(g)
    # column-major in each set, as one set's gather is, so stacks get its BLAS calls, to the bit
    return np.ascontiguousarray(np.swapaxes(stack[..., t.rows, t.cols], -1, -2)).swapaxes(-1, -2)


def _stack_minors(rows: np.ndarray) -> np.ndarray:
    """_minors of each set in a (..., k, n) stack of rows, as contiguous (..., C(n, k)) rows."""
    minors = _minors(np.moveaxis(rows, (-2, -1), (0, 1)))
    return np.ascontiguousarray(np.moveaxis(minors, 0, -1))


def wedge(a: ExtForm, b: ExtForm, max_degree: int | None = None) -> ExtForm:
    return a.wedge(b, max_degree=max_degree)


def conjugate(a: ExtForm) -> ExtForm:
    return a.conjugate()


def contract(a: ExtForm, hol_vectors: Iterable, anti_vectors: Iterable) -> complex | np.ndarray:
    return a.contract(hol_vectors, anti_vectors)


def inverse_even(a: ExtForm, max_degree: int | None = None) -> ExtForm:
    return a.inverse_even(max_degree=max_degree)


def restrict_to_plane(a: ExtForm, y: LinSubspace) -> float:
    """Value of the (k, k) component of a on a k-plane of symmetric matrices.

    The plane arrives as Frobenius-orthonormal rows in flattened coordinates.
    The value is normalized against the plane's own unit volume form
    wedge_j (i/2) theta_j ^ conj(theta_j), built from the Frobenius-dual
    coframe of the basis, so the result does not depend on the basis choice
    and is real for real forms.  The one-plane case of _restrict_to_planes.
    """
    if y.ambient_tag != "Sg":
        raise DimensionMismatch(f"plane must live in Sg coordinates, got {y.ambient_tag!r}")
    n = y.ambient_dim
    g = a.g
    if n != sym_dim(g):
        raise DimensionMismatch(
            f"plane ambient dimension {n} does not match genus {g}"
        )
    return float(_restrict_to_planes(a, y.basis[None])[0])


def _restrict_to_planes(a: ExtForm, bases: np.ndarray) -> np.ndarray:
    """restrict_to_plane on T planes of orthonormal (T, k, n) Sg rows, each value to the bit."""
    k, g = bases.shape[-2], a.g
    mats = vec_to_sym(bases, g)
    coords = _coordinate_rows(mats, g)
    # theta_j(t) = Frobenius <t, mats[j]> (entries weighted 2 off the diagonal), so
    # Theta[j, l] = theta_l(mats[j]) = <mats[j], mats[l]>, and the unit volume form
    # wedge_j (i/2) theta_j ^ conj(theta_j) is sign (i/2)^k |det Theta|^2 on the plane
    det = np.linalg.det((coords * sym_pair_table(g).frob) @ np.swapaxes(coords.conj(), -1, -2))
    sign = -1.0 if (k * (k - 1) // 2) % 2 else 1.0
    return (a.contract(mats, mats) / (sign * (0.5j) ** k * det * np.conj(det))).real


# ---------------------------------------------------------------------------
# Matrices of forms.
# ---------------------------------------------------------------------------


class FormMatrix:
    """A g x g matrix of exterior forms, one complex array per bidegree (p, q).

    Each array has shape (g, g, C(n, p), C(n, q)) and [i, j] is the (p, q)
    block of entry (i, j); arrays are kept sorted by bidegree, and one zero in
    every entry is not stored.  Products wedge entries in factor order; traces
    and determinants assume even (commuting) entries, as are the curvature
    matrices of 2-forms this package builds.
    """

    __slots__ = ("g", "n", "_blocks")

    def __init__(self, g: int, entries):
        """Stack a g x g grid of ExtForm entries."""
        rows = [list(r) for r in entries]
        if len(rows) != g or any(len(r) != g for r in rows):
            raise DimensionMismatch(f"entries must form a {g} x {g} grid")
        if not all(isinstance(e, ExtForm) for r in rows for e in r):
            raise DimensionMismatch("entries must be ExtForm instances")
        for e in (e for r in rows for e in r if e.g != g):
            raise GenusMismatch(f"entry genus {e.g} vs matrix genus {g}")
        keys = sorted(set().union(*(e.bidegrees() for r in rows for e in r)))
        self.g, self.n = int(g), sym_dim(g)
        self._blocks = {k: np.array([[e.block(*k) for e in r] for r in rows]) for k in keys}

    @classmethod
    def from_blocks(cls, g: int, blocks: dict[tuple[int, int], np.ndarray]) -> "FormMatrix":
        """Matrix with the given (p, q) -> (g, g, C(n, p), C(n, q)) arrays, kept, not copied."""
        m = cls.__new__(cls)
        m.g, m.n, m._blocks = int(g), sym_dim(g), {}
        for (p, q), block in sorted(blocks.items()):
            block = np.asarray(block, dtype=complex)
            shape = (m.g, m.g, math.comb(m.n, p), math.comb(m.n, q))
            if block.shape != shape:
                raise DimensionMismatch(f"block {(p, q)} has shape {block.shape}, not {shape}")
            if block.any():
                m._blocks[(p, q)] = block
        return m

    @classmethod
    def identity(cls, g: int) -> "FormMatrix":
        return cls.from_blocks(g, {(0, 0): np.eye(g).reshape(g, g, 1, 1)})

    def __getitem__(self, ij) -> ExtForm:
        """Entry (i, j), an ExtForm over views of this matrix's arrays."""
        i, j = ij
        return ExtForm.from_blocks(self.g, {k: b[i, j] for k, b in self._blocks.items()})

    def matmul(self, other: "FormMatrix", max_degree: int | None = None) -> "FormMatrix":
        """Entry (i, j) adds entry (i, k) ^ entry (k, j) in place, over k, then bidegree pairs."""
        g, n = self.g, self.n
        if other.g != g:
            raise GenusMismatch(f"genus {g} vs {other.g}")
        cap = 2 * n if max_degree is None else max_degree
        pairs = [((p1 + p2, q1 + q2), a, b, (p1, q1, p2, q2))
                 for (p1, q1), a in self._blocks.items()
                 for (p2, q2), b in other._blocks.items()
                 if p1 + p2 <= n and q1 + q2 <= n and p1 + p2 + q1 + q2 <= cap]
        out = {key: np.zeros((g, g, math.comb(n, key[0]), math.comb(n, key[1])), dtype=complex)
               for key, *_ in pairs}
        for i, j, k in product(range(g), repeat=3):  # a wedge over stacked entries measured slower
            for key, a, b, degrees in pairs:
                out[key][i, j] += _wedge_block(a[i, k], b[k, j], n, *degrees)
        return FormMatrix.from_blocks(g, out)

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        if not isinstance(other, FormMatrix):
            return NotImplemented
        if self.g != other.g:
            raise GenusMismatch(f"genus {self.g} vs {other.g}")
        blocks = dict(self._blocks)
        for key, b in other._blocks.items():
            blocks[key] = blocks[key] + b if key in blocks else b
        return FormMatrix.from_blocks(self.g, blocks)

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        return self + other.scale(-1.0) if isinstance(other, FormMatrix) else NotImplemented

    def scale(self, c) -> "FormMatrix":
        return FormMatrix.from_blocks(self.g, {k: b * complex(c) for k, b in self._blocks.items()})

    def trace(self) -> ExtForm:
        return ExtForm.from_blocks(self.g, {  # the diagonal in order of i, as a loop adds it
            k: sum((b[i, i] for i in range(1, self.g)), b[0, 0]) for k, b in self._blocks.items()})

    def det(self, max_degree: int | None = None) -> ExtForm:
        """Leibniz determinant; assumes entries commute (even forms)."""
        g = self.g
        entries = [[self[i, j] for j in range(g)] for i in range(g)]
        acc = ExtForm.zero(g)
        for perm in permutations(range(g)):
            sign = (-1.0) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
            prod = ExtForm.one(g)
            for i in range(g):
                prod = prod.wedge(entries[i][perm[i]], max_degree=max_degree)
                if prod.is_zero():
                    break
            acc = acc + prod * sign
        return acc

    def max_coeff_diff(self, other: "FormMatrix") -> float:
        return max((float(np.abs(b).max()) for b in (self - other)._blocks.values()), default=0.0)
