"""Dense exterior algebra on n generator pairs dt[i] / dtbar[i], for any n.

A form is a sum of monomials coeff * dt[S] ^ dtbar[T] over index subsets
S, T of the n generators.  It is stored as one array per bidegree (p, q), of
shape C(n, p) x C(n, q), whose rows and columns run over the p- and q-subsets
in itertools.combinations order.  A block keeps the dtype it was built with
(complex128, float64, int64, or exact Python scalars in an object array; the
terms constructor stores integers as Python ints).  Exact blocks meeting
inexact ones take the inexact dtype, and exact blocks meeting only exact
ones compute in object, so integers never wrap and exact forms divide into
Fractions.  A block that is entirely zero is never stored, so the stored
bidegrees are exactly the nonzero ones.  Outside the store a subset is a
bitmask over the n generator indices, and a coefficient is addressed by a
bitmask pair (S, T).  The canonical word order puts holomorphic generators
first, each block ascending by index; every sign in this module is relative
to that order.  Where forms meet symmetric matrices (pair_index, generator,
contract, restrict_to_plane, repr) the generators are the n = g(g+1)/2
entries dt[a,b] = dt[b,a] of genus g, and any other n raises
DimensionMismatch.

Conventions that matter elsewhere:

* wedge multiplies block by block.  For each (k1 + k2)-subset U a split
  table lists every way to write U as a k1-subset and its complement, with
  the sign that sorts their concatenation back to U; moving dtbar[T1] past
  dt[S2] contributes the block-swap sign (-1)^{|T1||S2|}.  A (0, 0) factor
  is a scalar.  FormMatrix.det shares the minors of its leading rows, so a
  g x g determinant takes g (2^(g-1) - 1) entry wedges, not Leibniz's g g!.
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
import operator
from fractions import Fraction
from itertools import combinations, product
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

_SCALARS = (int, float, complex, Fraction, np.number)  # what forms add to and multiply by


def pair_index(g: int, a: int, b: int) -> int:
    if not (0 <= a < g and 0 <= b < g):
        raise DimensionMismatch(f"index pair ({a}, {b}) out of range for genus {g}")
    return int(sym_pair_table(g).index[a, b])


def _genus(n: int) -> int:
    """The genus g with n = g(g+1)/2, whose symmetric matrices pair with n generators."""
    g = (math.isqrt(8 * n + 1) - 1) // 2
    if sym_dim(g) != n:
        raise DimensionMismatch(f"{n} generators are the coordinates of no symmetric matrix")
    return g


@functools.cache
def _block_shape(n: int, p: int, q: int) -> tuple[int, int]:
    if p < 0 or q < 0:
        raise DimensionMismatch(f"bidegree {(p, q)} is negative")
    return math.comb(n, p), math.comb(n, q)


def _python_scalar(c):
    """A numpy scalar as its Python value, so its width (np.uint8 wraps) never types a block."""
    return c.item() if isinstance(c, np.generic) else c


def _common_dtype(*blocks: np.ndarray) -> np.dtype:
    """The dtype blocks combine in: numpy's if inexact, else the inexact ones', else object."""
    dtype = np.result_type(*blocks) if blocks else np.dtype(object)
    if dtype.kind not in "fc":  # exact blocks only, or object ones among inexact ones
        inexact = [b for b in blocks if b.dtype.kind in "fc"]
        dtype = np.result_type(*inexact) if inexact else np.dtype(object)
    return dtype


def _summed(first: dict, second: dict) -> dict:
    """The blocks of the sum of two block dicts, all in the dtype they combine in."""
    dtype = _common_dtype(*first.values(), *second.values())
    out = {k: b.astype(dtype, copy=False) for k, b in first.items()}
    for k, b in second.items():
        b = b.astype(dtype, copy=False)
        out[k] = out[k] + b if k in out else b
    return out


def _scaled(blocks: dict, c) -> dict:
    """Each block times the scalar c, in the dtype they combine in."""
    c = _python_scalar(c)
    dtype = _common_dtype(*blocks.values(), np.asarray(c))
    return {k: b.astype(dtype, copy=False) * c for k, b in blocks.items()}


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
    sign = np.array([-1 if (sum(s) - k1 * (k1 - 1) // 2) % 2 else 1 for s in splits])
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


@functools.cache
def _wedge_table(n: int, p1: int, q1: int, p2: int, q2: int):
    """(splits, anti_first, anti_rest) of a (p1, q1) by (p2, q2) wedge: splits[j] holds hol split
    j's (first, rest) and the anti weights times its sign and (-1)^(q1 p2), an exact fold."""
    hol_first, hol_rest, hol_sign = _split_table(n, p1, p2)
    anti_first, anti_rest, anti_sign = _split_table(n, q1, q2)
    weights = anti_sign * (-1) ** (q1 * p2)
    return (list(zip(hol_first.T.copy(), hol_rest.T.copy(), (s * weights for s in hol_sign))),
            anti_first, anti_rest)


def _wedge_block(a: np.ndarray, b: np.ndarray, n: int, dtype: np.dtype, p1: int, q1: int,
                 p2: int, q2: int) -> np.ndarray:
    """Block (p1 + p2, q1 + q2) of a ^ b in dtype, for a (p1, q1) block a and a (p2, q2) block b.

    out[U, V] sums a[S1, T1] * b[S2, T2] over the splits U = S1 + S2 and
    V = T1 + T2, signed by both merges and by the block swap of T1 past S2.
    """
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)  # products then run in place
    if p1 == q1 == 0 or p2 == q2 == 0:  # a scalar times a block; a stride-0 scalar rounds otherwise
        out = np.full(b.shape, a[0, 0], dtype) if p1 == q1 == 0 else a.copy()
        out *= b if p1 == q1 == 0 else np.full(a.shape, b[0, 0], dtype)
        out += 0  # a zero product is +0.0, as in a sum of splits
        return out
    splits, anti_first, anti_rest = _wedge_table(n, p1, q1, p2, q2)
    for j, (first, rest, weights) in enumerate(splits):
        terms = a.take(first, axis=0).take(anti_first, axis=1)
        terms *= b.take(rest, axis=0).take(anti_rest, axis=1)
        if j:
            out += terms @ weights
        else:  # the first split's sum is the output, and later ones add in place
            out = terms @ weights
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
    """Exterior form on n generators as dense per-bidegree blocks; immutable by convention."""

    __slots__ = ("n", "_blocks")
    __array_ufunc__ = None  # keep numpy from coercing us in mixed products

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        """Form with coefficient c at each mask pair (S, T); integers become Python ints."""
        self.n, self._blocks = operator.index(n), {}
        if self.n < 0:
            raise DimensionMismatch(f"generator count {n} is negative")
        if not terms:
            return
        entries: dict[tuple[int, int], list] = {}
        for (s, t), c in terms.items():
            if min(s, t) < 0 or (s | t) >> self.n:
                raise DimensionMismatch(f"mask ({s:#x}, {t:#x}) outside {self.n} generators")
            if c != 0:
                entries.setdefault((s.bit_count(), t.bit_count()), []).append((s, t, c))
        for (p, q), rows in entries.items():
            s, t, values = zip(*rows)
            values = [_python_scalar(c) for c in values]  # integers as Python ints, in object
            values = np.array(values, object if all(isinstance(c, int) for c in values) else None)
            block = self._blocks[(p, q)] = np.zeros(_block_shape(self.n, p, q), values.dtype)
            block[[_subsets(self.n, p)[2][m] for m in s],
                  [_subsets(self.n, q)[2][m] for m in t]] = values

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_blocks(cls, n: int, blocks: dict[tuple[int, int], np.ndarray]) -> "ExtForm":
        """Form with the given (p, q) -> C(n, p) x C(n, q) arrays, kept, not copied, if nonzero."""
        n, blocks = cls(n).n, {k: np.asarray(b) for k, b in blocks.items()}
        for (p, q), block in blocks.items():
            if block.shape != (shape := _block_shape(n, p, q)):
                raise DimensionMismatch(
                    f"block {(p, q)} has shape {block.shape}, expected {shape} for {n} generators")
        return cls._of(n, blocks)

    @classmethod
    def _of(cls, n: int, blocks: dict[tuple[int, int], np.ndarray], maybe_zero=None) -> "ExtForm":
        """from_blocks for arrays this module shaped.  Only the keys in maybe_zero (all by default)
        can hold a zero array: the rest are stored blocks, negated, conjugated or cast."""
        form = object.__new__(cls)
        form.n, form._blocks = n, {k: b for k, b in blocks.items()
                                   if (maybe_zero is not None and k not in maybe_zero) or b.any()}
        return form

    @classmethod
    def zero(cls, n: int) -> "ExtForm":
        return cls(n)

    @classmethod
    def scalar(cls, n: int, c) -> "ExtForm":
        form, c = cls(n), _python_scalar(c)
        if c != 0:  # an integer as a Python int, as the terms constructor stores it
            form._blocks[(0, 0)] = np.array([[c]], object if isinstance(c, int) else None)
        return form

    @classmethod
    def one(cls, n: int) -> "ExtForm":
        return cls.scalar(n, 1)

    @classmethod
    def generator(cls, n: int, a: int, b: int, conjugated: bool = False) -> "ExtForm":
        """dt[a,b], or dtbar[a,b] if conjugated, among the n = g(g+1)/2 generators of genus g."""
        bit = 1 << pair_index(_genus(n), a, b)
        return cls(n, {(0, bit) if conjugated else (bit, 0): 1})

    # -- bookkeeping --------------------------------------------------------

    def terms(self) -> dict[tuple[int, int], complex]:
        out = {}
        for (p, q), block in self._blocks.items():
            s_masks, t_masks = _subsets(self.n, p)[1], _subsets(self.n, q)[1]
            for i, j in zip(*np.nonzero(block)):
                out[(s_masks[i], t_masks[j])] = _python_scalar(block[i, j])
        return out

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(b)) for b in self._blocks.values())

    def coefficient(self, s: int, t: int) -> complex:
        p, q = s.bit_count(), t.bit_count()
        block = self._blocks.get((p, q))
        if block is None or s >> self.n or t >> self.n:
            return 0
        return _python_scalar(block[_subsets(self.n, p)[2][s], _subsets(self.n, q)[2][t]])

    @property
    def scalar_part(self) -> complex:
        return self.coefficient(0, 0)

    def block(self, p: int, q: int) -> np.ndarray:
        """The stored (p, q) array (read counterpart of from_blocks), or int zeros of its shape."""
        block = self._blocks.get((p, q))
        return np.zeros(_block_shape(self.n, p, q), dtype=int) if block is None else block

    def is_zero(self) -> bool:
        return not self._blocks

    def component(self, p: int, q: int) -> "ExtForm":
        block = self._blocks.get((p, q))
        return ExtForm._of(self.n, {} if block is None else {(p, q): block}, ())

    def bidegrees(self) -> set[tuple[int, int]]:
        return set(self._blocks)

    def is_even(self) -> bool:
        return all((p + q) % 2 == 0 for p, q in self.bidegrees())

    def norm_inf(self) -> float:
        return max((float(np.abs(b).max()) for b in self._blocks.values()), default=0.0)

    def max_coeff_diff(self, other: "ExtForm") -> float:
        return (self - other).norm_inf()

    def _check_count(self, other: "ExtForm"):
        if self.n != other.n:
            raise GenusMismatch(f"forms on {self.n} vs {other.n} generators")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = ExtForm.scalar(self.n, other)
        elif not isinstance(other, ExtForm):
            return NotImplemented
        self._check_count(other)
        return ExtForm._of(self.n, _summed(self._blocks, other._blocks),
                           self._blocks.keys() & other._blocks.keys())

    __radd__ = __add__

    def __neg__(self):
        return ExtForm._of(self.n, {k: -b for k, b in self._blocks.items()}, ())

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = ExtForm.scalar(self.n, other)
        return self + (-other) if isinstance(other, ExtForm) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other if isinstance(other, _SCALARS) else NotImplemented

    def __mul__(self, c):
        if not isinstance(c, _SCALARS):
            return NotImplemented
        return ExtForm._of(self.n, _scaled(self._blocks, c))

    __rmul__ = __mul__

    def __truediv__(self, c):
        c = _python_scalar(c)
        exact = isinstance(c, int) and _common_dtype(*self._blocks.values()) == object
        return self * (Fraction(1, c) if exact else 1.0 / c)

    # -- the algebra --------------------------------------------------------

    def wedge(self, other: "ExtForm", max_degree: int | None = None) -> "ExtForm":
        self._check_count(other)
        n, dtype = self.n, _common_dtype(*self._blocks.values(), *other._blocks.values())
        cap = 2 * n if max_degree is None else max_degree
        out: dict[tuple[int, int], np.ndarray] = {}
        for (p1, q1), a in self._blocks.items():
            for (p2, q2), b in other._blocks.items():
                key = (p1 + p2, q1 + q2)
                if key[0] > n or key[1] > n or sum(key) > cap:
                    continue
                block = _wedge_block(a, b, n, dtype, p1, q1, p2, q2)
                out[key] = out[key] + block if key in out else block
        return ExtForm._of(self.n, out)

    def conjugate(self) -> "ExtForm":
        return ExtForm._of(self.n, {
            (q, p): (-1 if p * q % 2 else 1) * b.T.conj()
            for (p, q), b in self._blocks.items()
        }, ())

    def contract(self, hol_vectors: Iterable, anti_vectors: Iterable) -> complex | np.ndarray:
        """Evaluate against symmetric-matrix tangent vectors.

        Components whose bidegree does not match (len(hol), len(anti))
        contribute zero.  One stack passed as both (restrict_to_plane) is
        validated once, and its anti minors are the conjugated hol minors.
        (T, k, g, g) arrays give T values, each its set's alone to the bit.
        """
        same, g = anti_vectors is hol_vectors, _genus(self.n)
        hol = as_sym_stack(hol_vectors, g)
        anti = hol if same else as_sym_stack(anti_vectors, g)
        if hol.shape[:-3] != anti.shape[:-3]:
            raise DimensionMismatch(f"stacks of {hol.shape[:-3]} and {anti.shape[:-3]} sets")
        values = np.zeros(hol.shape[:-3], dtype=complex)
        block = self._blocks.get((hol.shape[-3], anti.shape[-3]))
        if block is not None:
            hol_minors = _stack_minors(_coordinate_rows(hol, g))
            anti_minors = (hol_minors.conj() if same
                           else _stack_minors(_coordinate_rows(anti, g).conj()))
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
                u[p + q] = self.component(p, q) + u.get(p + q, ExtForm.zero(self.n))
        cap = 2 * self.n if max_degree is None else max_degree
        # s[d // 2] is the degree-d part; s_0 = 1 has the type of the scalar block
        s = [ExtForm._of(self.n, {(0, 0): np.ones((1, 1), self.block(0, 0).dtype)})]
        for d in range(2, cap + 1, 2):
            acc = ExtForm.zero(self.n)
            for i, u_i in u.items():
                if i <= d:
                    acc = acc + u_i.wedge(s[(d - i) // 2])
            s.append(-acc)
        return sum(s[1:], s[0])

    # -- display ------------------------------------------------------------

    def __repr__(self):
        try:  # generators are named by their matrix entry where n is a genus's count
            names = [str(pair) for pair in sym_index_pairs(_genus(self.n))]
        except DimensionMismatch:
            names = [f"[{i}]" for i in range(self.n)]
        bits = []
        for (s, t), c in sorted(self.terms().items()):
            gens = [f"dt{names[i]}" for i in range(self.n) if s >> i & 1]
            gens += [f"dtbar{names[i]}" for i in range(self.n) if t >> i & 1]
            bits.append(f"({c:.6g})*{'^'.join(gens) or '1'}")
        return f"ExtForm(n={self.n}, {' + '.join(bits) or '0'})"


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


def restrict_to_plane(a: ExtForm, planes: LinSubspace | np.ndarray) -> float | np.ndarray:
    """Value of the (k, k) component of a on k-planes of symmetric matrices.

    A plane arrives as Frobenius-orthonormal rows in flattened coordinates:
    one LinSubspace tagged "Sg" gives one float, and a (T, k, n) stack of
    bases gives T values, each its plane's alone to the bit.  The value is
    normalized against the plane's own unit volume form
    wedge_j (i/2) theta_j ^ conj(theta_j), built from the Frobenius-dual
    coframe of the basis, so the result does not depend on the basis choice
    and is real for real forms.
    """
    one = isinstance(planes, LinSubspace)
    if one and planes.ambient_tag != "Sg":
        raise DimensionMismatch(f"plane must live in Sg coordinates, got {planes.ambient_tag!r}")
    bases = planes.basis[None] if one else np.asarray(planes)
    if bases.ndim != 3:
        raise DimensionMismatch(f"a stack of plane bases is (T, k, n), got shape {bases.shape}")
    if bases.shape[-1] != a.n:
        raise DimensionMismatch(f"plane ambient dimension {bases.shape[-1]} is not {a.n} generators")
    k, g = bases.shape[-2], _genus(a.n)
    mats = vec_to_sym(bases, g)
    coords = _coordinate_rows(mats, g)
    # theta_j(t) = Frobenius <t, mats[j]> (entries weighted 2 off the diagonal), so
    # Theta[j, l] = theta_l(mats[j]) = <mats[j], mats[l]>, and the unit volume form
    # wedge_j (i/2) theta_j ^ conj(theta_j) is sign (i/2)^k |det Theta|^2 on the plane
    det = np.linalg.det((coords * sym_pair_table(g).frob) @ np.swapaxes(coords.conj(), -1, -2))
    sign = -1.0 if (k * (k - 1) // 2) % 2 else 1.0
    values = (a.contract(mats, mats) / (sign * (0.5j) ** k * det * np.conj(det))).real
    return float(values[0]) if one else values


# ---------------------------------------------------------------------------
# Matrices of forms.
# ---------------------------------------------------------------------------


class FormMatrix:
    """A g x g matrix of exterior forms on n generators, one array per bidegree (p, q).

    Each array has shape (g, g, C(n, p), C(n, q)), keeps its dtype, and [i, j]
    is the (p, q) block of entry (i, j); arrays are kept sorted by bidegree,
    and one zero in every entry is not stored.  Products wedge entries in
    factor order; traces and determinants assume even (commuting) entries, as
    are the curvature matrices of 2-forms this package builds.
    """

    __slots__ = ("g", "n", "_blocks")

    def __init__(self, n: int, entries):
        """Stack a square grid of ExtForm entries on n generators."""
        rows = [list(r) for r in entries]
        if any(len(r) != len(rows) for r in rows):
            raise DimensionMismatch("entries must form a square grid")
        if not all(isinstance(e, ExtForm) for r in rows for e in r):
            raise DimensionMismatch("entries must be ExtForm instances")
        for e in (e for r in rows for e in r if e.n != n):
            raise GenusMismatch(f"entry on {e.n} vs matrix on {n} generators")
        keys = sorted(set().union(*(e.bidegrees() for r in rows for e in r)))
        self.g, self.n = len(rows), operator.index(n)
        grids = {k: [[e.block(*k) for e in r] for r in rows] for k in keys}
        self._blocks = {k: np.array(grid, _common_dtype(*(b for r in grid for b in r)))
                        for k, grid in grids.items()}

    @classmethod
    def from_blocks(cls, g: int, n: int, blocks: dict[tuple[int, int], np.ndarray]) -> "FormMatrix":
        """g x g matrix of the given (p, q) -> (g, g, C(n, p), C(n, q)) arrays, kept, not copied."""
        m = cls.__new__(cls)
        m.g, m.n, m._blocks = operator.index(g), operator.index(n), {}
        for (p, q), block in sorted(blocks.items()):
            block = np.asarray(block)
            shape = (m.g, m.g, *_block_shape(m.n, p, q))
            if block.shape != shape:
                raise DimensionMismatch(f"block {(p, q)} has shape {block.shape}, not {shape}")
            if block.any():
                m._blocks[(p, q)] = block
        return m

    @classmethod
    def identity(cls, g: int, n: int) -> "FormMatrix":
        return cls.from_blocks(g, n, {(0, 0): np.eye(g, dtype=object).reshape(g, g, 1, 1)})

    def __getitem__(self, ij) -> ExtForm:
        """Entry (i, j), an ExtForm over views of this matrix's arrays."""
        i, j = ij
        return ExtForm._of(self.n, {k: b[i, j] for k, b in self._blocks.items()})

    def _check_shape(self, other: "FormMatrix"):
        if (other.g, other.n) != (self.g, self.n):
            raise GenusMismatch(f"{self.g} x {self.g} on {self.n} generators vs "
                                f"{other.g} x {other.g} on {other.n}")

    def matmul(self, other: "FormMatrix", max_degree: int | None = None) -> "FormMatrix":
        """Entry (i, j) adds entry (i, k) ^ entry (k, j) in place, over k, then bidegree pairs."""
        self._check_shape(other)
        g, n = self.g, self.n
        cap = 2 * n if max_degree is None else max_degree
        pairs = [((p1 + p2, q1 + q2), a, b, (p1, q1, p2, q2), a.any(axis=(2, 3)),
                  b.any(axis=(2, 3)))
                 for (p1, q1), a in self._blocks.items()
                 for (p2, q2), b in other._blocks.items()
                 if p1 + p2 <= n and q1 + q2 <= n and p1 + p2 + q1 + q2 <= cap]
        dtype = _common_dtype(*self._blocks.values(), *other._blocks.values())
        out = {key: np.zeros((g, g, *_block_shape(n, *key)), dtype) for key, *_ in pairs}
        for i, j, k in product(range(g), repeat=3):  # a wedge over stacked entries measured slower
            for key, a, b, degrees, a_live, b_live in pairs:
                if a_live[i, k] and b_live[k, j]:  # a zero block adds nothing
                    out[key][i, j] += _wedge_block(a[i, k], b[k, j], n, dtype, *degrees)
        return FormMatrix.from_blocks(g, n, out)

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        if not isinstance(other, FormMatrix):
            return NotImplemented
        self._check_shape(other)
        return FormMatrix.from_blocks(self.g, self.n, _summed(self._blocks, other._blocks))

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        return self + other.scale(-1) if isinstance(other, FormMatrix) else NotImplemented

    def scale(self, c) -> "FormMatrix":
        return FormMatrix.from_blocks(self.g, self.n, _scaled(self._blocks, c))

    def trace(self) -> ExtForm:
        return ExtForm._of(self.n, {  # the diagonal in order of i, as a loop adds it
            k: sum((b[i, i] for i in range(1, self.g)), b[0, 0]) for k, b in self._blocks.items()})

    def det(self, max_degree: int | None = None) -> ExtForm:
        """Determinant by Laplace expansion along rows, sharing minors; entries must commute.

        Row m adds the minor of rows 0..m on each (m + 1)-subset C of columns,
        keyed by bitmask: the sum over j of (-1)^(m + j) minor(C - C[j]) ^
        entry (m, C[j]), g (2^(g-1) - 1) entry wedges in all against Leibniz's
        g g!.  Zero entries and minors are skipped; max_degree cuts the entries
        first, as capped wedges drop those terms anyway.  det of 0 x 0 is 1.
        """
        g, n = self.g, self.n
        cap = 2 * n if max_degree is None else max_degree
        minors = {0: ExtForm.one(n)}
        for m in range(g):
            row = [ExtForm._of(n, {k: b[m, j] for k, b in self._blocks.items() if sum(k) <= cap})
                   for j in range(g)]
            for cols in combinations(range(g), m + 1):
                mask, acc = sum(1 << c for c in cols), ExtForm.zero(n)
                for j, c in enumerate(cols):
                    rest = minors.get(mask ^ (1 << c))
                    if rest is not None and not row[c].is_zero():
                        term = rest.wedge(row[c], max_degree) if m else row[c]
                        acc = acc - term if (m + j) % 2 else acc + term
                if not acc.is_zero():
                    minors[mask] = acc
        return minors.get((1 << g) - 1, ExtForm.zero(n))

    def max_coeff_diff(self, other: "FormMatrix") -> float:
        return max((float(np.abs(b).max()) for b in (self - other)._blocks.values()), default=0.0)
