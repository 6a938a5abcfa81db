"""Sparse exterior algebra on the coordinate 1-forms of a symmetric period matrix.

For genus g there are n = g(g+1)/2 generator pairs dt[a,b] / dtbar[a,b], one
per unordered index pair a <= b; dt[a,b] and dt[b,a] are the same generator
because the matrix is symmetric.  A form is a sparse sum of monomials

    coeff * dt[S] ^ dtbar[T]

encoded by bitmask pairs (S, T) over the n generator indices.  The canonical
word order puts holomorphic generators first, each block ascending by index;
every sign in this module is relative to that order.  Zero coefficients are
never stored.

Conventions that matter elsewhere:

* conjugate maps coeff * dt[S]^dtbar[T] to conj(coeff) * (-1)^{|S||T|}
  dt[T]^dtbar[S], the sign being the block swap back to canonical order.
* contract pairs dt[a,b] with the (a,b) entry of a holomorphic vector and
  dtbar[a,b] with the conjugated entry of an antiholomorphic vector; a
  decomposable (p,q) term against p + q vectors is the product of the two
  pairing determinants times the coefficient.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    GenusMismatch,
    NotUnitScalar,
    OddComponent,
)
from .linalg import LinSubspace, as_sym_array, sym_dim, sym_index_pairs, vec_to_sym


def pair_index(g: int, a: int, b: int) -> int:
    if not (0 <= a < g and 0 <= b < g):
        raise DimensionMismatch(f"index pair ({a}, {b}) out of range for genus {g}")
    if a > b:
        a, b = b, a
    # pairs (a, a), (a, a+1), ..., (a, g-1) start at offset a*g - a(a-1)/2
    return a * g - a * (a - 1) // 2 + (b - a)


def _merge_parity(x: int, y: int) -> int:
    """Parity of inversions when sorting the concatenation of sorted words x, y."""
    p = 0
    while y:
        low = y & -y
        p ^= (x >> low.bit_length()).bit_count() & 1
        y ^= low
    return p


class ExtForm:
    """Sparse exterior form; immutable by convention after construction."""

    __slots__ = ("g", "n", "_terms")
    __array_ufunc__ = None  # keep numpy from coercing us in mixed products

    def __init__(self, g: int, terms: dict[tuple[int, int], complex] | None = None):
        self.g = int(g)
        self.n = sym_dim(self.g)
        clean: dict[tuple[int, int], complex] = {}
        if terms:
            limit = 1 << self.n
            for (s, t), c in terms.items():
                if s >= limit or t >= limit:
                    raise DimensionMismatch(
                        f"mask ({s:#x}, {t:#x}) exceeds {self.n} generators"
                    )
                if c != 0:
                    clean[(s, t)] = complex(c)
        self._terms = clean

    # -- constructors -------------------------------------------------------

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
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, s: int, t: int) -> complex:
        return self._terms.get((s, t), 0.0 + 0.0j)

    @property
    def scalar_part(self) -> complex:
        return self._terms.get((0, 0), 0.0 + 0.0j)

    def is_zero(self) -> bool:
        return not self._terms

    def component(self, p: int, q: int) -> "ExtForm":
        picked = {
            k: c
            for k, c in self._terms.items()
            if k[0].bit_count() == p and k[1].bit_count() == q
        }
        return ExtForm(self.g, picked)

    def bidegrees(self) -> set[tuple[int, int]]:
        return {(s.bit_count(), t.bit_count()) for s, t in self._terms}

    def is_even(self) -> bool:
        return all((p + q) % 2 == 0 for p, q in self.bidegrees())

    def norm_inf(self) -> float:
        if not self._terms:
            return 0.0
        return max(abs(c) for c in self._terms.values())

    def max_coeff_diff(self, other: "ExtForm") -> float:
        self._check_genus(other)
        keys = self._terms.keys() | other._terms.keys()
        if not keys:
            return 0.0
        return max(abs(self.coefficient(*k) - other.coefficient(*k)) for k in keys)

    def allclose(self, other: "ExtForm", tol: float = 1e-12) -> bool:
        return self.max_coeff_diff(other) <= tol

    def _check_genus(self, other: "ExtForm"):
        if self.g != other.g:
            raise GenusMismatch(f"genus {self.g} vs {other.g}")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ExtForm.scalar(other, self.g)
        self._check_genus(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            v = out.get(k, 0.0) + c
            if v == 0:
                out.pop(k, None)
            else:
                out[k] = v
        return ExtForm(self.g, out)

    __radd__ = __add__

    def __neg__(self):
        return ExtForm(self.g, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ExtForm.scalar(other, self.g)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, c):
        if not isinstance(c, (int, float, complex, np.number)):
            return NotImplemented
        c = complex(c)
        return ExtForm(self.g, {k: v * c for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1.0 / c)

    # -- the algebra --------------------------------------------------------

    def wedge(self, other: "ExtForm", max_degree: int | None = None) -> "ExtForm":
        self._check_genus(other)
        out: dict[tuple[int, int], complex] = {}
        mp = _merge_parity
        items_a = [
            (s, t, c, s.bit_count() + t.bit_count(), t.bit_count() & 1)
            for (s, t), c in self._terms.items()
        ]
        items_b = [
            (s, t, c, s.bit_count() + t.bit_count(), s.bit_count() & 1)
            for (s, t), c in other._terms.items()
        ]
        if max_degree is None:
            # one bucket in the original order; no term exceeds degree 2n
            max_degree = 2 * self.n
            buckets = [(0, items_b)]
        else:
            # bucket the right factor by degree so over-cap pairs are never
            # visited; the pair loop is the hot path for large sparse forms
            by_degree: dict[int, list] = {}
            for item in items_b:
                by_degree.setdefault(item[3], []).append(item)
            buckets = list(by_degree.items())
        for s1, t1, c1, d1, t1par in items_a:
            for d2, bucket in buckets:
                if d1 + d2 > max_degree:
                    continue
                for s2, t2, c2, _, s2par in bucket:
                    if s1 & s2 or t1 & t2:
                        continue
                    parity = (t1par & s2par) ^ mp(s1, s2) ^ mp(t1, t2)
                    c = c1 * c2
                    if parity:
                        c = -c
                    key = (s1 | s2, t1 | t2)
                    v = out.get(key, 0.0) + c
                    if v == 0:
                        out.pop(key, None)
                    else:
                        out[key] = v
        return ExtForm(self.g, out)

    def __xor__(self, other):
        return self.wedge(other)

    def conjugate(self) -> "ExtForm":
        out: dict[tuple[int, int], complex] = {}
        for (s, t), c in self._terms.items():
            sign = -1.0 if (s.bit_count() & t.bit_count() & 1) else 1.0
            key = (t, s)
            v = out.get(key, 0.0) + sign * c.conjugate()
            if v != 0:
                out[key] = v
        return ExtForm(self.g, out)

    def contract(self, hol_vectors: Iterable, anti_vectors: Iterable) -> complex:
        """Evaluate against symmetric-matrix tangent vectors.

        Components whose bidegree does not match (len(hol), len(anti))
        contribute zero.
        """
        hol = [as_sym_array(v) for v in hol_vectors]
        anti = [as_sym_array(v) for v in anti_vectors]
        for v in hol + anti:
            if v.shape != (self.g, self.g):
                raise DimensionMismatch(
                    f"tangent vector shape {v.shape} does not match genus {self.g}"
                )
        pairs = sym_index_pairs(self.g)
        p_rows = np.array([[v[a, b] for (a, b) in pairs] for v in hol], dtype=complex)
        q_rows = np.array(
            [[np.conj(v[a, b]) for (a, b) in pairs] for v in anti], dtype=complex
        )
        p, q = len(hol), len(anti)
        det_cache_p: dict[int, complex] = {}
        det_cache_q: dict[int, complex] = {}

        def minor(rows, mask, cache, size):
            got = cache.get(mask)
            if got is None:
                cols = _mask_indices(mask)
                got = _small_det(rows[:, cols]) if size else 1.0 + 0.0j
                cache[mask] = got
            return got

        total = 0.0 + 0.0j
        for (s, t), c in self._terms.items():
            if s.bit_count() != p or t.bit_count() != q:
                continue
            total += c * minor(p_rows, s, det_cache_p, p) * minor(q_rows, t, det_cache_q, q)
        return total

    # -- inversion of even forms -------------------------------------------

    def inverse_even(self, max_degree: int | None = None) -> "ExtForm":
        """Multiplicative inverse of 1 + nilpotent, for even forms only.

        max_degree truncates the result (and all intermediate products) to
        total degree at most that value.
        """
        if not self.is_even():
            bad = sorted(pq for pq in self.bidegrees() if sum(pq) % 2)
            raise OddComponent(f"odd components present: {bad}")
        s0 = self.scalar_part
        if abs(s0 - 1.0) > 1e-12:
            raise NotUnitScalar(f"scalar component {s0} is not 1")
        u = self - ExtForm.scalar(s0, self.g)
        out = ExtForm.one(self.g)
        power = ExtForm.one(self.g)
        sign = 1.0
        # each factor of u raises total degree by at least 2
        for _ in range(self.n):
            power = power.wedge(u, max_degree=max_degree)
            if power.is_zero():
                break
            sign = -sign
            out = out + power * sign
        return out

    # -- display ------------------------------------------------------------

    def __repr__(self):
        if not self._terms:
            return f"ExtForm(g={self.g}, 0)"
        pairs = sym_index_pairs(self.g)
        bits = []
        for (s, t), c in sorted(self._terms.items()):
            gens = [f"dt{pairs[i]}" for i in _mask_indices(s)]
            gens += [f"dtbar{pairs[i]}" for i in _mask_indices(t)]
            word = "^".join(gens) if gens else "1"
            bits.append(f"({c:.6g})*{word}")
        return f"ExtForm(g={self.g}, " + " + ".join(bits) + ")"


def _mask_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _small_det(a: np.ndarray) -> complex:
    k = a.shape[0]
    if k == 0:
        return 1.0 + 0.0j
    if k == 1:
        return complex(a[0, 0])
    if k == 2:
        return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if k == 3:
        return complex(
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
    return complex(np.linalg.det(a))


def wedge(a: ExtForm, b: ExtForm, max_degree: int | None = None) -> ExtForm:
    return a.wedge(b, max_degree=max_degree)


def conjugate(a: ExtForm) -> ExtForm:
    return a.conjugate()


def contract(a: ExtForm, hol_vectors: Iterable, anti_vectors: Iterable) -> complex:
    return a.contract(hol_vectors, anti_vectors)


def inverse_even(a: ExtForm, max_degree: int | None = None) -> ExtForm:
    return a.inverse_even(max_degree=max_degree)


def restrict_to_plane(a: ExtForm, y: LinSubspace) -> float:
    """Value of the (k, k) component of a on a k-plane of symmetric matrices.

    The plane arrives as Frobenius-orthonormal rows in flattened coordinates.
    The value is normalized against the plane's own unit volume form
    wedge_j (i/2) theta_j ^ conj(theta_j), built from the Frobenius-dual
    coframe of the basis, so the result does not depend on the basis choice
    and is real for real forms.
    """
    if y.ambient_tag != "Sg":
        raise DimensionMismatch(f"plane must live in Sg coordinates, got {y.ambient_tag!r}")
    n = y.ambient_dim
    g = a.g
    if n != sym_dim(g):
        raise DimensionMismatch(
            f"plane ambient dimension {n} does not match genus {g}"
        )
    k = y.dim
    mats = [vec_to_sym(row, g) for row in y.basis]
    num = a.contract(mats, mats)
    den = _volume_contraction(g, mats)
    return float((num / den).real)


def _volume_contraction(g: int, mats: list[np.ndarray]) -> complex:
    """Contract wedge_j (i/2) theta_j ^ conj(theta_j) against the same vectors.

    theta_j is the Frobenius dual of mats[j]: entries weighted 2 off the
    diagonal so theta_j(t) equals the Frobenius inner product <t, mats[j]>.
    """
    pairs = sym_index_pairs(g)
    k = len(mats)
    # theta matrix: Theta[j, l] = theta_l(mats[j]) = Frobenius <mats[j], mats[l]>
    theta = np.empty((k, k), dtype=complex)
    for j in range(k):
        for l in range(k):
            weights = [(1.0 if a == b else 2.0) for (a, b) in pairs]
            theta[j, l] = sum(
                w * mats[j][a, b] * np.conj(mats[l][a, b])
                for w, (a, b) in zip(weights, pairs)
            )
    det = _small_det(theta)
    sign = -1.0 if (k * (k - 1) // 2) % 2 else 1.0
    return sign * (0.5j) ** k * det * np.conj(det)


# ---------------------------------------------------------------------------
# Matrices of forms.
# ---------------------------------------------------------------------------


class FormMatrix:
    """A g x g matrix whose entries are exterior forms.

    Products use the wedge on entries and preserve factor order.  Determinants
    and traces are only meaningful when entries are even (they then commute),
    as they are for the curvature matrices of 2-forms this package builds.
    """

    __slots__ = ("g", "entries")

    def __init__(self, g: int, entries):
        self.g = int(g)
        rows = list(entries)
        if len(rows) != g or any(len(r) != g for r in rows):
            raise DimensionMismatch(f"entries must form a {g} x {g} grid")
        for r in rows:
            for e in r:
                if not isinstance(e, ExtForm):
                    raise DimensionMismatch("entries must be ExtForm instances")
                if e.g != g:
                    raise GenusMismatch(f"entry genus {e.g} vs matrix genus {g}")
        self.entries = [list(r) for r in rows]

    @classmethod
    def identity(cls, g: int) -> "FormMatrix":
        return cls(g, [[ExtForm.one(g) if i == j else ExtForm.zero(g) for j in range(g)]
                       for i in range(g)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def matmul(self, other: "FormMatrix", max_degree: int | None = None) -> "FormMatrix":
        g = self.g
        if other.g != g:
            raise GenusMismatch(f"genus {g} vs {other.g}")
        out = []
        for i in range(g):
            row = []
            for j in range(g):
                acc = ExtForm.zero(g)
                for k in range(g):
                    acc = acc + self.entries[i][k].wedge(
                        other.entries[k][j], max_degree=max_degree
                    )
                row.append(acc)
            out.append(row)
        return FormMatrix(g, out)

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        if self.g != other.g:
            raise GenusMismatch(f"genus {self.g} vs {other.g}")
        return FormMatrix(
            self.g,
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.g)]
                for i in range(self.g)
            ],
        )

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        return self + other.scale(-1.0)

    def scale(self, c) -> "FormMatrix":
        return FormMatrix(
            self.g, [[e * c for e in row] for row in self.entries]
        )

    def trace(self) -> ExtForm:
        acc = ExtForm.zero(self.g)
        for i in range(self.g):
            acc = acc + self.entries[i][i]
        return acc

    def det(self, max_degree: int | None = None) -> ExtForm:
        """Leibniz determinant; assumes entries commute (even forms)."""
        import itertools

        g = self.g
        acc = ExtForm.zero(g)
        for perm in itertools.permutations(range(g)):
            sign = _perm_sign(perm)
            prod = ExtForm.one(g)
            for i in range(g):
                prod = prod.wedge(self.entries[i][perm[i]], max_degree=max_degree)
                if prod.is_zero():
                    break
            acc = acc + prod * sign
        return acc

    def max_coeff_diff(self, other: "FormMatrix") -> float:
        return max(
            self.entries[i][j].max_coeff_diff(other.entries[i][j])
            for i in range(self.g)
            for j in range(self.g)
        )


def _perm_sign(perm) -> float:
    sign = 1.0
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
