"""Core numeric linear algebra: domain points, symmetric maps, subspaces.

Tolerances follow two conventions.  Symmetry of inputs is absolute (1e-12 on
the raw entries, then the input is symmetrized so stored matrices equal their
transpose exactly).  Rank decisions are relative: a singular value counts as
nonzero when it exceeds ``tol`` times the largest singular value, which makes
rank invariant under overall scaling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDimension,
    BadParameters,
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
)

SYMMETRY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-12
SPAN_TOL = 1e-12  # relative singular-value cutoff below which a spanning row is dependent
DEFAULT_RANK_TOL = 1e-10


def _as_square(m, name="matrix") -> np.ndarray:
    a = np.atleast_2d(np.asarray(m))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _symmetrized(a: np.ndarray, what: str) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack, after a check."""
    t = np.swapaxes(a, -1, -2)
    asym = np.max(np.abs(a - t)) if a.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"{what} deviates from symmetry by {asym:.3e}")
    out = (a + t) / 2
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SiegelPoint:
    """A symmetric complex g x g matrix with positive definite imaginary part."""

    tau: np.ndarray
    g: int = field(init=False)

    def __post_init__(self):
        a = _as_square(self.tau, "tau").astype(complex)
        a = _symmetrized(a, "tau")
        w = np.linalg.eigvalsh(a.imag)
        if w[0] <= 0:
            raise NotPositiveDefinite(
                f"imaginary part has minimum eigenvalue {w[0]:.3e}"
            )
        object.__setattr__(self, "tau", a)
        object.__setattr__(self, "g", a.shape[0])

    @property
    def x(self) -> np.ndarray:
        return self.tau.real

    @property
    def y(self) -> np.ndarray:
        return self.tau.imag


def make_siegel_point(x_re, y_im) -> SiegelPoint:
    """Assemble x_re + i*y_im, validating symmetry and positivity."""
    x = _as_square(x_re, "x_re").astype(float)
    y = _as_square(y_im, "y_im").astype(float)
    if x.shape != y.shape:
        raise DimensionMismatch(
            f"real and imaginary parts differ in shape: {x.shape} vs {y.shape}"
        )
    return SiegelPoint(x + 1j * y)


@dataclass(frozen=True)
class SymMap:
    """A symmetric complex g x g matrix, viewed as a map from a g-space to its dual."""

    m: np.ndarray
    g: int = field(init=False)

    def __post_init__(self):
        a = _as_square(self.m, "symmetric map").astype(complex)
        a = _symmetrized(a, "symmetric map")
        object.__setattr__(self, "m", a)
        object.__setattr__(self, "g", a.shape[0])

    def __call__(self, v) -> np.ndarray:
        return self.m @ np.asarray(v, dtype=complex)


def as_sym_array(x) -> np.ndarray:
    """Accept a SymMap or an array-like; return the validated symmetric array."""
    if isinstance(x, SymMap):
        return x.m
    return SymMap(np.asarray(x)).m


def as_sym_stack(xs, g: int) -> np.ndarray:
    """Accept a (..., k, g, g) array or SymMaps and array-likes; return one validated stack.

    Symmetry is checked once for the whole stack, not once per matrix.
    """
    if isinstance(xs, np.ndarray) and xs.ndim > 3:
        return as_sym_stack(xs.reshape(-1, *xs.shape[-2:]), g).reshape(xs.shape)
    mats = [x.m if isinstance(x, SymMap) else np.asarray(x) for x in xs]
    for m in mats:
        if m.shape != (g, g):
            raise DimensionMismatch(f"tangent vector shape {m.shape} does not match genus {g}")
    return _symmetrized(np.array(mats, dtype=complex).reshape(len(mats), g, g),
                        "symmetric map stack")


# ---------------------------------------------------------------------------
# Flattening of symmetric matrices to coordinates.
#
# Coordinates run over index pairs (a, b) with a <= b in np.triu_indices
# order; other modules read the layout from sym_pair_table.  Off-diagonal
# entries are weighted by sqrt(2) so the standard Hermitian inner product of
# two coordinate vectors equals the Frobenius inner product of the matrices.
# ---------------------------------------------------------------------------


class SymPairTable(NamedTuple):
    """Read-only index arrays of the coordinate pairs of one genus."""

    rows: np.ndarray   # (n,) row a of pair i
    cols: np.ndarray   # (n,) column b >= a of pair i
    frob: np.ndarray   # (n,) Frobenius weight: 1 on the diagonal, 2 off it
    root: np.ndarray   # (n,) isometric weight sqrt(frob)
    index: np.ndarray  # (g, g) index of the unordered pair {a, b}


@functools.cache
def sym_pair_table(g: int) -> SymPairTable:
    rows, cols = np.triu_indices(g)
    frob = np.where(rows == cols, 1.0, 2.0)
    index = np.empty((g, g), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    table = SymPairTable(rows, cols, frob, np.sqrt(frob), index)
    for a in table:
        a.setflags(write=False)
    return table


def sym_index_pairs(g: int) -> list[tuple[int, int]]:
    t = sym_pair_table(g)
    return list(zip(t.rows.tolist(), t.cols.tolist()))


def sym_dim(g: int) -> int:
    return g * (g + 1) // 2


def sym_to_vec(m) -> np.ndarray:
    """Isometric coordinates of a symmetric matrix, or of each in a stack.

    m is a SymMap, a g x g array or a (..., g, g) stack; the result has
    shape (n,) or (..., n) with n = sym_dim(g).
    """
    a = m.m if isinstance(m, SymMap) else np.atleast_2d(np.asarray(m))
    if a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"symmetric map must be square, got shape {a.shape}")
    t = sym_pair_table(a.shape[-1])
    return _symmetrized(a.astype(complex), "symmetric map")[..., t.rows, t.cols] * t.root


def vec_to_sym(v, g: int) -> np.ndarray:
    """Symmetric g x g matrix of coordinates v, shape (n,) or a (..., n) stack."""
    v = np.asarray(v, dtype=complex)
    n = sym_dim(g)
    if v.shape[-1:] != (n,):
        raise DimensionMismatch(f"coordinate vector has shape {v.shape}, expected (..., {n})")
    t = sym_pair_table(g)
    out = np.zeros(v.shape[:-1] + (g, g), dtype=complex)
    out[..., t.rows, t.cols] = out[..., t.cols, t.rows] = v / t.root
    return out


def sym_basis(g: int) -> np.ndarray:
    """Stack of Frobenius-orthonormal symmetric basis matrices, shape (n, g, g)."""
    return vec_to_sym(np.eye(sym_dim(g)), g)


# ---------------------------------------------------------------------------
# Subspaces.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinSubspace:
    """A subspace given by orthonormal rows in fixed ambient coordinates.

    ambient_tag marks which ambient space the coordinates refer to, e.g. "V"
    for the g-dimensional fiber, "Sg" for flattened symmetric matrices, "R2g"
    for the real symplectic model.  Operations refuse to mix tags.
    """

    basis: np.ndarray
    ambient_tag: str

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=complex))
        if b.shape[0] > b.shape[1]:
            raise BadDimension(
                f"{b.shape[0]} rows cannot be independent in dimension {b.shape[1]}"
            )
        _check_orthonormal(b)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_spanning(cls, rows, ambient_tag: str) -> "LinSubspace":
        """Orthonormalize spanning rows, dropping dependent ones."""
        a = np.atleast_2d(np.asarray(rows, dtype=complex))
        _, s, vh = np.linalg.svd(a, full_matrices=False)
        return cls(vh[:int(np.sum(s > SPAN_TOL * s[:1]))], ambient_tag)

    def projector(self) -> np.ndarray:
        return self.basis.T @ self.basis.conj()


def _orthonormal_stack(rows: np.ndarray) -> np.ndarray:
    """LinSubspace.from_spanning's bases, to the bit, for a (..., k, n) stack of spanning sets.

    A set with dependent rows raises BadDimension, as the stack cannot hold
    the smaller subspace that from_spanning returns for it.
    """
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if np.any(np.sum(s > SPAN_TOL * s[..., :1], axis=-1) < rows.shape[-2]):
        raise BadDimension("a spanning set of the stack has dependent rows")
    _check_orthonormal(vh)
    return vh


def _check_orthonormal(b: np.ndarray) -> None:
    """Raise BadDimension unless the rows of b, or of each matrix of a stack, are orthonormal."""
    dev = np.max(np.abs(b @ np.swapaxes(b.conj(), -1, -2) - np.eye(b.shape[-2])), initial=0.0)
    if dev > ORTHONORMALITY_TOL * 10:
        raise BadDimension(f"basis rows not orthonormal (deviation {dev:.3e})")


def subspace_distance(a: LinSubspace, b: LinSubspace) -> float:
    """Largest principal-angle sine, realized as the gap between projectors.

    Returns a value in [0, 1]; 0 only for equal subspaces of equal dimension.
    """
    if a.ambient_dim != b.ambient_dim or a.ambient_tag != b.ambient_tag:
        raise DimensionMismatch(
            f"subspaces live in different ambients: "
            f"({a.ambient_tag}, {a.ambient_dim}) vs ({b.ambient_tag}, {b.ambient_dim})"
        )
    return float(np.linalg.norm(a.projector() - b.projector(), 2))


def rank_with_kernel(m, tol: float = DEFAULT_RANK_TOL):
    """Rank, kernel and image of a complex matrix, by SVD.

    The threshold is relative: singular values above tol * sigma_max count.
    Returns (rank, kernel, image) with kernel a subspace of the domain and
    image a subspace of the codomain, both tagged "V".
    """
    if tol <= 0:
        raise BadParameters(f"rank tolerance must be positive, got {tol}")
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    u, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > tol * s[:1]))
    kernel = LinSubspace(np.conj(vh[rank:]), "V")
    image = LinSubspace(u[:, :rank].T, "V")
    return rank, kernel, image
