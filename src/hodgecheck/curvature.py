"""Curvature of the Hodge bundle and its dual over the Siegel upper half space.

With y = Im(tau), the dual bundle carries the metric h = y^{-1} and the Hodge
bundle itself the metric y.  Writing dt / dtbar for the matrices of coordinate
1-forms (entry (i, j) is the generator for the unordered pair {i, j}), the
Chern connection curvature dbar(h^{-1} dh) evaluates in closed form to

    omega_dual  = -(1/4) dt    y^{-1} dtbar y^{-1}
    omega_hodge = -(1/4) y^{-1} dtbar y^{-1} dt

with wedge products between the 1-form factors and ordinary products with the
scalar matrices, evaluated once as coefficient arrays by curvature_array.
Both are validated against a finite-difference evaluation
of dbar(h^{-1} dh) itself (see curvature_fd), which uses the convention that
dbar acts from the left: for a matrix A of functions and the (1, 0)-form
A dz, the coefficient of dz ^ dzbar in dbar(A dz) is -dbar A.

The normalized curvature is G = omega / (2 pi i); the pairing form for a
fiber vector v of the dual bundle is

    <G v, v> = (i / 8 pi) * (vbar' y^{-1}) dt y^{-1} dtbar (y^{-1} v)

a real (1, 1)-form (equal to its own conjugate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameters, DimensionMismatch, ZeroVector
from .extform import ExtForm, FormMatrix
from .linalg import SiegelPoint, sym_basis, sym_dim, sym_pair_table


# each bundle's metric as a function of Im(tau), one matrix or a stack
METRICS = {
    "dual": lambda y: np.linalg.inv(y).astype(complex),
    "hodge": lambda y: y.astype(complex),
}


def _fold_projector(g: int) -> np.ndarray:
    """P[alpha, i, j] = 1 when the ordered entry (i, j) folds to generator alpha."""
    return (sym_pair_table(g).index == np.arange(sym_dim(g))[:, None, None]).astype(float)


def curvature_array(tau: SiegelPoint, bundle: str = "dual") -> np.ndarray:
    """The closed-form curvature as coefficients, shape (g, g, n, n).

    C[i, j, a, b] is the coefficient of dt[a] ^ dtbar[b] in entry (i, j) of
    omega.  Every other view of the curvature is read off this array.
    """
    if bundle not in METRICS:
        raise BadParameters(f"unknown bundle {bundle!r}, expected one of {sorted(METRICS)}")
    p = _fold_projector(tau.g)
    b = np.linalg.inv(tau.y)
    if bundle == "dual":
        return -0.25 * np.einsum("aik,kl,blm,mj->ijab", p, b, p, b)
    # dtbar ^ dt = -dt ^ dtbar flips the sign of the hodge product
    return 0.25 * np.einsum("ik,bkl,lm,amj->ijab", b, p, b, p)


def curvature_matrix(tau: SiegelPoint, bundle: str = "dual") -> FormMatrix:
    """omega as a matrix of (1, 1)-forms whose (1, 1) array is curvature_array as it stands."""
    return FormMatrix.from_blocks(tau.g, sym_dim(tau.g), {(1, 1): curvature_array(tau, bundle)})


@dataclass(frozen=True)
class CurvaturePackage:
    """Point data for the dual Hodge bundle: metric and normalized curvature.

    gm is G = omega / (2 pi i) in curvature_array's layout, and g_normalized
    the matrix of (1, 1)-forms whose (1, 1) array is gm itself.
    """

    tau: SiegelPoint
    h: np.ndarray = field(init=False)
    gm: np.ndarray = field(init=False)
    g_normalized: FormMatrix = field(init=False)

    def __post_init__(self):
        h = METRICS["dual"](self.tau.y)
        gm = curvature_array(self.tau, "dual") * (1.0 / (2j * np.pi))
        for a in (h, gm):
            a.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "gm", gm)
        object.__setattr__(self, "g_normalized",
                           FormMatrix.from_blocks(self.g, sym_dim(self.g), {(1, 1): gm}))

    @property
    def g(self) -> int:
        return self.tau.g


def curvature_package(tau: SiegelPoint) -> CurvaturePackage:
    return CurvaturePackage(tau)


# ---------------------------------------------------------------------------
# Finite-difference oracle for dbar(h^{-1} dh).
# ---------------------------------------------------------------------------

def curvature_fd(tau: SiegelPoint, metric: str = "dual", step: float = 1e-5) -> np.ndarray:
    """Finite-difference curvature coefficients in curvature_array's layout.

    Entry [i, j, alpha, beta] is the coefficient of dz_alpha ^ dzbar_beta in
    entry (i, j) of dbar(h^{-1} dh), with alpha and beta running over the
    generator indices of the symmetric coordinates.  Central differences
    throughout; the outer dbar differentiates the connection matrix function
    h^{-1} d_alpha h, moving every entry of tau that folds to alpha.  The 16 n^2
    stencil points are one array for one metric call and one stacked solve;
    each entry is the same to the bit as a loop over (alpha, beta) gives.
    """
    metric_fn = METRICS[metric]
    p = _fold_projector(tau.g)
    moves = np.stack([step * p, 1j * step * p])  # real, imaginary move along each generator

    def stencil(at: np.ndarray) -> np.ndarray:  # at +- moves, axes (sign, part, generator) first
        m = moves.reshape(moves.shape[:2] + (1,) * (at.ndim - 2) + moves.shape[2:])
        return np.stack([at + m, at - m])

    outer = stencil(tau.tau)  # axes (sign, part, beta)
    h = metric_fn(stencil(outer).imag)  # axes (sign, part, alpha, sign, part, beta)
    d = (h[0] - h[1]) / (2 * step)
    dh = (d[0] - 1j * d[1]) / 2
    conn = np.linalg.solve(metric_fn(outer.imag)[None], dh)  # h^{-1} d_alpha h at each outer point
    d = (conn[:, 0] - conn[:, 1]) / (2 * step)
    dbar = (d[:, 0] + 1j * d[:, 1]) / 2  # axes (alpha, beta, i, j)
    return -dbar.transpose(2, 3, 0, 1)


def fd_relative_error(tau: SiegelPoint, metric: str = "dual", step: float = 1e-5) -> float:
    fd = curvature_fd(tau, metric=metric, step=step)
    return float(np.max(np.abs(curvature_array(tau, metric) - fd)) / np.max(np.abs(fd)))


# ---------------------------------------------------------------------------
# Pairing forms.
# ---------------------------------------------------------------------------


def curvature_pairing_form(pkg: CurvaturePackage, v) -> ExtForm:
    """The (1, 1)-form <G v, v> for a fiber vector v of the dual bundle.

    Scales like |c|^2 in v and equals its own conjugate.  The one-vector case
    of pairing_matrix_batch.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    g = pkg.g
    if v.shape != (g,):
        raise DimensionMismatch(f"vector shape {v.shape} does not match genus {g}")
    if not v.any():
        raise ZeroVector("pairing form needs a nonzero fiber vector")
    return ExtForm.from_blocks(sym_dim(g), {(1, 1): pairing_matrix_batch(pkg, v[None])[0]})


def pairing_matrix_batch(pkg: CurvaturePackage, v_batch: np.ndarray) -> np.ndarray:
    """Coefficient matrices of <G v, v> for a batch of fiber vectors.

    Row n of the result satisfies
    <G v_n, v_n> = sum K[n, a, b] dt[a] ^ dtbar[b].
    """
    return np.einsum("ni,ijab,nj->nab", np.conj(v_batch) @ pkg.h, pkg.gm, v_batch)


def line_hermitian_form(tau: SiegelPoint, w) -> np.ndarray:
    """Hermitian form (a, b) -> <a w, b w>_dual / <w, w>_hodge on symmetric maps.

    Expressed in the Frobenius-orthonormal basis of symmetric matrices; the
    result is positive semidefinite of rank at most g and invariant under
    rescaling w.
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    g = tau.g
    if w.shape != (g,):
        raise DimensionMismatch(f"vector shape {w.shape} does not match genus {g}")
    if not w.any():
        raise ZeroVector("the form is undefined on the zero vector")
    h = METRICS["dual"](tau.y)
    basis = sym_basis(g)
    mw = np.einsum("agh,h->ga", basis, w)  # column a is basis[a] @ w
    denom = np.real(np.conj(w) @ METRICS["hodge"](tau.y) @ w)
    return np.einsum("gb,gh,ha->ba", np.conj(mw), h, mw) / denom


def fundamental_matrix_batch(l_batch: np.ndarray, g: int) -> np.ndarray:
    """Coefficient matrices of the fundamental forms of a batch of Hermitian forms.

    Row n is K[n, a, b] = (i/2) H_n(E'_a, E'_b) with E' the plain entry-basis
    matrices, so the form is sum K[n, a, b] dt_a ^ dtbar_b.
    """
    n = l_batch.shape[1]
    if n != sym_dim(g):
        raise DimensionMismatch(f"forms have size {n}, genus {g} needs {sym_dim(g)}")
    frob = sym_pair_table(g).frob
    scale = 0.5j * np.sqrt(np.outer(frob, frob))
    return scale[None, :, :] * np.swapaxes(l_batch, 1, 2)


def fundamental_form(l_matrix: np.ndarray, g: int) -> ExtForm:
    """(1, 1)-form of a Hermitian form on symmetric maps, positive convention.

    The one-row case of fundamental_matrix_batch, for H given in the
    Frobenius-orthonormal basis.  For H = line_hermitian_form(tau, w) this
    equals 4 pi <G v, v> / <v, v> at the matched v = Im(tau) conj(w).
    """
    n = sym_dim(g)
    l_matrix = np.asarray(l_matrix, dtype=complex)
    if l_matrix.shape != (n, n):
        raise DimensionMismatch(f"form matrix shape {l_matrix.shape}, expected ({n}, {n})")
    return ExtForm.from_blocks(n, {(1, 1): fundamental_matrix_batch(l_matrix[None], g)[0]})


def matched_dual_vector(tau: SiegelPoint, w) -> np.ndarray:
    """The dual-bundle vector v = Im(tau) conj(w) matched to a Hodge vector w."""
    return tau.y @ np.conj(np.asarray(w, dtype=complex).reshape(-1))
