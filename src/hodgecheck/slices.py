"""Affine slices of the period domain and their real-symplectic picture.

A slice is the set of domain points agreeing with a base point on a fixed
fiber subspace W: members differ from the base by symmetric maps killing W,
so the slice is affine with tangent space {M : M W = 0} everywhere and
dimension c(c+1)/2 for c the codimension of W.

Each domain point M also defines a complex structure on R^{2g} through the
real-linear chart

    f_M(x) = (Re x, -Re(M x)),

which is compatible with the standard symplectic form.  On W every member
acts like the base point, so the embedded real image f_M(W) and the induced
complex structure on it do not depend on the member at all.  The checks in
this module measure exactly that member independence, along with the
algebraic identities J^2 = -1, J preserving the symplectic form, and the
positivity that makes J a point of the domain rather than a mere complex
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotInWperp, NotPositiveDefinite
from .linalg import (
    LinSubspace,
    SiegelPoint,
    as_sym_array,
    subspace_distance,
    vec_to_sym,
)
from .report import CheckRecord, floor_check, passing
from .sampling import derive_rng
from .symmaps import wperp

WPERP_MEMBERSHIP_TOL = 1e-10


@dataclass(frozen=True)
class AffineSlice:
    """Affine family {base + N : N W = 0} inside the domain."""

    tau0: SiegelPoint
    w: LinSubspace
    directions: LinSubspace = field(init=False)

    def __post_init__(self):
        if self.w.ambient_tag != "V":
            raise DimensionMismatch(
                f"slice needs a fiber subspace, got tag {self.w.ambient_tag!r}")
        if self.w.ambient_dim != self.tau0.g:
            raise DimensionMismatch(
                f"subspace of dimension-{self.w.ambient_dim} fiber "
                f"at a genus-{self.tau0.g} point")
        object.__setattr__(self, "directions", wperp(self.w))

    @property
    def dim(self) -> int:
        return self.directions.dim

    def direction_matrix(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if coeffs.shape[0] != self.dim:
            raise DimensionMismatch(
                f"{coeffs.shape[0]} coefficients for a {self.dim}-dimensional slice")
        return vec_to_sym(coeffs @ self.directions.basis, self.tau0.g)


def slice_member(sl: AffineSlice, direction) -> SiegelPoint | None:
    """Base point moved by a direction; the direction must kill W.

    direction is either a coefficient vector for the slice's direction basis
    or a symmetric matrix; an asymmetric one raises NotSymmetric, as every
    symmetric input does.  A member whose imaginary part is not positive
    definite is outside the domain and returned as None rather than raised,
    so sweeps can step over it.
    """
    g = sl.tau0.g
    direction = np.asarray(direction, dtype=complex)
    if direction.ndim == 1:
        n = sl.direction_matrix(direction)
    else:
        if direction.shape != (g, g):
            raise DimensionMismatch(f"direction shape {direction.shape} for genus {g}")
        n = as_sym_array(direction)
    if sl.w.dim:
        # members must agree with the base on W
        residual = float(np.max(np.abs(n @ sl.w.basis.T)))
        scale = max(1.0, float(np.max(np.abs(n))))
        if residual > WPERP_MEMBERSHIP_TOL * scale:
            raise NotInWperp(
                f"direction moves the pinned subspace by {residual:.3e}")
    try:
        return SiegelPoint(sl.tau0.tau + n)
    except NotPositiveDefinite:
        return None


def random_slice_member(sl: AffineSlice, rng) -> SiegelPoint:
    """Random member, halving a unit step until it stays inside the domain."""
    coeffs = (rng.standard_normal(sl.dim) + 1j * rng.standard_normal(sl.dim))
    step = 1.0
    while step > 1e-6:
        member = slice_member(sl, coeffs * step)
        if member is not None:
            return member
        step *= 0.5
    return sl.tau0  # zero step is always inside


# ---------------------------------------------------------------------------
# Real-symplectic picture.
# ---------------------------------------------------------------------------


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, SiegelPoint):
        return m.tau
    return np.asarray(m, dtype=complex)


def real_embedding(m, x) -> np.ndarray:
    """(Re x, -Re(M x)) for vectors x in the fiber; columns map to columns."""
    mm = _as_matrix(m)
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real, -(mm @ x).real], axis=0)


def embedding_matrix(m) -> np.ndarray:
    """Matrix of the real chart on (Re x, Im x) coordinates."""
    mm = _as_matrix(m)
    g = mm.shape[0]
    out = np.zeros((2 * g, 2 * g))
    out[:g, :g] = np.eye(g)
    out[g:, :g] = -mm.real
    out[g:, g:] = mm.imag
    return out


def multiplication_by_i(g: int) -> np.ndarray:
    k = np.zeros((2 * g, 2 * g))
    k[:g, g:] = -np.eye(g)
    k[g:, :g] = np.eye(g)
    return k


def complex_structure(m) -> np.ndarray:
    """Complex structure on R^{2g} transported through the real chart."""
    f = embedding_matrix(m)
    g = f.shape[0] // 2
    return f @ multiplication_by_i(g) @ np.linalg.inv(f)


def standard_symplectic(g: int) -> np.ndarray:
    s = np.zeros((2 * g, 2 * g))
    s[:g, g:] = np.eye(g)
    s[g:, :g] = -np.eye(g)
    return s


def embedded_subspace(m, w: LinSubspace) -> LinSubspace:
    """Real span of the chart image of a complex fiber subspace."""
    if w.ambient_tag != "V":
        raise DimensionMismatch(f"expected a fiber subspace, got {w.ambient_tag!r}")
    cols = w.basis.T  # complex basis vectors as columns
    real_rows = np.concatenate(
        [real_embedding(m, cols).T, real_embedding(m, 1j * cols).T], axis=0)
    return LinSubspace.from_spanning(real_rows.real.astype(float), "R2g")


# ---------------------------------------------------------------------------
# The member-independence check.
# ---------------------------------------------------------------------------


def check_embedded_subspace_invariance(tau0: SiegelPoint, w: LinSubspace,
                                       n_members: int = 10, seed: int = 0,
                                       tol: float = 1e-10) -> list[CheckRecord]:
    """Everything about f_M(W) that should not depend on the member M.

    Per member: the moved direction kills W; the real image subspace matches
    the base image; the transported complex structure squares to -1,
    preserves the standard symplectic form, tames it, and restricts to the
    base structure on the common image.
    """
    checks = []
    sl = AffineSlice(tau0, w)
    g = tau0.g
    s = standard_symplectic(g)
    rng = derive_rng(seed, "slice", g, w.dim)

    base_image = embedded_subspace(tau0, w)
    j0 = complex_structure(tau0)
    p0 = base_image.projector().real
    if w.dim:
        # the form on the image depends on the base image alone, so once per cell
        gram = base_image.basis.real @ s @ base_image.basis.real.T
        nondeg_floor = float(np.linalg.svd(gram, compute_uv=False)[-1])

    c = g - w.dim
    checks.append(passing(
        "direction-space-dimension",
        "slice dimension is c(c+1)/2 for c the codimension of W",
        abs(sl.dim - c * (c + 1) // 2), 0.5))

    worst_kill = 0.0
    worst_dist = 0.0
    worst_sq = 0.0
    worst_symp = 0.0
    worst_restrict = 0.0
    tame_floor = np.inf
    members = [sl.tau0] + [random_slice_member(sl, rng) for _ in range(n_members)]
    for member in members:
        diff = member.tau - tau0.tau
        if w.dim:
            worst_kill = max(worst_kill, float(np.max(np.abs(diff @ w.basis.T))))
        image = embedded_subspace(member, w)
        worst_dist = max(worst_dist, subspace_distance(image, base_image))
        j = complex_structure(member)
        worst_sq = max(worst_sq, float(np.max(np.abs(j @ j + np.eye(2 * g)))))
        worst_symp = max(worst_symp, float(np.max(np.abs(j.T @ s @ j - s))))
        taming = 0.5 * (s @ j + (s @ j).T)
        tame_floor = min(tame_floor, float(np.min(np.linalg.eigvalsh(taming))))
        worst_restrict = max(worst_restrict, float(np.max(np.abs((j - j0) @ p0))))

    checks.append(passing(
        "member-difference-kills-w",
        "member minus base annihilates the pinned subspace",
        worst_kill, 1e-12))
    checks.append(passing(
        "embedded-image-constant",
        "distance between member and base images of W under the real chart",
        worst_dist, tol))
    checks.append(passing(
        "complex-structure-squares",
        "J^2 + 1 for the transported complex structure",
        worst_sq, tol))
    checks.append(passing(
        "symplectic-preserved",
        "J^T S J - S against the standard symplectic form",
        worst_symp, tol))
    checks.append(floor_check(
        "taming-positivity",
        "smallest eigenvalue of sym(S J)",
        tame_floor, 1e-10))
    checks.append(passing(
        "structure-constant-on-image",
        "difference of member and base structures on the embedded image",
        worst_restrict, tol))
    if w.dim:
        checks.append(floor_check(
            "image-nondegenerate",
            "smallest singular value of the symplectic form on the image",
            nondeg_floor, 1e-10))
    return checks
