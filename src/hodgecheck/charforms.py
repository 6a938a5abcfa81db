"""Chern and Segre forms of the period-domain bundles, by several routes.

All routes start from the normalized curvature G = Omega / (2 pi i).  The
total Chern form is det(I - G); the Segre forms of the same bundle are the
components of its multiplicative inverse.  Because the entries of G are
2-forms, symmetric function identities for these determinants hold verbatim
in the (commutative) even part of the exterior algebra, which gives two
independent recomputations:

* moments: s_k is the complete homogeneous symmetric function h_k in the
  roots, built from the power traces p_m = tr(G^m) by Newton's identities;
* quadrature: s_k = binom(g+k-1, k) * E[<G v, v>^k] over v uniform on the
  unit sphere of the fiber metric, a Monte Carlo route that touches the
  pairing form machinery instead of matrix arithmetic.

The quadrature route rests on the k-th power of a (1,1)-form with
coefficient matrix K being k! times the sum of its k x k minors:

    omega^k = (-1)^(k(k-1)/2) k! sum_{|S|=|T|=k} det(K[S,T]) dt[S]^dtbar[T]

with both index blocks ascending.  That identity is also what lets the
sampling loops run on whole batches: each batch of unit vectors is one
draw, whose minors come from the minors kernel of extform, the one behind
contraction, and whose averages travel as (k, k) coefficient blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .curvature import (
    CurvaturePackage,
    curvature_matrix,
    curvature_package,
    fundamental_matrix_batch,
    hodge_metric,
    pairing_matrix_batch,
)
from .errors import BadParameters, BadSampleCount
from .extform import ExtForm, FormMatrix, _minors, restrict_to_plane
from .linalg import SiegelPoint, _orthonormal_stack, sym_basis, sym_dim
from .report import VerificationReport, floor_check, passing
from .sampling import _random_planes, derive_rng, random_subspace, random_unit_vector
from .symmaps import (
    _random_rational_w,
    check_evaluation_degeneracy,
    rational_span_to_subspace,
    wperp_exact,
)

_PLANE_CHUNK = 256  # random planes per chunk of positivity-vanishing's one draw
# bound of mumford-relation: the measured residuals are about 1e-15 of what cancels
MUMFORD_TOL = 1e-12


def _point(x) -> SiegelPoint:
    return x.tau if isinstance(x, CurvaturePackage) else x


def normalized_curvature(x, bundle: str = "dual") -> FormMatrix:
    if isinstance(x, CurvaturePackage) and bundle == "dual":
        return x.g_normalized
    return curvature_matrix(_point(x), bundle).scale(1.0 / (2j * np.pi))


def _cap(k_max: int | None) -> int | None:
    """The total-degree cap 2 k_max of a form built through degree k_max, or None."""
    if k_max is not None and k_max < 0:
        raise BadParameters(f"degree cap {k_max} is negative")
    return None if k_max is None else 2 * k_max


def chern_total(x, bundle: str = "dual", k_max: int | None = None) -> ExtForm:
    """Total Chern form det(I - G), optionally truncated to degree 2 k_max."""
    gm = normalized_curvature(x, bundle)
    cap = _cap(k_max)
    # the capped determinant never emits a term above the cap
    return (FormMatrix.identity(gm.g, gm.n) - gm).det(max_degree=cap)


def chern_classes(x) -> list[ExtForm]:
    """[c_0, c_1, ..., c_g] of the dual bundle, the (k, k) components of its total form."""
    total = chern_total(x, "dual")
    g = _point(x).g
    return [total.component(k, k) for k in range(g + 1)]


def segre_by_inverse(x, k_max: int | None = None) -> ExtForm:
    """Total Segre form of the dual bundle as the inverse of its Chern form.

    x is a point, its curvature package, or the dual total Chern form itself,
    which a caller that also needs that form then builds only once.
    """
    cap = _cap(k_max)
    total = x if isinstance(x, ExtForm) else chern_total(x, "dual", k_max=k_max)
    return total.inverse_even(max_degree=cap)


def segre_by_moments(x, k_max: int) -> ExtForm:
    """Total Segre form through degree 2 k_max from curvature power traces.

    With p_m = tr(G^m), Newton's identities give the complete homogeneous
    parts h_k = s_k by k h_k = sum_(i=1..k) p_i ^ h_(k-i).
    """
    cap = _cap(k_max)
    gm = normalized_curvature(x, "dual")
    traces = _power_traces(gm, k_max, cap)
    h = [ExtForm.one(gm.n)]
    for k in range(1, k_max + 1):
        acc = sum((traces[i - 1].wedge(h[k - i], max_degree=cap) for i in range(1, k + 1)),
                  ExtForm.zero(gm.n))
        h.append(acc * (1.0 / k))
    return sum(h[1:], h[0])


def _power_traces(gm: FormMatrix, k_max: int, cap: int) -> list[ExtForm]:
    """tr(G^m) for m = 1..k_max, the last one from the diagonal of G^(k_max-1) G only.

    Each diagonal entry sums over k before the entries sum over i, the order
    of matmul and then trace, so every trace is the same to the bit.
    """
    g, n = gm.g, gm.n
    traces = [gm.trace()]
    power = gm
    for m in range(2, k_max + 1):
        if m < k_max:
            power = power.matmul(gm, max_degree=cap)
            traces.append(power.trace())
        else:
            diagonal = (sum((power[i, k].wedge(gm[k, i], max_degree=cap) for k in range(g)),
                            ExtForm.zero(n)) for i in range(g))
            traces.append(sum(diagonal, ExtForm.zero(n)))
    return traces


# ---------------------------------------------------------------------------
# Batched wedge powers of (1,1)-forms given by coefficient matrices.
# ---------------------------------------------------------------------------


def wedge_power_stats(k_batch: np.ndarray, k: int):
    """Mean and mean squared modulus of the coefficients of omega^k over a batch.

    k_batch has shape (N, n, n); entry (a, b) multiplies dt[a] ^ dtbar[b].
    Returns (means, second moments) as the C(n, k) x C(n, k) arrays of the
    (k, k) block; the second moment is the batch mean of |coefficient|^2,
    one dot product of each row with itself.
    Row i comes from one _minors call on the i-th k-subset of rows, with the
    samples on its trailing batch axis.
    """
    samples, n = k_batch.shape[:2]
    sign = -1.0 if (k * (k - 1) // 2) % 2 else 1.0
    prefactor = sign * math.factorial(k)
    entries = k_batch.transpose(1, 2, 0)
    size = math.comb(n, k)
    means = np.empty((size, size), dtype=complex)
    second = np.empty((size, size))
    for i, s_rows in enumerate(combinations(range(n), k)):
        dets = prefactor * _minors(entries[list(s_rows)])
        means[i] = dets.mean(axis=-1)
        parts = dets.view(float)  # real and imaginary parts side by side
        second[i] = np.einsum("ij,ij->i", parts, parts) / samples
    return means, second


def _sphere_average(metric: np.ndarray, rng, n_samples: int, batch_size: int,
                    k: int, coeff_batch):
    """Monte Carlo mean and standard error of the omega^k coefficients.

    Each batch of vectors, uniform on the unit sphere of metric, is one call
    of random_unit_vector; coeff_batch maps it to the coefficient matrices
    of omega, and wedge_power_stats reduces their k x k minors to per-batch
    first and second moments, which are pooled here.
    Returns (mean, standard error) as (k, k) blocks.
    """
    count = 0
    sums = sumsq = 0.0
    while count < n_samples:
        take = min(batch_size, n_samples - count)
        v = random_unit_vector(metric, rng, take)
        means, second = wedge_power_stats(coeff_batch(v), k)
        sums = sums + means * take
        sumsq = sumsq + second * take
        count += take
    mean = sums / count
    var = sumsq / count - np.abs(mean) ** 2
    return mean, np.sqrt(np.maximum(var, 0.0) / count)


@dataclass(frozen=True)
class QuadratureEstimate:
    form: ExtForm
    stderr: np.ndarray  # standard errors of the (k, k) block
    n_samples: int
    k: int

    def compare(self, exact: ExtForm, floor: float = 1e-12):
        """Max of |difference| / band over all coefficients.

        The band is 3 stderr + floor on the (k, k) block and floor elsewhere.
        """
        diff = self.form - exact
        worst = 0.0
        for p, q in diff.bidegrees():
            band = 3.0 * self.stderr + floor if (p, q) == (self.k, self.k) else floor
            worst = max(worst, float((np.abs(diff.block(p, q)) / band).max()))
        return worst


def segre_by_quadrature(x, k: int, n_samples: int = 100_000,
                        seed: int = 0) -> QuadratureEstimate:
    """Monte Carlo s_k from sphere averages of the pairing form.

    Vectors are uniform on the unit sphere of the fiber metric; the estimate
    is binom(g+k-1, k) times the sample mean of the k-th wedge power of
    <G v, v>.  At k = 0 the empty minor makes every sample 1, so the
    estimate is exactly 1 with standard error 0.
    """
    pkg = x if isinstance(x, CurvaturePackage) else curvature_package(x)
    g = pkg.g
    if n_samples < 100:
        raise BadSampleCount(f"need at least 100 samples, got {n_samples}")
    if k < 0 or k > 2 * g:
        raise BadParameters(f"degree {k} outside 0..{2 * g} for genus {g}")
    rng = derive_rng(seed, "quadrature", k)
    weight = math.comb(g + k - 1, k)
    mean, stderr = _sphere_average(pkg.h, rng, n_samples, 4096, k,
                                   lambda v: pairing_matrix_batch(pkg, v))
    return QuadratureEstimate(ExtForm.from_blocks(sym_dim(g), {(k, k): weight * mean}),
                              weight * stderr, n_samples, k)


# ---------------------------------------------------------------------------
# Identity checks.
# ---------------------------------------------------------------------------


def check_pointwise_identity(tau: SiegelPoint, tol: float = 1e-9,
                             seed: int = 0) -> VerificationReport:
    """c ^ s = 1 for the dual bundle, across both exact Segre routes at one point.

    The Segre routes and their products with c stop at degree g: above it
    every s_k of the dual bundle is 0 by Mumford's relation c(E) c(E^dual) = 1,
    as c(E) ends in degree g.  The mumford-relation check asserts that
    relation in every degree instead.
    """
    report = VerificationReport("forms-identity", {"genus": tau.g, "tol": tol, "seed": seed})
    g = tau.g
    n = sym_dim(g)
    pkg = curvature_package(tau)
    c_dual = chern_total(pkg, "dual")
    s_inv = segre_by_inverse(c_dual, k_max=g)
    s_mom = segre_by_moments(pkg, g)

    report.add(passing(
        "chern-wedge-inverse-segre",
        "det(I-G) ^ inverse_even(det(I-G)) = 1 through degree (g, g)",
        (c_dual.wedge(s_inv, max_degree=2 * g) - 1).norm_inf(), tol))
    report.add(passing(
        "chern-wedge-moment-segre",
        "det(I-G) ^ (moment-route Segre) = 1 through degree (g, g)",
        (c_dual.wedge(s_mom, max_degree=2 * g) - 1).norm_inf(), tol))
    report.add(passing(
        "moment-vs-inverse",
        "per-coefficient agreement of the two exact Segre routes through degree g",
        s_mom.max_coeff_diff(s_inv), 1e-10))
    report.add(passing(
        "mumford-relation",
        "c(E) ^ c(E^dual) = 1 in every degree, each relative to the largest "
        "product of Chern classes that cancels in it",
        _mumford_residual(chern_total(pkg, "hodge"), c_dual, g), MUMFORD_TOL))

    # orientation guard: s_1 restricted to coordinate lines must be >= 0,
    # which pins the sign convention of G against its negative
    lines = _random_planes(n, 1, 8, derive_rng(seed, "identity-lines", g))
    report.add(floor_check(
        "first-segre-lines",
        "restriction of s_1 to random lines stays nonnegative",
        restrict_to_plane(s_inv.component(1, 1), lines).min(), -1e-10))
    return report


def _mumford_residual(c_hodge: ExtForm, c_dual: ExtForm, g: int) -> float:
    """Worst degree of c_hodge ^ c_dual - 1, relative to what cancels in it.

    Degree k, for k = 1..min(2g, n), counts |(c_hodge ^ c_dual)_(k,k)|
    against the largest |c_j(hodge)| |c_(k-j)(dual)|, sizes being largest
    coefficients, so every degree is held to the same relative bound however
    small its classes are.
    """
    sizes = [[np.abs(c.block(j, j)).max() for j in range(g + 1)] for c in (c_hodge, c_dual)]
    product = c_hodge.wedge(c_dual)
    worst = 0.0
    for k in range(1, min(2 * g, c_hodge.n) + 1):
        cancels = max(sizes[0][j] * sizes[1][k - j] for j in range(max(0, k - g), min(g, k) + 1))
        worst = max(worst, np.abs(product.block(k, k)).max() / cancels)
    return float(worst)


def check_chern_segre_equality(tau: SiegelPoint, tol: float = 1e-9) -> VerificationReport:
    """c_k of the bundle against s_k of its dual, coefficient by coefficient, k = 1..g.

    Mumford's relation c(E) c(E^dual) = 1, which gives c(E) = s(E^dual) as totals,
    is asserted by forms-identity's mumford-relation, not here.
    """
    g = tau.g
    report = VerificationReport("dual-identity", {"genus": g, "tol": tol})
    pkg = curvature_package(tau)
    c_hodge = chern_total(pkg, "hodge")
    s_dual = segre_by_moments(pkg, g)
    for k in range(1, g + 1):
        report.add(passing(
            f"c{k}-equals-dual-s{k}",
            f"c_{k} of the bundle matches s_{k} of the dual pointwise",
            c_hodge.component(k, k).max_coeff_diff(s_dual.component(k, k)), tol))
    return report


def check_average_wedge_powers(tau: SiegelPoint, k: int = 1,
                               n_samples: int = 20_000,
                               seed: int = 0) -> VerificationReport:
    """Sphere average of k-th powers of rank-one fundamental forms vs s_k.

    For a unit vector w of the fiber with its metric, the Hermitian form
    L_w of the line through w has fundamental form equal to 4 pi times the
    pairing form of the matched dual vector.  Averaging its k-th wedge power
    over w must therefore reproduce s_k up to the positive constant
    binom(g+k-1, k) / (4 pi)^k.  L_w[b, a] = sum_pq conj(w_p) w_q (E_b h E_a)[p, q]
    with E = sym_basis(g), so each batch is one outer product and one GEMM.
    """
    g = tau.g
    if n_samples < 100:
        raise BadSampleCount(f"need at least 100 samples, got {n_samples}")
    if k < 1 or k > g:
        raise BadParameters(f"power {k} outside 1..{g}")
    report = VerificationReport(
        "average-wedge",
        {"genus": g, "k": k, "n_samples": n_samples, "seed": seed})
    pkg = curvature_package(tau)
    s_k = segre_by_moments(pkg, k).component(k, k)
    y = hodge_metric(tau)
    rng = derive_rng(seed, "avg-wedge", k)
    basis = sym_basis(g)
    n = len(basis)
    # K is linear in L_w, so the map L -> K applies once to the per-point tensor
    forms = np.einsum("bpr,rs,asq->pqba", basis, pkg.h, basis).reshape(g * g, n, n)
    per_point = fundamental_matrix_batch(forms, g).reshape(g * g, n * n)

    def coeff_batch(w):
        outer = (w.conj()[:, :, None] * w[:, None, :]).reshape(len(w), g * g)
        return (outer @ per_point).reshape(len(w), n, n)

    mean, se = _sphere_average(y, rng, n_samples, 2048, k, coeff_batch)

    ratio = math.comb(g + k - 1, k) / (4 * np.pi) ** k
    scaled = QuadratureEstimate(ExtForm.from_blocks(n, {(k, k): ratio * mean}),
                                ratio * se, n_samples, k)
    den = np.vdot(mean, mean).real
    fitted = np.vdot(mean, s_k.block(k, k)).real / den if den > 0 else 0.0

    report.add(passing(
        "scaled-average-matches-segre",
        "binom(g+k-1,k)/(4 pi)^k times the average power matches s_k "
        "within 3 standard errors per coefficient",
        scaled.compare(s_k), 1.0))
    report.add(floor_check(
        "fitted-ratio-positive",
        "least-squares ratio between average and s_k is positive",
        fitted, 1e-12))
    rel = abs(fitted - ratio) / ratio
    report.add(passing(
        "fitted-ratio-value",
        "fitted ratio agrees with binom(g+k-1,k)/(4 pi)^k",
        rel, 0.05))
    return report


def check_positivity_and_vanishing(tau: SiegelPoint, i: int = 3,
                                   trials: int = 1000, seed: int = 0,
                                   n_v_samples: int = 100,
                                   tol: float = 1e-10) -> VerificationReport:
    """Restrictions of s_i to i-planes: nonnegative, zero exactly on annihilators.

    Three phases: random i-planes give lambda >= 0; i-planes inside an exact
    annihilator space {M : M W = 0} with codim W = i - 1 give lambda = 0 and
    carry no evaluation of rank i; planes with a verified rank-i evaluation
    give lambda strictly positive.  tol bounds |lambda| in the second phase,
    which first measures each annihilator space's dimension against i(i-1)/2
    and neither searches nor samples a space of fewer than i maps.  Each
    phase restricts its planes as one stack in one restrict_to_plane call
    (the random planes in chunks of _PLANE_CHUNK).
    """
    g = tau.g
    if i < 1 or i > g:
        raise BadParameters(f"plane dimension {i} outside 1..{g}")
    report = VerificationReport(
        "positivity-vanishing",
        {"genus": g, "i": i, "trials": trials, "seed": seed,
         "n_v_samples": n_v_samples, "tol": tol})
    pkg = curvature_package(tau)
    s_i = segre_by_moments(pkg, i).component(i, i)
    n = sym_dim(g)
    rng = derive_rng(seed, "posvan", g, i)

    # memory stays flat in trials, and the chunks consume the stream as one draw does
    chunks = (_random_planes(n, i, min(_PLANE_CHUNK, trials - start), rng)
              for start in range(0, trials, _PLANE_CHUNK))
    worst = min((v for bases in chunks for v in restrict_to_plane(s_i, bases)), default=np.inf)
    report.add(floor_check(
        "random-plane-floor",
        f"minimum restriction of s_{i} over {trials} random {i}-planes",
        worst, -1e-10))

    if i >= 3:
        wdim = g - i + 1  # >= 1, as i <= g
        d = i * (i - 1) // 2
        degeneracy_ok = True
        n_spaces = 10
        worst_dim = 0
        annihilator_planes = []
        for trial in range(n_spaces):
            perp = wperp_exact(_random_rational_w(g, wdim, rng), g)
            worst_dim = max(worst_dim, abs(len(perp) - d))
            if len(perp) < i:  # fewer than i maps carry no rank-i evaluation and no i-plane
                continue
            deg = check_evaluation_degeneracy(perp, i, n_v_samples, seed + trial)
            degeneracy_ok = degeneracy_ok and deg.satisfied
            perp_sub = rational_span_to_subspace(perp)
            if perp_sub.dim == i:  # the space is itself an i-plane
                annihilator_planes.append(perp_sub.basis[None])
            else:  # five random i-planes inside it
                parts = rng.standard_normal((5, 2, i, perp_sub.dim))
                annihilator_planes.append(
                    _orthonormal_stack((parts[:, 0] + 1j * parts[:, 1]) @ perp_sub.basis))
        overall_zero = (np.abs(restrict_to_plane(s_i, np.concatenate(annihilator_planes))).max()
                        if annihilator_planes else np.inf)
        report.add(passing(
            "annihilator-dimension",
            f"dim {{M : M W = 0}} = {d} for codimension {i - 1}, over {n_spaces} spaces",
            worst_dim, 0.5))
        report.add(passing(
            "annihilator-plane-vanishing",
            f"|restriction of s_{i}| on {i}-planes inside exact annihilator spaces",
            overall_zero, tol))
        report.add(passing(
            "annihilator-rank-bound",
            f"no evaluation of rank {i} found on annihilator spaces "
            f"({n_spaces} spaces x {n_v_samples} exact rational vectors)",
            0.0 if degeneracy_ok else 1.0, 0.5))

    witnessed = []
    attempts = 0
    while len(witnessed) < 20 and attempts < 200:
        attempts += 1
        plane = random_subspace(n, i, rng, "Sg")
        deg = check_evaluation_degeneracy(plane, i, n_v_samples=20,
                                          seed=seed + attempts)
        if not deg.satisfied:
            witnessed.append(plane.basis)
    report.add(floor_check(
        "witness-plane-positivity",
        f"minimum restriction of s_{i} over {len(witnessed)} planes with a rank-{i} "
        "evaluation witness",
        restrict_to_plane(s_i, np.array(witnessed)).min() if witnessed else np.inf, 1e-12))
    return report
