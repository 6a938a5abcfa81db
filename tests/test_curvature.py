from itertools import product

import numpy as np
import pytest

from hodgecheck.curvature import (
    METRICS,
    _fold_projector,
    curvature_array,
    curvature_fd,
    curvature_package,
    curvature_pairing_form,
    dual_curvature_matrix,
    dual_metric,
    fd_relative_error,
    fundamental_form,
    fundamental_matrix_batch,
    hodge_curvature_matrix,
    hodge_metric,
    line_hermitian_form,
    matched_dual_vector,
    pairing_matrix_batch,
)
from hodgecheck.errors import BadParameters, ZeroVector
from hodgecheck.extform import ExtForm, FormMatrix, conjugate, restrict_to_plane
from hodgecheck.linalg import make_siegel_point, sym_dim
from hodgecheck.sampling import (
    derive_rng,
    random_siegel_point,
)
from helpers import random_plane_sg

FD_POINTS = [(1, 0), (2, 1), (3, 2)]


def complex_vector(dim, rng):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_metrics():
    p = make_siegel_point(np.array([[0.3]]), np.array([[2.0]]))
    assert abs(dual_metric(p)[0, 0] - 0.5) < 1e-15
    assert abs(hodge_metric(p)[0, 0] - 2.0) < 1e-15


def test_scalar_curvature_closed_form():
    # one-variable case: curvature is -1/(4 y^2) e ^ ebar
    for y in (0.5, 1.0, 2.0, 3.7):
        p = make_siegel_point(np.array([[0.1]]), np.array([[y]]))
        om = dual_curvature_matrix(p)[0, 0]
        coeff = om.coefficient(1, 1)
        assert abs(coeff - (-1.0 / (4 * y * y))) < 1e-14
        assert om.bidegrees() == {(1, 1)}


def test_scalar_curvature_at_two_i():
    p = make_siegel_point(np.array([[0.0]]), np.array([[2.0]]))
    coeff = dual_curvature_matrix(p)[0, 0].coefficient(1, 1)
    assert coeff == pytest.approx(-0.0625, abs=1e-15)


def test_curvature_entries_are_one_one_forms():
    rng = derive_rng(20, "bidegree")
    for g in (1, 2, 3):
        x = random_siegel_point(g, rng)
        for m in (dual_curvature_matrix(x), hodge_curvature_matrix(x)):
            for i, j in product(range(g), repeat=2):
                assert m[i, j].bidegrees() <= {(1, 1)}


def test_package_consistency():
    rng = derive_rng(21, "package")
    x = random_siegel_point(2, rng)
    pkg = curvature_package(x)
    assert np.allclose(pkg.h, np.linalg.inv(x.y))
    scaled = dual_curvature_matrix(x).scale(1.0 / (2j * np.pi))
    assert pkg.g_normalized.max_coeff_diff(scaled) == 0
    assert np.array_equal(pkg.gm, curvature_array(x, "dual") * (1.0 / (2j * np.pi)))
    assert not pkg.h.flags.writeable and not pkg.gm.flags.writeable


def test_package_forms_are_gm_itself():
    pkg = curvature_package(random_siegel_point(3, derive_rng(21, "package-share")))
    assert np.shares_memory(pkg.g_normalized[2, 1].block(1, 1), pkg.gm)


def test_pairing_form_is_real():
    rng = derive_rng(22, "real-pairing")
    for g in (1, 2, 3):
        for _ in range(7):
            x = random_siegel_point(g, rng)
            pkg = curvature_package(x)
            v = complex_vector(g, rng)
            form = curvature_pairing_form(pkg, v)
            assert form.bidegrees() <= {(1, 1)}
            assert conjugate(form).max_coeff_diff(form) < 1e-12


def test_pairing_form_scalar_case():
    p = make_siegel_point(np.array([[0.0]]), np.array([[1.0]]))
    form = curvature_pairing_form(curvature_package(p), np.array([1.0]))
    assert abs(form.coefficient(1, 1) - 1j / (8 * np.pi)) < 1e-15


def test_pairing_form_scales_quadratically():
    rng = derive_rng(23, "scale")
    x = random_siegel_point(2, rng)
    pkg = curvature_package(x)
    v = complex_vector(2, rng)
    c = 1.3 - 0.4j
    a = curvature_pairing_form(pkg, c * v)
    b = curvature_pairing_form(pkg, v) * (abs(c) ** 2)
    assert a.max_coeff_diff(b) < 1e-12


def test_pairing_form_matches_matrix_entry():
    x = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    pkg = curvature_package(x)
    form = curvature_pairing_form(pkg, np.array([1.0, 0.0]))
    assert form.max_coeff_diff(pkg.g_normalized[0, 0]) < 1e-15


def test_pairing_form_rejects_zero():
    x = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ZeroVector):
        curvature_pairing_form(curvature_package(x), np.zeros(2))


def test_pairing_form_nonnegative_on_lines():
    rng = derive_rng(24, "lines")
    for _ in range(5):
        x = random_siegel_point(2, rng)
        pkg = curvature_package(x)
        v = complex_vector(2, rng)
        form = curvature_pairing_form(pkg, v)
        for _ in range(10):
            line = random_plane_sg(2, 1, rng)
            assert restrict_to_plane(form, line) >= -1e-12


def test_line_form_properties():
    rng = derive_rng(25, "line-form")
    for g in (1, 2, 3):
        x = random_siegel_point(g, rng)
        w = complex_vector(g, rng)
        L = line_hermitian_form(x, w)
        assert np.allclose(L, L.conj().T)
        evals = np.linalg.eigvalsh(L)
        assert evals.min() > -1e-12
        assert np.sum(evals > 1e-10 * evals.max()) <= g
        L2 = line_hermitian_form(x, 2.0 * w)
        assert np.max(np.abs(L - L2)) < 1e-12


def test_line_form_scalar_case():
    p = make_siegel_point(np.array([[0.0]]), np.array([[1.0]]))
    L = line_hermitian_form(p, np.array([1.0]))
    assert L.shape == (1, 1)
    assert L[0, 0].real > 0
    with pytest.raises(ZeroVector):
        line_hermitian_form(p, np.array([0.0]))


def test_tiny_vectors_are_not_zero():
    """Only the zero vector is refused: 1e-9 w gives the forms of w, rescaled as documented."""
    x = random_siegel_point(2, derive_rng(26, "tiny-vector"))
    w = np.array([1.0, 0.5])
    tiny = 1e-9 * w
    L = line_hermitian_form(x, w)
    assert np.max(np.abs(line_hermitian_form(x, tiny) - L)) <= 1e-12 * np.max(np.abs(L))
    pkg = curvature_package(x)
    form = curvature_pairing_form(pkg, w)
    scaled = curvature_pairing_form(pkg, tiny) / 1e-18
    assert scaled.max_coeff_diff(form) <= 1e-12 * form.norm_inf()


def test_fundamental_form_bridge():
    """L of a metric-unit line matches 4 pi times the paired dual vector form."""
    rng = derive_rng(26, "bridge")
    for g in (1, 2, 3):
        x = random_siegel_point(g, rng)
        pkg = curvature_package(x)
        y = hodge_metric(x)
        w = complex_vector(g, rng)
        w = w / np.sqrt((w.conj() @ y @ w).real)
        ff = fundamental_form(line_hermitian_form(x, w), g)
        pf = curvature_pairing_form(pkg, matched_dual_vector(x, w))
        assert ff.max_coeff_diff(pf * (4 * np.pi)) < 1e-12


def one_one_form(k):
    """The (1, 1)-form sum k[a, b] dt_a ^ dtbar_b."""
    n = k.shape[0]
    return ExtForm(n, {(1 << a, 1 << b): k[a, b] for a in range(n) for b in range(n)})


def pairing_form_oracle(pkg, v):
    """<G v, v> as the sum of conj(v) h e_i times G[i, j] times v[j] over the entries of G."""
    row = np.conj(v) @ pkg.h
    g = pkg.g
    return sum((pkg.g_normalized[i, j] * (row[i] * v[j])
                for i in range(g) for j in range(g)), ExtForm.zero(sym_dim(g)))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_pairing_matrix_batch_rows_match_pairing_form(g):
    rng = derive_rng(27, "pairing-batch", g)
    x = random_siegel_point(g, rng)
    pkg = curvature_package(x)
    v = np.array([complex_vector(g, rng) for _ in range(4)])
    kb = pairing_matrix_batch(pkg, v)
    assert kb.shape == (4, g * (g + 1) // 2, g * (g + 1) // 2)
    for row, vn in zip(kb, v):
        want = pairing_form_oracle(pkg, vn)
        assert one_one_form(row).max_coeff_diff(want) < 1e-12 * want.norm_inf()
        form = curvature_pairing_form(pkg, vn)
        assert form.max_coeff_diff(want) < 1e-12 * want.norm_inf()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_fundamental_matrix_batch_matches_fundamental_form(g):
    rng = derive_rng(28, "fundamental-batch", g)
    x = random_siegel_point(g, rng)
    pkg = curvature_package(x)
    y = hodge_metric(x)
    w = np.array([complex_vector(g, rng) for _ in range(4)])
    w = w / np.sqrt(np.einsum("ni,ij,nj->n", w.conj(), y, w).real)[:, None]
    kb = fundamental_matrix_batch(np.array([line_hermitian_form(x, wn) for wn in w]), g)
    # the two batched builders agree through the matched dual vectors
    pb = pairing_matrix_batch(pkg, np.array([matched_dual_vector(x, wn) for wn in w]))
    assert np.max(np.abs(kb - 4 * np.pi * pb)) < 1e-12 * np.max(np.abs(kb))
    for row, wn in zip(kb, w):
        ff = fundamental_form(line_hermitian_form(x, wn), g)
        assert one_one_form(row).max_coeff_diff(ff) < 1e-12 * ff.norm_inf()


@pytest.mark.parametrize("g,seed", FD_POINTS)
def test_finite_difference_agreement(g, seed):
    rng = derive_rng(seed, "fd-unit")
    x = random_siegel_point(g, rng, spread=0.3, y_lo=0.2, y_hi=0.6)
    assert fd_relative_error(x, metric="dual", step=1e-5) < 1e-6
    assert fd_relative_error(x, metric="hodge", step=1e-5) < 1e-6


@pytest.mark.parametrize("metric", ["dual", "hodge"])
def test_finite_difference_identity_point(metric):
    x = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    analytic = curvature_array(x, metric)
    fd = curvature_fd(x, metric=metric, step=1e-5)
    assert fd.shape == analytic.shape == (2, 2, 3, 3)
    assert np.max(np.abs(analytic - fd)) < 1e-6 * np.max(np.abs(fd))


def test_curvature_array_rejects_unknown_bundle():
    x = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(BadParameters):
        curvature_array(x, "tangent")


def generator_product(factors, g):
    """Product of g x g matrices whose factors are forms or scalar matrices.

    A form factor is "dt" or "dtbar", the matrix of coordinate 1-forms;
    entries multiply by the wedge, so factor order is kept.
    """
    acc = None
    for f in factors:
        if isinstance(f, str):
            m = [[ExtForm.generator(sym_dim(g), i, j, conjugated=(f == "dtbar"))
                  for j in range(g)] for i in range(g)]
        else:
            m = [[ExtForm.scalar(sym_dim(g), f[i, j]) for j in range(g)] for i in range(g)]
        if acc is None:
            acc = m
            continue
        acc = [[sum((acc[i][k].wedge(m[k][j]) for k in range(g)), ExtForm.zero(sym_dim(g)))
                for j in range(g)] for i in range(g)]
    return FormMatrix(sym_dim(g), acc)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_curvature_matches_wedge_algebra(g):
    """The closed formulas, multiplied out in the exterior algebra."""
    x = random_siegel_point(g, derive_rng(29, "wedge-oracle", g))
    b = np.linalg.inv(x.y)
    dual = generator_product(["dt", b, "dtbar", b], g).scale(-0.25)
    hodge = generator_product([b, "dtbar", b, "dt"], g).scale(-0.25)
    assert dual_curvature_matrix(x).max_coeff_diff(dual) < 1e-14 * np.max(np.abs(b)) ** 2
    assert hodge_curvature_matrix(x).max_coeff_diff(hodge) < 1e-14 * np.max(np.abs(b)) ** 2


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_fold_projector_matches_the_pair_offset_loop(g):
    p = np.zeros((sym_dim(g), g, g))
    for i in range(g):
        for j in range(g):
            a, b = min(i, j), max(i, j)
            p[a * g - a * (a - 1) // 2 + (b - a), i, j] = 1.0
    got = _fold_projector(g)
    assert got.dtype == p.dtype and np.array_equal(got, p)


def _curvature_fd_loop(tau, metric, step=1e-5):
    """The loop over stencil points that curvature_fd replaced, kept as its oracle."""
    def metric_fn(t):
        return METRICS[metric](t.imag)

    base = tau.tau

    def connection(alpha_pert, at):
        hp = metric_fn(at + step * alpha_pert)
        hm = metric_fn(at - step * alpha_pert)
        dx = (hp - hm) / (2 * step)
        hp = metric_fn(at + 1j * step * alpha_pert)
        hm = metric_fn(at - 1j * step * alpha_pert)
        dy = (hp - hm) / (2 * step)
        dh = (dx - 1j * dy) / 2
        return np.linalg.solve(metric_fn(at), dh)

    out = {}
    for ia, pa in enumerate(_fold_projector(tau.g)):
        for ib, pb in enumerate(_fold_projector(tau.g)):
            dx = (connection(pa, base + step * pb) - connection(pa, base - step * pb)) / (2 * step)
            dy = ((connection(pa, base + 1j * step * pb) - connection(pa, base - 1j * step * pb))
                  / (2 * step))
            out[(ia, ib)] = -((dx + 1j * dy) / 2)
    return out


@pytest.mark.parametrize("metric", ["dual", "hodge"])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_batched_stencil_matches_the_point_loop_bitwise(g, metric):
    for t in range(3):
        # the window of the curvature-fd suite, and an unconditioned point
        wide = t == 2
        tau = random_siegel_point(g, derive_rng(41, "fd-batch", g, t),
                                  **({} if wide else dict(spread=0.3, y_lo=0.2, y_hi=0.6)))
        want = _curvature_fd_loop(tau, metric)
        got = curvature_fd(tau, metric=metric)
        n = sym_dim(g)
        assert got.shape == (g, g, n, n) and len(want) == n * n
        assert all(np.array_equal(got[:, :, a, b], m) for (a, b), m in want.items())
