from itertools import combinations, permutations

import numpy as np
import pytest

import hodgecheck.charforms as charforms
import hodgecheck.symmaps as symmaps
from hodgecheck.charforms import (
    QuadratureEstimate,
    _power_traces,
    chern_classes,
    chern_total,
    check_average_wedge_powers,
    check_chern_segre_equality,
    check_pointwise_identity,
    check_positivity_and_vanishing,
    normalized_curvature,
    segre_by_inverse,
    segre_by_moments,
    segre_by_quadrature,
    wedge_power_stats,
)
from hodgecheck.curvature import (
    METRICS,
    _fold_projector,
    curvature_array,
    curvature_package,
    fundamental_form,
    line_hermitian_form,
)
from hodgecheck.errors import BadParameters, BadSampleCount
from hodgecheck.extform import ExtForm, FormMatrix, _minors, restrict_to_plane
from hodgecheck.linalg import make_siegel_point, sym_dim, sym_index_pairs, sym_pair_table, vec_to_sym
from hodgecheck.sampling import (
    _random_planes,
    derive_rng,
    random_siegel_point,
    random_subspace,
    random_unit_vector,
)
from hodgecheck.suites import RunConfig, run_suites
from hodgecheck.symmaps import _int_nullspace
from test_extform import python_ints
from helpers import random_plane_sg, verdict


def test_chern_constant_term_and_degree_bound():
    rng = derive_rng(30, "chern")
    for g in (1, 2, 3):
        x = random_siegel_point(g, rng)
        classes = chern_classes(x)
        assert len(classes) == g + 1
        assert classes[0].max_coeff_diff(ExtForm.one(sym_dim(g))) == 0.0
        total = chern_total(x)
        for p, q in total.bidegrees():
            assert p == q and p <= g


def test_segre_leading_terms():
    rng = derive_rng(31, "segre-lead")
    x = random_siegel_point(3, rng)
    c = chern_classes(x)
    s = segre_by_inverse(x)
    s1, s2 = s.component(1, 1), s.component(2, 2)
    assert s1.max_coeff_diff(c[1] * (-1.0)) < 1e-14
    assert s2.max_coeff_diff(c[1].wedge(c[1]) - c[2]) < 1e-13


def test_moment_formula_small_orders():
    rng = derive_rng(32, "moments")
    x = random_siegel_point(2, rng)
    gm = normalized_curvature(x)
    tr = gm.trace()
    s = segre_by_moments(x, 2)
    assert s.component(0, 0).max_coeff_diff(ExtForm.one(sym_dim(2))) == 0.0
    assert s.component(1, 1).max_coeff_diff(tr) < 1e-14
    tr2 = gm.matmul(gm).trace()
    want_s2 = (tr.wedge(tr) + tr2) * 0.5
    assert s.component(2, 2).max_coeff_diff(want_s2) < 1e-14


def test_power_traces_equal_full_products_to_the_bit():
    # the last trace skips the off-diagonal entries of G^k but keeps the
    # summation order of matmul and trace, so segre_by_moments is unchanged
    rng = derive_rng(33, "trace-order")
    for g in (1, 2, 3):
        gm = normalized_curvature(random_siegel_point(g, rng))
        for k in range(1, sym_dim(g) + 1):
            cap = 2 * k
            power, want = gm, [gm.trace()]
            for _ in range(2, k + 1):
                power = power.matmul(gm, max_degree=cap)
                want.append(power.trace())
            got = _power_traces(gm, k, cap)
            assert len(got) == k
            for a, b in zip(got, want):
                assert a.bidegrees() == b.bidegrees()
                assert a.terms() == b.terms()  # float equality: same bits


def test_routes_agree():
    rng = derive_rng(33, "routes")
    for g in (1, 2, 3):
        x = random_siegel_point(g, rng)
        a = segre_by_inverse(x)
        b = segre_by_moments(x, 2 * g)
        assert a.max_coeff_diff(b) < 1e-10


def test_wedge_identity_unit():
    rng = derive_rng(34, "wedge-id")
    for g in (1, 2):
        x = random_siegel_point(g, rng)
        prod = chern_total(x).wedge(segre_by_inverse(x))
        assert prod.max_coeff_diff(ExtForm.one(sym_dim(g))) < 1e-12


def test_quadrature_degenerate_orders():
    x = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    # the empty minor is 1, so the general path gives exactly 1 at k = 0
    est0 = segre_by_quadrature(x, 0, n_samples=100, seed=0)
    assert est0.form.max_coeff_diff(ExtForm.one(sym_dim(2))) == 0.0
    assert est0.stderr.shape == (1, 1) and est0.stderr.max() == 0.0
    # one-dim fiber: every line is the same line, zero variance
    x1 = make_siegel_point(np.array([[0.2]]), np.array([[1.3]]))
    est1 = segre_by_quadrature(x1, 1, n_samples=200, seed=0)
    exact = segre_by_moments(x1, 1).component(1, 1)
    assert est1.form.max_coeff_diff(exact) < 1e-12
    assert est1.stderr.max() < 1e-12


def test_quadrature_matches_moments_within_band():
    rng = derive_rng(35, "quad")
    x = random_siegel_point(2, rng)
    for k in (1, 2):
        est = segre_by_quadrature(x, k, n_samples=20_000, seed=11)
        exact = segre_by_moments(x, k).component(k, k)
        assert est.compare(exact) <= 1.0


def test_compare_bands_the_kk_block_by_stderr_and_the_rest_by_floor():
    g, k, floor = 2, 1, 1e-12
    exact = ExtForm.from_blocks(sym_dim(g), {(1, 1): np.full((3, 3), 2.0)})
    stderr = np.full((3, 3), 0.1)
    # (k, k) coefficients score |difference| / (3 stderr + floor)
    kk = np.full((3, 3), 2.0)
    kk[0, 2] += 0.15
    est = QuadratureEstimate(ExtForm.from_blocks(sym_dim(g), {(1, 1): kk}), stderr, 100, k)
    assert est.compare(exact, floor) == pytest.approx(0.15 / (0.3 + floor))
    # a coefficient outside the (k, k) block scores |c| / floor
    off = np.zeros((3, 1))
    off[1, 0] = 3e-12
    est = QuadratureEstimate(est.form + ExtForm.from_blocks(sym_dim(g), {(1, 0): off}),
                             stderr, 100, k)
    assert est.compare(exact, floor) == pytest.approx(3.0)
    # with zero standard errors the (k, k) band is the floor as well
    est = QuadratureEstimate(ExtForm.zero(sym_dim(g)), np.zeros((3, 3)), 100, k)
    assert est.compare(exact, floor) == pytest.approx(2.0 / floor)
    assert est.compare(ExtForm.zero(sym_dim(g)), floor) == 0.0


def test_quadrature_input_guards():
    x = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(BadSampleCount):
        segre_by_quadrature(x, 1, n_samples=10)
    with pytest.raises(BadParameters):
        segre_by_quadrature(x, 5, n_samples=100)


@pytest.mark.parametrize("route", [chern_total, segre_by_inverse, segre_by_moments])
def test_negative_degree_caps_are_rejected(route):
    x = random_siegel_point(2, derive_rng(0, "negative-cap"))
    with pytest.raises(BadParameters):
        route(x, k_max=-1)


def _int_det(m):
    """Leibniz determinant of a square nested list of Python ints."""
    size = len(m)
    total = 0
    for perm in permutations(range(size)):
        term = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _scaled_curvatures(y):
    """4 d^2 Omega of the hodge and the dual bundle at tau = i y, d = det y, over the integers.

    With B = y^-1 = adj(y) / d, 4 d^2 Omega_dual = -P adj P adj and
    4 d^2 Omega_hodge = adj P adj P, laid out (i, j, a, b) as curvature_array.
    """
    g = len(y)
    adj = np.array([[(-1) ** (i + j) * _int_det([[y[r][c] for c in range(g) if c != i]
                                                  for r in range(g) if r != j])
                     for j in range(g)] for i in range(g)], dtype=object)
    p = [pa.astype(int).astype(object) for pa in _fold_projector(g)]
    n = len(p)
    hodge = np.empty((g, g, n, n), dtype=object)
    dual = np.empty((g, g, n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            hodge[:, :, a, b] = adj @ p[b] @ adj @ p[a]
            dual[:, :, a, b] = -(p[a] @ adj @ p[b] @ adj)
    return hodge, dual


def _exact_chern(scaled):
    """det(I - A) over Python ints for a (g, g, n, n) object array A, through FormMatrix's minus."""
    g, n = scaled.shape[1], scaled.shape[2]
    return (FormMatrix.identity(g, n) - FormMatrix.from_blocks(g, n, {(1, 1): scaled})).det()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_mumford_relation_holds_exactly_over_the_integers(g):
    """c(E) ^ c(E^dual) = 1 with every Chern degree scaled by (4 d^2 2 pi i)^k, in Python ints.

    The scaling is common to both bundles degree by degree, so the relation
    holds exactly for the integer arrays 4 d^2 Omega of an integer y = a a^T + I.
    """
    rng = derive_rng(0, "exact-mumford", g)
    a = rng.integers(-2, 3, size=(g, g))
    y = (a @ a.T + np.eye(g, dtype=int)).tolist()
    d = _int_det(y)
    hodge, dual = _scaled_curvatures(y)
    tau = make_siegel_point(np.zeros((g, g)), np.array(y, dtype=float))
    for bundle, scaled in (("hodge", hodge), ("dual", dual)):  # the layout of curvature_array
        want = 4 * d * d * curvature_array(tau, bundle)
        assert np.allclose(scaled.astype(complex), want, rtol=1e-12, atol=1e-9)
    c_hodge, c_dual = _exact_chern(hodge), _exact_chern(dual)
    product = c_hodge.wedge(c_dual)
    assert (product - 1).is_zero()
    assert all(python_ints(f) for f in (c_hodge, c_dual, product))
    assert c_hodge.block(g, g).any()  # the top class is there to cancel
    mutated = hodge.copy()
    mutated[0, 0, 0, 0] += 1
    assert not (_exact_chern(mutated).wedge(c_dual) - 1).is_zero()


def test_pointwise_identity_report():
    rng = derive_rng(36, "pointwise")
    x = random_siegel_point(2, rng)
    checks = check_pointwise_identity(x, tol=1e-9, seed=3)
    assert verdict(checks)
    names = [c.name for c in checks]
    assert "moment-vs-inverse" in names


def _scale_degree(form, k, factor):
    blocks = {(p, q): form.block(p, q) * (factor if p == k else 1.0)
              for p, q in form.bidegrees()}
    return ExtForm.from_blocks(form.n, blocks)


def _mutated(route, k, factor, bundle="dual"):
    """charforms.<route> with degree k of its output scaled; chern_total only for bundle."""
    built = getattr(charforms, route)
    if route != "chern_total":
        return lambda *args, **kwargs: _scale_degree(built(*args, **kwargs), k, factor)

    def mutated(x, which="dual", k_max=None):
        total = built(x, which, k_max)
        return _scale_degree(total, k, factor) if which == bundle else total
    return mutated


@pytest.mark.parametrize("g", [2, 3])
def test_mumford_relation_fails_when_one_hodge_chern_degree_is_off_by_1e9(g, monkeypatch):
    tau = random_siegel_point(g, derive_rng(43, "mumford", g))

    def mumford(checks):
        return next(c for c in checks if c.name == "mumford-relation")

    unmutated = mumford(check_pointwise_identity(tau))
    assert unmutated.passed and unmutated.tolerance == charforms.MUMFORD_TOL
    for k in range(1, g + 1):
        with monkeypatch.context() as patch:
            patch.setattr(charforms, "chern_total", _mutated("chern_total", k, 1 + 1e-9, "hodge"))
            check = mumford(check_pointwise_identity(tau))
        assert not check.passed, (k, check.measured)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_forms_identity_segre_forms_stop_at_degree_g(g, monkeypatch):
    built = []
    for name in ("segre_by_inverse", "segre_by_moments"):
        def keep(*args, _route=getattr(charforms, name), **kwargs):
            built.append(_route(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(charforms, name, keep)
    run_suites(RunConfig(suites=("forms-identity",), genus_list=(g,), n_tau=1))
    assert len(built) == 2
    for form in built:
        assert max(form.bidegrees()) == (g, g)


def test_forms_identity_asserts_five_checks_per_point():
    report = run_suites(RunConfig(suites=("forms-identity",), genus_list=(1, 2), n_tau=2))
    checks = report["suites"]["forms-identity"]["checks"]
    assert all(c["passed"] for c in checks)
    for g in (1, 2):
        for t in range(2):
            names = [c["name"] for c in checks
                     if c["asserting"] and c["name"].startswith(f"g{g}.t{t}.")]
            assert len(names) == 5
            assert f"g{g}.t{t}.mumford-relation" in names


def test_dual_equality_low_orders():
    rng = derive_rng(37, "dual-eq")
    x = random_siegel_point(3, rng)
    records = check_chern_segre_equality(x)
    assert verdict(records)
    checks = [c.to_dict() for c in records]
    assert [c["name"] for c in checks] == [f"c{k}-equals-dual-s{k}" for k in (1, 2, 3)]
    for c in checks:
        assert c["asserting"] and c["measured"] < 1e-9


@pytest.mark.parametrize("g", [1, 2, 3])
def test_dual_equality_fails_exactly_the_degree_whose_hodge_chern_is_off_by_1e3(g, monkeypatch):
    tau = random_siegel_point(g, derive_rng(44, "dual-mutation", g))
    assert verdict(check_chern_segre_equality(tau))
    for k in range(1, g + 1):
        with monkeypatch.context() as patch:
            patch.setattr(charforms, "chern_total", _mutated("chern_total", k, 1 + 1e-3, "hodge"))
            checks = check_chern_segre_equality(tau)
        assert [c.name for c in checks if not c.passed] == [f"c{k}-equals-dual-s{k}"]


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("route", ["segre_by_inverse", "segre_by_moments", "chern_total"])
def test_forms_identity_fails_when_one_degree_of_a_route_is_off_by_1e6(g, route, monkeypatch):
    tau = random_siegel_point(g, derive_rng(45, "route-mutation", g))
    assert verdict(check_pointwise_identity(tau))
    for k in range(1, g + 1):
        with monkeypatch.context() as patch:
            patch.setattr(charforms, route, _mutated(route, k, 1 + 1e-6))
            checks = check_pointwise_identity(tau)
        assert verdict(checks) is False, (k, [(c.name, c.measured) for c in checks])


def test_positivity_on_random_planes():
    rng = derive_rng(38, "positivity")
    for g in (2, 3):
        x = random_siegel_point(g, rng)
        s = segre_by_inverse(x)
        for k in range(1, g + 1):
            sk = s.component(k, k)
            for _ in range(40):
                y = random_plane_sg(g, k, rng)
                assert restrict_to_plane(sk, y) >= -1e-10


def test_positivity_and_vanishing_report():
    rng = derive_rng(39, "pv")
    x = random_siegel_point(3, rng)
    records = check_positivity_and_vanishing(x, i=3, trials=50, seed=2,
                                             n_v_samples=20)
    assert verdict(records)
    checks = {c.name: c.to_dict() for c in records}
    assert "annihilator-plane-vanishing" in checks
    assert "witness-plane-positivity" in checks
    assert checks["annihilator-dimension"]["measured"] == 0.0


def test_positivity_vanishing_searches_share_no_stream(monkeypatch):
    """Every evaluation-rank search of a cell has a stream no other search of it, or of
    another run seed, draws from."""
    keys = {}

    def spy(seed, *key):
        if key[0] == "degeneracy":
            keys[run_seed].append((seed, *key))
        return derive_rng(seed, *key)

    monkeypatch.setattr(symmaps, "derive_rng", spy)
    x = random_siegel_point(3, derive_rng(39, "pv"))
    for run_seed in (0, 1):
        keys[run_seed] = []
        records = check_positivity_and_vanishing(x, i=3, trials=10, seed=run_seed,
                                                 n_v_samples=20)
        assert verdict(records)
        assert len(keys[run_seed]) >= 10 + 20  # one per annihilator space, one per attempt
        assert len(set(keys[run_seed])) == len(keys[run_seed])
    assert not set(keys[0]) & set(keys[1])


def test_annihilator_rank_bound_states_its_miss_bound():
    """The no-witness verdict on annihilator spaces states its Schwartz-Zippel bound per space."""
    x = random_siegel_point(3, derive_rng(39, "pv"))
    for n_v_samples in (20, 100):
        records = check_positivity_and_vanishing(x, i=3, trials=10, n_v_samples=n_v_samples)
        (bound,) = [c for c in records if c.name == "annihilator-rank-bound"]
        assert bound.passed
        assert bound.notes == (f"no-witness verdicts wrong with probability <= "
                               f"(3/2001)^{n_v_samples} per space when a witness exists")


@pytest.mark.parametrize("g", [3, 4])
def test_positivity_vanishing_fails_a_short_annihilator_basis(g, monkeypatch):
    """A kernel one vector short is a failed annihilator-dimension check, not a raise.

    At i = 3 the short space has two maps, fewer than i: it is neither
    searched for a rank-3 evaluation nor sampled for 3-planes.
    """
    def drop_last(mat, ncols):
        basis, last = _int_nullspace(mat, ncols)
        return basis[:-1], last

    monkeypatch.setattr(symmaps, "_int_nullspace", drop_last)
    result = run_suites(RunConfig(genus_list=(g,), suites=("positivity-vanishing",)))
    report = result["suites"]["positivity-vanishing"]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks[f"g{g}.annihilator-dimension"]["measured"] == 1.0
    assert not checks[f"g{g}.annihilator-dimension"]["passed"]
    assert report["passed"] is False and result["passed"] is False


def test_each_plane_set_is_restricted_in_one_call(monkeypatch):
    """At i = 4 each annihilator space (dimension 6) gives five mixed 4-planes."""
    shapes = []

    def counted(a, planes):
        shapes.append(planes.shape)
        return restrict_to_plane(a, planes)

    monkeypatch.setattr(charforms, "restrict_to_plane", counted)
    x = random_siegel_point(4, derive_rng(39, "pv", 4))
    records = check_positivity_and_vanishing(x, i=4, trials=50, seed=2, n_v_samples=20)
    assert verdict(records)
    checks = {c.name: c.to_dict() for c in records}
    assert checks["annihilator-plane-vanishing"]["asserting"]
    assert shapes[:2] == [(50, 4, 10), (10 * 5, 4, 10)]
    assert len(shapes) == 3 and shapes[2][0] > 0


def test_random_plane_chunks_keep_the_report(monkeypatch):
    """Chunks of the plane draw give the report of one draw, later phases included."""
    x = random_siegel_point(3, derive_rng(39, "pv"))
    whole = check_positivity_and_vanishing(x, i=3, trials=50, seed=2, n_v_samples=20)
    monkeypatch.setattr(charforms, "_PLANE_CHUNK", 7)
    chunked = check_positivity_and_vanishing(x, i=3, trials=50, seed=2, n_v_samples=20)
    assert [c.to_dict() for c in chunked] == [c.to_dict() for c in whole]


def test_average_wedge_report():
    rng = derive_rng(40, "avg")
    x = random_siegel_point(2, rng)
    records = check_average_wedge_powers(x, k=1, n_samples=4000, seed=5)
    assert verdict(records)
    checks = {c.name: c.to_dict() for c in records}
    assert checks["fitted-ratio-positive"]["passed"]
    with pytest.raises(BadSampleCount):
        check_average_wedge_powers(x, k=1, n_samples=10)
    with pytest.raises(BadParameters):
        check_average_wedge_powers(x, k=5, n_samples=1000)


def det_loop_stats(k_batch, k):
    """wedge_power_stats spelled out with one determinant call per (S, T).

    Rows and columns of both arrays run over k-subsets in combinations order.
    """
    n = k_batch.shape[1]
    prefactor = (-1.0) ** (k * (k - 1) // 2) * np.prod(np.arange(1, k + 1))
    subsets = list(combinations(range(n), k))
    means = np.zeros((len(subsets), len(subsets)), dtype=complex)
    second = np.zeros((len(subsets), len(subsets)))
    for i, rows in enumerate(subsets):
        for j, cols in enumerate(subsets):
            dets = prefactor * np.linalg.det(k_batch[:, rows][:, :, cols])
            means[i, j] = dets.mean()
            second[i, j] = np.mean(np.abs(dets) ** 2)
    return means, second


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_wedge_power_stats_matches_determinant_loop(n, k):
    rng = derive_rng(41, "minors", n, k)
    a = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    k_batch = a - a.conj().transpose(0, 2, 1)  # anti-Hermitian, as every real (1,1)-form
    means, second = wedge_power_stats(k_batch, k)
    want_means, want_second = det_loop_stats(k_batch, k)
    assert means.shape == second.shape == want_means.shape
    if not means.size:
        return  # k > n: no minors
    assert np.max(np.abs(means - want_means)) <= 1e-12 * np.max(np.abs(want_means))
    assert np.max(np.abs(second - want_second)) <= 1e-12 * np.max(want_second)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wedge_power_stats_matches_exterior_power(k):
    """One sample at genus 2: the coefficients of omega^k by repeated wedge."""
    g = 2
    pairs, n = sym_index_pairs(g), sym_dim(g)
    rng = derive_rng(42, "wedge-power", k)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    coeffs = a - a.conj().T  # anti-Hermitian, as every real (1,1)-form
    omega = ExtForm.zero(n)
    for p, dt in enumerate(pairs):
        for q, dtbar in enumerate(pairs):
            term = ExtForm.generator(n, *dt).wedge(ExtForm.generator(n, *dtbar, conjugated=True))
            omega = omega + term * coeffs[p, q]
    power = ExtForm.one(n)
    for _ in range(k):
        power = power.wedge(omega)
    means, second = wedge_power_stats(coeffs[None], k)
    form = ExtForm.from_blocks(n, {(k, k): means})
    assert form.bidegrees() == power.bidegrees()
    # one sample: its squared modulus is the second moment
    assert np.allclose(second, np.abs(means) ** 2, rtol=1e-14, atol=0)
    assert form.max_coeff_diff(power) < 1e-13 * power.norm_inf()


@pytest.mark.parametrize("n, k", [(3, 1), (6, 1), (6, 2), (6, 3), (10, 2)])
def test_wedge_power_stats_expands_t_from_s_and_mirrors_the_rest_exactly(n, k):
    """The lower triangle is the mirror of the upper one, bit for bit, whatever K is.

    K here is a general complex batch, not anti-Hermitian, so the true
    minors below the diagonal differ from the mirror: the kernel computes
    T >= S (diagonal included) and only mirrors T < S.
    """
    rng = derive_rng(43, "mirror", n, k)
    k_batch = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    means, second = wedge_power_stats(k_batch, k)
    want_means, want_second = det_loop_stats(k_batch, k)
    upper = np.triu_indices(len(means))
    assert np.max(np.abs(means - want_means)[upper]) <= 1e-12 * np.max(np.abs(want_means))
    assert np.max(np.abs(second - want_second)[upper]) <= 1e-12 * np.max(want_second)
    lower = np.tril_indices(len(means), -1)
    conj = means.T.conj()
    mirror = -conj if k % 2 else conj  # (-1)^k conj(means[S, T])
    assert means[lower].tobytes() == mirror[lower].tobytes()
    assert second[lower].tobytes() == second.T[lower].tobytes()
    assert np.max(np.abs(means - want_means)[lower]) > 1e-3 * np.max(np.abs(want_means))


def _restriction_oracle(form, basis, g):
    """One plane's restriction as restrict_to_plane computed it before planes were batched."""
    mats = vec_to_sym(basis, g)
    t = sym_pair_table(g)
    coords = mats[:, t.rows, t.cols]
    k = len(mats)
    minors = _minors(coords)
    num = complex(minors @ form.block(k, k) @ minors.conj())
    det = np.linalg.det((coords * t.frob) @ coords.conj().T)
    sign = -1.0 if (k * (k - 1) // 2) % 2 else 1.0
    return float((num / (sign * (0.5j) ** k * det * np.conj(det))).real)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_batched_planes_match_the_per_plane_loop_bitwise(g):
    n = sym_dim(g)
    pkg = curvature_package(random_siegel_point(g, derive_rng(60, "batch-planes", g)))
    segre = segre_by_moments(pkg, min(g, 3))
    for k in range(1, min(g, 3) + 1):
        s_k = segre.component(k, k)
        batch_rng, loop_rng = derive_rng(61, "planes", g, k), derive_rng(61, "planes", g, k)
        bases = _random_planes(n, k, 50, batch_rng)
        planes = [random_subspace(n, k, loop_rng, "Sg") for _ in range(50)]
        # one draw consumes the stream as the 50 single draws do, into the same bases
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
        assert bases.tobytes() == np.array([y.basis for y in planes]).tobytes()
        got = restrict_to_plane(s_k, bases)
        assert got.shape == (50,) and np.all(got > 0)
        assert got.tolist() == [restrict_to_plane(s_k, y) for y in planes]
        assert got.tolist() == [_restriction_oracle(s_k, y.basis, g) for y in planes]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_average_wedge_coefficients_match_the_per_vector_forms(g, monkeypatch):
    """The per-point tensor gives, for each unit w, the fundamental form of L_w."""
    coefficient_maps = []

    def keep_coefficient_map(metric, rng, n_samples, batch_size, k, coeff_batch):
        coefficient_maps.append(coeff_batch)
        return np.zeros((sym_dim(g), sym_dim(g)), dtype=complex), np.zeros((sym_dim(g),) * 2)

    monkeypatch.setattr(charforms, "_sphere_average", keep_coefficient_map)
    tau = random_siegel_point(g, derive_rng(62, "line-forms", g))
    check_average_wedge_powers(tau, k=1, n_samples=100)
    # unit w for the Hodge metric, as the check samples them, so <w, w>_hodge = 1
    w = random_unit_vector(METRICS["hodge"](tau.y), derive_rng(63, "line-forms", g), 40)
    got = coefficient_maps[0](w)
    assert got.shape == (40, sym_dim(g), sym_dim(g))
    for row, wi in zip(got, w):
        want = fundamental_form(line_hermitian_form(tau, wi), g).block(1, 1)
        assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_sampled_coefficient_matrices_are_anti_hermitian(g, monkeypatch):
    """Both callers of wedge_power_stats pass real (1,1)-forms, its precondition.

    The coefficient map of check_average_wedge_powers and the pairing forms
    of segre_by_quadrature (pairing_matrix_batch), each on unit vectors of
    the metric its sphere average samples, give K^H = -K up to roundoff.
    """
    sampled = []

    def keep_coefficient_map(metric, rng, n_samples, batch_size, k, coeff_batch):
        sampled.append((metric, coeff_batch))
        return np.zeros((sym_dim(g), sym_dim(g)), dtype=complex), np.zeros((sym_dim(g),) * 2)

    monkeypatch.setattr(charforms, "_sphere_average", keep_coefficient_map)
    tau = random_siegel_point(g, derive_rng(64, "anti-hermitian", g))
    check_average_wedge_powers(tau, k=1, n_samples=100)
    segre_by_quadrature(tau, 1, n_samples=100)
    assert len(sampled) == 2
    rng = derive_rng(65, "anti-hermitian", g)
    for metric, coeff_batch in sampled:
        k_batch = coeff_batch(random_unit_vector(metric, rng, 200))
        assert k_batch.shape == (200, sym_dim(g), sym_dim(g))
        skew = k_batch + k_batch.conj().transpose(0, 2, 1)
        assert np.max(np.abs(skew)) <= 1e-15 * np.max(np.abs(k_batch))


def test_forms_identity_lines_follow_the_run_seed():
    # the suite drew its lines from seed 0 at every run seed
    report = run_suites(RunConfig(suites=("forms-identity",), genus_list=(2,), n_tau=1, seed=5))
    got = next(c for c in report["suites"]["forms-identity"]["checks"]
               if c["name"] == "g2.t0.first-segre-lines")
    tau = random_siegel_point(2, derive_rng(5, "forms", 2, 0))
    want = next(c for c in check_pointwise_identity(tau, seed=5)
                if c.name == "first-segre-lines").to_dict()
    assert got == {**want, "name": "g2.t0.first-segre-lines"}
