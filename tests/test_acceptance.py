"""Ten end-to-end acceptance checks at pinned tolerances.

One test per criterion, so a verbose run reads as the acceptance record.
Each test also prints a one-line summary with the measured extremes; pytest
shows it on failure or under -s.  Tolerances and sample counts are pinned
here on purpose and must not drift with library defaults.
"""

import json
import time
from fractions import Fraction

import numpy as np

from hodgecheck.charforms import (
    check_chern_segre_equality,
    chern_total,
    segre_by_inverse,
    segre_by_moments,
    segre_by_quadrature,
)
from hodgecheck.cli import main
from hodgecheck.curvature import fd_relative_error
from hodgecheck.extform import ExtForm, restrict_to_plane
from hodgecheck.linalg import sym_dim
from hodgecheck.report import canonical_json, strip_timing
from hodgecheck.sampling import derive_rng, random_siegel_point
from hodgecheck.slices import (
    AffineSlice,
    complex_structure,
    embedded_subspace,
    random_slice_member,
    standard_symplectic,
)
from hodgecheck.sampling import random_subspace
from hodgecheck.linalg import subspace_distance
from hodgecheck.suites import RunConfig, run_suites
from hodgecheck.symmaps import (
    annihilator_rigidity_suite,
    check_evaluation_degeneracy,
    frac_rank,
    random_rank_k_symmap,
    random_rational_symmap,
    rank_locus_tangent_check,
    rational_span_to_subspace,
    tangent_direction,
    wperp_exact,
)
from helpers import eval_matrix_exact, random_plane_sg, random_rational_vector, verdict

IDENTITY_TOL = 1e-9
ROUTE_TOL = 1e-10
FD_TOL = 1e-6
FD_STEP = 1e-5
EQUALITY_TOL = 1e-9
PLANE_FLOOR = -1e-10
VANISH_TOL = 1e-10
SLICE_DIFF_TOL = 1e-12
SLICE_GEOM_TOL = 1e-10
GENUS_SWEEP = (1, 2, 3)
N_TAU = 20
N_PLANES = 1000
N_PLANE_TAU = 5
QUAD_SAMPLES = 100_000
RIGIDITY_CELLS = ((3, 3), (4, 3), (5, 3), (4, 4))
RIGIDITY_TRIALS = 50
N_V_SAMPLES = 100
TANGENT_PAIRS = 100
SLICE_TRIALS = 100
WEDGE_BUDGET_S = 30.0
RIGIDITY_BUDGET_S = 60.0


def _announce(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_segre_inverts_chern_pointwise():
    t0 = time.perf_counter()
    worst = 0.0
    for g in GENUS_SWEEP:
        rng = derive_rng(0, "acc1", g)
        one = ExtForm.one(sym_dim(g))
        for _ in range(N_TAU):
            x = random_siegel_point(g, rng)
            c = chern_total(x)
            for s in (segre_by_inverse(x), segre_by_moments(x, sym_dim(g))):
                worst = max(worst, c.wedge(s).max_coeff_diff(one))
    elapsed = time.perf_counter() - t0
    _announce(1, worst < IDENTITY_TOL and elapsed < WEDGE_BUDGET_S,
              f"max wedge deviation {worst:.2e} < {IDENTITY_TOL}, "
              f"{elapsed:.1f}s < {WEDGE_BUDGET_S}s")


def test_criterion_02_segre_routes_agree():
    worst = 0.0
    for g in GENUS_SWEEP:
        rng = derive_rng(0, "acc2", g)
        for _ in range(N_TAU):
            x = random_siegel_point(g, rng)
            a = segre_by_inverse(x)
            b = segre_by_moments(x, 2 * g)
            worst = max(worst, a.max_coeff_diff(b))
    rng = derive_rng(0, "acc2-quad")
    x = random_siegel_point(2, rng)
    exact = segre_by_moments(x, 3)
    worst_band = 0.0
    for k in (1, 2, 3):
        est = segre_by_quadrature(x, k, n_samples=QUAD_SAMPLES, seed=17)
        worst_band = max(worst_band, est.compare(exact.component(k, k)))
    _announce(2, worst < ROUTE_TOL and worst_band <= 1.0,
              f"max route deviation {worst:.2e} < {ROUTE_TOL}, "
              f"quadrature max |dev|/3se {worst_band:.2f} <= 1")


def test_criterion_03_curvature_matches_finite_differences():
    worst = 0.0
    for g in GENUS_SWEEP:
        rng = derive_rng(0, "acc3", g)
        for _ in range(N_TAU):
            # moderate imaginary parts keep the second difference conditioned
            x = random_siegel_point(g, rng, spread=0.3, y_lo=0.2, y_hi=0.6)
            worst = max(worst, fd_relative_error(x, metric="dual", step=FD_STEP))
    _announce(3, worst < FD_TOL,
              f"max relative error {worst:.2e} < {FD_TOL} at step {FD_STEP}")


def test_criterion_04_dual_chern_equals_segre_low_orders():
    worst = 0.0
    for g in GENUS_SWEEP:
        rng = derive_rng(0, "acc4", g)
        for _ in range(5):
            x = random_siegel_point(g, rng)
            records = check_chern_segre_equality(x, tol=EQUALITY_TOL)
            assert verdict(records)
            checks = [c.to_dict() for c in records]
            assert [c["name"] for c in checks] == [f"c{k}-equals-dual-s{k}"
                                                  for k in range(1, g + 1)]
            worst = max([worst] + [c["measured"] for c in checks])
    _announce(4, worst < EQUALITY_TOL,
              f"every k in 1..g max deviation {worst:.2e} < {EQUALITY_TOL}")


def test_criterion_05_positivity_on_random_planes():
    lowest = np.inf
    for g in GENUS_SWEEP:
        rng = derive_rng(0, "acc5", g)
        for _ in range(N_PLANE_TAU):
            x = random_siegel_point(g, rng)
            s = segre_by_inverse(x)
            for k in range(1, g + 1):
                sk = s.component(k, k)
                for _ in range(N_PLANES):
                    y = random_plane_sg(g, k, rng)
                    lowest = min(lowest, restrict_to_plane(sk, y))
    _announce(5, lowest >= PLANE_FLOOR,
              f"minimum plane value {lowest:.2e} >= {PLANE_FLOOR}")


def test_criterion_06_vanishing_on_annihilators():
    worst_val = 0.0
    worst_rank = 0
    for g, n_tau in ((3, 2), (4, 1)):
        rng = derive_rng(0, "acc6", g)
        points = [random_siegel_point(g, rng) for _ in range(n_tau)]
        thirds = [segre_by_inverse(x, k_max=3).component(3, 3) for x in points]
        for _ in range(5):
            w_rows = [random_rational_vector(g, rng, bound=9)
                      for _ in range(g - 2)]
            basis = wperp_exact(w_rows, g)
            assert len(basis) == 3
            plane = rational_span_to_subspace(basis)
            for s3 in thirds:
                worst_val = max(worst_val, abs(restrict_to_plane(s3, plane)))
            rep = check_evaluation_degeneracy(basis, 3,
                                              n_v_samples=N_V_SAMPLES, seed=g)
            assert rep.satisfied and rep.witness is None
            vrng = derive_rng(0, "acc6-rank", g)
            for _ in range(N_V_SAMPLES):
                v = random_rational_vector(g, vrng)
                worst_rank = max(worst_rank,
                                 frac_rank(eval_matrix_exact(basis, v)))
    _announce(6, worst_val < VANISH_TOL and worst_rank <= 2,
              f"max |restriction| {worst_val:.2e} < {VANISH_TOL}, "
              f"max evaluation rank {worst_rank} <= 2 over {N_V_SAMPLES} "
              "exact samples, zero witnesses")


def test_criterion_07_annihilator_rigidity_suite():
    t0 = time.perf_counter()
    for g, i in RIGIDITY_CELLS:
        checks = annihilator_rigidity_suite(g, i, trials=RIGIDITY_TRIALS,
                                            n_v_samples=N_V_SAMPLES, seed=0)
        assert verdict(checks), f"cell (g={g}, i={i}) failed"
    elapsed = time.perf_counter() - t0
    _announce(7, elapsed < RIGIDITY_BUDGET_S,
              f"4 cells x {RIGIDITY_TRIALS} trials passed, "
              f"{elapsed:.1f}s < {RIGIDITY_BUDGET_S}s")


def test_criterion_08_tangent_routes_never_disagree():
    checked = 0
    for g in (2, 3, 4):
        for k in range(1, g):
            rng = derive_rng(0, "acc8", g, k)
            for t in range(TANGENT_PAIRS):
                m, factors = random_rank_k_symmap(g, k, rng)
                if t % 2 == 0:
                    n = tangent_direction(factors, g, rng)
                else:
                    n = random_rational_symmap(g, rng)
                res = rank_locus_tangent_check(m, n)
                assert res.agree, f"routes disagree at (g={g}, k={k})"
                checked += 1
    _announce(8, checked == 600, f"{checked} exact pairs, zero disagreements")


def test_criterion_09_slice_and_embedding_invariants():
    rng = derive_rng(0, "acc9")
    worst_resid = 0.0
    worst_dist = 0.0
    worst_j = 0.0
    for _ in range(SLICE_TRIALS):
        g = int(rng.integers(1, 5))
        wdim = int(rng.integers(1, g + 1))
        tau0 = random_siegel_point(g, rng)
        w = random_subspace(g, wdim, rng, "V")
        sl = AffineSlice(tau0, w)
        m = random_slice_member(sl, rng)
        diff = m.tau - tau0.tau
        worst_resid = max(worst_resid, float(np.max(np.abs(diff @ w.basis.T))))
        worst_dist = max(worst_dist, subspace_distance(
            embedded_subspace(m, w), embedded_subspace(tau0, w)))
        j = complex_structure(m)
        s = standard_symplectic(g)
        worst_j = max(worst_j,
                      float(np.max(np.abs(j @ j + np.eye(2 * g)))),
                      float(np.max(np.abs(j.T @ s @ j - s))))
    _announce(9, worst_resid < SLICE_DIFF_TOL and worst_dist < SLICE_GEOM_TOL
              and worst_j < SLICE_GEOM_TOL,
              f"member residual {worst_resid:.2e} < {SLICE_DIFF_TOL}, "
              f"image distance {worst_dist:.2e} < {SLICE_GEOM_TOL}, "
              f"structure defect {worst_j:.2e} < {SLICE_GEOM_TOL}")


def test_criterion_10_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--seed", "123", "--out", str(out1)]) == 0
    assert main(["--seed", "123", "--out", str(out2)]) == 0
    a = canonical_json(strip_timing(json.loads(out1.read_text())))
    b = canonical_json(strip_timing(json.loads(out2.read_text())))
    same_cli = a == b
    serial = run_suites(RunConfig(genus_list=(1, 2), seed=123,
                                  suites=("dual-identity", "slice-embed")))
    parallel = run_suites(RunConfig(genus_list=(1, 2), seed=123,
                                    suites=("dual-identity", "slice-embed"),
                                    parallel=True))
    same_parallel = canonical_json(strip_timing(serial["suites"])) == \
        canonical_json(strip_timing(parallel["suites"]))
    _announce(10, same_cli and same_parallel,
              "two full runs byte-identical after dropping timing; "
              "parallel execution reproduces serial output")
