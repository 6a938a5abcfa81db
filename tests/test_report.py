import json
import re
from dataclasses import replace

import numpy as np
import pytest

from hodgecheck.charforms import (
    check_average_wedge_powers,
    check_chern_segre_equality,
    check_pointwise_identity,
    check_positivity_and_vanishing,
)
from hodgecheck.report import (
    CheckRecord,
    VerificationReport,
    canonical_json,
    floor_check,
    jsonable,
    passing,
    reporting,
    strip_timing,
)
from hodgecheck.sampling import derive_rng, random_siegel_point, random_subspace
from hodgecheck.slices import check_embedded_subspace_invariance
from hodgecheck.suites import RunConfig, Suite
from hodgecheck.symmaps import annihilator_rigidity_suite
from helpers import random_plane_sg


def test_check_semantics():
    good = passing("a", "anchor", 1e-12, 1e-9)
    bad = passing("b", "anchor", 1e-3, 1e-9)
    assert good.passed and not bad.passed
    assert good.asserting and bad.asserting
    lo = floor_check("c", "anchor", 0.5, floor=-1e-10)
    hi = floor_check("d", "anchor", -1.0, floor=-1e-10)
    assert lo.passed and not hi.passed
    note = reporting("e", "anchor", 0.123)
    assert not note.asserting
    assert note.passed is None


def test_report_conjunction_ignores_reporting():
    rep = VerificationReport("demo", {"seed": 0},
                             [passing("a", "x", 0.0, 1.0), reporting("b", "x", 99.0)])
    assert rep.passed
    rep.checks.append(passing("c", "x", 2.0, 1.0))
    assert not rep.passed


def test_report_without_asserting_checks_is_null():
    rep = VerificationReport("demo", {})
    assert rep.passed is None
    rep.checks.append(reporting("b", "x", 99.0))
    assert rep.passed is None
    assert rep.to_dict()["passed"] is None
    assert '"passed": null' in canonical_json(rep.to_dict())


def test_suite_files_cell_checks_under_genus_and_prefix():
    cell = [passing("leaf", "x", 0.0, 1.0), reporting("info", "y", 3.0, notes="n")]
    suite = Suite("demo", lambda cfg, g: [("w1.", None)], lambda cfg, g, item: cell,
                  lambda cfg, run: {}, range(2, 4))
    rep = suite(RunConfig(genus_list=(1, 2, 3), seed=4))
    assert (rep.suite, rep.params) == ("demo", {"seed": 4})
    names = [c["name"] for c in rep.to_dict()["checks"]]
    assert names == ["g2.w1.leaf", "g2.w1.info", "g3.w1.leaf", "g3.w1.info"]
    # every other field is carried over as it is
    for g, filed in ((2, rep.checks[:2]), (3, rep.checks[2:])):
        assert [replace(c, name=c.name.removeprefix(f"g{g}.w1.")) for c in filed] == cell


def _tau2():
    return random_siegel_point(2, derive_rng(7, "returns-checks"))


@pytest.mark.parametrize("check", [
    lambda: check_pointwise_identity(_tau2()),
    lambda: check_chern_segre_equality(_tau2()),
    lambda: check_average_wedge_powers(_tau2(), k=1, n_samples=200),
    lambda: check_positivity_and_vanishing(_tau2(), i=2, trials=10, n_v_samples=10),
    lambda: annihilator_rigidity_suite(2, 2, trials=2, n_v_samples=10),
    lambda: check_embedded_subspace_invariance(
        _tau2(), random_subspace(2, 1, derive_rng(7, "w"), "V"), n_members=2),
], ids=["pointwise-identity", "chern-segre-equality", "average-wedge-powers",
        "positivity-and-vanishing", "annihilator-rigidity", "embedded-subspace-invariance"])
def test_check_functions_return_their_checks_unfiled(check):
    # the genus and item prefix g{g}.{prefix} is the suite driver's to add
    checks = check()
    assert type(checks) is list and checks
    assert all(type(c) is CheckRecord for c in checks)
    assert not [c.name for c in checks if re.match(r"g\d+\.", c.name)]


def test_canonical_json_sorted_and_strict():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s.index('"a"') < s.index('"b"')
    assert json.loads(s) == {"a": [2, 3], "b": 1}
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_jsonable_numpy():
    out = jsonable({"a": np.float64(1.5), "b": np.int64(2),
                    "c": np.arange(3), "d": (np.True_, None)})
    assert out == {"a": 1.5, "b": 2, "c": [0, 1, 2], "d": [True, None]}
    assert canonical_json(out)


def test_strip_timing_recursive():
    doc = {"wall_time_ms": 5,
           "suites": [{"name": "s", "wall_time_ms": 7, "keep": 1}],
           "nested": {"wall_time_ms": 9}}
    out = strip_timing(doc)
    assert "wall_time_ms" not in out
    assert "wall_time_ms" not in out["suites"][0]
    assert "wall_time_ms" not in out["nested"]
    assert out["suites"][0]["keep"] == 1
    # input untouched
    assert doc["wall_time_ms"] == 5


def test_derived_streams_are_stable():
    a = derive_rng(42, "tag", 1).standard_normal(4)
    b = derive_rng(42, "tag", 1).standard_normal(4)
    c = derive_rng(42, "tag", 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_siegel_point_valid():
    rng = derive_rng(1, "sp")
    for g in (1, 2, 3, 4):
        p = random_siegel_point(g, rng)
        assert np.array_equal(p.tau, p.tau.T)
        assert np.linalg.eigvalsh(p.y).min() > 0


def test_random_plane_orthonormal():
    rng = derive_rng(2, "plane")
    y = random_plane_sg(3, 2, rng)
    gram = y.basis @ y.basis.conj().T
    assert np.allclose(gram, np.eye(2))
    assert y.ambient_tag == "Sg"


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_measurement_fails_and_serializes_as_null(value):
    checks = [passing("p", "anchor", value, 1e-9),
              floor_check("f", "anchor", value, 1e-12)]
    assert all(c.passed is False for c in checks)
    rep = VerificationReport("demo", {}, checks + [reporting("r", "anchor", value)])
    assert not rep.passed
    doc = json.loads(canonical_json(rep.to_dict()))
    assert [c["measured"] for c in doc["checks"]] == [None, None, None]
