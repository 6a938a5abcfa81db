"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest benchmark

The end-to-end tests launch benchmark/run.py in a separate process, as a
command line would, and take about two minutes; the rest are quick.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END_UNITS  # noqa: E402
from tracing import SPANS, Tracer, metric_units  # noqa: E402
from verdicts import judge  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def bench(*args):
    """Run the benchmark; returns (exit code, details line, result object)."""
    proc = subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metric_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- the correctness gate -----------------------------------------------------

TOY = Workload("toy", "", expected={"a": 2, "b": 1})


def toy_report(checks_a, checks_b, passed):
    def suite(checks):
        return {"checks": [{"name": n, "asserting": True, "passed": p} for n, p in checks],
                "passed": all(p for _, p in checks), "wall_time_ms": 1}
    return json.dumps({"suites": {"a": suite(checks_a), "b": suite(checks_b)},
                       "passed": passed})


def test_crash_and_rejection_fail_every_expected_check():
    for exit_code, error in ((None, "NotIndependent: dependent"), (2, None)):
        verdict = judge(TOY, exit_code, None, error)
        assert (verdict.attempted, verdict.failed) == (3, 3)
        assert verdict.correct
    assert judge(TOY, None, None, "NotIndependent: dependent").failed_checks == [
        "every check: NotIndependent: dependent"]


def test_suite_without_asserting_checks_is_skipped_not_passed():
    verdict = judge(TOY, 0, toy_report([("x", True), ("y", True)], [], True))
    assert verdict.skipped == ["b"]
    assert (verdict.attempted, verdict.failed) == (3, 1)
    assert not verdict.correct


def test_failed_check_counts_by_name_and_keeps_output_correct():
    verdict = judge(TOY, 1, toy_report([("x", False), ("y", True)], [("z", True)], False))
    assert (verdict.attempted, verdict.failed, verdict.correct) == (3, 1, True)
    assert verdict.failed_checks == ["a/x"]


def test_exit_code_must_agree_with_the_report():
    assert not judge(TOY, 1, toy_report([("x", True), ("y", True)], [("z", True)], True)).correct


# -- tracing ------------------------------------------------------------------

def test_every_binding_of_a_target_is_wrapped_and_restored():
    import hodgecheck.charforms as charforms
    import hodgecheck.suites as suites

    before = (charforms.random_unit_vector, charforms.restrict_to_plane,
              suites.rank_locus_tangent_check, suites.SUITES["rank-locus"])
    with Tracer():
        during = (charforms.random_unit_vector, charforms.restrict_to_plane,
                  suites.rank_locus_tangent_check, suites.SUITES["rank-locus"])
        assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
    assert (charforms.random_unit_vector, charforms.restrict_to_plane,
            suites.rank_locus_tangent_check, suites.SUITES["rank-locus"]) == before


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_matches_the_untraced_report(workload):
    code, details, result = bench("--workload", workload, "--seed", "0",
                                  "--seconds", "1", "--trace", "1")
    assert code == 0
    # correct covers: traced and untraced reports equal after strip_timing
    assert result["correct"], details["problems"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(metric_units())
    for span, home in SPANS.items():
        if home == workload:
            assert metrics[f"{span}.calls"] >= 1, span
    for suite in WORKLOADS[workload].expected:
        assert metrics[f"suites.{suite}.s"] > 0, suite


# -- end to end ---------------------------------------------------------------

def test_seed_0_passes_every_check_on_every_workload():
    for workload in WORKLOADS:
        code, details, result = bench("--workload", workload, "--seed", "0",
                                      "--seconds", "1", "--trace", "0")
        assert code == 0
        assert result["correct"] and result["failed"] == 0, details["failed_checks"]
        assert result["attempted"] == WORKLOADS[workload].expected_total
        assert set(result["metrics"]) == set(END_TO_END_UNITS)


def test_seed_105_reports_its_monte_carlo_false_alarm():
    """average-wedge's 3-standard-error band fails at seed 105 (a finding, see
    README.md).  The benchmark counts it and still reports every metric.  A
    change to the order of random draws moves this; re-record the finding
    then, do not change the seed."""
    code, details, result = bench("--workload", "default", "--seed", "105",
                                  "--seconds", "1", "--trace", "0")
    assert code == 0
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 133, 1)
    assert details["failed_checks"] == ["average-wedge/g3.k1.scaled-average-matches-segre"]
    assert result["metrics"]["check_pass_share"]["value"] == pytest.approx(132 / 133)
    assert set(result["metrics"]) == set(END_TO_END_UNITS)


def test_operation_counts_do_not_depend_on_the_number_of_calls():
    """Two sets of runs at the same seeds must agree on attempted and failed,
    whichever number of calls fits in each run."""
    code, details, result = bench("--workload", "forms-g3", "--seed", "0",
                                  "--seconds", "14", "--trace", "0")
    assert code == 0 and details["iterations"] >= 2
    assert result["correct"], details["problems"]
    assert (result["attempted"], result["failed"]) == (36, 0)


def test_without_the_program_it_exits_nonzero_and_prints_no_result():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copytree(HERE, Path(tmp) / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", "default", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
