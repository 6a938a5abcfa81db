"""Judge one `hodgecheck` run by the program's own verdicts.

The benchmark's operations are the asserting checks of the report.  A check
that the report marks failed counts as failed, and so does every expected
check of a call that raised or was rejected (exit 2): the program failed to
verify what it was asked to.  Whether the output is correct is a separate
question about the report itself.  It is not correct when a suite yielded no
asserting check (a vacuous pass) or when the exit code disagrees with the
report's verdicts; run.py adds reports of one seed that differ.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from workloads import Workload


@dataclass
class Verdict:
    attempted: int
    failed: int
    digest: str | None = None
    checks_by_suite: dict = field(default_factory=dict)
    failed_checks: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def report_digest(report: dict) -> str:
    """sha256 of the canonical report with every timing field removed."""
    from hodgecheck.report import canonical_json, strip_timing

    return hashlib.sha256(canonical_json(strip_timing(report)).encode()).hexdigest()


def judge(workload: Workload, exit_code: int | None, report_text: str | None,
          error: str | None = None) -> Verdict:
    """exit_code is None when the call raised `error` instead of returning."""
    expected = workload.expected_total
    if exit_code is None or exit_code == 2 or report_text is None:
        what = error or f"exited {exit_code} without a report"
        return Verdict(expected, expected, failed_checks=[f"every check: {what}"])
    report = json.loads(report_text)
    verdict = Verdict(0, 0, digest=report_digest(report))
    suites = report.get("suites", {})
    passed = True
    for suite in sorted(set(workload.expected) | set(suites)):
        checks = [c for c in suites.get(suite, {}).get("checks", []) if c["asserting"]]
        verdict.checks_by_suite[suite] = len(checks)
        if not checks:
            verdict.skipped.append(suite)
            verdict.problems.append(f"suite {suite} yielded no asserting check")
        missing = max(workload.expected.get(suite, 0) - len(checks), 0)
        failed = [c["name"] for c in checks if c["passed"] is not True]
        passed = passed and not failed
        verdict.attempted += len(checks) + missing
        verdict.failed += len(failed) + missing
        verdict.failed_checks += [f"{suite}/{name}" for name in failed]
        if missing:
            verdict.failed_checks.append(f"{suite}: {missing} expected checks missing")
    if report.get("passed") is not passed or exit_code != (0 if passed else 1):
        verdict.problems.append(
            f"exit code {exit_code} disagrees with the report's verdicts")
    return verdict
