"""The benchmark's workloads: which suites run, at which genus, and why.

Each workload is one `hodgecheck` command line.  The seed is the only input
that varies between runs; everything else is fixed here so that a number
taken on one commit can be compared with the same number on another.

`expected` holds the asserting-check count of every suite at the commit
that defined the benchmark.  A run that raises or is rejected counts all of
them as failed; a run that yields fewer counts the missing ones as failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)

    @property
    def expected_total(self) -> int:
        return sum(self.expected.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default",
            "the run users and CI make: all 8 suites at genus 1-3 with 20k "
            "samples; sphere sampling and wedge-power determinants dominate",
            config={},
            expected={
                "average-wedge": 15,
                "curvature-fd": 18,
                "dual-identity": 15,
                "eval-rank": 8,
                "forms-identity": 36,
                "positivity-vanishing": 8,
                "rank-locus": 9,
                "slice-embed": 24,
            },
        ),
        Workload(
            "forms-g3",
            "Chern/Segre form identities at genus 3 with 6 points: sparse "
            "exterior algebra only, no sampling and no exact arithmetic",
            config={"suites": ["forms-identity", "dual-identity"],
                    "genus": [3], "n_tau": 6},
            expected={"dual-identity": 12, "forms-identity": 24},
        ),
        Workload(
            "planes-g4",
            "plane and rank suites at genus 4, the frontier that finishes: "
            "contraction on planes and exact Fraction elimination",
            config={"suites": ["positivity-vanishing", "eval-rank",
                               "rank-locus", "slice-embed"],
                    "genus": [4]},
            expected={"eval-rank": 16, "positivity-vanishing": 4,
                      "rank-locus": 8, "slice-embed": 16},
        ),
    )
}
