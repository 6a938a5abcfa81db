"""Named verification suites and the configuration they all share.

SUITES, the table at the bottom, is what the command line exposes.  Each Suite
states the genera it runs at, the items its cell at one genus is made of
(points, degrees k, ranks i, subspace dimensions), how one item is checked and
the settings its report echoes.  A cell returns its checks; calling a Suite with
a RunConfig files them in its one VerificationReport.  Suites derive every
random draw from (seed, suite tag, indices), so a fixed config yields a
byte-identical report apart from wall-clock fields.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .charforms import (
    check_average_wedge_powers,
    check_chern_segre_equality,
    check_pointwise_identity,
    check_positivity_and_vanishing,
)
from .curvature import fd_relative_error
from .errors import ConfigInvalid, SuiteUnknown
from .report import SCHEMA_VERSION, CheckRecord, VerificationReport, jsonable, passing
from .sampling import derive_rng, random_siegel_point, random_subspace
from .slices import check_embedded_subspace_invariance
from .symmaps import (
    annihilator_rigidity_suite,
    find_rank_ones,
    frac_nullspace,
    frac_rank,
    pencil_rank_profile,
    random_rank_k_symmap,
    random_rational_symmap,
    rank_locus_tangent_check,
    rational_span_to_subspace,
    tangent_direction,
)

DEFAULT_TOLERANCES = {
    "identity": 1e-9,      # exact form identities
    "equality": 1e-9,      # chern/segre cross-bundle comparison
    "fd": 1e-6,            # finite differences against closed curvature
    "vanishing": 1e-10,    # restrictions that must be zero
    "slice": 1e-10,        # embedded-subspace invariance
}


@dataclass(frozen=True)
class RunConfig:
    """Every run setting; validate() is the one type and range gate for all sources."""

    genus_list: tuple = (1, 2, 3)
    suites: tuple = ()          # empty means all registered suites
    seed: int = 0
    n_samples: int = 20_000
    n_tau: int = 3
    plane_trials: int = 200
    eval_trials: int = 50
    rank_pairs: int = 25
    tolerances: dict = field(default_factory=dict)  # overrides of DEFAULT_TOLERANCES
    output_path: str | None = None
    parallel: bool = False

    def validate(self) -> "RunConfig":
        # type, not isinstance: a JSON true is a bool, and bool subclasses int
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigInvalid(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("genus_list", "suites"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigInvalid(f"{name} must be a list, got {getattr(self, name)!r}")
        if not self.genus_list:
            raise ConfigInvalid("empty genus list")
        for g in self.genus_list:
            if type(g) is not int or g < 1:
                raise ConfigInvalid(f"genus entries must be positive integers, got {g!r}")
        for name in ("n_samples", "n_tau", "plane_trials", "eval_trials", "rank_pairs"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigInvalid(f"{name} must be a positive integer, got {value!r}")
        if self.n_samples < 100:
            raise ConfigInvalid(f"n_samples must be at least 100, got {self.n_samples}")
        if not isinstance(self.tolerances, dict):  # before set(): a string would give its letters
            raise ConfigInvalid(f"tolerances must map names to numbers, got {self.tolerances!r}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigInvalid(
                f"unknown tolerance names {sorted(unknown)}; "
                f"known: {sorted(DEFAULT_TOLERANCES)}")
        for name, value in self.tolerances.items():
            if type(value) not in (int, float):
                raise ConfigInvalid(f"tolerances must be numbers, got {name}={value!r}")
            if not 0 < value < math.inf:
                raise ConfigInvalid(
                    f"tolerance {name} must be positive and finite, got {value}")
        if type(self.parallel) is not bool:
            raise ConfigInvalid(f"parallel must be true or false, got {self.parallel!r}")
        if self.output_path is not None and type(self.output_path) is not str:
            raise ConfigInvalid(f"output_path must be a path string, got {self.output_path!r}")
        for name in self.suites:
            if type(name) is not str:  # checked first: a list or an object is unhashable
                raise ConfigInvalid(f"suites must be suite names, got {name!r}")
            if name not in SUITES:
                raise SuiteUnknown(
                    f"unknown suite {name!r}; available: {sorted(SUITES)}")
        # a repeated entry would run its cells twice and keep one report
        for what, values in (("genus", self.genus_list), ("suite", self.suites)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigInvalid(f"repeated {what} entries {repeated}")
        return self

    def tol(self, name: str) -> float:
        """The named tolerance: the one place the defaults of DEFAULT_TOLERANCES apply."""
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


# config-file key -> RunConfig field; the file spells two fields as their flags do
FILE_KEYS = {{"genus_list": "genus", "output_path": "out"}.get(f.name, f.name): f.name
             for f in fields(RunConfig)}


def _point(cfg: RunConfig, label: str, g: int, *key, **window):
    """A cell's Siegel point, drawn from the stream (seed, label, g, *key), with that stream."""
    rng = derive_rng(cfg.seed, label, g, *key)
    return random_siegel_point(g, rng, **window), rng


def _labelled(tag: str, values) -> list:
    """One item per value, filed under {tag}{value}."""
    return [(f"{tag}{v}.", v) for v in values]


def _points(cfg: RunConfig, g: int) -> list:
    return _labelled("t", range(cfg.n_tau))


def _fd_errors(cfg: RunConfig, g: int, t: int) -> list[CheckRecord]:
    tau = _point(cfg, "fd", g, t, spread=0.3, y_lo=0.2, y_hi=0.6)[0]
    return [passing(metric, "finite-difference curvature matches the closed form",
                    fd_relative_error(tau, metric=metric, step=1e-5), cfg.tol("fd"))
            for metric in ("dual", "hodge")]


def _eval_ranks(cfg: RunConfig, g: int) -> list:
    """The ranks i that eval-rank checks at genus g, filed under i{i}.

    i = 3 from genus 3 on, and i = 4 as well at genus 4.  A genus list with no
    genus >= 3 checks i = min(2, g) at its largest genus only.
    """
    if g >= 3:
        return _labelled("i", (3, 4) if g == 4 else (3,))
    return _labelled("i", (min(2, g),) if g == max(cfg.genus_list) < 3 else ())


def _rank_locus(cfg: RunConfig, g: int) -> list[CheckRecord]:
    # the one item of its genus: every draw of the cell, the k loop's too, is from one stream
    checks = []
    rng = derive_rng(cfg.seed, "rank-locus", g)
    for k in range(1, g):
        disagreements = tangent_rejected = 0
        for trial in range(cfg.rank_pairs):
            m, factors = random_rank_k_symmap(g, k, rng)
            tangent = trial % 2 == 0
            n = tangent_direction(factors, g, rng) if tangent else random_rational_symmap(g, rng)
            res = rank_locus_tangent_check(m, n)
            tangent_rejected += tangent and not res.predicate_holds
            disagreements += not res.agree
        checks.extend([
            passing(f"k{k}.route-agreement", "kernel-image predicate agrees with vanishing of "
                    "minor directional derivatives", float(disagreements), 0.5),
            passing(f"k{k}.tangent-recognized", "constructed tangent directions satisfy the "
                    "predicate", float(tangent_rejected), 0.5)])

    # a pencil spanned by two rank ones reaches rank 2 but never 3
    m1, m2, _ = _independent_rank_ones(g, rng)
    prof = pencil_rank_profile(m1.as_float(), m2.as_float())
    checks.append(passing("pencil-max-rank", "pencil of two independent rank ones attains "
                          "rank exactly 2", abs(prof.max_rank - 2), 0.5))
    if g >= 3:
        found = _pencil_rank_one_recovery(g, rng)
        checks.append(passing("pencil-rank-one-recovery", "rank-one search recovers both "
                              "generators inside a two-dimensional intersection",
                              float(2 - found), 0.5))
    return checks


def _independent_rank_ones(g: int, rng):
    """Two rank-one maps u u^T, w w^T with u, w independent, and [u, w].

    Proportional factors would give proportional maps, so the pair is
    redrawn until the factors have rank 2; an independent first draw
    consumes no extra random numbers.
    """
    while True:
        m1, f1 = random_rank_k_symmap(g, 1, rng)
        m2, f2 = random_rank_k_symmap(g, 1, rng)
        factors = [list(f1[0]), list(f2[0])]
        if frac_rank(factors) == 2:
            return m1, m2, factors


def _pencil_rank_one_recovery(g: int, rng) -> int:
    # two rank ones annihilating a common vector v (g >= 3), then search for them
    m1, m2, factors = _independent_rank_ones(g, rng)
    v = np.array([float(x) for x in frac_nullspace(factors, g)[0]])
    return len(find_rank_ones(rational_span_to_subspace([m1, m2]), v))


def _slice_embed(cfg: RunConfig, g: int, wdim: int) -> list[CheckRecord]:
    tau0, rng = _point(cfg, "slice-point", g, wdim)
    w = random_subspace(g, wdim, rng, "V")
    return check_embedded_subspace_invariance(
        tau0, w, n_members=5, seed=cfg.seed, tol=cfg.tol("slice"))


@dataclass(frozen=True)
class Suite:
    """One suite as data: where it runs, what a genus cell is made of, what its report echoes.

    genera is the one statement of the genera a suite runs at, and items of what
    its cell at genus g is made of.  Calling the suite runs cell(cfg, g, item) for
    each (prefix, item) of items(cfg, g) at each genus of cfg.genus_list inside
    genera, in the config's order, and files the item's checks under g{g}.{prefix}
    in the suite's report, timed from the first cell to the last.
    """

    name: str
    items: Callable   # (cfg, g) -> [(prefix, item)], the parts of the cell at genus g
    cell: Callable    # (cfg, g, item) -> [CheckRecord], the checks of one item
    params: Callable  # (cfg, genera run) -> the settings the report echoes besides its seed
    genera: range

    def __call__(self, cfg: RunConfig) -> VerificationReport:
        t0 = time.perf_counter()
        genera = [g for g in cfg.genus_list if g in self.genera]
        checks = [replace(c, name=f"g{g}.{prefix}{c.name}")
                  for g in genera for prefix, item in self.items(cfg, g)
                  for c in self.cell(cfg, g, item)]
        return VerificationReport(self.name, {**self.params(cfg, genera), "seed": cfg.seed},
                                  checks, int((time.perf_counter() - t0) * 1000))


# A cost cap ends a range at the largest genus that finishes within 60 s and 2 GiB peak
# RSS (one CLI process at seed 0, 2 vCPUs); no genus past 32 was measured.
SUITES = {suite.name: suite for suite in (
    # genus 5 does not finish: a (5, 5) block of the algebra has 9.0e6 coefficients an entry
    Suite("forms-identity", _points, lambda cfg, g, t: check_pointwise_identity(
              _point(cfg, "forms", g, t)[0], tol=cfg.tol("identity"), seed=cfg.seed),
          lambda cfg, run: {"genus_list": run, "n_tau": cfg.n_tau, "tol": cfg.tol("identity")},
          range(1, 5)),
    Suite("dual-identity", _points, lambda cfg, g, t: check_chern_segre_equality(
              _point(cfg, "dual", g, t)[0], cfg.tol("equality")),
          lambda cfg, run: {"genus_list": run, "n_tau": cfg.n_tau, "tol": cfg.tol("equality")},
          range(1, 5)),
    # a cost cap: genus 7 ran past 60 s at 1.6 GiB, genus 6 takes 10 s at 330 MiB
    Suite("positivity-vanishing", lambda cfg, g: [("", min(3, g))],
          lambda cfg, g, i: check_positivity_and_vanishing(
              _point(cfg, "posvan-point", g)[0], i=i, trials=cfg.plane_trials, seed=cfg.seed,
              tol=cfg.tol("vanishing")),
          lambda cfg, run: {"genus_list": run, "trials": cfg.plane_trials}, range(1, 7)),
    # a cost cap: genus 7 ran past 60 s, genus 6 takes 21 s (at 5 and 6 the band fails)
    Suite("average-wedge", lambda cfg, g: _labelled("k", range(1, min(2, g) + 1)),
          lambda cfg, g, k: check_average_wedge_powers(
              _point(cfg, "avg-point", g)[0], k=k, n_samples=cfg.n_samples, seed=cfg.seed),
          lambda cfg, run: {"genus_list": run, "n_samples": cfg.n_samples}, range(1, 7)),
    # a cost cap, not a precision one: the relative error stays at or below 6.0e-7
    # against the 1e-6 bound up to genus 8, at 5 ms (g4) to 0.43 s (g8) an evaluation.
    # The window is well conditioned, so differencing noise stays below tolerance.
    Suite("curvature-fd", _points, _fd_errors,
          lambda cfg, run: {"genus_list": run, "n_tau": cfg.n_tau, "tol": cfg.tol("fd"),
                            "step": 1e-5},
          range(1, 9)),
    # a cost cap: genus 24 took 50-56 s and once ran past 60 s, genus 23 takes 31-39 s
    Suite("eval-rank", _eval_ranks, lambda cfg, g, i: annihilator_rigidity_suite(
              g, i, trials=cfg.eval_trials, n_v_samples=100, seed=cfg.seed),
          lambda cfg, run: {"pairs": [[g, i] for g in run for _, i in _eval_ranks(cfg, g)],
                            "trials": cfg.eval_trials},
          range(1, 24)),
    Suite("rank-locus", lambda cfg, g: [("", None)], lambda cfg, g, _: _rank_locus(cfg, g),
          lambda cfg, run: {"genus_list": run, "pairs_per_cell": cfg.rank_pairs}, range(2, 5)),
    # genus 32, the last one measured, takes 0.9 s at 130 MiB
    Suite("slice-embed", lambda cfg, g: _labelled("w", sorted({1, g - 1})), _slice_embed,
          lambda cfg, run: {"genus_list": run, "tol": cfg.tol("slice")}, range(2, 33)),
)}


def _run(name: str, cfg: RunConfig) -> VerificationReport:
    return SUITES[name](cfg)  # a module-level function, so a spawned worker can unpickle it


def run_suites(cfg: RunConfig) -> dict:
    cfg = cfg.validate()
    names = list(cfg.suites) if cfg.suites else sorted(SUITES)
    workers = min(len(names), os.cpu_count() or 1)
    if cfg.parallel and workers > 1:
        # imported here: multiprocessing adds ~15 ms to every import of the package.
        # Workers are spawned, as forking a process that runs BLAS threads is unsafe.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            reports = list(pool.map(_run, names, [cfg] * len(names)))
    else:
        reports = [_run(name, cfg) for name in names]

    # a suite without asserting checks (passed None) cannot fail the run
    verdicts = [rep.passed for rep in reports if rep.passed is not None]
    by_name = {name: rep.to_dict() for name, rep in zip(names, reports)}
    return {
        "schema_version": SCHEMA_VERSION,
        "config": jsonable({
            **{f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "output_path"},
            "suites": names,
            "tolerances": {k: cfg.tol(k) for k in sorted(DEFAULT_TOLERANCES)},
        }),
        "suites": dict(sorted(by_name.items())),
        "passed": bool(verdicts) and all(verdicts),
    }
