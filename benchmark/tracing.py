"""Outside-in tracing of hodgecheck's layers, from the benchmark's own files.

The program is not edited.  For the traced run, every module-level binding
of a target function (and the class attribute of a target method) is
replaced with a wrapper that records a span, then restored.  Modules import
some targets by name (`charforms` binds `random_unit_vector` and
`restrict_to_plane`, `suites` binds the checks), so wrapping only the
defining module would miss those calls; `install` wraps every binding in
every loaded `hodgecheck` module and refuses to proceed if one is left.

A span's self time is its duration minus the time of the spans it caused.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass

# Work counted at a span boundary: span -> f(args, result) -> number.
_WORK = {
    # N * C(n, k)^2 determinants for a batch of N matrices of size n
    "charforms.wedge_power_stats":
        lambda args, result: args[0].shape[0] * math.comb(args[0].shape[1], args[1]) ** 2,
    "extform.ExtForm.wedge": lambda args, result: len(result),
    # calls that found an evaluation witness
    "symmaps.check_evaluation_degeneracy": lambda args, result: int(not result.satisfied),
    "report.canonical_json": lambda args, result: len(result.encode()),
}

# span -> the workload on which it must record at least one call.
SPANS = {
    "sampling.random_unit_vector": "default",
    "charforms.wedge_power_stats": "default",
    "extform.ExtForm.wedge": "forms-g3",
    "extform.ExtForm.contract": "planes-g4",
    "extform.restrict_to_plane": "planes-g4",
    "symmaps.frac_rref": "planes-g4",
    "extform.FormMatrix.det": "forms-g3",
    "extform.FormMatrix.matmul": "forms-g3",
    "extform.ExtForm.inverse_even": "forms-g3",
    "charforms.chern_total": "forms-g3",
    "charforms.segre_by_inverse": "forms-g3",
    "charforms.segre_by_moments": "forms-g3",
    "symmaps.check_evaluation_degeneracy": "planes-g4",
    "symmaps.rank_locus_tangent_check": "planes-g4",
    "curvature.curvature_package": "default",
    "curvature.fd_relative_error": "default",
    "sampling.random_subspace": "default",
    "slices.check_embedded_subspace_invariance": "default",
    "report.canonical_json": "default",
}

SUITE_NAMES = ("average-wedge", "curvature-fd", "dual-identity", "eval-rank",
               "forms-identity", "positivity-vanishing", "rank-locus", "slice-embed")


def metric_units() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.self_s"] = ("s", "lower")
        out[f"{span}.total_s"] = ("s", "lower")
    out["charforms.wedge_power_stats.dets"] = ("count", "lower")
    out["extform.ExtForm.wedge.terms_out"] = ("count", "lower")
    out["symmaps.check_evaluation_degeneracy.witness_ratio"] = ("ratio", "higher")
    out["report.canonical_json.bytes"] = ("B", "lower")
    for suite in SUITE_NAMES:
        out[f"suites.{suite}.s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    work: float = 0.0


class Tracer:
    """Wraps the targets in SPANS and the suite registry while installed."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self.suite_stats = {f"suites.{name}": SpanStats() for name in SUITE_NAMES}
        self.missing: list[str] = []
        self._open: list[float] = []  # child time of each span still running
        self._undo: list[tuple] = []

    def _wrap(self, fn, stats: SpanStats, work=None):
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
            if work is not None:
                stats.work += work(args, result)
            return result

        return traced

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            old, put = owner[key], functools.partial(owner.__setitem__, key)
        else:
            old, put = getattr(owner, key), functools.partial(setattr, owner, key)
        self._undo.append((put, old))
        put(value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hodgecheck" or name.startswith("hodgecheck."))]
        originals = []
        for span, stats in self.stats.items():
            module_name, *path = span.split(".")
            owner = sys.modules.get(f"hodgecheck.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None)
            if fn is None:
                self.missing.append(span)
                continue
            originals.append(fn)
            wrapped = self._wrap(fn, stats, _WORK.get(span))
            if len(path) > 1:
                self._set(owner, path[-1], wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapped)
        registry = sys.modules["hodgecheck.suites"].SUITES
        for name in SUITE_NAMES:
            if name not in registry:
                self.missing.append(f"suites.{name}")
                continue
            self._set(registry, name, self._wrap(registry[name], self.suite_stats[f"suites.{name}"]))
        left = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items()
                if any(v is fn for fn in originals)]
        if left:
            self.uninstall()
            raise RuntimeError(f"untraced bindings remain: {left}")

    def uninstall(self):
        while self._undo:
            put, old = self._undo.pop()
            put(old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self) -> dict:
        """Per-layer values of this traced call, without trace.overhead_s."""
        out = {}
        for span, st in self.stats.items():
            out[f"{span}.calls"] = st.calls
            out[f"{span}.self_s"] = st.self_s
            out[f"{span}.total_s"] = st.total_s
        st = self.stats
        out["charforms.wedge_power_stats.dets"] = int(st["charforms.wedge_power_stats"].work)
        out["extform.ExtForm.wedge.terms_out"] = int(st["extform.ExtForm.wedge"].work)
        degeneracy = st["symmaps.check_evaluation_degeneracy"]
        out["symmaps.check_evaluation_degeneracy.witness_ratio"] = (
            degeneracy.work / degeneracy.calls if degeneracy.calls else 0.0)
        out["report.canonical_json.bytes"] = int(st["report.canonical_json"].work)
        for name, st in self.suite_stats.items():
            out[f"{name}.s"] = st.total_s
        return out
