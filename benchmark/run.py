"""hodgecheck benchmark: one workload, one closed-loop client, one process.

Run from the repository root:

    python3 benchmark/run.py --workload default --seed 0 --seconds 40 --trace 0

Each iteration calls the public entry point `hodgecheck.cli.main` with the
workload's arguments and writes the report to a file, so argument parsing,
every suite, report encoding and writing are inside the measured path.  The
next iteration starts when the previous one has returned, unless at the
previous one's pace it would end past `--seconds`; at least one runs.  Every
iteration uses the same seed, so their reports must agree byte for byte
once timing fields are stripped.  The run's operations are the asserting
checks of that one verification, so `attempted` and `failed` depend on the
seed alone and not on how many iterations fit in `--seconds`.

`--trace 0` reports the end-to-end metrics:

* verify_s          median wall time of one `cli.main` call
* setup_s           median time of a fresh interpreter running `import
                    hodgecheck` (numpy included), launched twice after
                    each call so that it samples the same window
* peak_rss_mb       peak resident memory of this process, in MiB
* check_pass_share  asserting checks passed / asserting checks attempted

`--trace 1` alternates untraced and traced calls and reports the per-layer
metrics of tracing.py, with trace.overhead_s the median difference between
a traced call and the untraced call before it.

The second-to-last line of stdout records the environment and the details
of the run; the last line is the result object.  The program is loaded from
`src/` next to this directory and never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES_PER_CALL = 2
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

from environment import cap_blas_threads, describe  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402
from verdicts import judge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "check_pass_share": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Import hodgecheck from this checkout's src/, or exit with a message."""
    if not (SRC / "hodgecheck" / "__init__.py").is_file():
        sys.exit(f"benchmark: no hodgecheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hodgecheck.cli

    if Path(hodgecheck.__file__).resolve().parent != SRC / "hodgecheck":
        sys.exit(f"benchmark: hodgecheck loaded from {hodgecheck.__file__}, not {SRC}")
    return hodgecheck.cli


class Client:
    """Calls cli.main the way a user's run does and judges each report."""

    def __init__(self, cli, workload, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.report_path = workdir / "report.json"
        self.argv = ["--seed", str(seed), "--out", str(self.report_path)]
        if workload.config:
            config_path = workdir / "config.json"
            config_path.write_text(json.dumps(workload.config))
            self.argv += ["--config", str(config_path)]

    def call(self, tracer: Tracer | None = None):
        """One verification run: (seconds, Verdict)."""
        self.report_path.unlink(missing_ok=True)
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                exit_code = self.cli.main(self.argv)
            else:
                with tracer:
                    exit_code = self.cli.main(self.argv)
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            traceback.print_exc()
            exit_code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        text = self.report_path.read_text() if self.report_path.is_file() else None
        return seconds, judge(self.workload, exit_code, text, error)


def closed_loop(seconds: float, step) -> list:
    """Call step() until one more call would end past the budget; at least once."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return results


def measure_setup(n: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import hodgecheck"], cwd=ROOT,
                                env=env, stdout=subprocess.DEVNULL)
        # A blocking wait sees the exit at once; Popen.wait(timeout) polls in
        # steps of up to 50 ms, which would quantize the measurement.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        out.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return out


def run_timed(client: Client, seconds: float):
    def step():
        took, verdict = client.call()
        return took, verdict, measure_setup(SETUP_LAUNCHES_PER_CALL)

    calls = closed_loop(seconds, step)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = [s for *_, launches in calls for s in launches]
    verdicts = [v for _, v, _ in calls]
    metrics = {
        "verify_s": statistics.median(s for s, *_ in calls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "check_pass_share": 1.0 - verdicts[0].failed / verdicts[0].attempted,
    }
    details = {"verify_s_samples": [s for s, *_ in calls], "setup_s_samples": setup}
    return verdicts, metrics, END_TO_END_UNITS, details


def run_traced(client: Client, seconds: float):
    def pair():
        plain = client.call()
        tracer = Tracer()
        traced = client.call(tracer)
        return plain, traced, tracer

    pairs = closed_loop(seconds, pair)
    units = metric_units()
    layers = [tracer.metrics() for _, _, tracer in pairs]
    metrics = {}
    for name in units:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(t[0] - p[0] for p, t, _ in pairs)
        elif isinstance(layers[0][name], int):
            metrics[name] = layers[0][name]
        else:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    verdicts = [v for p, t, _ in pairs for v in (p[1], t[1])]
    # counts repeat exactly across traced calls of one seed
    moved = sorted(name for name, (unit, _) in units.items()
                   if unit == "count" and len({layer[name] for layer in layers}) > 1)
    if moved:
        verdicts[0].problems.append(f"counts differ between traced calls of one seed: {moved}")
    missing = pairs[0][2].missing
    if missing:
        verdicts[0].problems.append(f"trace targets not found: {missing}")
    details = {"verify_s_samples": [p[0] for p, _, _ in pairs],
               "traced_s_samples": [t[0] for _, t, _ in pairs]}
    return verdicts, metrics, {name: unit for name, (unit, _) in units.items()}, details


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads(os.environ)
    cli = load_program()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        client = Client(cli, workload, args.seed, Path(tmp))
        run = run_traced if args.trace else run_timed
        verdicts, metrics, units, details = run(client, args.seconds)

    problems = list(dict.fromkeys(p for v in verdicts for p in v.problems))
    first = verdicts[0]
    if any((v.digest, v.failed_checks) != (first.digest, first.failed_checks)
           for v in verdicts):
        problems.append("calls of one seed differ in their reports or failed checks")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": describe(ROOT, SRC),
        "iterations": len(details["verify_s_samples"]),
        **details,
        "report_sha256": first.digest,
        "asserting_checks_by_suite": first.checks_by_suite,
        "expected_checks_by_suite": workload.expected,
        "skipped_suites": first.skipped,
        "failed_checks": first.failed_checks,
        "problems": problems,
    }
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not problems,
        # every call repeats the same verification, checked equal above
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
