"""Command line front end: configure, run suites, emit one JSON report.

Exit codes: 0 all asserting checks passed, 1 some check failed, 2 the
configuration was unusable or verified nothing.  Settings resolve as
flag > config file > VERIFY_SEED environment variable > built-in default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigInvalid, SuiteUnknown
from .report import canonical_json
from .suites import DEFAULT_TOLERANCES, SUITES, RunConfig, run_suites


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgecheck",
        description="Run verification suites for the period-domain bundle "
                    "calculus and write a JSON report.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file with the same keys as the flags")
    parser.add_argument("--suite", action="append", metavar="NAME",
                        help="suite to run (repeatable, comma separated "
                             f"allowed); available: {', '.join(sorted(SUITES))}")
    parser.add_argument("--genus", action="append", type=int, metavar="G",
                        help="genus to include (repeatable)")
    parser.add_argument("--seed", type=int, help="base seed for all sampling")
    parser.add_argument("--samples", type=int,
                        help="sample count for Monte Carlo suites (min 100)")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a named tolerance "
                             f"({', '.join(sorted(DEFAULT_TOLERANCES))})")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--parallel", action="store_true",
                        help="run suites in worker processes")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid("config file must hold a JSON object")
    known = {"genus", "suites", "seed", "n_samples", "n_tau", "plane_trials",
             "eval_trials", "rank_pairs", "tolerances", "out", "parallel"}
    unknown = set(data) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys {sorted(unknown)}; known: {sorted(known)}")
    return data


def _parse_tol_overrides(items) -> dict:
    out = {}
    for item in items or ():
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigInvalid(f"tolerance override {item!r} is not NAME=VALUE")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigInvalid(f"tolerance value {value!r} is not a number") from exc
    return out


def _env_seed() -> int | None:
    raw = os.environ.get("VERIFY_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"VERIFY_SEED={raw!r} is not an integer") from exc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    defaults = RunConfig()

    def pick(flag_value, file_key, default):
        if flag_value is not None:
            return flag_value
        if file_key in file_cfg:
            return file_cfg[file_key]
        return default

    seed = args.seed
    if seed is None:
        seed = file_cfg.get("seed")
    if seed is None:
        seed = _env_seed()
    if seed is None:
        seed = defaults.seed

    suites = []
    if args.suite:
        for item in args.suite:
            suites.extend(s for s in item.split(",") if s)
    elif "suites" in file_cfg:
        raw = file_cfg["suites"]
        if not isinstance(raw, list):
            raise ConfigInvalid("config key 'suites' must be a list")
        suites = list(raw)

    genus = pick(args.genus, "genus", defaults.genus_list)
    if not isinstance(genus, (list, tuple)):
        raise ConfigInvalid("genus must be a list")

    tolerances = dict(DEFAULT_TOLERANCES)
    raw_tol = file_cfg.get("tolerances", {})
    if not isinstance(raw_tol, dict):
        raise ConfigInvalid("config key 'tolerances' must be an object")
    try:
        tolerances.update({k: float(v) for k, v in raw_tol.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"config tolerances must be numbers: {exc}") from exc
    tolerances.update(_parse_tol_overrides(args.tol))

    cfg = RunConfig(
        genus_list=tuple(genus),
        suites=tuple(suites),
        seed=seed,
        n_samples=pick(args.samples, "n_samples", defaults.n_samples),
        n_tau=file_cfg.get("n_tau", defaults.n_tau),
        plane_trials=file_cfg.get("plane_trials", defaults.plane_trials),
        eval_trials=file_cfg.get("eval_trials", defaults.eval_trials),
        rank_pairs=file_cfg.get("rank_pairs", defaults.rank_pairs),
        tolerances=tolerances,
        output_path=pick(args.out, "out", defaults.output_path),
        parallel=bool(args.parallel or file_cfg.get("parallel", defaults.parallel)),
    )
    return cfg.validate()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        result = run_suites(cfg)
    except (ConfigInvalid, SuiteUnknown) as exc:
        print(f"hodgecheck: {exc}", file=sys.stderr)
        return 2
    if all(body["passed"] is None for body in result["suites"].values()):
        names = ", ".join(result["config"]["suites"])
        print(f"hodgecheck: nothing verified: no asserting check in {names} "
              f"at genus {list(cfg.genus_list)}", file=sys.stderr)
        return 2
    text = canonical_json(result)
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
