"""Command line front end: configure, run suites, emit one JSON report.

Exit codes: 0 all asserting checks passed, 1 some check failed, 2 the
configuration was unusable, the run verified nothing, or the report could
not be written.  Settings resolve as flag > config file > VERIFY_SEED
environment variable > built-in default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigInvalid, SuiteUnknown
from .report import canonical_json
from .suites import DEFAULT_TOLERANCES, FILE_KEYS, SUITES, RunConfig, genus_span, run_suites


def build_parser() -> argparse.ArgumentParser:
    # each flag's dest is the RunConfig field it sets; None means not given
    parser = argparse.ArgumentParser(
        prog="hodgecheck",
        description="Run verification suites for the period-domain bundle "
                    "calculus and write a JSON report.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file with the keys "
                             f"{', '.join(sorted(FILE_KEYS))}; flags override it")
    parser.add_argument("--suite", dest="suites", action="extend", metavar="NAME",
                        type=lambda item: [s for s in item.split(",") if s],
                        help="suite to run (repeatable, comma separated "
                             f"allowed); available: {', '.join(sorted(SUITES))}")
    parser.add_argument("--genus", dest="genus_list", action="append", type=int,
                        metavar="G", help="genus to include (repeatable)")
    parser.add_argument("--seed", type=int, help="base seed for all sampling")
    parser.add_argument("--samples", dest="n_samples", type=int, metavar="SAMPLES",
                        help="sample count for Monte Carlo suites (min 100)")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a named tolerance "
                             f"({', '.join(sorted(DEFAULT_TOLERANCES))})")
    parser.add_argument("--out", dest="output_path", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--parallel", action="store_true", default=None,
                        help="run suites in worker processes")
    return parser


def _load_config_file(path: str) -> dict:
    """The file's values keyed by RunConfig field, as the file typed them."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid("config file must hold a JSON object")
    unknown = set(data) - set(FILE_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown config keys {sorted(unknown)}; known: {sorted(FILE_KEYS)}")
    return {FILE_KEYS[key]: value for key, value in data.items()}


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


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = _load_config_file(args.config) if args.config else {}
    raw_seed = os.environ.get("VERIFY_SEED")
    if raw_seed is not None and args.seed is None and "seed" not in values:
        try:
            values["seed"] = int(raw_seed)
        except ValueError as exc:
            raise ConfigInvalid(f"VERIFY_SEED={raw_seed!r} is not an integer") from exc
    values.update((name, value) for name, value in vars(args).items()
                  if name in FILE_KEYS.values() and value is not None)
    tolerances = values.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigInvalid("config key 'tolerances' must be an object")
    values["tolerances"] = {**DEFAULT_TOLERANCES, **tolerances,
                            **_parse_tol_overrides(args.tol)}
    return RunConfig(**values).validate()


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
        names = result["config"]["suites"]
        reach = "; ".join(f"{name} runs at genus {genus_span(SUITES[name].genera)}"
                          for name in names)
        print(f"hodgecheck: nothing verified: no asserting check in {', '.join(names)} "
              f"at genus {list(cfg.genus_list)} ({reach})", file=sys.stderr)
        return 2
    text = canonical_json(result)
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"hodgecheck: cannot write the report to {cfg.output_path}: "
                  f"{exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
