"""Check records and suite reports, serializable to deterministic JSON.

Reports for identical configurations and seeds must be byte-identical apart
from wall-clock fields, so serialization sorts keys, fixes separators, and
converts every number to a plain Python type before dumping.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

SCHEMA_VERSION = "1"


def jsonable(x):
    """Recursively convert numpy scalars/arrays so json.dumps accepts the value."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.complexfloating)):
        x = complex(x)
        return x.real if x.imag == 0 else {"re": x.real, "im": x.imag}
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    return x


@dataclass(frozen=True)
class CheckRecord:
    """One verified quantity.

    measured is compared against tolerance by the producing check; passed
    records the verdict.  Report-only checks carry asserting=False and
    passed=None; they never influence an exit code.  A non-finite measured
    value fails its check and serializes as null.
    """

    name: str
    anchor: str
    measured: float
    tolerance: float | None
    passed: bool | None
    asserting: bool = True
    notes: str = ""

    def to_dict(self) -> dict:
        finite = math.isfinite(self.measured)
        return jsonable({**asdict(self), "measured": self.measured if finite else None})


def passing(name, anchor, measured, tolerance, notes=""):
    measured = float(measured)
    return CheckRecord(name, anchor, measured, float(tolerance),
                       bool(math.isfinite(measured) and measured <= tolerance), True, notes)


def floor_check(name, anchor, measured, floor, notes=""):
    """Pass when measured >= floor (signed lower bounds, e.g. positivity)."""
    measured = float(measured)
    return CheckRecord(name, anchor, measured, float(floor),
                       bool(math.isfinite(measured) and measured >= floor), True, notes)


def reporting(name, anchor, measured, notes=""):
    return CheckRecord(name, anchor, float(measured), None, None, False, notes)


@dataclass
class VerificationReport:
    suite: str
    params: dict = field(default_factory=dict)
    checks: list[CheckRecord] = field(default_factory=list)
    wall_time_ms: int = 0

    @property
    def passed(self) -> bool | None:
        """None when no asserting check ran: the report verified nothing."""
        verdicts = [c.passed for c in self.checks if c.asserting]
        return all(verdicts) if verdicts else None

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": jsonable(self.params),
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
            "wall_time_ms": int(self.wall_time_ms),
        }


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def strip_timing(obj):
    """Remove wall-clock fields so reports can be compared byte for byte."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "wall_time_ms"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj
