"""Shared report records and JSON helpers.

All machine-readable outputs carry ``"schema": "loja-lab/1"`` so golden
files survive format evolution.  Rationals are serialized as exact strings
like ``"7/8"``; floats pass through as JSON numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

SCHEMA = "loja-lab/1"

# Measured constants may sit exactly on a predicted bound; 1% slack keeps
# sampled equality cases from flapping.
PREDICTED_SLACK = 0.01


def rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def jsonable(value: Any) -> Any:
    """Recursively convert report values into JSON-encodable data."""
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except Exception:
            return value
    return value


def dump_report(payload: dict, path: str | None = None) -> str:
    body = dict(payload)
    body.setdefault("schema", SCHEMA)
    text = json.dumps(jsonable(body), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text


@dataclass
class InequalityCheckReport:
    """Outcome of one sampled inequality check.

    ``measured_constant`` is the largest constant that makes the inequality
    hold over every kept sample.  The check passes when that constant is
    positive and, if a predicted constant is supplied, the measured one is
    at least the prediction up to 1% slack.  A ``skipped`` check was not
    run: it does not pass, but its status is ``"skipped"``, not ``"fail"``.
    """

    inequality_id: str
    exponent: Fraction
    measured_constant: float
    predicted_constant: float | None
    sample_count: int
    ball_radii: tuple[float, float]
    notes: str = ""
    skipped: bool = False

    @property
    def passed(self) -> bool:
        if not (self.measured_constant > 0.0):
            return False
        if self.predicted_constant is None:
            return True
        return self.measured_constant >= self.predicted_constant * (1.0 - PREDICTED_SLACK)

    @property
    def status(self) -> str:
        if self.skipped:
            return "skipped"
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "inequality": self.inequality_id,
            "exponent": rational_str(self.exponent),
            "measured_constant": self.measured_constant,
            "predicted_constant": self.predicted_constant,
            "pass": self.passed,
            "status": self.status,
            "sample_count": self.sample_count,
            "ball_radii": list(self.ball_radii),
            "notes": self.notes,
        }
