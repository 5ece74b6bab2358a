"""Shared report records and JSON helpers.

All machine-readable outputs carry ``"schema": "loja-lab/1"`` so golden
files survive format evolution.  Every record serializes itself: its
``to_json`` writes rationals as exact strings like ``"7/8"`` (through
``rational_str``) and floats as JSON numbers, so ``dump_report`` takes
JSON values only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SCHEMA = "loja-lab/1"

# Measured constants may sit exactly on a predicted bound; 1% slack keeps
# sampled equality cases from flapping.
PREDICTED_SLACK = 0.01
# Samples whose base is this small count as lying on its zero set and are
# left out of a sampled check (the inequality is trivially true there).
ZERO_SKIP = 1e-300


def rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def interval_json(interval: tuple[Fraction, Fraction] | None) -> list[str] | None:
    """An exponent interval as its two exact strings, or ``None``."""
    return [rational_str(end) for end in interval] if interval else None


def dump_report(payload: dict, path: str | None = None) -> str:
    body = dict(payload)
    body.setdefault("schema", SCHEMA)
    text = json.dumps(body, indent=2, sort_keys=True)
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


def sampled_check(
    inequality_id: str,
    exponent: Fraction,
    lhs: np.ndarray,
    base: np.ndarray,
    power: float,
    ball_radii: tuple[float, float],
    predicted: float | None = None,
    notes: str = "",
    skip: str = "",
) -> InequalityCheckReport:
    """The sampled check of ``lhs >= C * base^power``.

    Keeps the samples with ``base > ZERO_SKIP`` and measures ``C`` as the
    minimum of ``lhs / base**power`` over them.  With a ``skip`` reason, or
    with no kept sample, the check is skipped: measured 0.0, no prediction,
    and the reason as its notes.
    """
    keep = base > ZERO_SKIP
    kept = int(keep.sum())
    if not skip and kept == 0:
        skip = "skipped: no sample kept (the base vanishes at every sample)"
    if skip:
        return InequalityCheckReport(
            inequality_id, exponent, 0.0, None, kept, ball_radii, notes=skip, skipped=True
        )
    # A kept base can still underflow to 0 under a large power; its ratio is
    # then +inf, which cannot lower the minimum.  A 0/0 still warns.
    with np.errstate(divide="ignore"):
        measured = float((lhs[keep] / base[keep] ** power).min())
    return InequalityCheckReport(
        inequality_id, exponent, measured, predicted, kept, ball_radii, notes=notes
    )
