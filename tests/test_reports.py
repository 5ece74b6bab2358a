"""The one rule that turns sampled arrays into an inequality check report,
and the JSON dump of a report."""

import json
from fractions import Fraction

import numpy as np
import pytest

from lojalab.reports import SCHEMA, ZERO_SKIP, dump_report, sampled_check


def test_sampled_check_measures_the_minimum_over_kept_samples():
    lhs = np.array([1.0, 2.0, 0.5, 3.0])
    base = np.array([1.0, 4.0, 0.0, ZERO_SKIP])
    report = sampled_check("gradient", Fraction(1, 2), lhs, base, 0.5, (0.5, 0.25), predicted=0.9)
    # 0.5 sits at base 0 and 3.0 at base ZERO_SKIP: neither is kept.
    assert report.measured_constant == 1.0
    assert report.sample_count == 2
    assert report.predicted_constant == 0.9
    assert report.ball_radii == (0.5, 0.25)
    assert report.status == "pass"
    report = sampled_check("gradient", Fraction(1, 2), lhs, base, 0.5, (0.5, 0.5), predicted=2.0)
    assert report.status == "fail"


def test_sampled_check_with_a_skip_reason_is_skipped():
    lhs, base = np.array([1.0, 2.0]), np.array([1.0, 4.0])
    report = sampled_check(
        "distance-zero", Fraction(2), lhs, base, 2.0, (0.5, 0.125),
        predicted=1.0, notes="kept note", skip="skipped: a reason",
    )
    assert report.status == "skipped"
    assert not report.passed
    assert report.measured_constant == 0.0
    assert report.predicted_constant is None
    assert report.sample_count == 2
    assert report.notes == "skipped: a reason"


def test_sampled_check_with_no_kept_sample_is_skipped():
    for base in (np.zeros(3), np.empty(0)):
        report = sampled_check(
            "gradient", Fraction(1, 2), np.ones(len(base)), base, 0.5, (0.5, 0.5), predicted=1.0
        )
        assert report.status == "skipped"
        assert not report.passed
        assert report.measured_constant == 0.0
        assert report.predicted_constant is None
        assert report.sample_count == 0
        assert report.notes.startswith("skipped:")


def test_dump_report_dumps_the_payload_as_given(tmp_path):
    check = sampled_check("gradient", Fraction(7, 8), np.ones(2), np.ones(2), 0.875, (0.5, 0.5))
    payload = {"schema": SCHEMA, "check": check.to_json(), "rows": [[1, 2.5]], "ok": True}
    text = dump_report(payload, str(tmp_path / "report.json"))
    assert text == json.dumps(payload, indent=2, sort_keys=True)
    assert (tmp_path / "report.json").read_text() == text + "\n"
    assert json.loads(dump_report({"n": 1}))["schema"] == SCHEMA
    # Records serialize their own rationals; a raw one is not JSON.
    with pytest.raises(TypeError):
        dump_report({"theta": Fraction(7, 8)})
