"""Command-line pipeline: exit codes, report files, determinism."""

import io
import json

from lojalab.cli import main


def _run(argv, tmp_path, monkeypatch=None, stdin=None):
    args = list(argv) + ["--output-path", str(tmp_path)]
    if stdin is not None and monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return main(args)


def _report(tmp_path):
    return json.loads((tmp_path / "report.json").read_text())


def test_analyze_optimal_cross(tmp_path):
    assert _run(["analyze", "x1*x2"], tmp_path) == 0
    report = _report(tmp_path)
    assert report["schema"] == "loja-lab/1"
    assert report["theta"] == "1/2"
    assert report["optimal"] is True
    assert report["pass"] is True
    assert report["config"]["command"] == "analyze"


def test_analyze_non_snc_exits_two(tmp_path):
    assert _run(["analyze", "x^2 - y^3"], tmp_path) == 2
    report = _report(tmp_path)
    assert report["snc"] is False


def test_analyze_haraux_exits_two(tmp_path):
    assert _run(["analyze", "haraux"], tmp_path) == 2
    report = _report(tmp_path)
    assert report["estimate"]["failure_detected"] is True


def test_analyze_parse_error_exits_one(tmp_path):
    assert _run(["analyze", "x^^2"], tmp_path) == 1


def test_usage_error_exits_one(tmp_path):
    assert main(["analyze"]) == 1


def test_negative_seed_exits_one(tmp_path):
    assert _run(["analyze", "x1*x2", "--seed", "-1"], tmp_path) == 1


def test_stdin_input(tmp_path, monkeypatch):
    assert _run(["analyze", "-"], tmp_path, monkeypatch, stdin="x^2\n") == 0
    assert _report(tmp_path)["theta"] == "1/2"


def test_resolve_writes_leaf_table(tmp_path):
    assert _run(["resolve", "x^2 - y^3"], tmp_path) == 0
    report = _report(tmp_path)
    assert report["root"] == "-y^3 + x^2"
    monomials = {tuple(leaf["monomial"]) for leaf in report["leaves"]}
    assert (6, 2) in monomials
    assert report["translated_points"]
    assert report["pullback"]["origin_local"] is True
    assert report["complete"] is True
    assert _run(["resolve", "x^2 - 2*y^2"], tmp_path) == 0
    assert _report(tmp_path)["complete"] is False


def test_flow_writes_trajectory(tmp_path):
    code = _run(
        ["flow", "x^2", "--point", "0.5", "--crit", "free:"],
        tmp_path,
    )
    assert code == 0
    report = _report(tmp_path)
    assert report["converged"] is True
    assert abs(report["arc_length"] - 0.5) < 1e-6
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x_1,E,grad_norm,arc_length"


def test_flow_skipped_check_is_not_a_failure(tmp_path):
    code = _run(
        ["flow", "x^2 - y^3", "--point", "0.1,0.1", "--crit", "origin"],
        tmp_path,
    )
    assert code == 0
    report = _report(tmp_path)
    status = {c["inequality"]: c["status"] for c in report["distance_checks"]}
    assert status["distance-critical"] == "skipped"
    assert report["checks"]["distance_checks"] is True


def test_flow_requires_matching_point(tmp_path):
    assert _run(["flow", "x^2 + y^2", "--point", "0.5"], tmp_path) == 1


def test_estimate_cusp_with_consistency(tmp_path):
    assert _run(["estimate", "x^2 - y^3"], tmp_path) == 0
    report = _report(tmp_path)
    assert 0.62 <= report["theta_hat"] <= 0.72
    assert report["resolution_consistency"]["consistent"] is True
    lines = (tmp_path / "envelope.csv").read_text().splitlines()
    assert lines[0] == "radius,min_ratio"


def test_estimate_builtin(tmp_path):
    assert _run(["estimate", "delellis"], tmp_path) == 0
    assert _report(tmp_path)["failure_detected"] is True


def test_verify_haraux_passes_as_counterexample(tmp_path):
    assert _run(["verify", "haraux"], tmp_path) == 0
    report = _report(tmp_path)
    assert report["pass"] is True


def test_verify_polynomial(tmp_path):
    assert _run(["verify", "x^2*y^2"], tmp_path) == 0


def test_verify_reports_analyze_and_estimate(tmp_path):
    assert _run(["verify", "x^2*y^2"], tmp_path) == 0
    report = _report(tmp_path)
    assert report["analyze"]["theta"] == "3/4"
    assert report["analyze"]["pass"] is True
    assert 0.70 <= report["estimate"]["theta_hat"] <= 0.80
    assert report["estimate"]["resolution_consistency"]["consistent"] is True
    assert report["pass"] is True
    assert report["config"]["command"] == "verify"


def test_removed_options_are_usage_errors(tmp_path):
    assert _run(["analyze", "x^2", "--workers", "64"], tmp_path) == 1
    assert _run(["analyze", "x^2", "--format", "csv"], tmp_path) == 1
    assert _run(["resolve", "x^2 - y^3", "--samples", "10"], tmp_path) == 1
    assert _run(["estimate", "x^2", "--delta", "0.1"], tmp_path) == 1
    assert _run(["demo-cusp", "--seed", "3"], tmp_path) == 1


def test_demo_cusp_golden(tmp_path):
    assert _run(["demo-cusp"], tmp_path) == 0
    report = _report(tmp_path)
    assert report["pass"] is True
    assert all(report["transform_matches"].values())
    assert report["theta_interval"] == ["1/2", "7/8"]
    assert report["golden_leaf"]["theta_bound_7_8"] is True
    assert report["translated_chart"]["total_degree_7"] is True


def test_reports_are_deterministic(tmp_path):
    argv = ["analyze", "x^6*y^2", "--seed", "3", "--output-path", str(tmp_path)]
    assert main(argv) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "report.json").read_bytes() == first
