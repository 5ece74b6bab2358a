"""Command-line pipeline: exit codes, report files, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lojalab
from lojalab.cli import _build_parser, main


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


@pytest.mark.parametrize("argv, message", [
    (["analyze", "x^2*y^3", "--samples", "0"], "sample count must be at least 1, got 0"),
    (["analyze", "x^2*y^3", "--samples", "-5"], "sample count must be at least 1, got -5"),
    (["verify", "x^2*y^3", "--samples", "0"], "sample count must be at least 1, got 0"),
    (["verify", "x^2*y^3", "--samples", "-5"], "sample count must be at least 1, got -5"),
    (["flow", "x^2", "--point", "0.1", "--samples", "0"],
     "sample count must be at least 1, got 0"),
    (["flow", "x^2 + y^2", "--point", "0.1,0.1", "--crit", "origin", "--samples", "-5"],
     "sample count must be at least 1, got -5"),
    (["estimate", "x^2 - y^3", "--estimate-samples", "0"],
     "direction count must be at least 1, got 0"),
    (["flow", "x^2 + y^2", "--point", "0.1,0.1", "--crit", "origin", "--delta", "-1"],
     "ball radius must be finite and positive, got -1.0"),
    (["flow", "x^2 + y^2", "--point", "0.1,0.1", "--crit", "origin", "--delta", "0"],
     "ball radius must be finite and positive, got 0.0"),
    (["resolve", "x^2 - y^3", "--max-depth", "-1"], "max_depth must be non-negative, got -1"),
    (["estimate", "x^2", "--r-max", "inf"],
     "need finite radii with 0 < r_min <= r_max, got 1e-06, inf"),
])
def test_empty_samples_and_bad_radii_exit_one(tmp_path, capsys, argv, message):
    # Each used to pass on the anchor points alone, or fail as a check.
    assert _run(argv, tmp_path) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_flow_over_rhs_budget_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("lojalab.flow.MAX_RHS_CALLS", 500)
    argv = ["flow", "x^2 + y^4", "--point", "0.2,0.2", "--tol", "1e-5"]
    assert _run(argv, tmp_path) == 1
    assert "budget of 500 calls" in capsys.readouterr().err


def test_flow_reports_step_counts(tmp_path):
    # The stiff flow rejects steps; the counts are deterministic, so the
    # report stays byte for byte the same.
    argv = ["flow", "x^2 + y^4", "--point", "0.2,0.2", "--tol", "1e-5"]
    assert _run(argv, tmp_path) == 0
    first = (tmp_path / "report.json").read_bytes()
    report = json.loads(first)
    assert (report["rhs_calls"], report["steps"], report["rejected_steps"]) == (3176, 464, 65)
    assert _run(argv, tmp_path) == 0
    assert (tmp_path / "report.json").read_bytes() == first


@pytest.mark.parametrize("module", ["lojalab", "lojalab.cli"])
def test_import_loads_no_scipy(module):
    # scipy costs about 50 MB and 0.3 s at start-up; only the flow's step
    # loop imports it, on first use.
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(lojalab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_flow_requires_matching_point(tmp_path):
    assert _run(["flow", "x^2 + y^2", "--point", "0.5"], tmp_path) == 1


def test_flow_rejects_ragged_crit_point(tmp_path, capsys):
    argv = ["flow", "x^2 + y^2", "--point", "0.1,0.1", "--crit", "points:0,0;1"]
    assert _run(argv, tmp_path) == 1
    assert capsys.readouterr().err.startswith("error: point '1' has 1 coordinates")


def test_flow_rejects_free_index_out_of_range(tmp_path, capsys):
    argv = ["flow", "x^2 + y^2", "--point", "0.1,0.1", "--crit", "free:7"]
    assert _run(argv, tmp_path) == 1
    assert capsys.readouterr().err.startswith("error: free index out of range [0, 2)")


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


def test_polynomial_over_the_limits_exits_one(tmp_path, capsys):
    assert _run(["resolve", "x^30 - y^31"], tmp_path) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_reused_parser_gives_the_same_reports(tmp_path):
    runs = [
        ["analyze", "x^6*y^2", "--seed", "3"],
        ["analyze"],
        ["resolve", "x^2 - y^3", "--max-depth", "4"],
        ["resolve", "x^2 - y^3"],
    ]

    def outcomes(fresh_parser):
        results = []
        for argv in runs:
            if fresh_parser:
                _build_parser.cache_clear()
            code = _run(argv, tmp_path)
            path = tmp_path / "report.json"
            results.append((code, path.read_bytes() if path.exists() else None))
            path.unlink(missing_ok=True)
        return results

    fresh = outcomes(fresh_parser=True)
    assert [code for code, _ in fresh] == [0, 1, 0, 0]
    assert [json.loads(r)["config"]["max_depth"] for _, r in fresh[2:]] == [4, 8]
    assert _build_parser() is _build_parser()
    assert outcomes(fresh_parser=False) == fresh


# Monomial times unit in d = 1..4, each with a mild unit (sigma stays 0.5)
# and a strong one (sigma halves); their analyze reports carry sampled
# m, M, C0 and min_ratio, pinned byte for byte below.
ANALYZE_CORPUS = (
    "x1^2*(1 + 1/4*x1)",
    "x1^3*(1 - 3*x1 + 2*x1^2)",
    "x1*x2^2*(1 + 1/8*x1*x2 - 1/6*x2)",
    "x1^2*x2*(1 + 4*x1 - 2*x2^2)",
    "x1*x2*x3^2*(1 - 1/4*x1*x3 + 1/6*x2)",
    "x1^3*x2*x3*(1 + 5*x2*x3 - 3*x1)",
    "x1*x2^2*x3*x4*(1 + 1/8*x4 - 1/4*x2*x3)",
    "x1^2*x2*x3^3*x4^2*(1 - 2*x1*x4 + 4*x3)",
)
ESTIMATE_CORPUS = ("x^2 - y^3", "x^2 + y^4", "x^3 - 2*y^5", "x1*x2*(1 + x1)")


def _reports_digest(command, corpus, extra, tmp_path):
    sha = hashlib.sha1()
    for text in corpus:
        assert _run([command, text, *extra], tmp_path) == 0, text
        report = _report(tmp_path)
        report["config"].pop("output_path")
        sha.update(json.dumps(report, sort_keys=True).encode())
    return sha.hexdigest()


def test_analyze_reports_pinned_digest(tmp_path):
    digest = _reports_digest("analyze", ANALYZE_CORPUS, ["--samples", "2000"], tmp_path)
    assert digest == "c270850c2ff4b5d24e9c7c78f246d06919934046"


def test_estimate_reports_pinned_digest(tmp_path):
    digest = _reports_digest("estimate", ESTIMATE_CORPUS, [], tmp_path)
    assert digest == "a128cd6b695e5393f8a992c89bf77413f80a7488"
