"""Command-line pipeline: exit codes, report files, determinism."""

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lojalab
from lojalab.cli import RunConfig, _build_parser, main


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


@pytest.mark.parametrize(
    "text, note",
    [
        ("x + 1", "no monomial factor: the origin is not a zero"),
        ("x", "single exponent 1: origin is not a critical point"),
    ],
)
def test_analyze_non_critical_origin_exits_two(tmp_path, text, note):
    assert _run(["analyze", text], tmp_path) == 2
    report = _report(tmp_path)
    assert (report["snc"], report["pass"], report["note"]) == (True, False, note)


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
    (["estimate", "x^2", "--radius-count", "10001"], "radius count 10001 exceeds the limit 10000"),
    (["analyze", "x^2*y^3", "--samples", "1000001"],
     "sample count 1000001 exceeds the limit 1000000"),
    (["estimate", "x^2 - y^3", "--estimate-samples", "1000001"],
     "direction count 1000001 exceeds the limit 1000000"),
    (["analyze", "x1*x2", "--seed", "-1"], "seed must lie in [0, 44034470093549], got -1"),
    (["analyze", "x1*x2", "--seed", "100000000000000"],
     "seed must lie in [0, 44034470093549], got 100000000000000"),
    (["flow", "x^2 + y^2", "--point", "0.1,0.1", "--crit", "origin", "--seed", "-1"],
     "seed must lie in [0, 44034470093549], got -1"),
    (["estimate", "haraux", "--point", "7,7,7"], "point has shape (3,), expected (2,)"),
    (["estimate", "haraux", "--point", "0.5"], "point has shape (1,), expected (2,)"),
    (["analyze", "x^2*y^3", "--sigma", "inf"], "ball radius must be finite and positive, got inf"),
    (["analyze", "x^2*y^3", "--sigma", "nan"], "ball radius must be finite and positive, got nan"),
    (["analyze", "x^2*y^3", "--sigma", "0"], "ball radius must be finite and positive, got 0.0"),
    (["flow", "x^2", "--point", "0.1", "--sigma", "inf"],
     "ball radius must be finite and positive, got inf"),
    (["flow", "x^2", "--point", "0.1", "--sigma", "nan"],
     "ball radius must be finite and positive, got nan"),
    (["flow", "x^2", "--point", "0.1", "--sigma", "0"],
     "ball radius must be finite and positive, got 0.0"),
    (["analyze", "*".join(f"x{i}" for i in range(1, 12))],
     "sampled checks support at most 10 variables, got 11"),
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


def test_resolve_with_a_coefficient_of_many_digits(tmp_path):
    # Root candidates come from the divisors of 10^14: trial division up to
    # its square root took seconds.  The report is pinned less its config.
    assert _run(["resolve", "x^2 - 100000000000000*y^2"], tmp_path) == 0
    report = _report(tmp_path)
    report.pop("config")
    digest = hashlib.sha1(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "ebd625f14f890c0966d616b28b357fe4e321ae6c"


def test_resolve_with_a_large_prime_coefficient(tmp_path):
    # 100000000000031 is prime: trial division to its square root took
    # about a second.  The report is pinned less its config.
    assert _run(["resolve", "x^2 - 100000000000031*y^2"], tmp_path) == 0
    report = _report(tmp_path)
    report.pop("config")
    digest = hashlib.sha1(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "d08abc170cea8dc03d1dd42183d8892ed43f6b62"


def test_resolve_with_a_coefficient_of_two_large_primes(tmp_path):
    # (10^9 + 7) * (10^9 + 9): trial division to the smaller prime did not
    # finish in 20 s; Pollard's rho splits it in milliseconds.
    start = time.perf_counter()
    assert _run(["resolve", "x^2 - 1000000016000000063*y^2"], tmp_path) == 0
    assert time.perf_counter() - start < 1.0
    report = _report(tmp_path)
    assert report["theta_interval"] == ["1/2", "1/2"]
    assert report["unanalyzed_points"] == 4


def test_resolve_with_a_coefficient_of_two_larger_primes(tmp_path):
    # (2^61 - 1) * (2^89 - 1): listing its divisors for the rational root
    # test did not finish in 20 s; Sturm isolation never factors it.
    start = time.perf_counter()
    text = "x^2 - 1427247692705959880439315947500961989719490561*y^2"
    assert _run(["resolve", text], tmp_path) == 0
    assert time.perf_counter() - start < 1.0
    report = _report(tmp_path)
    assert report["theta_interval"] == ["1/2", "1/2"]
    assert report["unanalyzed_points"] == 4


def test_resolve_counts_non_snc_translated_points_as_unanalyzed(tmp_path):
    # Six translated points of this curve are not snc and carry no bound, so
    # the interval may miss the worst point and the result is not complete.
    assert _run(["resolve", "x^2*y - y^3 + x^5"], tmp_path) == 0
    report = _report(tmp_path)
    assert sum(p["theta_bound"] is None for p in report["translated_points"]) == 6
    assert report["unanalyzed_points"] == 6
    assert report["complete"] is False
    assert report["theta_interval"] == ["1/2", "8/9"]


def test_resolve_with_every_leaf_depth_capped_exits_two(tmp_path):
    assert _run(["resolve", "x^2 - y^3", "--max-depth", "0"], tmp_path) == 2
    report = _report(tmp_path)
    assert report["pullback"] is None
    assert report["note"] == "all leaves are depth-capped; no bounds available"


def test_resolve_of_a_noncritical_origin_names_the_cause(tmp_path):
    # The root x*(1 + y) is snc with N = 1: no leaf is depth-capped.
    assert _run(["resolve", "x + x*y"], tmp_path) == 2
    report = _report(tmp_path)
    assert report["pullback"] is None
    assert report["depth_capped"] is False
    assert report["note"] == (
        "no snc leaf has N >= 2: the origin is not a critical point; no bounds available"
    )


def test_flow_from_a_noncritical_origin_notes_the_missing_length_bound(tmp_path):
    assert _run(["flow", "x^2 - x", "--point", "0.25", "--tol", "1e-6"], tmp_path) == 0
    report = _report(tmp_path)
    assert report["converged"] is True
    assert report["limit_point"][0] == pytest.approx(0.5, abs=1e-6)
    assert report["length_bound"] is None
    assert report["length_bound_note"] == "single exponent 1: origin is not a critical point"


# x^8 + y^9 changes sign, so its value checks are skipped; its closest
# samples underflow to 0 under the power 116, which must not warn.
CAPPED_FLOWS = [
    ("x^6 + y^8", ["40", "40", "39", "39"], ["pass"] * 4),
    ("x^8 + y^9", ["117", "117", "116", "116"], ["skipped", "skipped", "pass", "pass"]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, exponents, statuses", CAPPED_FLOWS)
def test_flow_at_the_squared_gradient_cap_falls_back_to_mu(tmp_path, text, exponents, statuses):
    argv = ["flow", text, "--point", "0.1,0.1", "--crit", "origin", "--tol", "1e-5"]
    assert _run(argv, tmp_path) == 0
    checks = _report(tmp_path)["distance_checks"]
    assert [c["exponent"] for c in checks] == exponents
    assert [c["status"] for c in checks] == statuses
    assert checks[3]["notes"].startswith("fallback: building or resolving the squared gradient passes")


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


def test_flow_with_every_sample_critical_skips_every_distance_check(tmp_path):
    # The whole plane is critical, so no sample lies off the critical set;
    # this used to exit 1 on numpy's zero-size reduction error.
    argv = ["flow", "x^2 + y^2", "--point", "0.3,0.1", "--crit", "free:0,1"]
    assert _run(argv, tmp_path) == 0
    checks = _report(tmp_path)["distance_checks"]
    assert len(checks) == 4
    for check in checks:
        assert check["status"] == "skipped", check
        assert check["sample_count"] == 0
        assert check["notes"].startswith("skipped:")
    # A set that measured nothing is neither passed nor failed.
    assert _report(tmp_path)["checks"]["distance_checks"] is None


def test_flow_gamma_reads_the_gradient_square_below_the_degree_cap(tmp_path):
    # ||grad E||^2 has degree 34 in x; its square, which gamma used to be
    # read from, passes the cap of 64 and made this run exit 1.
    argv = ["flow", "x^18 + y^2", "--point", "0.1,0.1", "--crit", "origin", "--tol", "1e-6"]
    assert _run(argv, tmp_path) == 0
    report = _report(tmp_path)
    assert report["checks"]["distance_checks"] is True
    gamma = report["distance_checks"][3]
    assert (gamma["inequality"], gamma["exponent"]) == ("gradient-distance-analytic", "15")


def test_flow_without_an_exponent_bound_skips_the_distance_checks(tmp_path):
    # E ~ r^4 has exponent 3/4 but no derivable bound; a guessed 1/2 used
    # to pass E >= C*dist^2, which is false near 0.
    argv = ["flow", "x^4 + y^4 + z^4", "--point", "0.1,0.1,0.1", "--crit", "origin",
            "--tol", "1e-6"]
    assert _run(argv, tmp_path) == 0
    report = _report(tmp_path)
    assert report["distance_checks"] is None
    assert report["distance_checks_note"] == "no exponent bound derivable at the origin"
    assert report["checks"]["distance_checks"] is None


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


def test_package_imports_no_private_scipy_module():
    # A name that starts with "_" is not scipy's public API and may change
    # in any release; the tests may still use one as a reference.
    private = []
    for path in sorted(Path(lojalab.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] == "scipy" and any(part.startswith("_") for part in parts):
                    private.append(f"{path.name}: {name}")
    assert private == []


def test_flow_requires_matching_point(tmp_path, capsys):
    assert _run(["flow", "x^2 + y^2", "--point", "0.5"], tmp_path) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["flow", "x^2", "--point", "abc"],
    ["estimate", "x^2", "--point", "1,,2"],
])
def test_malformed_point_exits_one(tmp_path, capsys, argv):
    # Both used to raise out of main with a traceback.
    assert _run(argv, tmp_path) == 1
    assert capsys.readouterr().err.startswith("error: bad point")


@pytest.mark.parametrize("argv, point", [
    (["analyze", "x^2"], None),
    (["resolve", "x*y"], None),
    (["flow", "x^2", "--point", "0.5"], (0.5,)),
    (["estimate", "x^2"], None),
    (["verify", "x^2"], None),
    (["demo-cusp"], None),
])
def test_minimal_argv_runs_with_the_run_config_defaults(tmp_path, argv, point):
    # RunConfig is the one place a default is written; the parser reads it.
    assert _run(argv, tmp_path) == 0
    expected = RunConfig(
        command=argv[0],
        polynomial_text=argv[1] if len(argv) > 1 else None,
        point=point,
        output_path=str(tmp_path),
    )
    assert _report(tmp_path)["config"] == json.loads(json.dumps(expected.to_json()))


@pytest.mark.parametrize("argv, options", [
    (["analyze", "x^2"], {"samples", "seed", "sigma"}),
    (["resolve", "x*y"], {"max_depth"}),
    (["flow", "x^2", "--point", "0.5"],
     {"samples", "seed", "sigma", "delta", "tol", "t_max", "point", "crit"}),
    (["estimate", "x^2"], {"r_min", "r_max", "radius_count", "estimate_samples", "point"}),
    (["demo-cusp"], set()),
])
def test_config_records_only_the_run_options(tmp_path, argv, options):
    assert _run(argv, tmp_path) == 0
    own = {"command", "polynomial_text", "output_path", "format"}
    assert set(_report(tmp_path)["config"]) == own | options


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


def test_estimate_builtin_at_a_given_point(tmp_path):
    # --point reaches a builtin as it reaches a polynomial: the origin given
    # explicitly is the default, and a point off the critical set fails.
    assert _run(["estimate", "haraux"], tmp_path) == 0
    default = _report(tmp_path)
    assert _run(["estimate", "haraux", "--point", "0,0"], tmp_path) == 0
    assert _report(tmp_path)["theta_hat"] == default["theta_hat"]
    assert _run(["estimate", "haraux", "--point", "0.5,0.5"], tmp_path) == 1


@pytest.mark.parametrize(
    "text, point, exponent",
    [
        # The exponent at 1 is 3/4; the origin's bound reads [1/2, 1/2].
        ("x^2*(x - 1)^4", "1", 0.75),
        # The exponent at (1, 0) is 5/6; the origin's bound reads [1/2, 3/4].
        ("(x - 1)^2*y^4", "1,0", 5 / 6),
    ],
)
def test_estimate_off_the_origin_skips_the_resolution_comparison(tmp_path, text, point, exponent):
    # The resolution bound is the exponent's at the origin: compared with an
    # estimate at another point, it failed the first run and passed the
    # second, whose true exponent lies above it.
    assert _run(["estimate", text, "--point", point, "--r-min", "1e-3"], tmp_path) == 0
    report = _report(tmp_path)
    assert report["resolution_consistency"] is None
    assert "origin" in report["resolution_consistency_note"]
    assert report["band"][0] <= exponent <= report["band"][1]


def test_estimate_at_the_origin_given_explicitly_is_compared(tmp_path):
    assert _run(["estimate", "x^2 - y^3", "--point", "0,0"], tmp_path) == 0
    report = _report(tmp_path)
    assert report["resolution_consistency"]["consistent"] is True
    assert "resolution_consistency_note" not in report


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


def test_coefficient_over_the_string_limit_exits_one(tmp_path, capsys):
    assert _run(["analyze", "3^400000*x^2 + y^2"], tmp_path) == 1
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"error: coefficient exceeds the {limit}-digit string limit\n"
    assert not (tmp_path / "report.json").exists()


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
# and a strong one (sigma halves); their analyze reports carry certified
# m, M, C0 and the sampled min_ratio, pinned byte for byte below.
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
    assert digest == "e0a214742b15b839ce9a64e553411e805b9b7901"


def test_estimate_reports_pinned_digest(tmp_path):
    digest = _reports_digest("estimate", ESTIMATE_CORPUS, [], tmp_path)
    assert digest == "afd84cd755b4d9eb98d0d207548489de1d9aedae"


# Every subcommand's outputs that the two digests above do not cover: the
# exit code, report.json (less config.output_path), each CSV written, and
# the stdout of one --format json run, pinned byte for byte.
CLI_CORPUS = (
    ["resolve", "x^2 - y^3"],
    ["resolve", "x^2 - y^3", "--max-depth", "1"],
    ["flow", "x^2", "--point", "0.5", "--crit", "free:"],
    ["flow", "x^2*y^2", "--point", "0.4,0.2", "--crit", "free:0|free:1", "--tol", "1e-8"],
    ["flow", "x^2 + y^4", "--point", "0.2,0.2", "--tol", "1e-5"],
    ["estimate", "delellis"],
    ["verify", "haraux"],
    ["verify", "x^2*y^2"],
    ["demo-cusp"],
)


def test_cli_outputs_pinned_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sha = hashlib.sha1()
    for index, argv in enumerate(CLI_CORPUS):
        out = Path(f"run{index}")
        sha.update(repr((argv, main([*argv, "--output-path", str(out)]))).encode())
        report = json.loads((out / "report.json").read_text())
        report["config"].pop("output_path")
        sha.update(json.dumps(report, sort_keys=True).encode())
        for csv in sorted(out.glob("*.csv")):
            sha.update(csv.name.encode() + csv.read_bytes())
    capsys.readouterr()
    assert main(["resolve", "x^2 - y^3", "--format", "json", "--output-path", "json"]) == 0
    sha.update(capsys.readouterr().out.encode())
    assert sha.hexdigest() == "b93bd5376ec6328cac05d36c1fcb077af9974c0b"
