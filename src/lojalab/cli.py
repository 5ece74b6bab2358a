"""Command-line pipeline: parse -> analyze/resolve -> verify -> report.

Subcommands: ``analyze`` (normal-crossing exponent, constants, gradient
inequality), ``resolve`` (blow-up tree and exponent interval), ``flow``
(trajectory plus length bound and distance checks), ``estimate`` (empirical
exponent with optional resolution-bound consistency), ``verify`` (the full
battery on one input), and ``demo-cusp`` (the built-in golden reproduction of
the cusp resolution).

Exit codes: 0 all checks passed, 2 some check failed, 1 usage/parse/IO error.
File outputs land under ``--output-path`` with fixed names (``report.json``,
``trajectory.csv``, ``envelope.csv``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

from . import blowup, estimate as estimate_mod, flow as flow_mod, snc
from .poly import ParseError, PolynomialLimitError, parse
from .reports import dump_report, rational_str
from .sampling import check_ball

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

CUSP_TEXT = "x^2 - y^3"

# Chart-variable dictionary used only to present the built-in demo with the
# traditional letters.
DEMO_RENAMES: dict[str, dict[str, str]] = {
    "root/1": {"u1": "u", "v1": "v"},
    "root/2": {"a2": "a", "b2": "b"},
    "root/1/2": {"a12": "r", "b12": "s"},
    "root/2/1": {"u21": "c", "v21": "d"},
    "root/1/2/2": {"a122": "alpha", "b122": "beta"},
    "root/2/1/1": {"u211": "g", "v211": "h"},
}

DEMO_EXPECTED = {
    "root/1": "u^2*v^2 - v^3",
    "root/2": "a^2 - a^3*b^3",
    "root/1/2": "r^4*s^2 - r^3*s^3",
    "root/2/1": "c^2*d^2 - c^3*d^6",
    "root/1/2/2": "alpha^6*beta^2 - alpha^6*beta^3",
    "root/2/1/1": "g^2*h^4 - g^3*h^9",
}


@dataclass
class RunConfig:
    """The record of one run, written into every report as ``config``.

    Each option's default is the field of the same name, read by the parser.
    A report records the input, the output options and its subcommand's own
    options, not the defaults of options the subcommand does not take.
    """

    command: str
    polynomial_text: str | None = None
    point: tuple[float, ...] | None = None
    sigma: float = snc.DEFAULT_SIGMA
    delta: float = 0.125
    tol: float = flow_mod.DEFAULT_GRAD_TOL
    t_max: float = 1e12
    samples: int = 10_000
    seed: int = 0
    max_depth: int = blowup.DEFAULT_MAX_DEPTH
    r_min: float = 1e-6
    r_max: float = 1e-1
    radius_count: int = 26
    estimate_samples: int = 400
    crit: str | None = None
    output_path: str = "."
    format: str = "human"

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _own_fields(self.command)}


@functools.cache
def _own_fields(command: str) -> tuple[str, ...]:
    """The ``RunConfig`` fields a report of ``command`` records, in field order."""
    own = {_field(option) for option in SUBCOMMANDS[command][2]}
    own |= {"command", "polynomial_text", "output_path", "format"}
    return tuple(f.name for f in fields(RunConfig) if f.name in own)


def _field(option: str) -> str:
    """The ``RunConfig`` field of a command-line option."""
    return option[2:].replace("-", "_")


def _parse_point(text: str | None, dim: int | None = None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad point {text!r}: {exc}", 0)
    if dim is not None and len(values) != dim:
        raise ParseError(f"point {text!r} has {len(values)} coordinates, need {dim}", 0)
    return values


def _parse_crit(text: str | None, dim: int) -> flow_mod.CriticalSet | None:
    """Descriptor grammar, components joined by ``|``:

    ``origin`` | ``free:0,1`` (coordinate subspace with the listed free
    coordinates) | ``points:0,0;1,0`` (finite point list).
    """
    if text is None:
        return None
    subspaces: list[flow_mod.CoordinateSubspace] = []
    points: list[tuple[float, ...]] = []
    for part in text.split("|"):
        part = part.strip()
        if part == "origin":
            points.append((0.0,) * dim)
        elif part.startswith("free:"):
            indices = tuple(int(i) for i in part[len("free:") :].split(",") if i != "")
            subspaces.append(flow_mod.CoordinateSubspace(indices))
            subspaces[-1].normal(dim)  # raises for a free index outside [0, dim)
        elif part.startswith("points:"):
            for chunk in part[len("points:") :].split(";"):
                points.append(_parse_point(chunk, dim))
        else:
            raise ParseError(f"bad critical-set descriptor {part!r}", 0)
    return flow_mod.CriticalSet(subspaces=tuple(subspaces), points=tuple(points))


def _emit(report: dict, config: RunConfig) -> None:
    report = dict(report)
    report["config"] = config.to_json()
    text = dump_report(report, str(Path(config.output_path) / "report.json"))
    if config.format == "json":
        print(text)
    else:
        for line in _human_lines(report):
            print(line)


def _human_lines(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in report.items():
        if key in ("schema", "config"):
            continue
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_human_lines(value, prefix + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{prefix}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


# ----------------------------------------------------------------------
# subcommands: each maps (config, input text) to (report, passed)
# ----------------------------------------------------------------------


def _analyze(config: RunConfig, text: str) -> tuple[dict, bool]:
    if text in estimate_mod.BUILTIN_FUNCTIONS:
        fn = estimate_mod.builtin_function(text)
        est = estimate_mod.estimate_theta(
            fn,
            (0.0,) * fn.dimension,
            (config.r_min, config.r_max, config.radius_count),
            config.estimate_samples,
        )
        report = {
            "input": text,
            "snc": False,
            "estimate": est.to_json(),
            "pass": not est.failure_detected,
            "note": "non-polynomial builtin: gradient inequality "
            + ("fails near 0" if est.failure_detected else "holds empirically"),
        }
        return report, report["pass"]
    p = parse(text)
    factorization = snc.detect_snc(p)
    if not factorization.snc_at_origin:
        report = {
            "input": text,
            "snc": False,
            "monomial": list(factorization.exponents),
            "residual": str(factorization.residual),
            "pass": False,
            "note": "residual vanishes at the origin; run `resolve` first",
        }
        return report, False
    try:
        full = snc.compute_constants(factorization, sigma=config.sigma)
    except snc.SncError as exc:
        return {"input": text, "snc": True, "pass": False, "note": str(exc)}, False
    check = snc.verify_gradient_inequality(p, full, config.samples, config.seed)
    report = {"input": text, "snc": True, **snc.analyze_report_json(full, check)}
    return report, report["pass"]


def _resolve(config: RunConfig, text: str) -> tuple[dict, bool]:
    p = parse(text)
    result = blowup.resolve(p, max_depth=config.max_depth)
    report = result.to_json()
    report["input"] = str(p)
    try:
        report["pullback"] = blowup.pull_back_and_bound(result).to_json()
    except blowup.BlowupError as exc:
        report["pullback"] = None
        report["note"] = str(exc)
        return report, False
    return report, True


def _flow(config: RunConfig, text: str) -> tuple[dict, bool]:
    p = parse(text)
    dim = len(p.variables)
    if len(config.point) != dim:
        raise ValueError(f"flow needs --point with {dim} coordinates")
    crit = _parse_crit(config.crit, dim)
    traj = flow_mod.integrate_flow(
        p,
        config.point,
        tol=config.tol,
        t_max=config.t_max,
        sigma=config.sigma,
        crit_set=crit,
    )
    worst_increase = flow_mod.energy_monotonicity_violation(traj)
    checks: dict[str, bool | None] = {
        "energy_monotone": bool(worst_increase <= 1e-9),
    }
    report = {
        "input": str(p),
        "converged": traj.converged,
        "stop_reason": traj.stop_reason,
        "arc_length": traj.arc_length,
        "limit_point": None if traj.limit_point is None else [float(v) for v in traj.limit_point],
        "snap_distance": traj.snap_distance,
        "samples": int(len(traj.times)),
        "rhs_calls": traj.rhs_calls,
        "steps": traj.steps,
        "rejected_steps": traj.rejected_steps,
    }
    factorization = snc.detect_snc(p)
    if factorization.snc_at_origin and traj.converged:
        try:
            full = snc.compute_constants(factorization, sigma=config.sigma)
            bound = flow_mod.verify_length_bound(
                traj, full.theta, full.gradient_constant or 0.0
            )
            report["length_bound"] = bound.to_json()
            checks["length_bound"] = bound.passed
        except (snc.SncError, flow_mod.FlowError) as exc:
            report["length_bound"] = None
            report["length_bound_note"] = str(exc)
    if crit is not None:
        bound_theta = blowup.exponent_upper_bound(p)
        if bound_theta is None:
            # No exponent to check at: a guessed one could pass a false bound.
            report["distance_checks"] = None
            report["distance_checks_note"] = "no exponent bound derivable at the origin"
            checks["distance_checks"] = None
        else:
            distance_reports = flow_mod.verify_distance_inequalities(
                p,
                crit,
                bound_theta[0],
                ball=(config.sigma, config.delta),
                samples=config.samples,
                seed=config.seed,
            )
            report["distance_checks"] = [r.to_json() for r in distance_reports]
            # A set that measured nothing is null and does not decide the verdict.
            measured = [r.passed for r in distance_reports if not r.skipped]
            checks["distance_checks"] = all(measured) if measured else None
    report["checks"] = checks
    report["pass"] = all(bool(v) for v in checks.values() if v is not None)
    traj.write_csv(str(Path(config.output_path) / "trajectory.csv"))
    return report, report["pass"]


def _estimate(config: RunConfig, text: str) -> tuple[dict, bool]:
    """The estimate report, after writing ``envelope.csv``.

    An inconsistent ``resolution_consistency`` fails the run.  The
    resolution bound is the exponent's at the origin, so at any other point
    the comparison is skipped, with a note.
    """
    radii = (config.r_min, config.r_max, config.radius_count)
    comparison = note = None
    if text in estimate_mod.BUILTIN_FUNCTIONS:
        fn = estimate_mod.builtin_function(text)
        point = config.point or (0.0,) * fn.dimension
        est = estimate_mod.estimate_theta(fn, point, radii, config.estimate_samples)
        report = {"input": text, **est.to_json()}
    else:
        p = parse(text)
        point = config.point or (0.0,) * len(p.variables)
        est = estimate_mod.estimate_theta(p, point, radii, config.estimate_samples)
        report = {"input": str(p), **est.to_json()}
        if any(point):
            note = "the resolution bound holds at the origin, not at the estimated point"
        elif (bound := blowup.exponent_upper_bound(p)) is not None:
            verdict = estimate_mod.compare_with_resolution_bound(
                est, (Fraction(1, 2), bound[0])
            )
            comparison = {
                "bound": [rational_str(Fraction(1, 2)), rational_str(bound[0])],
                "provenance": bound[1],
                **verdict.to_json(),
            }
    report["resolution_consistency"] = comparison
    if note is not None:
        report["resolution_consistency_note"] = note
    est.write_envelope_csv(str(Path(config.output_path) / "envelope.csv"))
    return report, comparison is None or comparison["consistent"]


def _verify(config: RunConfig, text: str) -> tuple[dict, bool]:
    if text in estimate_mod.BUILTIN_FUNCTIONS:
        result = estimate_mod.haraux_counterexample_check(
            (config.r_min, config.r_max, config.radius_count),
            config.estimate_samples,
        )
        report = {
            "input": text,
            "counterexample_battery": {
                k: v.to_json() for k, v in result.items() if k != "pass"
            },
            "pass": result["pass"],
        }
        return report, result["pass"]
    analyzed, analyze_passed = _analyze(config, text)
    estimated, estimate_passed = _estimate(config, text)
    passed = analyze_passed and estimate_passed
    report = {"input": text, "analyze": analyzed, "estimate": estimated, "pass": passed}
    return report, passed


def _demo_cusp(config: RunConfig, text: str | None) -> tuple[dict, bool]:
    p = parse(CUSP_TEXT)
    result = blowup.resolve(p, max_depth=3, expand_snc=True)
    matches: dict[str, bool] = {}
    for chart_id, expected_text in DEMO_EXPECTED.items():
        node = result.tree.nodes.get(chart_id)
        if node is None:
            matches[chart_id] = False
            continue
        renamed = node.total_transform.rename(DEMO_RENAMES[chart_id])
        matches[chart_id] = renamed == parse(expected_text)
    golden = result.tree.node("root/1/2/2")
    factor = golden.factorization
    residual_expected = parse("1 - beta")
    leaf_checks = {
        "monomial_6_2": factor.exponents == (6, 2),
        "residual_1_minus_beta": factor.residual.rename(DEMO_RENAMES["root/1/2/2"])
        == residual_expected,
        "total_degree_8": golden.monomial_total_degree == 8,
        "theta_bound_7_8": golden.theta_bound() == Fraction(7, 8),
        # x = alpha^3*beta and y = alpha^2*beta.
        "composite_map": golden.chart_map == ((3, 1), (2, 1)),
    }
    translated = [t for t in result.translated_points if t.chart_id == golden.chart_id]
    translated_checks = {
        "one_rational_point": len(translated) == 1 and result.unanalyzed_points == 0,
        "point_beta_1": bool(translated) and translated[0].point_value == 1,
        "total_degree_7": bool(translated)
        and sum(translated[0].factorization.exponents) == 7,
        "theta_bound_6_7": bool(translated)
        and translated[0].theta_bound == Fraction(6, 7),
    }
    interval = blowup.combine_point_bounds(
        [golden.theta_bound()] + [t.theta_bound for t in translated]
    )
    all_ok = all(matches.values()) and all(leaf_checks.values()) and all(
        translated_checks.values()
    )
    report = {
        "input": CUSP_TEXT,
        "transform_matches": matches,
        "golden_leaf": leaf_checks,
        "translated_chart": translated_checks,
        "theta_interval": [rational_str(b) for b in interval] if interval else None,
        "origin_local": True,
        "pass": all_ok,
    }
    return report, all_ok


# ----------------------------------------------------------------------
# argument parsing and the one exit path
# ----------------------------------------------------------------------

SAMPLING = {"--samples": {}, "--seed": {}, "--sigma": {}}
ESTIMATION = {"--r-min": {}, "--r-max": {}, "--radius-count": {}, "--estimate-samples": {}}

# name: (handler, help, options beyond --output-path and --format).  Each
# option maps to argparse keywords beyond its default, which is the RunConfig
# field, and its type, which is the default's (str for a None default).
SUBCOMMANDS = {
    "analyze": (_analyze, "normal-crossing exponent and gradient inequality", SAMPLING),
    "resolve": (_resolve, "blow-up tree and exponent interval", {"--max-depth": {}}),
    "flow": (_flow, "gradient-flow trajectory and checks", {
        **SAMPLING, "--delta": {}, "--tol": {}, "--t-max": {},
        "--point": {"required": True, "help": "comma-separated start point"},
        "--crit": {"help": "origin | free:IDX,... | points:X,Y;..."},
    }),
    "estimate": (_estimate, "empirical exponent estimate", {
        **ESTIMATION, "--point": {"help": "critical point (default: origin)"},
    }),
    "verify": (_verify, "full battery on one input", SAMPLING | ESTIMATION),
    "demo-cusp": (_demo_cusp, "golden cusp-resolution reproduction", {}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="loja-lab",
        description="Gradient-inequality analysis for polynomial functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name != "demo-cusp":
            sp.add_argument(
                "polynomial_text",
                metavar="polynomial",
                help="polynomial expression, builtin name (haraux, delellis), or '-' for stdin",
            )
        sp.add_argument("--output-path", default=RunConfig.output_path,
                        help="directory for report files")
        sp.add_argument("--format", choices=("json", "human"), default=RunConfig.format)
        for option, keywords in options.items():
            default = getattr(RunConfig, _field(option))
            kind = str if default is None else type(default)
            sp.add_argument(option, type=kind, default=default, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        fields = vars(args)
        config = RunConfig(**fields | {"point": _parse_point(fields.get("point"))})
        check_ball(config.samples, config.sigma, config.seed)
        text = config.polynomial_text
        if text == "-":
            text = sys.stdin.read().strip()
        Path(config.output_path).mkdir(parents=True, exist_ok=True)
        report, passed = SUBCOMMANDS[config.command][0](config, text)
        _emit(report, config)
    # Every module's input error is a ValueError.
    except (OSError, ValueError, PolynomialLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
