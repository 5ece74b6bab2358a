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
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import blowup, estimate as estimate_mod, flow as flow_mod, morse, snc
from .poly import ParseError, parse
from .reports import dump_report, rational_str

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
    command: str
    polynomial_text: str | None = None
    point: tuple[float, ...] | None = None
    sigma: float = 0.5
    delta: float = 0.125
    tol: float = 1e-10
    t_max: float = 1e12
    samples: int = 10_000
    seed: int = 0
    max_depth: int = 8
    r_min: float = 1e-6
    r_max: float = 1e-1
    radius_count: int = 26
    estimate_samples: int = 400
    crit: str | None = None
    output_path: str = "."
    format: str = "human"

    def to_json(self) -> dict:
        return asdict(self)


def _read_polynomial_text(text: str) -> str:
    if text == "-":
        return sys.stdin.read().strip()
    return text


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
        elif part.startswith("points:"):
            for chunk in part[len("points:") :].split(";"):
                points.append(tuple(float(v) for v in chunk.split(",")))
        else:
            raise ParseError(f"bad critical-set descriptor {part!r}", 0)
    return flow_mod.CriticalSet(subspaces=tuple(subspaces), points=tuple(points))


def _emit(report: dict, config: RunConfig) -> None:
    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = dict(report)
    report["config"] = config.to_json()
    text = dump_report(report, str(out_dir / "report.json"))
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
# subcommands
# ----------------------------------------------------------------------


def _analyze(config: RunConfig, text: str) -> dict:
    """The analyze report; its ``pass`` decides the exit code."""
    if text in estimate_mod.BUILTIN_FUNCTIONS:
        fn = estimate_mod.builtin_function(text)
        est = estimate_mod.estimate_theta(
            fn,
            (0.0,) * fn.dimension,
            (config.r_min, config.r_max, config.radius_count),
            config.estimate_samples,
        )
        return {
            "input": text,
            "snc": False,
            "estimate": est.to_json(),
            "pass": not est.failure_detected,
            "note": "non-polynomial builtin: gradient inequality "
            + ("fails near 0" if est.failure_detected else "holds empirically"),
        }
    p = parse(text)
    factorization = snc.detect_snc(p)
    if not factorization.snc_at_origin:
        return {
            "input": text,
            "snc": False,
            "monomial": list(factorization.exponents),
            "residual": str(factorization.residual),
            "pass": False,
            "note": "residual vanishes at the origin; run `resolve` first",
        }
    try:
        full = snc.compute_constants(
            factorization, sigma=config.sigma, samples=config.samples, seed=config.seed
        )
    except snc.SncError as exc:
        return {"input": text, "snc": True, "pass": False, "note": str(exc)}
    check = snc.verify_gradient_inequality(p, full, config.samples, config.seed)
    return {"input": text, "snc": True, **snc.analyze_report_json(full, check)}


def _cmd_analyze(config: RunConfig) -> int:
    report = _analyze(config, _read_polynomial_text(config.polynomial_text or ""))
    _emit(report, config)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def _cmd_resolve(config: RunConfig) -> int:
    p = parse(_read_polynomial_text(config.polynomial_text or ""))
    result = blowup.resolve(p, max_depth=config.max_depth)
    report = result.to_json()
    report["input"] = str(p)
    try:
        bound = blowup.pull_back_and_bound(p, result)
        report["pullback"] = bound.to_json()
    except blowup.BlowupError as exc:
        report["pullback"] = None
        report["note"] = str(exc)
        _emit(report, config)
        return EXIT_CHECK_FAILED
    _emit(report, config)
    return EXIT_OK


def _cmd_flow(config: RunConfig) -> int:
    p = parse(_read_polynomial_text(config.polynomial_text or ""))
    dim = len(p.variables)
    point = config.point
    if point is None or len(point) != dim:
        print(f"flow needs --point with {dim} coordinates", file=sys.stderr)
        return EXIT_USAGE
    crit = _parse_crit(config.crit, dim)
    traj = flow_mod.integrate_flow(
        p,
        point,
        tol=config.tol,
        t_max=config.t_max,
        sigma=config.sigma,
        crit_set=crit,
    )
    worst_increase = flow_mod.energy_monotonicity_violation(traj)
    checks: dict[str, object] = {
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
    }
    factorization = snc.detect_snc(p)
    if factorization.snc_at_origin and traj.converged:
        try:
            full = snc.compute_constants(
                factorization, sigma=config.sigma, samples=config.samples, seed=config.seed
            )
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
        theta = bound_theta[0] if bound_theta else Fraction(1, 2)
        distance_reports = flow_mod.verify_distance_inequalities(
            p,
            crit,
            theta,
            ball=(config.sigma, config.delta),
            samples=config.samples,
            seed=config.seed,
        )
        report["distance_checks"] = [r.to_json() for r in distance_reports]
        checks["distance_checks"] = all(r.passed for r in distance_reports if not r.skipped)
    report["checks"] = checks
    report["pass"] = all(bool(v) for v in checks.values())
    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj.write_csv(str(out_dir / "trajectory.csv"))
    _emit(report, config)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def _estimate(config: RunConfig, text: str) -> dict:
    """The estimate report, after writing ``envelope.csv``.

    An inconsistent ``resolution_consistency`` decides the exit code.
    """
    radii = (config.r_min, config.r_max, config.radius_count)
    if text in estimate_mod.BUILTIN_FUNCTIONS:
        fn = estimate_mod.builtin_function(text)
        est = estimate_mod.estimate_theta(
            fn, (0.0,) * fn.dimension, radii, config.estimate_samples
        )
        report = {"input": text, **est.to_json()}
        comparison = None
    else:
        p = parse(text)
        point = config.point or (0.0,) * len(p.variables)
        est = estimate_mod.estimate_theta(p, point, radii, config.estimate_samples)
        report = {"input": str(p), **est.to_json()}
        comparison = None
        bound = blowup.exponent_upper_bound(p)
        if bound is not None:
            verdict = estimate_mod.compare_with_resolution_bound(
                est, (Fraction(1, 2), bound[0])
            )
            comparison = {
                "bound": [rational_str(Fraction(1, 2)), rational_str(bound[0])],
                "provenance": bound[1],
                **verdict.to_json(),
            }
    report["resolution_consistency"] = comparison
    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    est.write_envelope_csv(str(out_dir / "envelope.csv"))
    return report


def _estimate_passed(report: dict) -> bool:
    comparison = report["resolution_consistency"]
    return comparison is None or comparison["consistent"]


def _cmd_estimate(config: RunConfig) -> int:
    report = _estimate(config, _read_polynomial_text(config.polynomial_text or ""))
    _emit(report, config)
    return EXIT_OK if _estimate_passed(report) else EXIT_CHECK_FAILED


def _cmd_verify(config: RunConfig) -> int:
    text = _read_polynomial_text(config.polynomial_text or "")
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
        _emit(report, config)
        return EXIT_OK if result["pass"] else EXIT_CHECK_FAILED
    analyzed = _analyze(config, text)
    estimated = _estimate(config, text)
    report = {
        "input": text,
        "analyze": analyzed,
        "estimate": estimated,
        "pass": analyzed["pass"] and _estimate_passed(estimated),
    }
    _emit(report, config)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def _cmd_demo_cusp(config: RunConfig) -> int:
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
        "composite_map": (
            golden.composite[0].rename(DEMO_RENAMES["root/1/2/2"])
            == parse("alpha^3*beta"),
            golden.composite[1].rename(DEMO_RENAMES["root/1/2/2"])
            == parse("alpha^2*beta"),
        )
        == (True, True),
    }
    translated = [t for t in result.translated_points if t.chart_id == golden.chart_id]
    translated_checks = {
        "one_rational_point": len(translated) == 1 and result.unanalyzed_points == 0,
        "point_beta_1": bool(translated) and translated[0].point_value == 1,
        "total_degree_7": bool(translated) and translated[0].total_degree == 7,
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
    _emit(report, config)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loja-lab",
        description="Gradient-inequality analysis for polynomial functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser, poly: bool = True) -> None:
        if poly:
            sp.add_argument(
                "polynomial",
                help="polynomial expression, builtin name (haraux, delellis), or '-' for stdin",
            )
        sp.add_argument("--output-path", default=".", help="directory for report files")
        sp.add_argument("--format", choices=("json", "human"), default="human")

    def add_sampling(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--samples", type=int, default=10_000)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--sigma", type=float, default=0.5)

    sp = sub.add_parser("analyze", help="normal-crossing exponent and gradient inequality")
    add_common(sp)
    add_sampling(sp)
    sp = sub.add_parser("resolve", help="blow-up tree and exponent interval")
    add_common(sp)
    sp.add_argument("--max-depth", type=int, default=8)
    sp = sub.add_parser("flow", help="gradient-flow trajectory and checks")
    add_common(sp)
    add_sampling(sp)
    sp.add_argument("--delta", type=float, default=0.125)
    sp.add_argument("--point", required=True, help="comma-separated start point")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--t-max", type=float, default=1e12)
    sp.add_argument("--crit", default=None, help="origin | free:IDX,... | points:X,Y;...")
    sp = sub.add_parser("estimate", help="empirical exponent estimate")
    add_common(sp)
    sp.add_argument("--point", default=None, help="critical point (default: origin)")
    sp.add_argument("--r-min", type=float, default=1e-6)
    sp.add_argument("--r-max", type=float, default=1e-1)
    sp.add_argument("--radius-count", type=int, default=26)
    sp.add_argument("--estimate-samples", type=int, default=400)
    sp = sub.add_parser("verify", help="full battery on one input")
    add_common(sp)
    add_sampling(sp)
    sp.add_argument("--r-min", type=float, default=1e-6)
    sp.add_argument("--r-max", type=float, default=1e-1)
    sp.add_argument("--radius-count", type=int, default=26)
    sp.add_argument("--estimate-samples", type=int, default=400)
    sp = sub.add_parser("demo-cusp", help="golden cusp-resolution reproduction")
    add_common(sp, poly=False)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.output_path = args.output_path
    config.format = args.format
    if hasattr(args, "polynomial"):
        config.polynomial_text = args.polynomial
    if getattr(args, "point", None) is not None:
        config.point = _parse_point(args.point)
    for name in ("samples", "seed", "sigma", "delta", "tol", "t_max", "max_depth",
                 "r_min", "r_max", "radius_count", "estimate_samples", "crit"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    config = _config_from_args(args)
    handlers = {
        "analyze": _cmd_analyze,
        "resolve": _cmd_resolve,
        "flow": _cmd_flow,
        "estimate": _cmd_estimate,
        "verify": _cmd_verify,
        "demo-cusp": _cmd_demo_cusp,
    }
    try:
        return handlers[config.command](config)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (snc.SncError, blowup.BlowupError, flow_mod.FlowError,
            estimate_mod.EstimateError, morse.MorseBottError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
