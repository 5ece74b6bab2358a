"""Per-layer metrics of a traced run, computed from the folded span totals.

Every metric is a per-job mean unless its unit is a ratio.  ``SOURCE`` gives
each metric's unit, the span counters it is computed from and the workloads
that must produce them: a traced run on such a workload fails when they are
missing, so a stale wrapper cannot read as 0 ms.  The predicted effect of
each metric on the end-to-end metrics is documented in README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

MS = 1000.0
ANALYZE, RESOLVE, FLOW = "analyze-snc", "resolve-curves", "flow-verify"

# metric: (unit, spans it is computed from, workloads that must exercise it)
SOURCE = {
    "sampling.self_ms": ("ms", ["count:sampling"], [ANALYZE, RESOLVE]),
    "sampling.calls": ("count", ["count:sampling"], [ANALYZE, RESOLVE]),
    "sampling.points": ("count", ["count:sampling"], [ANALYZE, RESOLVE]),
    "sampling.accept_ratio": ("ratio", ["n:sampling.ball_points"], [ANALYZE]),
    "poly.eval_ms": ("ms", ["count:poly.eval"], [ANALYZE, FLOW]),
    "poly.eval_calls": ("count", ["count:poly.eval"], [ANALYZE, FLOW]),
    "poly.eval_rows_per_call": ("rows", ["count:poly.eval"], [ANALYZE, FLOW]),
    "poly.compile_calls": ("count", ["count:poly.compile"], [FLOW]),
    "poly.exact_ms": ("ms", ["count:poly.exact"], [RESOLVE]),
    "poly.exact_calls": ("count", ["count:poly.exact"], [RESOLVE]),
    "snc.constants_ms": ("ms", ["n:snc.compute_constants"], [ANALYZE]),
    "snc.check_ms": ("ms", ["n:snc.verify_gradient_inequality"], [ANALYZE]),
    "snc.sigma_halvings": ("count", ["n:snc.compute_constants"], [ANALYZE]),
    "blowup.resolve_ms": ("ms", ["n:blowup.resolve"], [RESOLVE]),
    "blowup.nodes": ("count", ["n:blowup.resolve"], [RESOLVE]),
    "blowup.resolve_calls": ("count", ["n:blowup.resolve"], [RESOLVE]),
    "blowup.translated_ms": ("ms", ["n:blowup.translated_chart_analysis"], [RESOLVE]),
    "blowup.translated_points": ("count", ["n:blowup.translated_chart_analysis"], [RESOLVE]),
    "blowup.pullback_ms": ("ms", ["n:blowup.pull_back_and_bound"], [RESOLVE]),
    "blowup.unsound_bounds": ("count", ["n:blowup.resolve"], [RESOLVE]),
    "univar.roots_ms": ("ms", ["count:univar"], [RESOLVE]),
    "morse.check_ms": ("ms", ["n:morse.check_morse_bott",
                              "n:morse.check_generalized_morse_bott"], [ANALYZE]),
    "morse.gmb_verify_ms": ("ms", ["n:morse.verify_gmb_gradient_inequality"], [ANALYZE]),
    "morse.cylinder_halvings": ("count", ["n:morse.verify_gmb_gradient_inequality"],
                                [ANALYZE]),
    "flow.integrate_ms": ("ms", ["n:flow.integrate_flow"], [FLOW]),
    "flow.rhs_calls": ("count", ["n:flow.integrate_flow"], [FLOW]),
    "flow.steps": ("count", ["n:flow.integrate_flow"], [FLOW]),
    "flow.identity_ms": ("ms", ["n:flow.dqds_identity_error"], [FLOW]),
    "estimate.theta_ms": ("ms", ["n:estimate.estimate_theta"], [RESOLVE]),
    "estimate.kept_ratio": ("ratio", ["n:estimate.estimate_theta"], [RESOLVE]),
    "reports.dump_ms": ("ms", ["n:reports.dump_report"], [ANALYZE, RESOLVE]),
    "cli.self_ms": ("ms", ["count:cli"], [ANALYZE, RESOLVE]),
    "trace.overhead_ratio": ("ratio", [], []),
}

# Functions the metrics are computed from.  A traced run refuses to start
# when one is no longer wrapped, so a renamed function cannot read as 0 ms.
REQUIRED = (
    "sampling.halton", "sampling.ball_points", "snc.compute_constants",
    "snc.verify_gradient_inequality", "blowup.resolve",
    "blowup.translated_chart_analysis", "blowup.pull_back_and_bound",
    "blowup.exponent_upper_bound", "univar.rational_roots",
    "morse.check_morse_bott", "morse.check_generalized_morse_bott",
    "morse.verify_gmb_gradient_inequality", "sampling.subspace_grid",
    "flow.integrate_flow", "flow.energy_monotonicity_violation",
    "flow.dqds_identity_error", "flow.speed_identity_error",
    "estimate.estimate_theta", "sampling.sphere_directions",
    "reports.dump_report", "cli.main", "poly.Polynomial.numeric",
    "poly.Polynomial.gradient_numeric", "poly.Substitution.apply", "poly.parse",
)

SHARE_KINDS = (
    "sampling", "poly.eval", "poly.compile", "poly.exact", "snc", "blowup", "univar",
    "morse", "flow", "estimate", "reports", "cli", "job",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(totals: dict, jobs: int, unsound: int, overhead: float) -> dict[str, float]:
    t = totals.get

    def dur(*names: str) -> float:
        return MS * sum(t(f"dur:{name}", 0.0) for name in names) / jobs

    def per_job(key: str, scale: float = 1.0) -> float:
        return scale * t(key, 0.0) / jobs

    return {
        "sampling.self_ms": per_job("self:sampling", MS),
        "sampling.calls": per_job("sampling.outer_calls"),
        "sampling.points": per_job("sampling.outer_rows"),
        "sampling.accept_ratio": _ratio(t("sampling.ball_interior", 0.0),
                                        t("sampling.ball_halton_rows", 0.0)),
        "poly.eval_ms": per_job("self:poly.eval", MS),
        "poly.eval_calls": per_job("count:poly.eval"),
        "poly.eval_rows_per_call": _ratio(t("rows:poly.eval", 0.0), t("count:poly.eval", 0.0)),
        "poly.compile_calls": per_job("count:poly.compile"),
        "poly.exact_ms": per_job("self:poly.exact", MS),
        "poly.exact_calls": per_job("count:poly.exact"),
        "snc.constants_ms": dur("snc.compute_constants"),
        "snc.check_ms": dur("snc.verify_gradient_inequality"),
        "snc.sigma_halvings": per_job("snc.sigma_halvings"),
        "blowup.resolve_ms": dur("blowup.resolve"),
        "blowup.nodes": per_job("blowup.nodes"),
        "blowup.resolve_calls": per_job("n:blowup.resolve"),
        "blowup.translated_ms": dur("blowup.translated_chart_analysis"),
        "blowup.translated_points": per_job("blowup.translated_points"),
        "blowup.pullback_ms": dur("blowup.pull_back_and_bound"),
        "blowup.unsound_bounds": unsound / jobs,
        "univar.roots_ms": per_job("outer:univar", MS),
        "morse.check_ms": dur("morse.check_morse_bott", "morse.check_generalized_morse_bott"),
        "morse.gmb_verify_ms": dur("morse.verify_gmb_gradient_inequality"),
        "morse.cylinder_halvings": per_job("morse.cylinder_halvings"),
        "flow.integrate_ms": dur("flow.integrate_flow"),
        "flow.rhs_calls": per_job("flow.rhs_calls"),
        "flow.steps": per_job("flow.steps"),
        "flow.identity_ms": dur("flow.energy_monotonicity_violation",
                                "flow.dqds_identity_error", "flow.speed_identity_error"),
        "estimate.theta_ms": dur("estimate.estimate_theta"),
        "estimate.kept_ratio": _ratio(t("estimate.kept", 0.0), t("estimate.tried", 0.0)),
        "reports.dump_ms": dur("reports.dump_report"),
        "cli.self_ms": per_job("self:cli", MS),
        "trace.overhead_ratio": overhead,
    }


def missing_functions(wrapped: frozenset[str]) -> list[str]:
    return [name for name in REQUIRED if name not in wrapped]


def missing_spans(totals: dict, workload: str) -> list[str]:
    """Metrics this workload must exercise whose source spans never ran."""
    return [
        name for name, (_unit, sources, workloads) in SOURCE.items()
        if workload in workloads and not any(totals.get(key, 0) for key in sources)
    ]


def per_layer(tracer, jobs: list[dict], workload: str, unsound: int) -> dict:
    """Rows ``name -> (value, unit, traced job count)``; raises on stale spans."""
    missing = missing_spans(tracer.totals, workload)
    if missing:
        raise RuntimeError(
            f"traced run recorded no spans for {missing} on {workload}; "
            "a wrapper no longer reaches the function these metrics time"
        )
    untraced = sum(job["latency"] for job in jobs)
    traced = sum(job["traced_latency"] for job in jobs)
    values = compute(tracer.totals, tracer.jobs, unsound, traced / untraced)
    return {name: (values[name], SOURCE[name][0], tracer.jobs) for name in SOURCE}


def layer_shares(totals: dict) -> dict[str, float]:
    """Self time of each layer as a share of traced job time."""
    total = totals.get("dur:job", 0.0)
    return {kind: _ratio(totals.get(f"self:{kind}", 0.0), total) for kind in SHARE_KINDS}


def claims(workload: str, totals: dict, values: dict[str, float]) -> list[str]:
    """Layer-isolation claims of the workload definitions, confirmed or refuted."""
    ranked = sorted(
        (kind for kind in SHARE_KINDS if kind != "job"),
        key=lambda kind: -totals.get(f"self:{kind}", 0.0),
    )
    if workload == ANALYZE:
        verdict = ranked[0] == "sampling"
        text = f"sampling is the top self-time layer (top: {ranked[0]})"
    elif workload == RESOLVE:
        verdict = "poly.exact" in ranked[:2]
        text = f"exact poly work is in the top two layers (top two: {ranked[:2]})"
    else:
        rows = values["poly.eval_rows_per_call"]
        verdict = rows < 2.0
        text = f"poly.eval_rows_per_call is about 1 ({rows:.3f})"
    return [f"claim {'confirmed' if verdict else 'REFUTED'}: {text}"]


def report_layers(tracer, workload: str, seed: int, out_dir: Path) -> None:
    """Print layer shares and claims; write the trace file."""
    totals = tracer.totals
    values = compute(totals, tracer.jobs, 0, 0.0)
    shares = layer_shares(totals)
    print("  layer self-time shares: " + ", ".join(
        f"{kind} {100 * share:.1f}%"
        for kind, share in sorted(shares.items(), key=lambda item: -item[1])
    ))
    for line in claims(workload, totals, values):
        print(f"  {line}")
    out_dir.mkdir(parents=True, exist_ok=True)
    duration, spans = tracer.slowest
    payload = {
        "workload": workload,
        "seed": seed,
        "traced_jobs": tracer.jobs,
        "layer_shares": shares,
        "totals": dict(sorted(totals.items())),
        "slowest_job": {
            "duration_s": duration,
            "fields": ["name", "kind", "start", "end", "parent", "extra"],
            "spans": spans,
        },
    }
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(payload, default=str))
    print(f"  trace written to {path.relative_to(out_dir.parent)}")
