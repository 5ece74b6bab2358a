"""Workload generators, job runners and output oracles.

Each workload turns a seed into an endless stream of jobs.  The stream is
made of cycles with a fixed stratum mix (the seed picks the inputs inside
each stratum and the order of the cycle), so the job mix, and with it the
latency quantiles, does not drift with the seed.  A job has three parts:

- ``run``: the timed call into loja-lab's public entry points;
- ``collect``: untimed, reads the reports the job wrote;
- ``check``: the oracle, run after the timed loop.  It compares against
  closed forms and sympy, never against loja-lab itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import random
import re
from fractions import Fraction
from pathlib import Path

# Sample count for every sampled constant and check (CLI --samples, the
# Morse checks and compute_constants).  The CLI default of 10k puts one d=4
# analyze job at 2-4 s, too slow for 100 jobs in one run.
SAMPLES = 2000
# Dense resampling count for dqds_identity_error.  Its default of 20k costs
# ~0.5 s per call, too slow for 100 flow jobs in one run.  The three-point
# difference is second order, so the program's 1e-6 target at 20k points
# scales to 1e-6 * (20000 / DQDS_COUNT)^2.
# The stiff family exceeds that target from some start points (1.0-1.5e-6
# at 20k points), so a miss is counted as the known defect
# "dqds_over_target"; only an error above DQDS_LIMIT fails the job.
DQDS_COUNT = 4000
DQDS_TARGET = 1e-6 * (20_000 / DQDS_COUNT) ** 2
DQDS_LIMIT = 1e-4
ENERGY_SLACK = 1e-9
ARC_TOLERANCE = 1e-6
# x^2 + y^4 is stiff: from (0.2, 0.2) the solver needs 3176, 13646 and
# 62270 right-hand-side calls at tol 1e-5, 1e-6 and 1e-7 (about tol^-2/3),
# and the CLI default tol 1e-10 did not finish in 10 minutes.  The family
# runs at 1e-5 so one job takes well under a second.
STIFF_TOL = 1e-5
FLOW_TOL = 1e-10


def job_stream(workload, seed: int | str):
    """Endless job specs: shuffled cycles of the workload's stratum mix."""
    cycle = 0
    while True:
        rng = random.Random(f"{workload.name}:{seed}:{cycle}")
        specs = workload.cycle(rng, cycle)
        rng.shuffle(specs)
        yield from specs
        cycle += 1


@contextlib.contextmanager
def _quiet():
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        yield


def _read_report(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None


# ----------------------------------------------------------------------
# analyze-snc
# ----------------------------------------------------------------------


class AnalyzeSnc:
    """CLI ``analyze`` on monomial-times-unit inputs, plus Morse-Bott jobs.

    Cycle of 20: d=1 x2, d=2 x3, d=3 x7, d=4 x4, Morse-Bott x2 and
    generalized Morse-Bott x2.  A "strong" unit has coefficients of 2-5,
    which break the shrinking condition at sigma = 0.5 and force halvings;
    a "mild" unit has coefficients of at most 1/4.  The d=4 jobs (top 20%
    of the cost) all have mild units, so p90 falls inside one cost cluster.
    """

    name = "analyze-snc"

    def __init__(self, lojalab, workdir: Path) -> None:
        self.cli, self.morse, self.poly = lojalab.cli, lojalab.morse, lojalab.poly
        self.out = workdir / "analyze"

    def cycle(self, rng: random.Random, index: int) -> list[dict]:
        plan = [(1, False), (1, True), (2, False), (2, False), (2, True)]
        plan += [(3, False)] * 4 + [(3, True)] * 3 + [(4, False)] * 4
        specs = [self._snc(rng, d, strong) for d, strong in plan]
        specs += [self._morse_bott(rng, d) for d in (2, 3)]
        specs += [self._generalized(rng, d) for d in (2, 3)]
        return specs

    @staticmethod
    def _snc(rng: random.Random, d: int, strong: bool) -> dict:
        names = [f"x{i + 1}" for i in range(d)]
        exps = [rng.randint(2 if d == 1 else 1, 4) for _ in range(d)]
        monomial = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps))
        unit = "1"
        for _ in range(rng.randint(1, 2)):
            term = "*".join(rng.choice(names) for _ in range(rng.randint(1, 2)))
            coeff = rng.choice(["2", "3", "4", "5"] if strong else ["1/8", "1/6", "1/4"])
            unit += f" {rng.choice('+-')} {coeff}*{term}"
        total = sum(exps)
        return {
            "kind": "snc",
            "stratum": f"d{d}-{'strong' if strong else 'mild'}",
            "text": f"{monomial}*({unit})",
            "theta": Fraction(total - 1, total),
            "optimal": exps == [1, 1] or exps == [2],
        }

    @staticmethod
    def _morse_bott(rng: random.Random, d: int) -> dict:
        names = [f"x{i + 1}" for i in range(d)]
        free = rng.randrange(d)
        squares = [i for i in range(d) if i != free]
        text = " + ".join(f"{rng.choice(['1', '2', '3', '1/2'])}*{names[i]}^2" for i in squares)
        if rng.random() < 0.5:
            # Vanishes with its gradient on the free axis; Hessian unchanged.
            text += f" {rng.choice('+-')} {names[rng.choice(squares)]}^2*{names[free]}"
        return {
            "kind": "morse-bott", "stratum": f"mb-d{d}", "text": text,
            "variables": names, "subspace": (free,), "order": 2,
            "theta": Fraction(1, 2),
        }

    @staticmethod
    def _generalized(rng: random.Random, d: int) -> dict:
        order = rng.choice([4, 6])
        names = [f"x{i + 1}" for i in range(d)]
        text = " + ".join(f"{rng.choice(['1', '2', '3'])}*{v}^{order}" for v in names[:2])
        return {
            "kind": "generalized", "stratum": f"gmb-d{d}", "text": text,
            "variables": names, "subspace": tuple(range(2, d)), "order": order,
            "theta": Fraction(order - 1, order),
        }

    def prepare(self, spec: dict) -> None:
        (self.out / "report.json").unlink(missing_ok=True)

    def run(self, spec: dict):
        if spec["kind"] == "snc":
            argv = ["analyze", spec["text"], "--output-path", str(self.out),
                    "--samples", str(SAMPLES)]
            with _quiet():
                return self.cli.main(argv)
        p = self.poly.parse(spec["text"], spec["variables"])
        if spec["kind"] == "morse-bott":
            report = self.morse.check_morse_bott(p, spec["subspace"], samples=SAMPLES)
            return report.verdict, report.predicted_theta, True
        report = self.morse.check_generalized_morse_bott(
            p, spec["subspace"], spec["order"], samples=SAMPLES
        )
        check = self.morse.verify_gmb_gradient_inequality(p, report)
        return report.verdict, report.predicted_theta, check.passed

    def collect(self, spec: dict, result):
        if spec["kind"] == "snc":
            return {"rc": result, "report": _read_report(self.out / "report.json")}
        return result

    def defects(self, spec: dict, record) -> list[str]:
        return []

    def check(self, spec: dict, record) -> list[str]:
        if spec["kind"] != "snc":
            verdict, theta, passed = record
            problems = [] if verdict else ["verdict false"]
            if theta != spec["theta"]:
                problems.append(f"theta {theta} != {spec['theta']}")
            if not passed:
                problems.append("gradient inequality check failed")
            return problems
        report = record["report"]
        if record["rc"] != 0 or report is None:
            return [f"exit code {record['rc']}"]
        problems = []
        if Fraction(report["theta"]) != spec["theta"]:
            problems.append(f"theta {report['theta']} != {spec['theta']}")
        if report["optimal"] != spec["optimal"]:
            problems.append(f"optimal {report['optimal']} != {spec['optimal']}")
        return problems


# ----------------------------------------------------------------------
# resolve-curves
# ----------------------------------------------------------------------

CUSP_TEMPLATES = (
    "(y^2 - {a}*x^3)*(y^2 - {b}*x^5)",
    "(y^2 - {a}*x^3)*(y^2 - {b}*x^7)",
    "(y^2 - {a}*x^3)^2 - {b}*x^5*y",
    "(y^2 - {a}*x^3)^2 - {b}*x^7*y",
    "(y^2 - {a}*x^3)*(x^2 - {b}*y^3)",
    "(y^3 - {a}*x^4)*(y^2 - {b}*x^3)",
)


class ResolveCurves:
    """CLI ``resolve`` then CLI ``estimate`` on plane curves.

    Cycle of 34: every Brieskorn-Pham pair 2 <= a < b <= 9 once, and every
    cusp template once.  ``x^2 + y^4`` and ``x^2 - y^3`` are the (2, 4) and
    (2, 3) members of every cycle; the other pairs get a random sign and
    coefficient.  The closed-form exponent of ``x^a +- c*y^b`` is 1 - 1/b.
    For the cusp templates the reference exponent is the largest exact
    test-curve lower bound (see ``curve_lower_bound``).
    """

    name = "resolve-curves"

    def __init__(self, lojalab, workdir: Path) -> None:
        self.cli = lojalab.cli
        self.out_resolve = workdir / "resolve"
        self.out_estimate = workdir / "estimate"
        self._leaf_verdicts: dict[str, list[str]] = {}
        self._curve_bounds: dict[str, Fraction] = {}

    def cycle(self, rng: random.Random, index: int) -> list[dict]:
        specs = []
        for a in range(2, 10):
            for b in range(a + 1, 10):
                if (a, b) == (2, 3):
                    text = "x^2 - y^3"
                elif (a, b) == (2, 4):
                    text = "x^2 + y^4"
                else:
                    coeff = rng.choice(["", "2*", "3*", "1/2*"])
                    text = f"x^{a} {rng.choice('+-')} {coeff}y^{b}"
                specs.append({"kind": "bp", "stratum": f"bp-{a}-{b}", "text": text,
                              "theta": Fraction(b - 1, b)})
        for k, template in enumerate(CUSP_TEMPLATES):
            text = template.format(a=rng.choice([1, 2]), b=rng.choice([1, 2]))
            specs.append({"kind": "cusp", "stratum": f"cusp-{k}", "text": text})
        return specs

    def prepare(self, spec: dict) -> None:
        (self.out_resolve / "report.json").unlink(missing_ok=True)
        (self.out_estimate / "report.json").unlink(missing_ok=True)

    def run(self, spec: dict):
        with _quiet():
            rc_resolve = self.cli.main(
                ["resolve", spec["text"], "--output-path", str(self.out_resolve)]
            )
            rc_estimate = self.cli.main(
                ["estimate", spec["text"], "--output-path", str(self.out_estimate)]
            )
        return rc_resolve, rc_estimate

    def collect(self, spec: dict, result) -> dict:
        """Keep only the report fields the oracle reads."""
        resolved = _read_report(self.out_resolve / "report.json")
        estimated = _read_report(self.out_estimate / "report.json")
        return {
            "rc": result,
            "leaves": resolved and resolved["leaves"],
            "interval": resolved and resolved["theta_interval"],
            "consistency": estimated and estimated["resolution_consistency"],
        }

    def reference_theta(self, spec: dict) -> Fraction:
        if "theta" in spec:
            return spec["theta"]
        text = spec["text"]
        if text not in self._curve_bounds:
            self._curve_bounds[text] = curve_lower_bound(text)
        return self._curve_bounds[text]

    def defects(self, spec: dict, record: dict) -> list[str]:
        """``unsound_bounds``: the resolve interval's upper end lies below the
        reference exponent."""
        interval = record["interval"]
        if interval and Fraction(interval[1]) < self.reference_theta(spec):
            return ["unsound_bounds"]
        return []

    def check(self, spec: dict, record: dict) -> list[str]:
        if record["rc"] != (0, 0) or record["leaves"] is None:
            return [f"exit codes {record['rc']}"]
        problems = list(self._check_leaves(spec["text"], record["leaves"]))
        consistency = record["consistency"]
        theta = self.reference_theta(spec)
        if consistency is None:
            problems.append("estimate reported no resolution bound")
        elif Fraction(consistency["bound"][1]) < theta:
            problems.append(f"estimate bound {consistency['bound'][1]} < {theta}")
        return problems

    def _check_leaves(self, text: str, leaves: list[dict]) -> list[str]:
        key = json.dumps([text, leaves], sort_keys=True)
        if key not in self._leaf_verdicts:
            self._leaf_verdicts[key] = check_snc_leaves(text, leaves)
        return self._leaf_verdicts[key]


def _chart_variables(chart_path: str, root: tuple[str, str]) -> tuple[str, str]:
    """Chart coordinates as loja-lab names them: u/v for chart 1, a/b for
    chart 2, suffixed with the chart path's digits."""
    digits = chart_path.replace("root", "").replace("/", "")
    if not digits:
        return root
    stem = ("u", "v") if digits[-1] == "1" else ("a", "b")
    return stem[0] + digits, stem[1] + digits


@functools.lru_cache(maxsize=4096)
def _sympy_expr(text: str):
    # Chart maps repeat across inputs, so parsed expressions are cached.
    import sympy

    return sympy.sympify(text.replace("^", "**"))


def check_snc_leaves(text: str, leaves: list[dict]) -> list[str]:
    """sympy check: p(composite map) == chart monomial * residual per snc leaf."""
    import sympy

    root = tuple(dict.fromkeys(re.findall(r"[a-z]\w*", text)))
    p = _sympy_expr(text)
    x, y = sympy.symbols(root)
    problems = []
    for leaf in leaves:
        if not leaf["snc"]:
            continue
        first, second = sympy.symbols(_chart_variables(leaf["chart_path"], root))
        composite = [_sympy_expr(c) for c in leaf["composite_map"]]
        pulled = p.xreplace({x: composite[0], y: composite[1]})
        e1, e2 = leaf["monomial"]
        factored = first**e1 * second**e2 * _sympy_expr(leaf["residual"])
        if sympy.expand(pulled - factored) != 0:
            problems.append(f"leaf {leaf['chart_path']}: p(composite) != monomial*residual")
        if _sympy_expr(leaf["residual"]).subs({first: 0, second: 0}) == 0:
            problems.append(f"leaf {leaf['chart_path']}: residual vanishes at the chart origin")
    return problems


def _order_along(terms, p: int, q: int, c1: Fraction, c2: Fraction) -> int | None:
    """Order in t of sum c_ij x^i y^j along (c1 t^p, c2 t^q); None if zero."""
    by_power: dict[int, Fraction] = {}
    for (i, j), coeff in terms:
        value = coeff * c1**i * c2**j
        if value:
            power = i * p + j * q
            by_power[power] = by_power.get(power, 0) + value
    nonzero = [power for power, value in by_power.items() if value]
    return min(nonzero) if nonzero else None


def curve_lower_bound(text: str) -> Fraction:
    """Exact lower bound on the gradient exponent of a plane curve at 0.

    Along a test curve where ``|f| ~ t^A`` and ``||grad f|| ~ t^B`` the
    inequality ``||grad f|| >= C |f|^theta`` needs ``theta >= B/A``; the
    bound is the largest ``B/A`` over monomial curves ``(c1 t^p, c2 t^q)``
    with coprime ``p, q <= 8`` and ``c1, c2`` in {0, 1, -1, 2, 1/2}.  Orders
    are computed in exact arithmetic from sympy's expansion of ``f(x, y)``.
    """
    import sympy

    x, y = sympy.symbols(("x", "y"))
    f = sympy.Poly(_sympy_expr(text), x, y)

    def exact_terms(poly):
        return [(m, Fraction(int(c.p), int(c.q))) for m, c in poly.terms()]

    value, dx, dy = (exact_terms(g) for g in (f, f.diff(x), f.diff(y)))
    scalars = [Fraction(v) for v in (0, 1, -1, 2, Fraction(1, 2))]
    best = Fraction(0)
    for p in range(1, 9):
        for q in range(1, 9):
            if math.gcd(p, q) != 1:
                continue  # (kp, kq) gives the same ratio as (p, q)
            for c1 in scalars:
                for c2 in scalars:
                    if c1 == 0 and c2 == 0:
                        continue
                    a = _order_along(value, p, q, c1, c2)
                    orders = [o for o in (_order_along(dx, p, q, c1, c2),
                                          _order_along(dy, p, q, c1, c2)) if o is not None]
                    if a and orders:
                        best = max(best, Fraction(min(orders), a))
    return best


# ----------------------------------------------------------------------
# flow-verify
# ----------------------------------------------------------------------


def _energy(fn: str, points):
    x = points[:, 0]
    if fn == "x^2":
        return x**2
    if fn == "x^4":
        return x**4
    y = points[:, 1]
    return {"x^2 + y^2": x**2 + y**2, "x^2*y^2": x**2 * y**2, "x^2 + y^4": x**2 + y**4}[fn]


def expected_arc_length(fn: str, x0: tuple[float, ...], tol: float) -> float:
    """Arc length of the exact gradient-flow path until ||grad|| = tol."""
    from scipy.integrate import quad

    if fn == "x^2":
        return abs(x0[0]) - tol / 2.0
    if fn == "x^4":
        return abs(x0[0]) - (tol / 4.0) ** (1.0 / 3.0)
    if fn == "x^2 + y^2":
        return math.hypot(*x0) - tol / 2.0
    if fn == "x^2*y^2":
        # x^2 - y^2 is conserved: the path is a hyperbola arc ending on the
        # x-axis (the stop point is within 1e-8 of it).
        a, b = abs(x0[0]), abs(x0[1])
        limit_sq = a * a - b * b
        speed = lambda y: math.sqrt(1.0 + y * y / (limit_sq + y * y))  # noqa: E731
        return quad(speed, 0.0, b, epsabs=1e-13, epsrel=1e-13)[0]
    # x^2 + y^4: x = x0 e^(-2t), y = y0 / sqrt(1 + 8 y0^2 t).  x has decayed
    # to nothing long before the stop, where 4|y|^3 = tol.
    a, b = x0
    y_end = (tol / 4.0) ** (1.0 / 3.0)
    t_end = (b * b / (y_end * y_end) - 1.0) / (8.0 * b * b)

    def speed(t: float) -> float:
        x = a * math.exp(-2.0 * t)
        y = b / math.sqrt(1.0 + 8.0 * b * b * t)
        return math.sqrt(4.0 * x * x + 16.0 * y**6)

    return sum(
        quad(speed, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        for lo, hi in ((0.0, 20.0), (20.0, t_end))
    )


class FlowVerify:
    """Library flow battery: integrate, identity checks, length bound.

    Cycle of 6, each job from a seeded start point: one per function and a
    second ``x^2 + y^2``.  Sorted by cost the functions run ``x^2``,
    ``x^4``, ``x^2 + y^2``, ``x^2*y^2``, ``x^2 + y^4``; the doubled
    ``x^2 + y^2`` puts p50 in the middle of one cost cluster instead of
    between two.  The stiff ``x^2 + y^4`` runs at ``STIFF_TOL`` and is the
    slowest sixth, so p90 falls inside it.  The first ``x^2`` job starts at
    0.5.
    """

    name = "flow-verify"

    def __init__(self, lojalab, workdir: Path) -> None:
        self.flow, self.snc, self.poly = lojalab.flow, lojalab.snc, lojalab.poly

    def cycle(self, rng: random.Random, index: int) -> list[dict]:
        def signed(lo: float, hi: float) -> float:
            return rng.choice((1.0, -1.0)) * rng.uniform(lo, hi)

        def radial() -> tuple[float, float]:
            r, angle = rng.uniform(0.1, 0.45), rng.uniform(0.0, 2.0 * math.pi)
            return r * math.cos(angle), r * math.sin(angle)

        a = signed(0.2, 0.45)
        starts = [
            ("x^2", (0.5,) if index == 0 else (signed(0.1, 0.5),)),
            ("x^4", (signed(0.1, 0.45),)),
            ("x^2 + y^2", radial()),
            ("x^2 + y^2", radial()),
            ("x^2*y^2", (a, signed(0.2, 0.8) * abs(a))),
            ("x^2 + y^4", (signed(0.1, 0.3), signed(0.15, 0.25))),
        ]
        return [
            {"kind": "flow", "stratum": fn, "text": fn, "x0": x0,
             "tol": STIFF_TOL if fn == "x^2 + y^4" else FLOW_TOL}
            for fn, x0 in starts
        ]

    def prepare(self, spec: dict) -> None:
        pass

    def run(self, spec: dict) -> dict:
        flow, snc = self.flow, self.snc
        p = self.poly.parse(spec["text"])
        traj = flow.integrate_flow(p, spec["x0"], tol=spec["tol"])
        out = {
            "converged": traj.converged,
            "arc": traj.arc_length,
            "points": traj.points,
            "energies": traj.energies,
            "energy_violation": flow.energy_monotonicity_violation(traj),
            "dqds": flow.dqds_identity_error(traj, p, count=DQDS_COUNT),
            "speed": flow.speed_identity_error(traj),
            "length_bound": None,
        }
        factorization = snc.detect_snc(p)
        if factorization.snc_at_origin and traj.converged:
            full = snc.compute_constants(factorization, samples=SAMPLES)
            out["length_bound"] = flow.verify_length_bound(
                traj, full.theta, full.gradient_constant
            ).passed
        return out

    def collect(self, spec: dict, result: dict) -> dict:
        """Replace the trajectory arrays by the oracle's energy checks on them,
        so that stored records do not inflate the peak RSS."""
        import numpy as np

        points, energies = result.pop("points"), result.pop("energies")
        recomputed = _energy(spec["text"], points)
        result["recomputed_rise"] = float(np.diff(recomputed).max(initial=0.0))
        result["energies_match"] = bool(np.allclose(recomputed, energies, rtol=1e-9, atol=1e-15))
        return result

    def defects(self, spec: dict, out: dict) -> list[str]:
        return ["dqds_over_target"] if out["dqds"] > DQDS_TARGET else []

    def check(self, spec: dict, out: dict) -> list[str]:
        fn = spec["text"]
        problems = []
        if not out["converged"]:
            return ["did not converge"]
        if out["energy_violation"] > ENERGY_SLACK:
            problems.append(f"energy rises by {out['energy_violation']:.3e}")
        if out["recomputed_rise"] > ENERGY_SLACK:
            problems.append("recomputed energy is not monotone")
        if not out["energies_match"]:
            problems.append("reported energies differ from E(points)")
        if not out["dqds"] <= DQDS_LIMIT:
            problems.append(f"dqds error {out['dqds']:.3e} > {DQDS_LIMIT:.1e}")
        expected = expected_arc_length(fn, spec["x0"], spec["tol"])
        if abs(out["arc"] - expected) > ARC_TOLERANCE:
            problems.append(f"arc length {out['arc']!r} != {expected!r}")
        if fn in ("x^2", "x^4", "x^2*y^2") and out["length_bound"] is not True:
            problems.append(f"length bound {out['length_bound']}")
        return problems


WORKLOADS = {w.name: w for w in (AnalyzeSnc, ResolveCurves, FlowVerify)}
