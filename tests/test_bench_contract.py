"""Every function the benchmark's traced mode wraps must exist in the package.

``perfbench/layers.py`` lists them in ``REQUIRED``; a traced run refuses to
start when one is missing, so a deletion here would break ``--trace 1``.
A traced run also fails when a metric's source spans never ran, so one
traced analyze-snc cycle must record every span that workload owes.
"""

import importlib
import random
import runpy
from pathlib import Path

import pytest

import lojalab
import lojalab.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def test_every_required_function_resolves():
    missing = []
    for name in runpy.run_path(str(LAYERS))["REQUIRED"]:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"lojalab.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []


def _traced(name, tmp_path, keep=lambda spec: True):
    """Run the kept jobs of a workload's first cycle under the tracer; each
    must pass its oracle.  Returns the tracer and the ``missing_spans``
    function."""
    # The perfbench modules are run from their files, not imported, so no
    # bytecode is written next to them.
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    layers = runpy.run_path(str(LAYERS))
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    workload = workloads["WORKLOADS"][name](lojalab, tmp_path)
    tracer = tracing["Tracer"](lojalab)
    tracer.install()
    try:
        for spec in filter(keep, workload.cycle(random.Random(0), 0)):
            workload.prepare(spec)
            tracer.begin_job()
            result = workload.run(spec)
            tracer.end_job()
            assert workload.check(spec, workload.collect(spec, result)) == [], spec
    finally:
        tracer.uninstall()
    return tracer, layers["missing_spans"]


def test_traced_analyze_cycle_records_every_span(tmp_path):
    tracer, missing_spans = _traced("analyze-snc", tmp_path)
    assert tracer.jobs == 20
    assert missing_spans(tracer.totals, "analyze-snc") == []


@pytest.mark.parametrize("name, stratum", [("resolve-curves", "bp-2-3"), ("flow-verify", "x^2")])
def test_traced_job_records_every_span(tmp_path, name, stratum):
    # One job of the stratum: x^2 - y^3, and x^2 from 0.5.
    tracer, missing_spans = _traced(name, tmp_path, lambda spec: spec["stratum"] == stratum)
    assert tracer.jobs == 1
    assert missing_spans(tracer.totals, name) == []
