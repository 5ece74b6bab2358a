"""Every function the benchmark's traced mode wraps must exist in the package.

``perfbench/layers.py`` lists them in ``REQUIRED``; a traced run refuses to
start when one is missing, so a deletion here would break ``--trace 1``.
"""

import importlib
import runpy
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
