"""The benchmark tracer wraps fibwalk functions by name; each must exist.

`bench/run.py --trace 1` fails on a name that no longer resolves, so a
refactor that renames or folds away a traced function shows up here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # install() also wraps logic.parse_script
    for qual in list(tracer.TARGETS) + ["logic.parse_script"]:
        module, name = qual.split(".")
        fn = getattr(importlib.import_module("fibwalk." + module), name, None)
        assert callable(fn), qual
