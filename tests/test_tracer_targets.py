"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps gapfuse
functions and methods by name.  Every name it lists must still exist, or
the traced run crashes at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _tracer().TARGETS])
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module(f"gapfuse.{module}")
    if "." in attr:
        # the tracer wraps a method as found in its class body
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(method)), attr
    else:
        assert callable(getattr(mod, attr, None)), attr


def test_traced_modules_import():
    for module in _tracer().MODULES:
        importlib.import_module(f"gapfuse.{module}")
