"""The benchmark tracer binds `codecorpus` functions by name.

`bench/tracing.py` wraps each `(module, function)` of its SPECS where the
program binds it; a renamed or removed function would otherwise only
surface in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPECS
    for module, func, _before, _after in tracing.SPECS:
        mod = importlib.import_module(f"codecorpus.{module}")
        assert callable(getattr(mod, func, None)), f"{module}.{func}"
