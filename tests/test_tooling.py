import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "oscbench" / "tracing.py"


def test_traced_names_resolve():
    # the traced benchmark run looks up each (module, function) of TRACED on the package
    spec = importlib.util.spec_from_file_location("oscbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, function, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"oscitab.{module}"), function)), (module, function)
