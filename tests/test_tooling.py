import importlib
import importlib.util
from pathlib import Path

OSCBENCH = Path(__file__).resolve().parents[1] / "oscbench"
TRACING = OSCBENCH / "tracing.py"
RUN = OSCBENCH / "run.py"


def load(path):
    spec = importlib.util.spec_from_file_location(f"oscbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # the traced benchmark run looks up each (module, function) of TRACED on the package
    tracing = load(TRACING)
    assert tracing.TRACED
    for module, function, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"oscitab.{module}"), function)), (module, function)


def test_benchmark_reset_rebuilds_the_transition_tables(monkeypatch):
    # before every round the benchmark's Runner empties each oscitab module attribute that has cache_clear
    from oscitab import oscillating, polyring

    run = load(RUN)
    polyring.f_expansion((2, 1), 5, 5)
    for cached in run.Runner(None, run.oscitab_modules()).caches:
        cached.cache_clear()
    calls = []
    one_box_moves = oscillating._one_box_moves
    monkeypatch.setattr(oscillating, "_one_box_moves", lambda *args: calls.append(args) or one_box_moves(*args))
    polyring.f_expansion((2, 1), 5, 5)
    assert calls
