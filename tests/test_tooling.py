import functools
import importlib
import importlib.util
import inspect
import re
import shlex
from pathlib import Path

import pytest

from oscitab.shapes import _memo

ROOT = Path(__file__).resolve().parents[1]
OSCBENCH = ROOT / "oscbench"
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


# one call to each memo that makes no nested call to the same memo
MEMO_CALLS = {
    "_partitions_of": (0, 0, 0),
    "_transitions": ((2, 1),),
    "_ssot_schur_items": ((2, 1), 5),
    "build_parser": (),
}


def test_every_memo_counts_keeps_and_clears_as_lru_cache_does():
    # the memos are what the benchmark's scan finds: every module attribute with a callable cache_clear
    run = load(RUN)
    memos = run.Runner(None, run.oscitab_modules()).caches
    assert sorted(memo.__name__ for memo in memos) == sorted(MEMO_CALLS)
    for memo in memos:
        # a plain function, as the scan calls cache_clear() unbound, and built by the one decorator
        assert inspect.isfunction(memo) and memo.__code__ is _memo(len).__code__
        assert inspect.isfunction(memo.__wrapped__) and not hasattr(memo.__wrapped__, "cache_clear")
        assert memo.__name__ == memo.__wrapped__.__name__ and memo.__doc__ is memo.__wrapped__.__doc__
        args = MEMO_CALLS[memo.__name__]
        memo.cache_clear()
        first = memo(*args)
        assert memo(*args) is first
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1), memo.__name__
        memo.cache_clear()
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (0, 0, 0), memo.__name__


def test_a_memo_keeps_no_exception_and_counts_as_lru_cache():
    def flaky(x):
        """Fails on its first call."""
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("first call")
        return [x]

    counts = []
    for decorate in (_memo, functools.lru_cache(maxsize=None)):
        calls = []
        memo = decorate(flaky)
        with pytest.raises(ValueError):
            memo(1)
        assert memo(1) == [1] and memo(1) is memo(1) and calls == [1, 1]
        assert memo.__wrapped__ is flaky and memo.__doc__ == "Fails on its first call."
        info = memo.cache_info()
        counts.append((info.misses, info.hits, info.currsize))
    assert counts[0] == counts[1] == (2, 2, 1)


# a line of the CI step that diffs the CLI entry point against a golden file
CI_DIFF = re.compile(r"\s*PYTHONPATH=src python -m oscitab\.cli (.+) \| diff - tests/golden/(\S+)")


def test_golden_files_cases_and_ci_diffs_agree():
    # tests/golden/, test_cli.GOLDEN_CASES and the CI diff step name the same files, each with the same argv
    from test_cli import GOLDEN_CASES

    files = sorted(p.name for p in (ROOT / "tests" / "golden").iterdir())
    cases = {}
    for name, argv in GOLDEN_CASES:
        # a file argument is written relative to the root of the repository, as CI runs there
        cases[name] = [Path(a).resolve().relative_to(ROOT).as_posix() if Path(a).is_absolute() else a for a in argv]
    ci = {}
    for line in (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines():
        m = CI_DIFF.fullmatch(line)
        if m:
            assert m[2] not in ci, m[2]
            ci[m[2]] = shlex.split(m[1])
    assert len(cases) == len(GOLDEN_CASES)
    assert sorted(ci) == files and cases == ci
