"""Start-up: what a fresh interpreter imports to build the CLI, and the CLI run in a fresh process."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
# modules that cost start-up time and that building the CLI does not need; a bare
# ``python3 -S`` loads none of them on Python 3.10 to 3.13
COLD = (
    "dataclasses",
    "inspect",
    "typing",
    "fractions",
    "decimal",
    "argparse",
    "json",
    "re",
    "shutil",
    "functools",
    "collections",
    "collections.abc",
    "_collections_abc",
    "reprlib",
    "keyword",
    "__future__",
)


def benchmark_probe() -> str:
    """The statement that the benchmark times as ``setup_s``, read from ``oscbench/run.py``."""
    tree = ast.parse((ROOT / "oscbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["PROBE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("oscbench/run.py defines no PROBE")


def fresh_python(*args: str, code: int = 0) -> bytes:
    """Standard output of ``python3 -S`` in a new process with only ``src`` on the path, as the probe runs.

    The process must exit with ``code``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", *args], env=env, cwd=ROOT, capture_output=True, timeout=120)
    assert proc.returncode == code, proc.stderr.decode()
    return proc.stdout


def test_building_the_cli_imports_no_cold_module():
    out = fresh_python("-c", benchmark_probe() + f"; print(); print(sorted(set({COLD!r}) & set(sys.modules)))")
    assert out == b"ready\n[]\n"


@pytest.mark.parametrize(
    "statement",
    [
        "import oscitab; assert oscitab.analysis.ssot_schur((1,), 1).degree == 1",
        "from oscitab import analysis; assert analysis.ssot_schur",
        "import oscitab.analysis; assert oscitab.analysis.ssot_schur",
        "import oscitab; assert {'analysis', *oscitab.__all__} <= set(dir(oscitab))",
        "import oscitab; assert not hasattr(oscitab, 'no_such_module')",
    ],
)
def test_analysis_is_reachable(statement):
    assert fresh_python("-c", statement + "; print('ok')") == b"ok\n"


# vset needs no analysis; the other commands call it
FRESH_CASES = [
    ("vset_21_7.txt", ["vset", "2,1", "7"]),
    ("snp_21_5_3.json.txt", ["snp", "2,1", "5", "3", "--json"]),
    ("snp_21_5_3.txt", ["snp", "2,1", "5", "3"]),
    ("expand_schur_21_5.json.txt", ["expand-schur", "2,1", "5", "--json"]),
    ("inner_3_111_5.json.txt", ["inner-product", "3", "1,1,1", "5", "--json"]),
    ("n0_3_111.txt", ["n0", "3", "1,1,1"]),
    ("independence_3_5.json.txt", ["independence", "3", "5", "--json"]),
]


@pytest.mark.parametrize("name,argv", FRESH_CASES, ids=[c[0] for c in FRESH_CASES])
def test_cli_in_a_fresh_process(name, argv):
    assert fresh_python("-m", "oscitab.cli", *argv) == (GOLDEN / name).read_bytes()


def test_cli_exit_codes_in_a_fresh_process():
    assert fresh_python("-m", "oscitab.cli", "not-a-command", code=2) == b""
    assert fresh_python("-m", "oscitab.cli", "--help").startswith(b"usage: oscitab [-h]")


# run the CLI on the arguments given and print its peak resident set size in
# kilobytes; from a small parent, since a child's peak starts at its parent's
MEASURE_RSS = (
    "import resource, subprocess, sys; "
    "code = subprocess.run([sys.executable, '-S', '-m', 'oscitab.cli', *sys.argv[1:]], stdout=subprocess.DEVNULL).returncode; "
    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
@pytest.mark.parametrize("argv", [["snp", "2,1", "15", "8"], ["ssot-poly", "2,1", "15", "8"]], ids=["snp", "ssot-poly"])
def test_symmetric_outputs_use_little_memory_in_a_fresh_process(argv):
    # both commands write from the 116 partition counts, not from the
    # polynomial's 156,816 terms, which took about 70 MB; an interpreter that
    # has imported the CLI and done nothing else takes about 14 MB
    code, kilobytes = map(int, fresh_python("-c", MEASURE_RSS, *argv).split())
    assert code == 0
    assert kilobytes < 35 * 1024, f"{kilobytes / 1024:.1f} MB"


@pytest.mark.parametrize(
    "argv,lines",
    [
        # the listing is about 113 KB, more than a pipe holds, so the CLI is
        # still writing when the reader takes one line and closes the pipe
        (["enumerate-qyot", "2,1", "9", "9"], 1),
        (["enumerate-qyot", "2,1", "9", "9", "--json"], 1),
        # about 440 KB written from the partition counts, a thousand terms at a time
        (["ssot-poly", "2,1", "11", "6", "--json"], 1),
        # the reader closes the pipe while the CLI is still starting up
        (["--help"], 0),
        (["vset", "-h"], 0),
    ],
    ids=["text", "json", "ssot-poly-json", "help", "command-help"],
)
def test_closed_standard_output_ends_without_a_traceback(argv, lines):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(
        [sys.executable, "-S", "-m", "oscitab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    ) as proc:
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err.decode()
