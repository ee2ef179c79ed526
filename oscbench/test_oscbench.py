"""Tests of the benchmark itself: its oracles, its checkers and a smoke round of each workload.

    python3 -m pytest oscbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oscitab import oscillating  # noqa: E402


def test_hook_length_formula_by_hand():
    assert oracles.hooks((2, 1)) == [3, 1, 1]
    assert [oracles.syt_count(lam) for lam in [(), (1,), (2, 1), (2, 2), (3, 2), (3, 2, 1)]] == [1, 1, 2, 2, 5, 16]


def test_ot_count_by_hand():
    # C(5,3) * 1!! * f^(2,1) = 10 * 1 * 2
    assert oracles.ot_count((2, 1), 5) == 20
    # empty shape, length 4: the three matchings of {1,2,3,4}
    assert oracles.ot_count((), 4) == 3
    assert oracles.ot_count((1,), 3) == 3
    assert oracles.ot_count((2, 1), 4) == 0
    assert oracles.ot_count((3,), 1) == 0


def test_ot_count_matches_enumeration():
    for m in range(4):
        for lam in workloads.partitions(m):
            for n in range(m, m + 5):
                assert oracles.ot_count(lam, n) == len(oscillating.enumerate_ot(lam, n))


def test_specialisations_by_hand():
    # s_(2,1)(1,1,1) = 8; s_(1,1,1)(1,1) = 0; F_(2,1)(1,1) counts x1^2 x2 only
    assert oracles.schur_at_ones((2, 1), 3) == 8
    assert oracles.schur_at_ones((1, 1, 1), 2) == 0
    assert oracles.fundamental_at_ones((2, 1), 2) == 1
    assert oracles.fundamental_at_ones((1, 1, 1), 2) == 0
    assert [oracles.partition_count(m) for m in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_rado_lattice_points_by_hand():
    assert oracles.rado_points((2,), 2) == {(2, 0), (1, 1), (0, 2)}
    # the six permutations of (2,1,0) and the centre (1,1,1)
    assert oracles.rado_points((2, 1), 3) == {
        (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2), (1, 1, 1)
    }
    assert oracles.rado_points((1, 1), 3) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert oracles.dominance_top([(2, 0), (1, 1), (0, 2)]) == (2, 0)


def test_symmetry_and_reachability_by_hand():
    assert oracles.is_symmetric_terms({(2, 0): 1, (0, 2): 1, (1, 1): 3})
    assert not oracles.is_symmetric_terms({(2, 0): 1, (0, 2): 2})
    assert not oracles.is_symmetric_terms({(2, 1, 0): 1, (1, 2, 0): 1})
    assert oracles.even_strip_reachable((1,), 3) == {(2, 1), (1, 1, 1)}
    assert oracles.similarity_threshold((3,), (1, 1, 1)) == 7
    assert oracles.similarity_threshold((2, 1), (3,)) == 5
    assert oracles.has_even_columns(((1, 2), (3, 4)))
    assert not oracles.has_even_columns(((1, 2), (3,)))


@pytest.fixture(scope="module")
def modules():
    return run.oscitab_modules()


def one_round(workload, modules, traced=False):
    runner = run.Runner(workload, modules)
    if traced:
        runner.tracer = tracing.Tracer(modules)
        runner.tracer.install()
    try:
        return runner, runner.run_round()
    finally:
        if traced:
            runner.tracer.uninstall()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_round_passes_its_checks(name, modules, tmp_path):
    workload = workloads.WORKLOADS[name]("smoke", 7, tmp_path)
    assert len(workload.queries) >= 10
    assert len({q.key for q in workload.queries}) == len(workload.queries)
    _, r = one_round(workload, modules)
    assert r.failed == 0 and r.errors == []
    assert r.attempted == len(workload.queries)


def corrupt(workload, kind, spoil):
    """The workload with the first query of ``kind`` returning a spoiled answer."""
    queries = list(workload.queries)
    i = next(i for i, q in enumerate(queries) if q.key[0] == kind)
    original = queries[i].call
    queries[i] = dataclasses.replace(queries[i], call=lambda: spoil(original()))
    return dataclasses.replace(workload, queries=queries)


def bump_first(d: dict) -> dict:
    d = dict(d)
    first = next(iter(d))
    d[first] += 1
    return d


def drop_first_point(check):
    return dataclasses.replace(check, polytope_points=check.polytope_points[1:])


def swap_round_trip(result):
    (pair, back, tableau), *rest = result
    return [(pair, rest[0][1], tableau), *rest] if rest else [(pair, oscillating.EMPTY_SSOT, tableau)]


def odd_burge_column(result):
    (pair, back, tableau), *rest = result
    return [(pair, back, tableau + ((99,),)), *rest]


CORRUPTIONS = [
    ("fexpand", "f_expansion", bump_first),
    ("fexpand", "cli expand-f", lambda text: text.replace(" 1\n", " 2\n", 1) + "9 1\n"),
    ("fexpand", "ssot_poly", lambda f: type(f)(f.nvars, bump_first(f.terms))),
    ("fexpand", "schur_expand", bump_first),
    ("schur-lr", "ssot_schur", bump_first),
    ("schur-lr", "hall_inner", lambda v: v + 1),
    ("schur-lr", "independence_rank", lambda v: v - 1),
    ("schur-lr", "n_zero", lambda v: v + 2),
    ("snp-hull", "has_snp", drop_first_point),
    ("snp-hull", "has_snp control", lambda c: dataclasses.replace(c, snp=not c.snp)),
    ("ssot-objects", "sundaram round trip", swap_round_trip),
    ("ssot-objects", "sundaram round trip", odd_burge_column),
    ("ssot-objects", "enumerate_ssot", lambda listing: listing[1:]),
    ("ssot-objects", "cli enumerate-qyot", lambda text: text.replace('"count": ', '"count": 1', 1)),
]


@pytest.mark.parametrize("name,kind,spoil", CORRUPTIONS, ids=[f"{n}:{k}" for n, k, _ in CORRUPTIONS])
def test_checker_rejects_a_corrupted_answer(name, kind, spoil, modules, tmp_path):
    workload = corrupt(workloads.WORKLOADS[name]("smoke", 7, tmp_path), kind, spoil)
    _, r = one_round(workload, modules)
    assert r.failed == 0
    assert r.errors, f"a spoiled {kind} answer passed the {name} checks"


def test_seed_sets_order_and_sampled_files_only(tmp_path):
    a = workloads.ssot_objects("smoke", 1, tmp_path / "a")
    b = workloads.ssot_objects("smoke", 2, tmp_path / "b")
    assert sorted(q.key[0] for q in a.queries) == sorted(q.key[0] for q in b.queries)
    again = workloads.ssot_objects("smoke", 1, tmp_path / "c")
    assert [q.key for q in a.queries] == [q.key for q in again.queries]
    assert [p.read_text() for p in sorted((tmp_path / "a").iterdir())] == [
        p.read_text() for p in sorted((tmp_path / "c").iterdir())
    ]


def test_traced_round_reports_every_per_layer_metric(modules, tmp_path):
    workload = workloads.fexpand("smoke", 7, tmp_path)
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    runner, r = one_round(workload, modules, traced=True)
    assert r.failed == 0 and r.errors == []
    values = run.per_layer(runner, [r], [r])
    assert set(values) == {name for name, _, _ in tracing.PER_LAYER}
    assert values["oscillating.enumerate_ot.items"] > 0
    assert values["cli.main.calls"] == sum(q.cli for q in workload.queries)
    # uninstalling puts every original function back
    assert {name: dict(vars(mod)) for name, mod in modules.items()} == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_workload_has_a_hundred_distinct_queries(name, tmp_path):
    queries = workloads.WORKLOADS[name]("full", 1, tmp_path).queries
    assert len(queries) >= 100
    assert len({q.key for q in queries}) == len(queries)


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fexpand", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
