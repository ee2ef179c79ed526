import json
import random
from pathlib import Path

import pytest

from oscitab import correspondences, oscillating
from oscitab.cli import _dumps, build_parser, main, parse_partition
from oscitab.oscillating import descent_data, enumerate_qyot, render_boxes, run_of, ssot_to_dict

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("qyot_21_5_3.json.txt", ["enumerate-qyot", "2,1", "5", "3", "--json"]),
    ("qyot_21_5_3.txt", ["enumerate-qyot", "2,1", "5", "3"]),
    ("expand_f_21_5_3.txt", ["expand-f", "2,1", "5", "3"]),
    ("expand_f_21_5_3.json.txt", ["expand-f", "2,1", "5", "3", "--json"]),
    ("expand_schur_21_5.json.txt", ["expand-schur", "2,1", "5", "--json"]),
    ("burge_example.json.txt", ["burge", "4,2", "4,3", "7,2", "--json"]),
    ("burge_example.txt", ["burge", "4,2", "4,3", "7,2"]),
    (
        "sundaram_trace.txt",
        ["sundaram", str(DATA / "sundaram_example.json"), "--trace"],
    ),
    ("vset_21_7.txt", ["vset", "2,1", "7"]),
    ("inner_3_111_5.json.txt", ["inner-product", "3", "1,1,1", "5", "--json"]),
    ("n0_3_111.txt", ["n0", "3", "1,1,1"]),
    ("independence_3_5.json.txt", ["independence", "3", "5", "--json"]),
    ("snp_21_5_3.json.txt", ["snp", "2,1", "5", "3", "--json"]),
    ("ssot_poly_21_5_2.txt", ["ssot-poly", "2,1", "5", "2"]),
    (
        "sundaram_trace.json.txt",
        ["sundaram", str(DATA / "sundaram_example.json"), "--json", "--trace"],
    ),
    ("ssot_poly_21_5_2.json.txt", ["ssot-poly", "2,1", "5", "2", "--json"]),
    ("vset_21_7.json.txt", ["vset", "2,1", "7", "--json"]),
    ("n0_3_111.json.txt", ["n0", "3", "1,1,1", "--json"]),
    ("expand_schur_21_5.txt", ["expand-schur", "2,1", "5"]),
    ("inner_3_111_5.txt", ["inner-product", "3", "1,1,1", "5"]),
    ("independence_3_5.txt", ["independence", "3", "5"]),
    ("snp_21_5_3.txt", ["snp", "2,1", "5", "3"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text()


def test_golden_values_spot_checks():
    qyot = json.loads((GOLDEN / "qyot_21_5_3.json.txt").read_text())
    assert qyot["count"] == 14 and len(qyot["tableaux"]) == 14
    inner = json.loads((GOLDEN / "inner_3_111_5.json.txt").read_text())
    assert inner["value"] == 0
    assert (GOLDEN / "n0_3_111.txt").read_text() == "7\n"
    schur = json.loads((GOLDEN / "expand_schur_21_5.json.txt").read_text())
    assert {tuple(t["partition"]) for t in schur["terms"]} == {
        (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
    }
    burge = json.loads((GOLDEN / "burge_example.json.txt").read_text())
    assert burge["tableau"] == [[2, 2], [3, 4], [4], [7]]


STRING_PIECES = ["", "a", "steps", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "λ", "€", "\U0001f600", "\ud800", "/"]


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(STRING_PIECES) for _ in range(rng.randrange(4)))


def random_json_value(rng: random.Random, depth: int):
    """A value nested at most 5 containers deep below ``depth``; a third of the non-leaf draws are containers."""
    kind = rng.randrange(9 if depth < 5 else 6)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind in (1, 2):
        return rng.choice([0, 1, -1, 7, -12345, 2**64 + 3, -(2**70), rng.randrange(-(10**30), 10**30)])
    if kind < 6:
        return random_string(rng)
    size = rng.randrange(4)
    if kind == 6:
        return {random_string(rng): random_json_value(rng, depth + 1) for _ in range(size)}
    return [random_json_value(rng, depth + 1) for _ in range(size)]


def value_depth(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(value_depth, value), default=0)
    return 0


def test_dumps_matches_json_dumps_indent_2():
    rng = random.Random(20261018)
    values = [{}, [], [{}], {"a": []}, True, False, None, -(2**64) - 1, 2**64 + 1, '"\\\x00é\U0001f600']
    values += [random_json_value(rng, 0) for _ in range(400)]
    assert max(value_depth(v) for v in values) == 5
    for value in values:
        assert _dumps(value) == json.dumps(value, indent=2)
        assert _dumps(value, "\n    ") == json.dumps(value, indent=2).replace("\n", "\n    ")


@pytest.mark.parametrize("value", [1.5, (1, 2), {1, 2}, [1, (2,)], {"a": 0.0}, {1: 2}])
def test_dumps_rejects_other_types(value):
    with pytest.raises(TypeError):
        _dumps(value)


def test_parse_partition():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("-") == ()
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a,b")
    with pytest.raises(ValueError):
        parse_partition("0")


def test_domain_error_exit_code(capsys):
    assert main(["expand-schur", "2,1", "4"]) == 1
    err = capsys.readouterr().err
    assert "n >= |lam| and n == |lam| (mod 2)" in err
    assert main(["burge", "2,3"]) == 1
    assert main(["vset", "2,3", "5"]) == 1
    assert main(["sundaram", str(DATA / "missing.json")]) == 1
    capsys.readouterr()
    assert main(["independence", "3", "-1"]) == 1
    assert capsys.readouterr().err == "error: length -1 not admissible for size 3: need n >= 3 and n == 3 (mod 2)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand-f", "2,1", "5", "0"],
        ["enumerate-qyot", "2,1", "-1", "3"],
        ["ssot-poly", "2,1", "5", "0"],
        ["vset", "2,1", "-3"],
        ["independence", "-1", "1"],
        ["enumerate-qyot", "2,1", "5", "3", "--limit", "-12"],
    ],
)
def test_out_of_range_arguments_exit_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize(
    "data",
    [
        {"steps": [{"deleted": [], "reached": ["a"]}]},
        {"steps": [{"deleted": [], "reached": [1.5]}]},
        {"steps": [{"deleted": [], "reached": [1, 2]}]},
        {"steps": [{"deleted": [], "reached": [-1]}]},
        {"steps": [{"deleted": None, "reached": [1]}]},
        [1.5],
    ],
)
def test_sundaram_malformed_steps_exit_1(data, tmp_path, capsys):
    path = tmp_path / "ssot.json"
    path.write_text(json.dumps(data))
    assert main(["sundaram", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("pair", ["2.7,1", "true,1", "True,True", "3,1,9", "3", "0,1", "2,-1"])
def test_burge_rejects_entries_that_are_not_positive_integers(pair, capsys):
    assert main(["burge", pair]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("entry", [True, 1.0, "1"])
def test_sundaram_rejects_shape_entries_that_are_not_integers(entry, tmp_path, capsys):
    path = tmp_path / "ssot.json"
    path.write_text(json.dumps({"steps": [{"deleted": [], "reached": [entry]}]}))
    assert main(["sundaram", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate-qyot", "2,1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_limit_flag(capsys):
    assert main(["enumerate-qyot", "2,1", "5", "3", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 3  # header + 2 rows
    assert "14 quasi-Yamanouchi" in out


def listed_qyot_output(lam, n, k, limit, as_json):
    # the output as the listing API gives it, each tableau's facts derived again
    tableaux = enumerate_qyot(lam, n, k)
    listed = tableaux[:limit] if limit is not None else tableaux
    if as_json:
        doc = {
            "partition": list(lam),
            "length": n,
            "max_step": k,
            "count": len(tableaux),
            "tableaux": [
                {
                    "steps": ssot_to_dict(Q)["steps"],
                    "boxes": render_boxes(Q),
                    "run": str(run_of(Q)),
                    "descent_composition": list(descent_data(Q)[1]),
                }
                for Q in listed
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    shape = ",".join(map(str, lam)) or "-"
    lines = [f"{len(tableaux)} quasi-Yamanouchi tableaux of shape {shape}, length {n}, step <= {k}"]
    for Q in listed:
        rows = render_boxes(Q)
        text = " / ".join(" ".join(row) for row in rows) if rows else "-"
        lines.append(f"{text:<32} {run_of(Q)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "lam,n,k,limit",
    [
        ((2, 1), 5, 3, None),
        ((2, 1), 5, 3, 0),
        ((2, 1), 5, 3, 1),
        ((2, 1), 7, 7, 40),
        ((), 0, 1, None),
        ((), 4, 3, None),
        ((2, 1), 4, 3, None),  # inadmissible length
        ((2, 1), 5, 1, None),
        ((3, 1), 6, 1, None),
        ((1, 1), 6, 2, 100),
        ((3, 1), 8, 8, None),
        ((2, 2), 8, 4, None),
        ((1, 1, 1), 7, 5, None),
        ((), 10, 10, None),  # 945 tableaux, some with 10 steps: the letter 10 has two digits
    ],
)
@pytest.mark.parametrize("as_json", [False, True])
def test_enumerate_qyot_output_matches_listing_api(lam, n, k, limit, as_json, capsys):
    argv = ["enumerate-qyot", ",".join(map(str, lam)) or "-", str(n), str(k)]
    argv += (["--limit", str(limit)] if limit is not None else []) + (["--json"] if as_json else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == listed_qyot_output(lam, n, k, limit, as_json)


def test_limit_stops_the_walk(monkeypatch, capsys):
    # 34,650 tableaux are counted, but the walk yields only the one printed
    walked = []

    def counting_walk(*args):
        for item in walk(*args):
            walked.append(item)
            yield item

    walk = oscillating._walk
    monkeypatch.setattr(oscillating, "_walk", counting_walk)
    assert main(["enumerate-qyot", "2,1", "11", "11", "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("34650 quasi-Yamanouchi tableaux") and len(out.splitlines()) == 2
    assert len(walked) == 1
    assert main(["enumerate-qyot", "2,1", "11", "11", "--limit", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 34650 and len(doc["tableaux"]) == 1
    assert len(walked) == 2


def test_parser_is_built_once(capsys):
    assert build_parser() is build_parser()
    assert main(["vset", "2,1", "5", "--json"]) == 0
    assert main(["vset", "2,1", "5"]) == 0
    assert capsys.readouterr().out.endswith("}\n3,2\n3,1,1\n2,2,1\n2,1,1,1\n")


def test_removed_threads_option_is_a_usage_error(capsys):
    # the option changed nothing and was removed, so it is now a usage error
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "n0", "3", "1,1,1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_sundaram_without_trace(capsys):
    assert main(["sundaram", str(DATA / "sundaram_example.json")]) == 0
    out = capsys.readouterr().out
    assert out == "burge:   4,2 4,3 7,2\ntableau: 1 4 / 5 / 6\n"


def test_sundaram_without_trace_runs_the_checked_map(monkeypatch, tmp_path, capsys):
    def no_steps(S):
        raise AssertionError("the substep replay is only for --trace")

    monkeypatch.setattr(correspondences, "sundaram_steps", no_steps)
    assert main(["sundaram", str(DATA / "sundaram_example.json")]) == 0
    assert capsys.readouterr().out == "burge:   4,2 4,3 7,2\ntableau: 1 4 / 5 / 6\n"
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"steps": []}))
    for argv, out in (
        ([], "burge:   -\ntableau: -\n"),
        (["--json"], '{\n  "burge": {\n    "pairs": []\n  },\n  "tableau": []\n}\n'),
    ):
        assert main(["sundaram", str(path), *argv]) == 0
        assert capsys.readouterr().out == out


def test_sundaram_checks_the_array_with_and_without_trace(monkeypatch, capsys):
    monkeypatch.setattr(correspondences.TwoRowArray, "is_burge", lambda self: False)
    for argv in ([], ["--trace"], ["--json"], ["--json", "--trace"]):
        assert main(["sundaram", str(DATA / "sundaram_example.json"), *argv]) == 1
        captured = capsys.readouterr()
        assert "not Burge" in captured.err
        assert "burge:" not in captured.out and '"burge"' not in captured.out


def test_outputs_are_reproducible(capsys):
    for _, argv in GOLDEN_CASES[:4]:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first
