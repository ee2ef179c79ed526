import argparse
import json
import random
import sys
from itertools import permutations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

from oscitab import analysis, cli, correspondences, oscillating, polyring
from oscitab.cli import _dumps, build_parser, main, parse_partition
from oscitab.oscillating import descent_data, enumerate_qyot, render_boxes, run_of, ssot_to_dict
from oscitab.shapes import partitions_of

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
    # n - |lam| >= |lam|: lam's strips go onto every even-column beta at once
    ("expand_schur_211_14.txt", ["expand-schur", "2,1,1", "14"]),
    ("expand_schur_211_14.json.txt", ["expand-schur", "2,1,1", "14", "--json"]),
    ("inner_3_111_5.txt", ["inner-product", "3", "1,1,1", "5"]),
    ("independence_3_5.txt", ["independence", "3", "5"]),
    ("snp_21_5_3.txt", ["snp", "2,1", "5", "3"]),
    # the zero polynomial, and the one exponent of degree 0
    ("ssot_poly_21_3_1.txt", ["ssot-poly", "2,1", "3", "1"]),
    ("ssot_poly_21_3_1.json.txt", ["ssot-poly", "2,1", "3", "1", "--json"]),
    ("snp_empty_0_3.json.txt", ["snp", "-", "0", "3", "--json"]),
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
        "[" * 100_000,  # written as it stands: too deep for the JSON reader
    ],
)
def test_sundaram_malformed_steps_exit_1(data, tmp_path, capsys):
    path = tmp_path / "ssot.json"
    path.write_text(data if type(data) is str else json.dumps(data))
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


# every shape of at most 4 boxes, n <= 11 in both parities (so the zero
# polynomial comes up, n = 0 included) and k <= 5
ORACLE_QUERIES = [(lam, n, k) for m in range(5) for lam in partitions_of(m) for n in range(12) for k in range(1, 6)]


def snp_json(lam, n, k, check) -> str:
    """``oscitab snp --json`` as it was written from ``has_snp``'s record."""
    return _dumps(
        {
            "partition": list(lam),
            "length": n,
            "nvars": k,
            "snp": check.snp,
            "support": [list(e) for e in check.support],
            "polytope_points": [list(e) for e in check.polytope_points],
        }
    ) + "\n"


def test_snp_text_matches_has_snp(capsys):
    # snp decides on the partition counts; has_snp of the polynomial is the
    # oracle of the verdict, the support and the points, and of the error
    codes = set()
    for lam, n, k in ORACLE_QUERIES:
        f = polyring.ssot_poly(lam, n, k)
        for flag in ([], ["--json"]):
            code = main(["snp", cli.fmt_parts(lam), str(n), str(k), *flag])
            captured = capsys.readouterr()
            codes.add(code)
            if f.is_zero():
                assert (code, captured.out) == (1, ""), (lam, n, k)
                assert captured.err == "error: the zero polynomial has no Newton polytope\n"
                continue
            check = analysis.has_snp(f)
            want = snp_json(lam, n, k, check) if flag else ("saturated" if check.snp else "not saturated") + "\n"
            assert (code, captured.out) == (0, want), (lam, n, k, flag)
    assert codes == {0, 1}


def test_ssot_poly_output_matches_the_polynomial(capsys):
    # ssot-poly writes from the partition counts; the library's polynomial,
    # printed and through to_dict, is the oracle
    for lam, n, k in ORACLE_QUERIES:
        f = polyring.ssot_poly(lam, n, k)
        assert main(["ssot-poly", cli.fmt_parts(lam), str(n), str(k)]) == 0
        assert capsys.readouterr().out == f"{f}\n", (lam, n, k)
        assert main(["ssot-poly", cli.fmt_parts(lam), str(n), str(k), "--json"]) == 0
        assert capsys.readouterr().out == _dumps(f.to_dict()) + "\n", (lam, n, k)


def test_snp_and_ssot_poly_build_no_polynomial(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the CLI built the polynomial")

    monkeypatch.setattr(polyring, "ssot_poly", refuse)
    monkeypatch.setattr(polyring.SparsePoly, "_of", refuse)
    monkeypatch.setattr(analysis, "has_snp", refuse)
    for argv in (["snp", "2,1", "9", "4"], ["snp", "2,1", "9", "4", "--json"], ["ssot-poly", "2,1", "9", "4"]):
        for flag in ([], ["--json"]):
            assert main([*argv, *flag]) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "counts",
    [
        {(2, 0): 1},  # a power sum: the walk lists the support, the permutahedron the points
        {(4, 1, 1): 2, (2, 2, 2): 1},  # misses (3, 2, 1), which (4, 1, 1) dominates
        {(3, 3, 0): 1, (4, 1, 1): 1},  # no dominance-largest partition: has_snp decides
    ],
    ids=["power-sum", "hole", "no-top"],
)
def test_snp_on_symmetric_supports_no_ssot_polynomial_has(counts, monkeypatch, capsys):
    k, n = len(next(iter(counts))), sum(next(iter(counts)))
    f = polyring.SparsePoly(k, {e: c for mu, c in counts.items() for e in set(permutations(mu))})
    monkeypatch.setattr(cli, "_symmetric_counts", lambda lam, n, k: counts)
    monkeypatch.setattr(polyring, "ssot_poly", lambda lam, n, k: f)
    check = analysis.has_snp(f)
    assert not check.snp
    assert main(["snp", "-", str(n), str(k)]) == 0
    assert capsys.readouterr().out == "not saturated\n"
    assert main(["snp", "-", str(n), str(k), "--json"]) == 0
    assert capsys.readouterr().out == snp_json((), n, k, check)


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


@pytest.mark.parametrize("as_json", [False, True])
def test_limit_above_sys_maxsize_lists_everything(as_json, capsys):
    argv = ["enumerate-qyot", "2,1", "5", "3"] + (["--json"] if as_json else [])
    assert main(argv) == 0
    expected = capsys.readouterr()
    assert main(argv + ["--limit", "99999999999999999999"]) == 0
    assert capsys.readouterr() == expected


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


def argparse_parser() -> argparse.ArgumentParser:
    """The argparse front end that ``cli`` had before its own parser, built from ``cli.COMMANDS``: the oracle."""
    parser = argparse.ArgumentParser(prog="oscitab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, positionals, options) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for option in options:
            default, option_help = cli.OPTIONS[option]
            if default is False:
                p.add_argument(option, action="store_true", help=option_help)
            else:
                p.add_argument(option, type=int, default=default, help=option_help)
        for positional in positionals:
            if positional.endswith("+"):
                p.add_argument(positional[:-1], nargs="+")
            else:
                p.add_argument(positional, type=int if positional in cli.INTS else None)
    return parser


def parse_outcome(parser, argv, capsys):
    """``vars`` of what ``parser`` reads from ``argv``, or the exit code it raises with its stdout."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out
    return vars(args)


VALID_ARGV = [
    ["vset", "2,1", "7"],
    ["vset", "--json", "2,1", "7"],
    ["vset", "2,1", "--json", "7"],
    ["vset", "2,1", "7", "--json"],
    ["vset", "2,1", "7", "--json", "--json"],
    ["vset", "-", "4"],
    ["vset", "2,1", "-3"],
    ["vset", "2,1", "-\u0663"],  # an Arabic-Indic digit: int reads it, and so does argparse's number test
    ["vset", "2,1", "+4"],
    ["vset", "", "3"],
    ["vset", "--", "2,1", "7"],
    ["vset", "2,1", "--", "-3"],
    ["vset", "2,1", "--json", "--", "7"],
    ["vset", "--", "--", "7"],
    ["vset", "--", "--=x", "7"],  # after "--" even an argument that reads as an option is a positional
    ["independence", "-1", "1"],
    ["independence", "3", "5", "--json"],
    ["n0", "--json", "--", "-", "--json"],
    ["inner-product", "3", "--json", "1,1,1", "5"],
    ["expand-f", "2,1", "5", "3"],
    ["expand-schur", "2,1", "5"],
    ["ssot-poly", "--json", "2,1", "5", "2"],
    ["snp", "2,1", "5", "3", "--json"],
    ["enumerate-qyot", "2,1", "5", "3"],
    ["enumerate-qyot", "2,1", "5", "3", "--limit", "2"],
    ["enumerate-qyot", "--limit=2", "2,1", "5", "3"],
    ["enumerate-qyot", "2,1", "5", "3", "--limit", "-12"],
    ["enumerate-qyot", "2,1", "5", "3", "--limit", "2", "--limit", "5"],
    ["enumerate-qyot", "--limit", "5", "--", "2,1", "5", "3"],
    ["burge", "4,2", "4,3", "7,2"],
    ["burge", "--json", "4,2", "4,3"],
    ["burge", "4,2", "4,3", "--json"],
    ["burge", "4,2", "--", "4,3"],
    ["burge", "--", "-1,2", "--json"],
    ["sundaram", "ssot.json"],
    ["sundaram", "--trace", "ssot.json", "--json"],
]

USAGE_ERRORS = [
    [],
    ["not-a-command"],
    ["vse", "2,1", "7"],
    ["--", "vset", "2,1", "7"],
    ["--json", "vset", "2,1", "7"],
    ["--threads", "4", "n0", "3", "1,1,1"],
    ["n0", "3", "1,1,1", "--threads", "4"],
    ["vset"],
    ["vset", "2,1"],
    ["vset", "2,1", "7", "8"],
    ["vset", "2,1", "x"],
    ["vset", "2,1", "7.0"],
    ["vset", "2,1", "x", "-h"],  # the bad n is read before the help
    ["vset", "--json=1", "2,1", "7"],
    ["vset", "--json=", "2,1", "7"],
    ["vset", "--=x", "2,1", "7"],
    ["vset", "-x", "2,1", "7"],
    ["vset", "2,1", "-1,2"],
    ["vset", "2,1", "7", "-hx"],
    ["vset", "2,1", "7", "-h=1"],
    ["vset", "--limit", "3", "2,1", "7"],
    ["vset", "--", "2,1", "7", "--json"],
    ["vset", "2,1", "7", "--json", "--"],
    ["enumerate-qyot", "2,1", "5", "3", "--limit"],
    ["enumerate-qyot", "2,1", "5", "3", "--limit", "--json"],
    ["enumerate-qyot", "2,1", "5", "3", "--limit", "x"],
    ["enumerate-qyot", "2,1", "5", "3", "--limit", "-5\t"],  # an unknown option to argparse, though int reads it
    ["enumerate-qyot", "2,1", "5", "3", "--limit="],
    ["enumerate-qyot", "--limit", "--", "3", "2,1", "5", "3"],
    ["enumerate-qyot", "2,1", "5", "3", "--limit", "2", "--"],
    ["enumerate-qyot", "2,1"],
    ["burge"],
    ["burge", "--json"],
    ["burge", "4,2", "--json", "4,3"],
    ["burge", "--json", "--"],
    ["sundaram"],
    ["sundaram", "ssot.json", "--trace=1"],
    ["sundaram", "ssot.json", "--limit", "2"],
]

# forms that argparse reads, or answers with help, and the grammar drops: a cut
# option name, bundled help, an argument that starts with "-" and holds a space
# or a point or ends in a newline, a final "--", and an argument that argparse
# reports only once the whole line is read, so that a later -h shows help
DROPPED_ARGV = [
    ["vset", "--js", "2,1", "7"],
    ["vset", "2,1", "7", "--j"],
    ["enumerate-qyot", "2,1", "--lim", "2", "5", "3", "--json"],
    ["enumerate-qyot", "2,1", "5", "--l=0", "3"],
    ["sundaram", "ssot.json", "--t", "--js"],
    ["--he"],
    ["enumerate-qyot", "--limit", "2", "--h"],
    ["-hh"],
    ["vset", "-a b", "3"],
    ["vset", "--x y", "3"],
    ["vset", "-.5", "3"],
    ["vset", "2,1", "-3\n"],
    ["vset", "2,1", "7", "--"],
    ["--threads", "-h"],
    ["vset", "2,1", "7", "8", "-h"],
]

HELP_ARGV = [
    ["-h"],
    ["--help"],
    ["-h", "not-a-command"],
    ["vset", "-h"],
    ["vset", "2,1", "--help"],
    ["burge", "4,2", "-h", "4,3"],
]


def assert_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: oscitab") and "\noscitab: error: " in captured.err


@pytest.mark.parametrize("argv", VALID_ARGV + DROPPED_ARGV, ids=" ".join)
def test_parser_matches_argparse(argv, capsys):
    """The parser reads ``argv`` as argparse does, unless ``argv`` is a dropped form.

    argparse reads a dropped form or answers it with help, and the parser
    makes it a usage error: argparse is the oracle, one-sided.
    """
    expected = parse_outcome(argparse_parser(), argv, capsys)
    if argv in DROPPED_ARGV:
        assert type(expected) is dict or expected[0] == 0
        assert_usage_error(argv, capsys)
        return
    args = build_parser().parse_args(argv)
    assert type(args) is SimpleNamespace
    assert vars(args) == expected
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_match_argparse(argv, capsys):
    # the parser makes each a usage error on every version; argparse changed on two
    expected = parse_outcome(argparse_parser(), argv, capsys)
    if argv[-1:] == ["-hx"] and sys.version_info >= (3, 13):
        # argparse reads a cluster of short flags since 3.13, so "-hx" asks it for help
        assert expected[0] == 0 and expected[1].startswith("usage: oscitab vset")
    elif argv[:1] == ["--"] and sys.version_info >= (3, 13) and expected != (2, ""):
        # later 3.13 patch releases (3.13.13, not 3.13.0) read a "--" before the command as no argument
        assert expected == parse_outcome(argparse_parser(), argv[1:], capsys)
    else:
        assert expected == (2, "")
    assert_usage_error(argv, capsys)


@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_matches_argparse(argv, capsys):
    assert parse_outcome(argparse_parser(), argv, capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: oscitab") and captured.err == ""


def test_help_is_built_from_the_command_table(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert all(name in out and help_text in out for name, (_, help_text, _, _) in cli.COMMANDS.items())
    for name, (_, help_text, positionals, options) in cli.COMMANDS.items():
        with pytest.raises(SystemExit):
            main([name, "-h"])
        out = capsys.readouterr().out
        assert out.startswith(f"usage: oscitab {name} [-h]") and help_text in out
        assert all(p.rstrip("+") in out.splitlines()[0] for p in positionals)
        assert all(o in out and cli.OPTIONS[o][1] in out for o in options)


ARGV_PIECES = [
    *cli.COMMANDS, "2,1", "4,2", "7", "3", "-3", "-", "--", "", "x", "-1,2", "-a b", "-.5", "+4",
    "--json", "--js", "--j=1", "--limit", "--limit=2", "--lim", "--limit=", "--trace", "--t", "--threads",
    "-h", "--help", "--h", "-hh", "-hx", "-x", "--=x", "---",
]


def holds_dropped_form(argv) -> bool:
    """Whether ``argv`` holds a form that argparse parses and the grammar drops.

    That is a cut option name (``--js``, ``--l=0``), an argument that starts
    with ``-`` and holds a space or a point or ends in a newline, or a final
    ``--``.
    """
    for arg in argv:
        name = arg.partition("=")[0]
        if len(name) > 2 and name not in cli.OPTIONS and any(o.startswith(name) for o in cli.OPTIONS):
            return True
        if arg[:1] == "-" and (" " in arg or "." in arg or arg.endswith("\n")):
            return True
    return argv[-1:] == ["--"]


def test_random_argv_match_argparse(capsys):
    # argparse drops the first "--" from each positional's arguments, so after
    # "vset 2,1 -- --" it sets n to []; argv with two "--" are left out
    rng = random.Random(20261019)
    oracle, parser = argparse_parser(), build_parser()
    outcomes = set()
    for _ in range(1500):
        argv = [rng.choice(list(cli.COMMANDS))] if rng.random() < 0.8 else []
        argv += [rng.choice(ARGV_PIECES) for _ in range(rng.randrange(6))]
        if argv.count("--") > 1:
            continue
        expected = parse_outcome(oracle, argv, capsys)
        got = parse_outcome(parser, argv, capsys)
        if isinstance(got, dict):
            assert got == expected, argv
        else:
            code, out = got
            assert out == "" if code == 2 else out.startswith("usage: oscitab"), argv
            assert isinstance(expected, tuple) or holds_dropped_form(argv), argv
        outcomes.add(tuple(o[0] if isinstance(o, tuple) else "parsed" for o in (expected, got)))
    assert {e for e, _ in outcomes} == {0, 2, "parsed"} == {g for _, g in outcomes}
    assert ("parsed", 2) in outcomes  # some argv hold a dropped form


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


def test_every_command_on_bad_input_exits_0_1_or_2(tmp_path, capsys):
    # each positional drawn from a small corpus of its kind; only exit 0, 1 or
    # 2 and no other exception, and nothing on stdout after a non-zero exit
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "latin1.json").write_bytes(b'{"steps": "\xe9"}')
    corpus = {
        "partition": ["-", "", "2,1", "1,2", "a", "1.5", "2,1,"],
        "int": ["-1", "0", "1", "3", "x"],
        "pairs+": ["4,2", "2,4", "1"],
        "ssot": [str(DATA / "sundaram_example.json"), str(tmp_path / "missing.json"), str(tmp_path)]
        + [str(tmp_path / name) for name in ("bad.json", "deep.json", "latin1.json")],
    }
    codes = set()
    for command, (_, _, positionals, options) in cli.COMMANDS.items():
        kinds = ["int" if p in cli.INTS else p if p in corpus else "partition" for p in positionals]
        for values in product(*(corpus[kind] for kind in kinds)):
            for json_flag in ([], ["--json"]):
                try:
                    code = main([command, *values, *json_flag])
                except SystemExit as exc:
                    code = exc.code
                out = capsys.readouterr().out
                assert code in (0, 1, 2) and (code == 0 or out == ""), (command, values, json_flag)
                codes.add(code)
    assert codes == {0, 1, 2}
