"""Command-line front end with JSON and aligned-text output.

Partitions are passed as comma-separated parts (``2,1``; ``-`` for the empty
partition), Burge pairs as ``top,bottom`` arguments, SSOTs as JSON files in
the step-pair encoding.  Identical invocations produce byte-identical output.
"""

import argparse
import functools
import json
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii

from . import analysis, correspondences, oscillating, polyring
from .correspondences import SundaramPair, TwoRowArray
from .oscillating import SSOT, _descent_composition, _qyot_steps
from .shapes import Partition, _check_int, _is_partition, v_set


def parse_partition(text: str) -> Partition:
    if text in ("-", ""):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition {text!r}: expected comma-separated integers")
    if not _is_partition(parts):
        raise ValueError(f"malformed partition {text!r}: parts must weakly decrease and be positive")
    return parts


def parse_pair(text: str) -> tuple[int, int]:
    bits = text.split(",")
    if len(bits) != 2:
        raise ValueError(f"malformed pair {text!r}: expected top,bottom")
    try:
        return int(bits[0]), int(bits[1])
    except ValueError:
        raise ValueError(f"malformed pair {text!r}: expected integers")


def fmt_parts(parts) -> str:
    return ",".join(str(p) for p in parts) if parts else "-"


def fmt_tableau(rows) -> str:
    if not rows:
        return "-"
    return " / ".join(" ".join(str(x) for x in row) for row in rows)


def _dumps(obj, pad: str = "\n") -> str:
    """JSON text of ``obj`` with an indent of 2, in the bytes of the standard library's encoder.

    ``obj`` is built of dicts with ``str`` keys, lists, strings, ints,
    booleans and None; anything else raises ``TypeError``.  ``pad`` is the
    newline and indent that precede the line ``obj`` ends on; each nesting
    level adds two spaces.
    """
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = pad + "  "
    if type(obj) is list:
        return _list_text([_dumps(v, inner) for v in obj], pad)
    if type(obj) is dict:
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in obj.items()]
        ) + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _list_text(items: list[str], pad: str) -> str:
    """JSON text of a list, as ``_dumps`` writes it after ``pad``, from its items' texts at the next indent."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def emit_json(obj) -> None:
    print(_dumps(obj))


def load_ssot(path: str) -> SSOT:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")
    return oscillating.ssot_from_dict(data)


# a listed tableau, one of its steps and one row of its boxes, as _dumps writes
# them in the listing; cells and runs are digits and bars, which need no escape
_QYOT_ITEM = '\n    {\n      "steps": %s,\n      "boxes": %s,\n      "run": "%s",\n      "descent_composition": %s\n    }'
_QYOT_STEP = '{\n          "deleted": %s,\n          "reached": %s\n        }'
_QYOT_ROW = '[\n          "%s"\n        ]'


def _listed_qyot(lam: Partition, n: int, k: int, limit):
    """The tableaux of ``enumerate-qyot``, at most ``limit`` of them, one pass over the walk.

    Yields each tableau's OT as ``(chain, kinds, des)`` (its steps are
    ``_qyot_steps`` of them), box rows (as ``render_boxes`` builds them), run
    (the letters with a bar at each descent, as ``Run`` prints it) and
    descent composition.  The query must have been checked.
    """
    for chain, boxes, kinds, des in islice(oscillating._walk(lam, n, k), limit):
        comp = _descent_composition(des, n)
        letters = [letter for letter, size in enumerate(comp, 1) for _ in range(size)]
        run = "|".join([str(letter) * size for letter, size in enumerate(comp, 1)])
        yield (chain, kinds, des), oscillating._box_rows(letters, boxes), run, comp


def cmd_enumerate_qyot(args) -> None:
    lam = parse_partition(args.partition)
    if args.limit is not None:
        _check_int(args.limit, "limit", 0)
    count = sum(polyring.f_expansion(lam, args.n, args.k).values())  # checks the query
    listed = _listed_qyot(lam, args.n, args.k, args.limit)
    if not args.json:
        print(f"{count} quasi-Yamanouchi tableaux of shape {fmt_parts(lam)}, length {args.n}, step <= {args.k}")
        for _, rows, run, _ in listed:
            print(f"{fmt_tableau(rows):<32} {run}")
        return
    shapes: dict[Partition, str] = {}  # each partition's text at the indent of "deleted" and "reached"

    def shape(p: Partition) -> str:
        return shapes.get(p) or shapes.setdefault(p, _dumps(list(p), "\n          "))

    text = _dumps({"partition": list(lam), "length": args.n, "max_step": args.k, "count": count, "tableaux": []})
    separator = text[: -len("[]\n}")] + "["  # the tableaux come last, so their empty list ends the text
    for ot, rows, run, comp in listed:
        sys.stdout.write(
            separator
            + _QYOT_ITEM
            % (
                _list_text([_QYOT_STEP % (shape(d), shape(r)) for d, r in _qyot_steps(*ot)], "\n      "),
                _list_text([_QYOT_ROW % '",\n          "'.join(row) for row in rows], "\n      "),
                run,
                _list_text(list(map(str, comp)), "\n      "),
            )
        )
        separator = ","
    sys.stdout.write("\n  ]\n}\n" if separator == "," else text + "\n")


def cmd_expand_f(args) -> None:
    lam = parse_partition(args.partition)
    terms = polyring.f_expansion(lam, args.n, args.k)
    if args.json:
        emit_json(
            {
                "partition": list(lam),
                "length": args.n,
                "max_step": args.k,
                "terms": [
                    {"composition": list(a), "coefficient": c} for a, c in terms.items()
                ],
            }
        )
        return
    for a, c in terms.items():
        print(f"{fmt_parts(a):<16} {c}")


def cmd_expand_schur(args) -> None:
    lam = parse_partition(args.partition)
    expansion = analysis.ssot_schur(lam, args.n)
    if args.json:
        emit_json(
            {
                "partition": list(lam),
                "length": expansion.degree,
                "terms": [
                    {"partition": list(nu), "coefficient": c}
                    for nu, c in expansion.coefficients.items()
                ],
            }
        )
        return
    for nu, c in expansion.coefficients.items():
        print(f"{fmt_parts(nu):<16} {c}")


def cmd_ssot_poly(args) -> None:
    lam = parse_partition(args.partition)
    f = polyring.ssot_poly(lam, args.n, args.k)
    if args.json:
        emit_json(f.to_dict())
        return
    print(f)


def cmd_burge(args) -> None:
    L = TwoRowArray(tuple(parse_pair(p) for p in args.pairs))
    T = correspondences.burge_map(L)
    if args.json:
        emit_json(
            {
                "pairs": [list(p) for p in L.pairs],
                "symmetrized": [list(p) for p in correspondences.symmetrize(L).pairs],
                "tableau": [list(r) for r in T],
            }
        )
        return
    print(fmt_tableau(T))


def cmd_sundaram(args) -> None:
    S = load_ssot(args.ssot)
    rows = list(correspondences.sundaram_steps(S)) if args.trace else []
    pair = SundaramPair(rows[-1][4], rows[-1][5]) if rows else correspondences.sundaram(S)
    if args.json:
        payload = pair.to_dict()
        if args.trace:
            payload["trace"] = [
                {
                    "substep": m,
                    "letter": u,
                    "kind": kind,
                    "box": list(box),
                    "pairs": [list(p) for p in Lm.pairs],
                    "tableau": [list(r) for r in Tm],
                }
                for m, u, kind, box, Lm, Tm in rows
            ]
        emit_json(payload)
        return
    if args.trace:
        for m, u, kind, box, Lm, Tm in rows:
            arr = " ".join(f"{t},{b}" for t, b in Lm.pairs) or "-"
            print(f"m={m:<3} u={u:<3} {kind:<6} box={box[0]},{box[1]}  L: {arr:<18} T: {fmt_tableau(Tm)}")
    print(f"burge:   {' '.join(f'{t},{b}' for t, b in pair.burge.pairs) or '-'}")
    print(f"tableau: {fmt_tableau(pair.tableau)}")


def cmd_inner_product(args) -> None:
    lam = parse_partition(args.lhs)
    mu = parse_partition(args.rhs)
    value = analysis.hall_inner(lam, mu, args.n)
    if args.json:
        emit_json({"lhs": list(lam), "rhs": list(mu), "length": args.n, "value": value})
        return
    print(value)


def cmd_n0(args) -> None:
    lam = parse_partition(args.lhs)
    mu = parse_partition(args.rhs)
    value = analysis.n_zero(lam, mu)
    if args.json:
        emit_json({"lhs": list(lam), "rhs": list(mu), "n0": value})
        return
    print(value)


def cmd_independence(args) -> None:
    rank = analysis.independence_rank(args.m, args.n)
    expected = len(analysis.partitions_of(args.m))
    if args.json:
        emit_json({"size": args.m, "length": args.n, "rank": rank, "partitions": expected})
        return
    print(f"rank {rank} of {expected} partitions")


def cmd_snp(args) -> None:
    lam = parse_partition(args.partition)
    f = polyring.ssot_poly(lam, args.n, args.k)
    check = analysis.has_snp(f)
    if args.json:
        emit_json(
            {
                "partition": list(lam),
                "length": args.n,
                "nvars": args.k,
                "snp": check.snp,
                "support": [list(e) for e in check.support],
                "polytope_points": [list(e) for e in check.polytope_points],
            }
        )
        return
    print("saturated" if check.snp else "not saturated")


def cmd_vset(args) -> None:
    lam = parse_partition(args.partition)
    shapes = v_set(lam, args.n)
    if args.json:
        emit_json(
            {
                "partition": list(lam),
                "length": args.n,
                "shapes": [list(nu) for nu in shapes],
            }
        )
        return
    for nu in shapes:
        print(fmt_parts(nu))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscitab",
        description="Combinatorics of semistandard oscillating tableaux with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("enumerate-qyot", cmd_enumerate_qyot, "list quasi-Yamanouchi SSOTs with their runs")
    p.add_argument("partition")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--limit", type=int, default=None, help="list at most this many tableaux")

    p = add("expand-f", cmd_expand_f, "fundamental quasi-symmetric expansion of an SSOT polynomial")
    p.add_argument("partition")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = add("expand-schur", cmd_expand_schur, "Schur expansion of an SSOT function")
    p.add_argument("partition")
    p.add_argument("n", type=int)

    p = add("ssot-poly", cmd_ssot_poly, "SSOT generating polynomial in k variables")
    p.add_argument("partition")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = add("burge", cmd_burge, "Burge tableau of a Burge array")
    p.add_argument("pairs", nargs="+", metavar="top,bottom")

    p = add("sundaram", cmd_sundaram, "Sundaram pair of an SSOT read from a JSON file")
    p.add_argument("ssot", help="path to a JSON file with the step-pair encoding")
    p.add_argument("--trace", action="store_true", help="print every intermediate array and tableau")

    p = add("inner-product", cmd_inner_product, "Hall inner product of two SSOT functions")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("n", type=int)

    p = add("n0", cmd_n0, "similarity threshold of two shapes")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = add("independence", cmd_independence, "rank of the Schur-coefficient matrix for all shapes of a size")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = add("snp", cmd_snp, "saturated-Newton-polytope check of an SSOT polynomial")
    p.add_argument("partition")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = add("vset", cmd_vset, "shapes reachable by adding even vertical strips")
    p.add_argument("partition")
    p.add_argument("n", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
