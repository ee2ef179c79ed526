"""Command-line front end with JSON and aligned-text output.

Partitions are passed as comma-separated parts (``2,1``; ``-`` for the empty
partition), Burge pairs as ``top,bottom`` arguments, SSOTs as JSON files in
the step-pair encoding.  Identical invocations produce byte-identical output.
``COMMANDS`` states every subcommand, and ``build_parser`` reads the command
line against it by the grammar that ``_Parser`` states, without importing
``argparse``; ``json`` is imported only to read an SSOT file.
"""

import sys
from _json import encode_basestring_ascii  # the C encoder that json.encoder re-exports
from itertools import islice
from types import SimpleNamespace

from . import analysis, correspondences, oscillating, polyring
from .correspondences import SundaramPair, TwoRowArray
from .oscillating import SSOT, _qyot_steps
from .polyring import _term_text, _weight_counts
from .shapes import Partition, _check_int, _descent_composition, _is_partition, _memo, check_tableau_query, v_set


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
    if type(obj) is list:  # an int item, the most common, is written here without a call
        return _list_text([int.__repr__(v) if type(v) is int else _dumps(v, inner) for v in obj], pad)
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


def _write_joined(texts, first: str, sep: str, last: str, empty: str) -> None:
    """Write ``first``, the ``texts`` joined by ``sep``, then ``last``; or ``empty`` alone when there are none.

    The texts are read and written a thousand at a time, so an iterator of
    them is never held whole.
    """
    texts = iter(texts)
    lead = None
    while chunk := list(islice(texts, 1024)):
        sys.stdout.write((first if lead is None else sep) + sep.join(chunk))
        lead = sep
    sys.stdout.write(empty if lead is None else last)


def _write_list(texts, pad: str) -> None:
    """Write the JSON list that ``_list_text`` makes of the item ``texts``, as ``_write_joined`` writes."""
    inner = pad + "  "
    _write_joined(texts, "[" + inner, "," + inner, pad + "]", "[]")


def load_ssot(path: str) -> SSOT:
    import json  # imported here: the other commands parse no JSON

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise ValueError(f"{path} nests its JSON too deeply")
    return oscillating.ssot_from_dict(data)


# a listed tableau, one of its steps and one row of its boxes, as _dumps writes
# them in the listing; cells and runs are digits and bars, which need no escape
_QYOT_ITEM = '\n    {\n      "steps": %s,\n      "boxes": %s,\n      "run": "%s",\n      "descent_composition": %s\n    }'
_QYOT_STEP = '{\n          "deleted": %s,\n          "reached": %s\n        }'
_QYOT_ROW = '[\n          "%s"\n        ]'


def _listed_qyot(lam: Partition, n: int, k: int, limit: int):
    """The first ``limit`` tableaux of ``enumerate-qyot``, one pass over the walk.

    Yields each tableau's OT as ``(chain, dels, des)`` (its steps are
    ``_qyot_steps`` of them), box rows (as ``render_boxes`` builds them), run
    (the letters with a bar at each descent, as ``Run`` prints it) and
    descent composition.  Each distinct descent composition's letters, as
    strings, and run are built once per call.  The query must have been
    checked.
    """
    runs: dict[tuple[int, ...], tuple] = {}  # per descent set: letters, run and composition
    for chain, boxes, dels, des in islice(oscillating._walk(lam, n, k), limit):
        got = runs.get(des)
        if got is None:
            comp = _descent_composition(des, n)
            letters = [str(letter) for letter, size in enumerate(comp, 1) for _ in range(size)]
            got = runs[des] = letters, "|".join([str(letter) * size for letter, size in enumerate(comp, 1)]), comp
        letters, run, comp = got
        yield (chain, dels, des), oscillating._box_rows(letters, boxes), run, comp


def cmd_enumerate_qyot(args) -> None:
    lam = parse_partition(args.partition)
    if args.limit is not None:
        _check_int(args.limit, "limit", 0)
    count = sum(polyring.f_expansion(lam, args.n, args.k).values())  # checks the query
    # the walk has count tableaux, and islice takes no limit above sys.maxsize
    listed = _listed_qyot(lam, args.n, args.k, count if args.limit is None else min(args.limit, count))
    if not args.json:
        print(f"{count} quasi-Yamanouchi tableaux of shape {fmt_parts(lam)}, length {args.n}, step <= {args.k}")
        for _, rows, run, _ in listed:
            print(f"{fmt_tableau(rows):<32} {run}")
        return
    steps: dict[tuple[Partition, Partition], str] = {}  # each step's _QYOT_STEP text
    comps: dict[tuple[int, ...], str] = {}  # each composition's text as "descent_composition"

    def new_step(step: tuple[Partition, Partition]) -> str:
        text = steps[step] = _QYOT_STEP % tuple(_dumps(list(shape), "\n          ") for shape in step)
        return text

    text = _dumps({"partition": list(lam), "length": args.n, "max_step": args.k, "count": count, "tableaux": []})
    separator = text[: -len("[]\n}")] + "["  # the tableaux come last, so their empty list ends the text
    for ot, rows, run, comp in listed:
        comp_text = comps.get(comp)
        if comp_text is None:
            comp_text = comps[comp] = _list_text(list(map(str, comp)), "\n      ")
        sys.stdout.write(
            separator
            + _QYOT_ITEM
            % (
                _list_text([steps.get(step) or new_step(step) for step in _qyot_steps(*ot)], "\n      "),
                _list_text([_QYOT_ROW % '",\n          "'.join(row) for row in rows], "\n      "),
                run,
                comp_text,
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


def _symmetric_counts(lam: Partition, n: int, k: int) -> dict[tuple[int, ...], int]:
    """The nonzero coefficients of ``ssot_poly(lam, n, k)`` at partitions, each padded with zeros to ``k`` parts.

    The polynomial is symmetric, so they fix it: its coefficient at any
    exponent is the one at that exponent sorted.
    """
    lam = check_tableau_query(lam, n, k, "k")
    return {mu + (0,) * (k - len(mu)): c for mu, c in _weight_counts(lam, n, k).items()}


def _terms(counts: dict[tuple[int, ...], int], n: int, k: int):
    """The terms ``(exp, coef)`` of the symmetric polynomial of degree ``n`` in ``k`` variables with these ``counts``.

    They come lex-descending, which is ``SparsePoly``'s graded order on one
    degree, in lists: every weak composition of ``n`` into ``k`` parts is
    looked up at its sorted form.  A list holds the compositions that share
    all but their last ``t`` = min(k, 3) parts, so it has at most
    (n + 1)(n + 2)/2 entries, and nothing else is kept.
    """
    t = min(k, 3)
    get = counts.get

    def walk(prefix: tuple[int, ...], left: int):
        if len(prefix) < k - t:
            for part in range(left, -1, -1):
                yield from walk((*prefix, part), left - part)
            return
        if t == 3:
            tails = [(a, b, left - a - b) for a in range(left, -1, -1) for b in range(left - a, -1, -1)]
        else:
            tails = [(a, left - a) for a in range(left, -1, -1)] if t == 2 else [(left,)]
        yield [(exp, c) for exp in [prefix + e for e in tails] if (c := get(tuple(sorted(exp, reverse=True))))]

    return walk((), n)


# a term of ssot-poly --json, as _dumps writes SparsePoly.to_dict(); "exp" takes
# the list template of the exponent's length, and the coefficient is an int
_POLY_TERM = '{\n      "exp": %s,\n      "coef": "%%d"\n    }'


def cmd_ssot_poly(args) -> None:
    """Write the terms from the partition counts, lex-descending, as ``print`` and ``to_dict`` write the polynomial."""
    lam = parse_partition(args.partition)
    terms = _terms(_symmetric_counts(lam, args.n, args.k), args.n, args.k)
    if args.json:
        term = _POLY_TERM % _list_text(["%d"] * args.k, "\n      ")
        sys.stdout.write(_dumps({"nvars": args.k, "terms": []})[: -len("[]\n}")])  # the terms come last
        _write_list((term % (*exp, c) for chunk in terms for exp, c in chunk), "\n  ")
        sys.stdout.write("\n}\n")
        return
    # every count is positive, so no joint reads " - "
    _write_joined((_term_text(exp, c) for chunk in terms for exp, c in chunk), "", " + ", "\n", "0\n")


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
    pair = SundaramPair._of(rows[-1][4], rows[-1][5]) if rows else correspondences.sundaram(S)
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
    """Decide by Rado's rule on the partition counts; the verdict, support and points are ``has_snp``'s.

    Only a support with no dominance-largest partition, which no SSOT
    polynomial has, builds the polynomial and asks ``has_snp``.
    """
    lam = parse_partition(args.partition)
    n, k = args.n, args.k
    counts = _symmetric_counts(lam, n, k)
    rado = analysis._symmetric_snp(counts.keys())
    if rado is None:
        check = analysis.has_snp(polyring.ssot_poly(lam, n, k))
        snp = check.snp
    else:
        snp, partitions = rado
    if not args.json:
        print("saturated" if snp else "not saturated")
        return
    point = _list_text(["%d"] * k, "\n    ")  # one exponent in either list
    if rado is None:
        points = [point % p for p in check.polytope_points]
        support = [point % e for e in reversed(check.support)]
    else:
        support = [point % exp for chunk in _terms(counts, n, k) for exp, _ in chunk]
        # a saturated support is its own set of lattice points
        points = support if snp else [point % p for p in analysis._permutahedron_points(partitions)]
    head = _dumps({"partition": list(lam), "length": n, "nvars": k, "snp": snp, "support": []})
    sys.stdout.write(head[: -len("[]\n}")])  # the lists come last
    _write_list(reversed(support), "\n  ")  # lex-ascending, as has_snp sorts it
    sys.stdout.write(',\n  "polytope_points": ')
    _write_list(points, "\n  ")
    sys.stdout.write("\n}\n")


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


# each command: its function, its help, its positionals and its options.  The
# positionals in INTS are read with int; one ending in "+" takes one or more
# arguments, in one unbroken run.
COMMANDS = {
    "enumerate-qyot": (
        cmd_enumerate_qyot,
        "list quasi-Yamanouchi SSOTs with their runs",
        ("partition", "n", "k"),
        ("--json", "--limit"),
    ),
    "expand-f": (
        cmd_expand_f,
        "fundamental quasi-symmetric expansion of an SSOT polynomial",
        ("partition", "n", "k"),
        ("--json",),
    ),
    "expand-schur": (cmd_expand_schur, "Schur expansion of an SSOT function", ("partition", "n"), ("--json",)),
    "ssot-poly": (cmd_ssot_poly, "SSOT generating polynomial in k variables", ("partition", "n", "k"), ("--json",)),
    "burge": (cmd_burge, "Burge tableau of a Burge array given as top,bottom pairs", ("pairs+",), ("--json",)),
    "sundaram": (
        cmd_sundaram,
        "Sundaram pair of an SSOT read from a JSON file in the step-pair encoding",
        ("ssot",),
        ("--json", "--trace"),
    ),
    "inner-product": (
        cmd_inner_product,
        "Hall inner product of two SSOT functions",
        ("lhs", "rhs", "n"),
        ("--json",),
    ),
    "n0": (cmd_n0, "similarity threshold of two shapes", ("lhs", "rhs"), ("--json",)),
    "independence": (
        cmd_independence,
        "rank of the Schur-coefficient matrix for all shapes of a size",
        ("m", "n"),
        ("--json",),
    ),
    "snp": (cmd_snp, "saturated-Newton-polytope check of an SSOT polynomial", ("partition", "n", "k"), ("--json",)),
    "vset": (cmd_vset, "shapes reachable by adding even vertical strips", ("partition", "n"), ("--json",)),
}
INTS = ("n", "k", "m")
# each option's default and help; an option whose default is None takes an int, the others are flags
OPTIONS = {
    "--json": (False, "machine-readable output"),
    "--limit": (None, "list at most this many tableaux"),
    "--trace": (False, "print every intermediate array and tableau"),
}


def _fail(usage: str, message: str):
    sys.stderr.write(f"{usage}\noscitab: error: {message}\n")
    raise SystemExit(2)


def _int(name: str, text: str, usage: str) -> int:
    try:
        return int(text)
    except ValueError:
        _fail(usage, f"argument {name}: invalid int value: {text!r}")


def _is_option(arg: str) -> bool:
    """Whether ``arg`` reads as an option: it starts with ``-``, and is neither ``-`` nor ``-`` and decimal digits."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].isdecimal()


class _Parser:
    """The command line that ``COMMANDS`` and ``OPTIONS`` state, read left to right.

    Before the command only ``-h``/``--help`` is allowed.  After it,
    ``-h``/``--help`` prints help; ``--NAME`` or ``--NAME=VALUE`` sets one of
    the command's options, spelled in full, and ``--limit`` takes ``=N`` or
    the next argument unless that reads as an option; ``--`` makes every
    later argument a positional, and must have one after it; any other
    argument that reads as an option is a usage error, and the rest are
    positionals.  Help goes to stdout and exits 0; a usage error prints the
    usage and the error to stderr and exits 2.
    """

    def __init__(self):
        self.usage = {None: "usage: oscitab [-h] {%s} ..." % ",".join(COMMANDS)}
        for name, (_, _, positionals, options) in COMMANDS.items():
            words = [f"[{o}]" if OPTIONS[o][0] is False else f"[{o} {o[2:].upper()}]" for o in options]
            words += [f"{p[:-1]} [{p[:-1]} ...]" if p.endswith("+") else p for p in positionals]
            self.usage[name] = " ".join(["usage: oscitab", name, "[-h]", *words])

    def help(self, command) -> str:
        """The help of ``command``, or of the program for None."""
        if command is None:
            width = max(map(len, COMMANDS)) + 2
            return "\n".join(
                [
                    self.usage[None],
                    "",
                    "Combinatorics of semistandard oscillating tableaux with exact arithmetic.",
                    "",
                    "commands:",
                    *[f"  {name:<{width}}{spec[1]}" for name, spec in COMMANDS.items()],
                    "",
                    "Run 'oscitab COMMAND -h' for the arguments of a command.",
                    "",
                ]
            )
        _, text, _, options = COMMANDS[command]
        labels = {"-h, --help": "show this help and exit"}
        for o in options:
            default, option_help = OPTIONS[o]
            labels[o if default is False else f"{o} {o[2:].upper()}"] = option_help
        width = max(map(len, labels)) + 2
        rows = [f"  {label:<{width}}{option_help}" for label, option_help in labels.items()]
        return "\n".join([self.usage[command], "", text, "", "options:", *rows, ""])

    def _show_help(self, command):
        sys.stdout.write(self.help(command))
        sys.stdout.flush()  # a closed pipe fails here, where main catches it
        raise SystemExit(0)

    def parse_args(self, argv=None) -> SimpleNamespace:
        argv = sys.argv[1:] if argv is None else list(argv)
        if not argv:
            _fail(self.usage[None], "the following arguments are required: command")
        command = argv[0]
        if command in ("-h", "--help"):
            self._show_help(None)
        if command not in COMMANDS:
            choices = ", ".join(map(repr, COMMANDS))
            _fail(self.usage[None], f"argument command: invalid choice: {command!r} (choose from {choices})")
        fn, _, positionals, options = COMMANDS[command]
        usage = self.usage[command]
        args = {"command": command, "fn": fn, **{o[2:]: OPTIONS[o][0] for o in options}}
        waiting = list(positionals)
        run = None  # the "+" positional taking the current run of positionals
        after_dashes = False
        i = 1
        while i < len(argv):
            arg = argv[i]
            i += 1
            if after_dashes or not _is_option(arg):
                if run is not None:
                    args[run].append(arg)
                elif not waiting:
                    _fail(usage, f"unrecognized arguments: {arg}")
                elif waiting[0].endswith("+"):
                    run = waiting.pop(0)[:-1]
                    args[run] = [arg]
                else:
                    name = waiting.pop(0)
                    args[name] = _int(name, arg, usage) if name in INTS else arg
            elif arg in ("-h", "--help"):
                self._show_help(command)
            elif arg == "--":  # it does not end a run
                if i == len(argv):
                    _fail(usage, "expected an argument after --")
                after_dashes = True
            else:
                run = None  # an option ends the run
                name, eq, value = arg.partition("=")
                if name not in options:
                    _fail(usage, f"unrecognized arguments: {arg}")
                if OPTIONS[name][0] is False:
                    if eq:
                        _fail(usage, f"argument {name}: ignored explicit argument {value!r}")
                    args[name[2:]] = True
                    continue
                if not eq:
                    if i == len(argv) or _is_option(argv[i]):
                        _fail(usage, f"argument {name}: expected one argument")
                    value = argv[i]
                    i += 1
                args[name[2:]] = _int(name, value, usage)
        if waiting:
            _fail(usage, f"the following arguments are required: {', '.join(p.rstrip('+') for p in waiting)}")
        return SimpleNamespace(**args)


@_memo
def build_parser() -> _Parser:
    return _Parser()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # help written to a closed pipe fails here
        args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        import os  # imported here: only a closed standard output needs it

        # the reader has gone; send what is still buffered to the null device,
        # so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
