"""Span tracing for the traced run, from outside the program.

The tracer replaces each function in ``TRACED`` by a wrapper in every
oscitab module namespace that binds it: ``polyring`` imports
``enumerate_ssot``, ``enumerate_qyot``, ``com`` and ``descent_data`` by name
and ``analysis`` imports ``lr_coefficient`` the same way, so patching the
defining module alone would miss those calls.  Generators
(``ssyt_of_shape``, ``lr_tableaux``, ``sundaram_steps``) are not wrapped;
their time falls to the functions that consume them.

Spans (name, start, end, parent, value) are kept in flat arrays while the
run lasts and written out when it ends.  A span's self time is its duration
minus the time its child spans cover.
"""

import functools
import gzip
import time
from array import array
from pathlib import Path


def _count(result) -> int:
    return len(result)


def _terms(poly) -> int:
    return len(poly.terms)


def _positive(value) -> int:
    return int(value > 0)


def _hull_points(check) -> int:
    return len(check.polytope_points)


# (module, function, value recorded from the result or None)
TRACED = [
    ("oscillating", "enumerate_ot", _count),
    ("oscillating", "enumerate_ssot", _count),
    ("oscillating", "enumerate_qyot", _count),
    ("oscillating", "ssot_from_events", None),
    ("oscillating", "descent_data", None),
    ("oscillating", "substep_events", None),
    ("polyring", "f_expansion", None),
    ("polyring", "ssot_poly", _terms),
    ("polyring", "schur_poly", None),
    ("polyring", "schur_expand", None),
    ("polyring", "fundamental_qsym", None),
    ("tableaux", "lr_coefficient", _positive),
    ("tableaux", "column_insert", None),
    ("tableaux", "column_unbump", None),
    ("tableaux", "insertion_tableau", None),
    ("correspondences", "sundaram", None),
    ("correspondences", "sundaram_inverse", None),
    ("analysis", "ssot_schur", None),
    ("analysis", "hall_inner", None),
    ("analysis", "independence_rank", None),
    ("analysis", "rational_rank", None),
    ("analysis", "n_zero", None),
    ("analysis", "has_snp", _hull_points),
    ("analysis", "in_convex_hull", _positive),
    ("shapes", "v_set", None),
    ("shapes", "partitions_of", None),
    ("cli", "main", None),
]

NAMES = [f"{module}.{function}" for module, function, _ in TRACED]
NAME_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Records spans of the wrapped functions while ``active`` is true."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.stack = [-1]
        self.active = False
        self._patches = []

    def install(self) -> None:
        for i, (module, function, measure) in enumerate(TRACED):
            original = getattr(self.modules[module], function)
            wrapper = self._wrap(i, original, measure)
            for mod in self.modules.values():
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name_id: int, fn, measure):
        names, parents, starts, ends, values = self.name, self.parent, self.start, self.end, self.value
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            values.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if measure is not None:
                values[idx] = measure(result)
            return result

        return traced

    def mark(self) -> int:
        return len(self.name)

    def totals(self, lo: int, hi: int) -> tuple[list[int], list[float], list[int], dict]:
        """Per function: calls, self seconds and summed values of spans lo..hi-1.

        Also returns, per (parent function, child function), the number of
        child spans and the sum of their values.
        """
        k = len(NAMES)
        calls, self_s, values = [0] * k, [0.0] * k, [0] * k
        covered = [0.0] * (hi - lo)
        nested: dict[tuple[int, int], list[int]] = {}
        name, parent, start, end, value = self.name, self.parent, self.start, self.end, self.value
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                covered[p - lo] += end[i] - start[i]
                entry = nested.setdefault((name[p], name[i]), [0, 0])
                entry[0] += 1
                entry[1] += value[i]
        for i in range(lo, hi):
            f = name[i]
            calls[f] += 1
            self_s[f] += end[i] - start[i] - covered[i - lo]
            values[f] += value[i]
        return calls, self_s, values, nested

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\tvalue\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{NAMES[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.value[i]}\n"
                )


# Per-layer metrics of a traced round: (name, unit, better).
ITEM_METRICS = ["oscillating.enumerate_ot", "oscillating.enumerate_ssot", "oscillating.enumerate_qyot"]
CALL_METRICS = [
    "oscillating.ssot_from_events",
    "oscillating.descent_data",
    "oscillating.substep_events",
    "polyring.schur_poly",
    "polyring.fundamental_qsym",
    "tableaux.lr_coefficient",
    "tableaux.column_insert",
    "tableaux.column_unbump",
    "correspondences.sundaram",
    "analysis.ssot_schur",
    "analysis.has_snp",
    "analysis.in_convex_hull",
    "shapes.v_set",
    "cli.main",
]
SELF_METRICS = [
    "oscillating.enumerate_ot",
    "oscillating.enumerate_ssot",
    "oscillating.ssot_from_events",
    "oscillating.descent_data",
    "oscillating.substep_events",
    "polyring.f_expansion",
    "polyring.ssot_poly",
    "polyring.schur_poly",
    "polyring.schur_expand",
    "tableaux.lr_coefficient",
    "tableaux.insertion_tableau",
    "correspondences.sundaram",
    "correspondences.sundaram_inverse",
    "analysis.ssot_schur",
    "analysis.hall_inner",
    "analysis.independence_rank",
    "analysis.rational_rank",
    "analysis.n_zero",
    "analysis.has_snp",
    "analysis.in_convex_hull",
    "shapes.v_set",
    "shapes.partitions_of",
    "cli.main",
]
PER_LAYER = (
    [(f"{n}.items", "count", "lower") for n in ITEM_METRICS]
    + [(f"{n}.calls", "count", "lower") for n in CALL_METRICS]
    + [(f"{n}.self_s", "s", "lower") for n in SELF_METRICS]
    + [
        ("oscillating.enumerate_qyot.kept_share", "ratio", "higher"),
        ("polyring.ssot_poly.terms", "count", "lower"),
        ("tableaux.lr_coefficient.nonzero_share", "ratio", "higher"),
        ("analysis.has_snp.inside_share", "ratio", "higher"),
        ("analysis.schur_cache.hits", "count", "higher"),
        ("analysis.schur_cache.misses", "count", "lower"),
        ("cli.stdout_bytes", "bytes", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("machine.calibration_ms", "ms", "lower"),
    ]
)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, lo: int, hi: int, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of the spans lo..hi-1 (one traced round), self times multiplied by ``scale``."""
    calls, self_s, values, nested = tracer.totals(lo, hi)
    out: dict[str, float] = {}
    for n in ITEM_METRICS:
        out[f"{n}.items"] = values[NAME_ID[n]]
    for n in CALL_METRICS:
        out[f"{n}.calls"] = calls[NAME_ID[n]]
    for n in SELF_METRICS:
        out[f"{n}.self_s"] = self_s[NAME_ID[n]] * scale
    qyot, ot = NAME_ID["oscillating.enumerate_qyot"], NAME_ID["oscillating.enumerate_ot"]
    out["oscillating.enumerate_qyot.kept_share"] = share(values[qyot], nested.get((qyot, ot), [0, 0])[1])
    out["polyring.ssot_poly.terms"] = values[NAME_ID["polyring.ssot_poly"]]
    lr = NAME_ID["tableaux.lr_coefficient"]
    out["tableaux.lr_coefficient.nonzero_share"] = share(values[lr], calls[lr])
    snp, hull = NAME_ID["analysis.has_snp"], NAME_ID["analysis.in_convex_hull"]
    out["analysis.has_snp.inside_share"] = share(values[snp], nested.get((snp, hull), [0, 0])[0])
    return out
