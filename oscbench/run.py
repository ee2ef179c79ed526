"""Run one oscitab benchmark workload in this process and print its metrics.

    python3 oscbench/run.py --workload fexpand --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The run compiles ``src/`` to bytecode
first, so that no timed start-up pays for compiling.  It then repeats the
workload's fixed query list in whole rounds until ``--seconds`` have
passed, checking every answer outside the timed region.  Four times a
round, between queries, it times a fresh interpreter up to the first query
(``setup_s``).  Caches of
the program are emptied before each round, so every round does the same
work.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported at a calibrated machine speed.  On a shared machine the
speed one process gets drifts by a third within seconds, so the run times a
fixed pure-Python loop (``calibration``) every tenth of a second between
queries, and scales each round's times by ``CALIBRATION_S`` over the median
loop time of that round: a figure reads as seconds on a machine that runs
the loop in ``CALIBRATION_S``, its typical time on a shared two-core
virtual machine.  Set-up probes are scaled with the round they fall in.  A query's latency is then its median over
the rounds of the run, which keeps shorter bursts out of the figures, and
``wall_s`` is the sum of these latencies over the query list.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a third of
the time untraced, then the rest with every function in ``tracing.TRACED``
wrapped; it reports the per-layer metrics and its own overhead, and writes
the spans to ``oscbench/out/trace-<workload>.tsv.gz``.
"""

import argparse
import compileall
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROBES_PER_ROUND = 4
CALIBRATION_S = 0.006
CALIBRATION_EVERY_S = 0.1
PROBE = (
    "import sys, oscitab, oscitab.cli; oscitab.cli.build_parser(); "
    "sys.stdout.write('ready'); sys.stdout.flush()"
)
WORKLOAD_NAMES = ("fexpand", "schur-lr", "snp-hull", "ssot-objects")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def calibration() -> float:
    """Seconds taken by a fixed loop of Fraction sums and small tuple sorts: the machine's current speed.

    Of the loops tried, these tracked the drift in the workloads' own speed
    most closely, within 1.5 to 2.5 % over 24-second windows.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i % 17 + 1, i % 13 + 2)
    rows = [tuple(sorted((i % 5, i % 3, i % 11))) for i in range(2000)]
    del rows
    return time.perf_counter() - t0


def setup_sample() -> float:
    """Seconds from starting a fresh interpreter to oscitab imported and its CLI parser built.

    The probe runs with ``-S``: start-up hooks in site-packages belong to the
    machine, not to oscitab, and can cost more than the import itself.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-S", "-c", PROBE], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        ready = proc.stdout.read(5)
        t1 = time.perf_counter()
    if ready != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return t1 - t0


def oscitab_modules() -> dict:
    """The oscitab modules by short name, imported from ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from oscitab import analysis, cli, correspondences, oscillating, polyring, shapes, tableaux

    return {
        "shapes": shapes,
        "tableaux": tableaux,
        "oscillating": oscillating,
        "polyring": polyring,
        "correspondences": correspondences,
        "analysis": analysis,
        "cli": cli,
    }


@dataclass
class Round:
    latencies: list = field(default_factory=list)  # calibrated, per query, None where it failed
    setup: list = field(default_factory=list)  # calibrated set-up probes made between the queries
    calibration_s: float = 0.0  # median time of calibration() during the round
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    stdout_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    spans: tuple = (0, 0)


class Runner:
    """Runs rounds of one workload, optionally under a tracer."""

    def __init__(self, workload, modules: dict):
        self.workload = workload
        self.caches = []
        for mod in modules.values():
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and obj not in self.caches:
                    self.caches.append(obj)
        self.schur_cache = getattr(modules["analysis"], "_ssot_schur_items", None)
        self.tracer = None
        self.rounds_started = 0

    def run_round(self, probes: bool = False) -> Round:
        for cached in self.caches:
            cached.cache_clear()
        gc.collect()
        r = Round()
        tracer = self.tracer
        lo = tracer.mark() if tracer else 0
        clock = time.perf_counter
        digests = {}
        speed = [calibration()]
        next_calibration = clock() + CALIBRATION_EVERY_S
        # Probes fall before other queries in every round, so that the
        # per-query medians filter out what a probe does to the next query.
        stride = max(1, len(self.workload.queries) // PROBES_PER_ROUND)
        offset = self.rounds_started * 37 % stride if probes else -1
        self.rounds_started += 1
        for i, q in enumerate(self.workload.queries):
            if i % stride == offset:
                r.setup.append(setup_sample())
                speed.append(calibration())
            if clock() >= next_calibration:
                speed.append(calibration())
                next_calibration = clock() + CALIBRATION_EVERY_S
            r.attempted += 1
            if tracer:
                tracer.active = True
            t0 = clock()
            try:
                result = q.call()
            except Exception:
                r.failed += 1
                r.latencies.append(None)
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                t1 = clock()
                if tracer:
                    tracer.active = False
            r.latencies.append(t1 - t0)
            if q.cli:
                r.stdout_bytes += len(result.encode())
            try:
                digests[q.key] = q.digest(result)
            except Exception as exc:
                r.errors.append(f"{q.key}: {type(exc).__name__}: {exc}")
            del result
        speed.append(calibration())
        r.calibration_s = statistics.median(speed)
        scale = CALIBRATION_S / r.calibration_s
        r.latencies = [None if x is None else x * scale for x in r.latencies]
        r.setup = [x * scale for x in r.setup]
        if tracer:
            r.spans = (lo, tracer.mark())
        info = self.schur_cache.cache_info() if hasattr(self.schur_cache, "cache_info") else None
        if info:
            r.cache_hits, r.cache_misses = info.hits, info.misses
        if not r.failed:
            try:
                self.workload.check_round(digests)
            except Exception as exc:
                r.errors.append(f"round check: {type(exc).__name__}: {exc}")
        return r

    def run_for(self, seconds: float, min_rounds: int = 1, probes: bool = False) -> list[Round]:
        """Whole rounds until ``seconds`` are spent, stopping early rather than overrun by half a round."""
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(self.run_round(probes))
            elapsed = time.perf_counter() - start
            if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) / 2 >= seconds:
                return rounds


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def query_latencies(rounds: list[Round]) -> list[float]:
    """Each query's median latency over the rounds where it succeeded."""
    out = []
    for column in zip(*(r.latencies for r in rounds)):
        ok = [x for x in column if x is not None]
        if ok:
            out.append(statistics.median(ok))
    return out


def end_to_end(rounds: list[Round]) -> dict:
    latencies = query_latencies(rounds)
    return {
        "setup_s": statistics.median(x for r in rounds for x in r.setup),
        "wall_s": sum(latencies),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p90_ms": quantile(latencies, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, plain: list[Round], traced: list[Round]) -> dict:
    import tracing

    rows = []
    for r in traced:
        row = tracing.layer_metrics(runner.tracer, *r.spans, scale=CALIBRATION_S / r.calibration_s)
        row["analysis.schur_cache.hits"] = r.cache_hits
        row["analysis.schur_cache.misses"] = r.cache_misses
        row["cli.stdout_bytes"] = r.stdout_bytes
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["trace.wall_s"] = sum(query_latencies(traced))
    out["trace.overhead_s"] = out["trace.wall_s"] - sum(query_latencies(plain))
    out["machine.calibration_ms"] = statistics.median(r.calibration_s for r in plain + traced) * 1e3
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oscitab" / "__init__.py").is_file():
        print(f"error: no oscitab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: oscitab sources do not compile", file=sys.stderr)
        return 2
    modules = oscitab_modules()

    import tracing
    import workloads

    inputs = OUT / "inputs" / f"{args.workload}-seed{args.seed}"
    workload = workloads.WORKLOADS[args.workload]("full", args.seed, inputs)
    runner = Runner(workload, modules)

    if args.trace:
        plain = runner.run_for(args.seconds / 3, min_rounds=2)
        runner.tracer = tracing.Tracer(modules)
        runner.tracer.install()
        try:
            traced = runner.run_for(args.seconds - args.seconds / 3, min_rounds=2)
        finally:
            runner.tracer.uninstall()
        rounds = plain + traced
        values = per_layer(runner, plain, traced)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        runner.tracer.write(OUT / f"trace-{args.workload}.tsv.gz")
    else:
        rounds = runner.run_for(args.seconds, min_rounds=3, probes=True)
        values = end_to_end(rounds)
        units = dict(END_TO_END)

    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"{args.workload}: {len(rounds)} rounds of {len(workload.queries)} queries", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
