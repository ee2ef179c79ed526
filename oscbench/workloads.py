"""The benchmark's workloads: fixed query lists over oscitab's public entry points.

A workload is a list of queries plus a round check.  Each query calls one
library function or ``oscitab.cli.main(argv)``; its digest is computed
outside the timed region, checks what can be checked on that answer alone
and keeps only what the round check needs, so large answers are dropped at
once.  The round check runs after the last query of a round and tests the
identities that tie several answers together.

The case lists are fixed; the seed sets only the query order and which
SSOTs are written to the files that ``sundaram --trace`` reads.  Every call
goes through a module attribute (``polyring.f_expansion``, ``cli.main``) at
call time, so a traced run sees the wrapped functions.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

from oscitab import analysis, cli, correspondences, oscillating, polyring
from oscitab.polyring import SparsePoly

import oracles
from oracles import require


@dataclass(frozen=True)
class Query:
    key: tuple  # starts with the kind of query, e.g. "f_expansion" or "cli expand-f"
    call: Callable[[], object]
    digest: Callable[[object], object]
    cli: bool = False


@dataclass(frozen=True)
class Workload:
    queries: list[Query]
    check_round: Callable[[dict], None]


def partitions(m: int) -> list[tuple[int, ...]]:
    def rec(rest, largest):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return list(rec(m, m))


def fmt(lam) -> str:
    return ",".join(map(str, lam)) if lam else "-"


def run_cli(argv: list[str]) -> str:
    """``oscitab.cli.main(argv)`` in-process with stdout captured; a nonzero exit is a failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise RuntimeError(f"oscitab {' '.join(argv)} exited with {code}")
    return out.getvalue()


def lengths(lam, top: int) -> range:
    m = sum(lam)
    return range(m if m else 2, top + 1, 2)


# ---------------------------------------------------------------- fexpand

FEXPAND_TOP = {"full": {0: 8, 1: 7, 2: 8, 3: 7, 4: 8}, "smoke": {0: 4, 1: 5, 2: 4, 3: 5}}
SSOT_POLY_TOP = {"full": 7, "smoke": 5}
SCHUR_EXPAND_TOP = {"full": 5, "smoke": 3}


def check_f_terms(terms: dict, n: int, k: int) -> dict:
    for a, c in terms.items():
        require(sum(a) == n and all(p > 0 for p in a), f"{a} is not a composition of {n}")
        require(len(a) <= k, f"{a} has more than {k} parts")
        require(isinstance(c, int) and c > 0, f"coefficient {c!r} of {a} is not positive")
    return dict(terms)


def parse_expand_f(text: str) -> dict:
    terms = {}
    for line in text.splitlines():
        comp, coef = line.split()
        terms[tuple(int(p) for p in comp.split(","))] = int(coef)
    return terms


def poly_digest(terms: dict, k: int) -> tuple[int, int]:
    """(number of variables, value at (1,...,1)) after checking symmetry."""
    require(oracles.is_symmetric_terms(terms), "SSOT polynomial is not symmetric")
    require(all(len(e) == k for e in terms), f"exponent vector with other than {k} entries")
    return k, sum(terms.values())


def json_poly_terms(text: str) -> dict:
    data = json.loads(text)
    return {tuple(t["exp"]): int(t["coef"]) for t in data["terms"]}


def fexpand(size: str, seed: int, out_dir: Path) -> Workload:
    queries = []
    for m, top in FEXPAND_TOP[size].items():
        for lam in partitions(m):
            for n in lengths(lam, top):
                queries += fexpand_case(size, lam, n)

    def check_round(digests: dict) -> None:
        full = {key[1:3]: d for key, d in digests.items() if key[0] == "f_expansion" and key[3] == key[2]}
        for (lam, n), terms in full.items():
            require(
                sum(terms.values()) == oracles.ot_count(lam, n),
                f"f_expansion{lam, n, n} counts {sum(terms.values())} OTs, hook-length formula gives {oracles.ot_count(lam, n)}",
            )
        for key, d in digests.items():
            kind, lam, n = key[:3]
            expansion = full[lam, n]
            if kind in ("f_expansion", "cli expand-f"):
                k = key[3]
                restricted = {a: c for a, c in expansion.items() if len(a) <= k}
                require(d == restricted, f"{kind}{key[1:]} is not the k={n} expansion cut to {k} parts")
            elif kind in ("ssot_poly", "cli ssot-poly"):
                k, total = d
                want = sum(c * oracles.fundamental_at_ones(a, k) for a, c in expansion.items())
                require(total == want, f"{kind}{key[1:]} sums to {total}, F-expansion gives {want}")
            elif kind == "schur_expand":
                want = analysis.ssot_schur(lam, n).coefficients
                require(d == want, f"schur_expand(ssot_poly{lam, n, n}) differs from ssot_schur")
                f_count = sum(c * oracles.syt_count(nu) for nu, c in d.items())
                require(f_count == oracles.ot_count(lam, n), f"schur_expand{lam, n} weighs {f_count} OTs")

    random.Random(seed).shuffle(queries)
    return Workload(queries, check_round)


def fexpand_case(size: str, lam, n: int) -> list[Query]:
    p = fmt(lam)
    out = [
        Query(
            ("f_expansion", lam, n, n),
            lambda: polyring.f_expansion(lam, n, n),
            lambda r: check_f_terms(r, n, n),
        ),
        Query(
            ("cli expand-f", lam, n, 2),
            lambda: run_cli(["expand-f", p, str(n), "2"]),
            lambda r: check_f_terms(parse_expand_f(r), n, 2),
            cli=True,
        ),
    ]
    if n > 3:
        out.append(
            Query(
                ("f_expansion", lam, n, 3),
                lambda: polyring.f_expansion(lam, n, 3),
                lambda r: check_f_terms(r, n, 3),
            )
        )
    if n <= SSOT_POLY_TOP[size]:
        out.append(
            Query(
                ("ssot_poly", lam, n, 3),
                lambda: polyring.ssot_poly(lam, n, 3),
                lambda r: poly_digest(r.terms, 3),
            )
        )
        out.append(
            Query(
                ("cli ssot-poly", lam, n, 2),
                lambda: run_cli(["ssot-poly", p, str(n), "2", "--json"]),
                lambda r: poly_digest(json_poly_terms(r), 2),
                cli=True,
            )
        )
    if n <= SCHUR_EXPAND_TOP[size]:
        out.append(
            Query(
                ("schur_expand", lam, n),
                lambda: polyring.schur_expand(polyring.ssot_poly(lam, n, n)),
                dict,
            )
        )
    return out


# ---------------------------------------------------------------- schur-lr

SCHUR_TOP = {"full": 20, "smoke": 8}
SCHUR_SHAPE_SIZES = {"full": (1, 2, 3, 4), "smoke": (1, 2, 3)}
INDEPENDENCE_SIZES = {"full": range(1, 10), "smoke": range(1, 5)}
N0_SIZES = {"full": (2, 3, 4, 5), "smoke": (2, 3)}


def schur_digest(coefficients: dict, lam, n: int) -> dict:
    for nu, c in coefficients.items():
        require(sum(nu) == n and list(nu) == sorted(nu, reverse=True), f"{nu} is not a partition of {n}")
        require(len(lam) <= len(nu) and all(a <= b for a, b in zip(lam, nu)), f"{nu} does not contain {lam}")
        require(isinstance(c, int) and c > 0, f"coefficient {c!r} of {nu} is not positive")
    total = sum(c * oracles.syt_count(nu) for nu, c in coefficients.items())
    require(total == oracles.ot_count(lam, n), f"ssot_schur{lam, n} weighs {total} OTs, not {oracles.ot_count(lam, n)}")
    return dict(coefficients)


def json_schur_terms(text: str) -> dict:
    return {tuple(t["partition"]): t["coefficient"] for t in json.loads(text)["terms"]}


def schur_lr(size: str, seed: int, out_dir: Path) -> Workload:
    top = SCHUR_TOP[size]
    shapes = [lam for m in SCHUR_SHAPE_SIZES[size] for lam in partitions(m)]
    sweep, queries = [], []
    for lam in shapes:
        p = fmt(lam)
        for n in lengths(lam, top):
            sweep.append(
                Query(
                    ("ssot_schur", lam, n),
                    lambda lam=lam, n=n: analysis.ssot_schur(lam, n).coefficients,
                    lambda r, lam=lam, n=n: schur_digest(r, lam, n),
                )
            )
            if n <= top // 2:
                queries.append(
                    Query(
                        ("cli expand-schur", lam, n),
                        lambda p=p, n=n: run_cli(["expand-schur", p, str(n), "--json"]),
                        lambda r, lam=lam, n=n: schur_digest(json_schur_terms(r), lam, n),
                        cli=True,
                    )
                )
    # Hall pairings reuse the (shape, length) pairs of the sweep, so the
    # analysis cache serves them; both orders are asked so symmetry can be
    # checked.
    for m in SCHUR_SHAPE_SIZES[size][1:]:
        group = partitions(m)
        for i, lam in enumerate(group):
            for mu in group[i:]:
                for n in sorted({m + 4, top - (top - m) % 2}):
                    queries.append(
                        Query(("hall_inner", lam, mu, n), lambda lam=lam, mu=mu, n=n: analysis.hall_inner(lam, mu, n), int)
                    )
                    if mu != lam:
                        queries.append(
                            Query(
                                ("cli inner-product", mu, lam, n),
                                lambda lam=lam, mu=mu, n=n: run_cli(["inner-product", fmt(mu), fmt(lam), str(n)]),
                                int,
                                cli=True,
                            )
                        )
    for m in INDEPENDENCE_SIZES[size]:
        queries.append(
            Query(
                ("independence_rank", m, m + 2),
                lambda m=m: analysis.independence_rank(m, m + 2),
                int,
            )
        )
        queries.append(
            Query(
                ("cli independence", m, m + 2),
                lambda m=m: run_cli(["independence", str(m), str(m + 2), "--json"]),
                lambda r: json.loads(r)["rank"],
                cli=True,
            )
        )
    for m in N0_SIZES[size]:
        group = partitions(m)
        for i, lam in enumerate(group):
            for mu in group[i + 1 :]:
                queries.append(
                    Query(("n_zero", lam, mu), lambda lam=lam, mu=mu: analysis.n_zero(lam, mu), int)
                )
                queries.append(
                    Query(
                        ("cli n0", mu, lam),
                        lambda lam=lam, mu=mu: run_cli(["n0", fmt(mu), fmt(lam)]),
                        int,
                        cli=True,
                    )
                )

    def check_round(digests: dict) -> None:
        schur = {key[1:]: d for key, d in digests.items() if key[0] in ("ssot_schur", "cli expand-schur")}
        for key, d in digests.items():
            kind = key[0]
            if kind in ("hall_inner", "cli inner-product"):
                lam, mu, n = key[1:]
                want = sum(c * schur[mu, n].get(nu, 0) for nu, c in schur[lam, n].items())
                require(d == want, f"{kind}{key[1:]} = {d}, Schur coefficients pair to {want}")
                if mu != lam:
                    other = digests.get(("hall_inner", mu, lam, n), digests.get(("cli inner-product", mu, lam, n)))
                    require(d == other, f"{kind}{key[1:]} = {d} but the swapped pairing is {other}")
            elif kind in ("independence_rank", "cli independence"):
                m = key[1]
                require(d == oracles.partition_count(m), f"{kind}{key[1:]} = {d}, p({m}) = {oracles.partition_count(m)}")
            elif kind in ("n_zero", "cli n0"):
                want = oracles.similarity_threshold(*key[1:])
                require(d == want, f"{kind}{key[1:]} = {d}, reachable shapes first meet at {want}")

    # The sweep runs first in every round and pays every cache miss it can,
    # so which queries hit the cache does not depend on the seed.
    rng = random.Random(seed)
    rng.shuffle(sweep)
    rng.shuffle(queries)
    return Workload(sweep + queries, check_round)


# ---------------------------------------------------------------- snp-hull

# Cases whose hull test costs at most about 0.1 s and outweighs building the
# polynomial; those with few candidate points are asked again through the CLI.
SNP_CASES = {
    "full": [
        ((), 2, 2), ((), 4, 2), ((1,), 1, 2), ((1,), 3, 2), ((1,), 5, 2), ((2,), 2, 2), ((2,), 4, 2),
        ((1, 1), 2, 2), ((1, 1), 4, 2), ((3,), 3, 2), ((3,), 5, 2), ((2, 1), 3, 2), ((2, 1), 5, 2),
        ((4,), 4, 2), ((3, 1), 4, 2), ((2, 2), 4, 2),
        ((), 2, 3), ((), 4, 3), ((), 6, 3), ((1,), 1, 3), ((1,), 3, 3), ((1,), 5, 3), ((2,), 2, 3),
        ((2,), 4, 3), ((1, 1), 2, 3), ((1, 1), 4, 3), ((1, 1), 6, 3), ((3,), 3, 3), ((2, 1), 3, 3),
        ((2, 1), 5, 3), ((1, 1, 1), 3, 3), ((1, 1, 1), 5, 3), ((4,), 4, 3), ((3, 1), 4, 3),
        ((2, 2), 4, 3), ((2, 2), 6, 3), ((2, 1, 1), 4, 3), ((2, 1, 1), 6, 3),
        ((), 2, 4), ((1,), 1, 4), ((1,), 3, 4), ((2,), 2, 4), ((1, 1), 2, 4), ((2, 1), 3, 4),
        ((1, 1, 1), 3, 4), ((2, 1, 1), 4, 4), ((1, 1, 1, 1), 4, 4), ((1, 1, 1, 1), 6, 4),
    ],
    "smoke": [((1,), 3, 2), ((2,), 2, 3), ((2, 1), 3, 3), ((1, 1), 2, 4)],
}
SNP_CLI_CANDIDATES = 35  # ask the CLI too when the hull test has at most this many candidate points
# Symmetric homogeneous polynomials with a known verdict: power sums miss the
# interior of their hull, a square and a Schur polynomial do not.
CONTROLS = {
    "x1^2+x2^2": ({(2, 0): 1, (0, 2): 1}, False),
    "x1^4+x2^4": ({(4, 0): 1, (0, 4): 1}, False),
    "x1^2+x2^2+x3^2": ({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, False),
    "x1^3+x2^3+x3^3": ({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, False),
    "x1^2+2*x1*x2+x2^2": ({(2, 0): 1, (1, 1): 2, (0, 2): 1}, True),
    "s_21(x1,x2,x3)": (
        {(2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): 2},
        True,
    ),
}


def hull_digest(support, points, snp, k: int) -> bool:
    """Check a hull answer against Rado's theorem; return the SNP verdict."""
    support = {tuple(e) for e in support}
    points = [tuple(e) for e in points]
    require(len(points) == len(set(points)), "repeated lattice point")
    want = oracles.rado_points(oracles.dominance_top(support), k)
    require(set(points) == want, f"hull lattice points differ from the permutahedron's ({len(points)} vs {len(want)})")
    require(snp == want.issubset(support), f"snp = {snp} disagrees with the lattice points")
    return snp


def json_hull_digest(text: str, k: int) -> bool:
    data = json.loads(text)
    return hull_digest(data["support"], data["polytope_points"], data["snp"], k)


def snp_hull(size: str, seed: int, out_dir: Path) -> Workload:
    queries = []
    for lam, n, k in SNP_CASES[size]:
        p = fmt(lam)
        queries.append(
            Query(
                ("has_snp", lam, n, k),
                lambda lam=lam, n=n, k=k: analysis.has_snp(polyring.ssot_poly(lam, n, k)),
                lambda r, k=k: hull_digest(r.support, r.polytope_points, r.snp, k),
            )
        )
        if comb(n + k - 1, k - 1) > SNP_CLI_CANDIDATES:
            continue
        queries.append(
            Query(
                ("cli snp", lam, n, k),
                lambda p=p, n=n, k=k: run_cli(["snp", p, str(n), str(k), "--json"]),
                lambda r, k=k: json_hull_digest(r, k),
                cli=True,
            )
        )
    for name, (terms, _) in CONTROLS.items():
        k = len(next(iter(terms)))
        queries.append(
            Query(
                ("has_snp control", name),
                lambda terms=terms, k=k: analysis.has_snp(SparsePoly(k, terms)),
                lambda r, k=k: hull_digest(r.support, r.polytope_points, r.snp, k),
            )
        )

    def check_round(digests: dict) -> None:
        for key, snp in digests.items():
            if key[0] == "has_snp control":
                want = CONTROLS[key[1]][1]
                require(snp == want, f"control {key[1]} reports snp = {snp}, expected {want}")
            else:
                require(snp, f"{key[0]}{key[1:]}: an SSOT polynomial without SNP contradicts the theorem")

    random.Random(seed).shuffle(queries)
    return Workload(queries, check_round)


# ---------------------------------------------------------------- ssot-objects

QYOT_LISTINGS = {
    "full": [((1,), 7, 7), ((2, 1), 7, 7), ((2,), 8, 8), ((1, 1), 8, 8), ((3, 1), 8, 8), ((2, 1), 9, 9),
             ((2, 1), 7, 3), ((3,), 7, 4), ((2, 2), 8, 4), ((1, 1, 1), 7, 5)],
    "smoke": [((2, 1), 5, 5), ((1,), 5, 3)],
}
SSOT_LISTINGS = {
    "full": [
        (lam, sum(lam) + extra, k)
        for lam in ((1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1))
        for extra in (2, 4)
        for k in (3, 4, 5)
    ],
    "smoke": [((1,), 3, 3), ((2, 1), 5, 3)],
}
ROUNDTRIP_BATCH = 64
ROUNDTRIP_LISTING_MAX = 1000  # larger listings are enumerated but not round-tripped
TRACE_FILES_PER_LISTING = {"full": 3, "smoke": 2}


def qyot_digest(text: str, lam, n: int, k: int) -> int:
    data = json.loads(text)
    listed = data["tableaux"]
    require(len(listed) == data["count"], "enumerate-qyot lists fewer tableaux than it counts")
    if k == n:
        require(data["count"] == oracles.ot_count(lam, n), f"enumerate-qyot{lam, n, n} lists {data['count']} QYOTs, not the OT count")
    seen = set()
    for t in listed:
        comp = t["descent_composition"]
        require(sum(comp) == n and 0 < len(comp) <= k, f"descent composition {comp} out of range")
        require(tuple(t["steps"][-1]["reached"]) == lam, "listed tableau ends at another shape")
        require(t["run"].count("|") == len(comp) - 1, "run bars do not match the descent composition")
        seen.add(json.dumps(t["steps"]))
    require(len(seen) == len(listed), "enumerate-qyot lists a tableau twice")
    return data["count"]


def ssot_listing_digest(listing, lam, n: int, k: int) -> int:
    require(len(set(listing)) == len(listing), "enumerate_ssot lists an SSOT twice")
    for S in listing:
        require(S.shape == lam and S.length == n and S.step <= k, f"{S} is not an SSOT of shape {lam}, length {n}, step <= {k}")
    return len(listing)


def roundtrip(batch) -> list:
    """Per SSOT: its Sundaram pair, the SSOT rebuilt from the pair, and the Burge tableau of the pair's array."""
    out = []
    for S in batch:
        pair = correspondences.sundaram(S)
        out.append((pair, correspondences.sundaram_inverse(pair), correspondences.burge_map(pair.burge)))
    return out


def roundtrip_digest(result, batch, lam, n: int) -> set:
    images = set()
    for S, (pair, back, burge_tableau) in zip(batch, result, strict=True):
        require(back == S, f"sundaram_inverse(sundaram(S)) != S for {S}")
        require(
            oracles.is_semistandard(burge_tableau) and oracles.has_even_columns(burge_tableau),
            f"the Burge tableau of sundaram({S}) is not semistandard with even columns",
        )
        require(sum(map(len, burge_tableau)) == 2 * len(pair.burge), f"the Burge tableau of sundaram({S}) has the wrong size")
        require(oracles.is_burge(pair.burge.pairs), f"sundaram({S}) has a non-Burge array")
        require(oracles.is_semistandard(pair.tableau), f"sundaram({S}) has a non-semistandard tableau")
        require(tuple(len(r) for r in pair.tableau) == lam, f"sundaram({S}) has a tableau of another shape")
        require(pair.length() == n, f"sundaram({S}) has length {pair.length()}, not {n}")
        images.add((pair.burge.pairs, pair.tableau))
    require(len(images) == len(batch), "two SSOTs of one batch share a Sundaram image")
    return images


def parse_sundaram_trace(text: str):
    lines = text.splitlines()
    burge, tableau = lines[-2], lines[-1]
    require(burge.startswith("burge:") and tableau.startswith("tableau:"), "sundaram --trace output lacks its result lines")
    pairs = tuple(tuple(int(x) for x in p.split(",")) for p in burge.split()[1:] if p != "-")
    rows = tableau.split(":", 1)[1].strip()
    tab = () if rows == "-" else tuple(tuple(int(x) for x in r.split()) for r in rows.split(" / "))
    return len(lines) - 2, pairs, tab


def ssot_objects(size: str, seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    queries = []
    for lam, n, k in QYOT_LISTINGS[size]:
        queries.append(
            Query(
                ("cli enumerate-qyot", lam, n, k),
                lambda lam=lam, n=n, k=k: run_cli(["enumerate-qyot", fmt(lam), str(n), str(k), "--json"]),
                lambda r, lam=lam, n=n, k=k: qyot_digest(r, lam, n, k),
                cli=True,
            )
        )
    sampled = []
    for lam, n, k in SSOT_LISTINGS[size]:
        queries.append(
            Query(
                ("enumerate_ssot", lam, n, k),
                lambda lam=lam, n=n, k=k: oscillating.enumerate_ssot(lam, n, k),
                lambda r, lam=lam, n=n, k=k: ssot_listing_digest(r, lam, n, k),
            )
        )
        listing = oscillating.enumerate_ssot(lam, n, k)
        sampled += rng.sample(listing, TRACE_FILES_PER_LISTING[size])
        if len(listing) > ROUNDTRIP_LISTING_MAX:
            continue
        for start in range(0, len(listing), ROUNDTRIP_BATCH):
            batch = listing[start : start + ROUNDTRIP_BATCH]
            queries.append(
                Query(
                    ("sundaram round trip", lam, n, k, start),
                    lambda batch=batch: roundtrip(batch),
                    lambda r, batch=batch, lam=lam, n=n: roundtrip_digest(r, batch, lam, n),
                )
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, S in enumerate(sampled):
        path = out_dir / f"ssot-{i:03d}.json"
        path.write_text(json.dumps(oscillating.ssot_to_dict(S)))
        queries.append(
            Query(
                ("cli sundaram --trace", i),
                lambda path=path: run_cli(["sundaram", str(path), "--trace"]),
                lambda r, S=S: (S, *parse_sundaram_trace(r)),
                cli=True,
            )
        )

    def check_round(digests: dict) -> None:
        images = {}
        for key, d in digests.items():
            kind = key[0]
            if kind == "sundaram round trip":
                seen = images.setdefault(key[1:4], set())
                require(seen.isdisjoint(d), f"two SSOTs of listing {key[1:4]} share a Sundaram image")
                seen |= d
            elif kind == "enumerate_ssot":
                lam, n, k = key[1:]
                want = sum(c * oracles.schur_at_ones(nu, k) for nu, c in analysis.ssot_schur(lam, n).coefficients.items())
                require(d == want, f"enumerate_ssot{key[1:]} lists {d} SSOTs, the Schur expansion counts {want}")
            elif kind == "cli sundaram --trace":
                S, substeps, pairs, tab = d
                require(substeps == S.length, f"sundaram --trace prints {substeps} substeps for length {S.length}")
                require(oracles.is_burge(pairs) and oracles.is_semistandard(tab), "sundaram --trace result is not a Burge pair")
                back = correspondences.sundaram_inverse(
                    correspondences.SundaramPair(correspondences.TwoRowArray(pairs), tab)
                )
                require(back == S, "the pair printed by sundaram --trace does not invert to its SSOT")

    rng.shuffle(queries)
    return Workload(queries, check_round)


WORKLOADS = {"fexpand": fexpand, "schur-lr": schur_lr, "snp-hull": snp_hull, "ssot-objects": ssot_objects}
