"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import contextlib
import io
import json
import random
import time
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

from oscitab.analysis import (
    has_snp,
    hall_inner,
    independence_rank,
    n_zero,
    ssot_schur,
)
from oscitab.cli import main
from oscitab.correspondences import (
    TwoRowArray,
    burge_map,
    sundaram,
    sundaram_inverse,
    sundaram_steps,
)
from oscitab.oscillating import (
    descent_data,
    enumerate_ssot,
    ot_events,
    ssot_from_dict,
    standardize,
    substep_events,
)
from oscitab.polyring import (
    SparsePoly,
    f_expansion,
    fundamental_qsym,
    is_symmetric,
    littlewood_truncated,
    schur_expand,
    schur_poly,
    ssot_poly,
)
from oscitab.shapes import (
    _northeast,
    partitions_of,
    v_set,
)
from oscitab.tableaux import (
    column_insert,
    column_unbump,
    insertion_tableau,
    lr_coefficient,
    product,
    ssyt_of_shape,
    superstandard,
    tableau_shape,
)

DATA = Path(__file__).parent / "data"

TABLE1_RUNS = Counter(
    {
        "111|22": 1,
        "11|222": 1,
        "111|2|3": 1,
        "11|22|3": 3,
        "11|2|33": 2,
        "1|222|3": 2,
        "1|22|33": 3,
        "1|2|333": 1,
    }
)

F_EXPANSION_21_5_3 = {
    (3, 2): 1,
    (2, 3): 1,
    (3, 1, 1): 1,
    (2, 2, 1): 3,
    (2, 1, 2): 2,
    (1, 3, 1): 2,
    (1, 2, 2): 3,
    (1, 1, 3): 1,
}


def admissible_lengths(lam, extra):
    m = sum(lam)
    return range(m, m + extra + 1, 2)


def report(num, text, elapsed):
    print(f"PASS criterion {num}: {text} ({elapsed:.2f}s)")


def test_criterion_01_table1_reproduction():
    start = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["enumerate-qyot", "2,1", "5", "3", "--json"]) == 0
    payload = json.loads(buf.getvalue())
    elapsed = time.perf_counter() - start
    assert payload["count"] == 14
    assert len(payload["tableaux"]) == 14
    assert Counter(rec["run"] for rec in payload["tableaux"]) == TABLE1_RUNS
    assert elapsed < 1.0
    report(1, "14 quasi-Yamanouchi tableaux with the Table 1 run multiset", elapsed)


def test_criterion_02_f_expansion():
    start = time.perf_counter()
    terms = f_expansion((2, 1), 5, 3)
    assert terms == F_EXPANSION_21_5_3
    total = SparsePoly(3)
    for a, c in terms.items():
        total = total + fundamental_qsym(a, 3).scale(c)
    assert total == ssot_poly((2, 1), 5, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "F-expansion of the length-5 function matches and sums termwise", elapsed)


def test_criterion_03_burge_example():
    start = time.perf_counter()
    L = TwoRowArray(((4, 2), (4, 3), (7, 2)))
    assert burge_map(L) == ((2, 2), (3, 4), (4,), (7,))
    report(3, "Burge tableau of the three-pair array", time.perf_counter() - start)


def test_criterion_04_sundaram_trace_and_round_trip():
    start = time.perf_counter()
    S = ssot_from_dict(json.loads((DATA / "sundaram_example.json").read_text()))
    rows = list(sundaram_steps(S))
    assert [row[5] for row in rows] == [
        ((1,),),
        ((1,), (2,)),
        ((1, 2), (2,)),
        ((1, 2), (2,), (3,)),
        ((1,), (2,), (3,)),
        ((1,), (2,)),
        ((1, 4), (2,)),
        ((1, 4), (2, 5)),
        ((1, 4), (2, 5), (6,)),
        ((1, 4), (5,), (6,)),
    ]
    arrays = {row[0]: row[4].pairs for row in rows}
    assert arrays[5] == ((4, 2),)
    assert arrays[6] == ((4, 2), (4, 3))
    pair = sundaram(S)
    assert pair.burge.pairs == ((4, 2), (4, 3), (7, 2))
    assert pair.tableau == ((1, 4), (5,), (6,))
    assert sundaram_inverse(pair) == S
    report(4, "Table 2 trace, arrays and round trip", time.perf_counter() - start)


def test_criterion_05_schur_expansion():
    start = time.perf_counter()
    expansion = ssot_schur((2, 1), 5)
    assert expansion.coefficients == {
        (3, 2): 1,
        (3, 1, 1): 1,
        (2, 2, 1): 1,
        (2, 1, 1, 1): 1,
    }
    assert expansion.coefficients == schur_expand(ssot_poly((2, 1), 5, 5))
    report(5, "Schur expansion has the four unit terms and matches algebra", time.perf_counter() - start)


def test_criterion_06_v_sets():
    start = time.perf_counter()
    reachable = v_set((2, 1), 7)
    assert len(reachable) == 10
    assert set(reachable) == {
        (4, 3), (4, 2, 1), (4, 1, 1, 1), (3, 3, 1), (3, 2, 2),
        (3, 2, 1, 1), (3, 1, 1, 1, 1), (2, 2, 2, 1), (2, 2, 1, 1, 1),
        (2, 1, 1, 1, 1, 1),
    }
    assert set(v_set((3,), 5)) & set(v_set((1, 1, 1), 5)) == set()
    assert set(v_set((3,), 7)) & set(v_set((1, 1, 1), 7)) == {
        (3, 2, 2), (3, 2, 1, 1), (3, 1, 1, 1, 1),
    }
    report(6, "reachable shape sets at lengths 5 and 7", time.perf_counter() - start)


def test_criterion_07_inner_products():
    start = time.perf_counter()
    assert hall_inner((3,), (1, 1, 1), 5) == 0
    assert n_zero((3,), (1, 1, 1)) == 7
    # threshold monotonicity in the sense of the unique-switch-point theorem:
    # pairings vanish below the reachability threshold and, once positive,
    # stay positive for every tested larger length
    for m in range(1, 5):
        for lam, mu in combinations_with_replacement(partitions_of(m), 2):
            n0 = n_zero(lam, mu)
            flags = []
            for n in range(m, 11, 2):
                value = hall_inner(lam, mu, n)
                assert value >= 0
                if n < n0:
                    assert value == 0, (lam, mu, n)
                flags.append(value > 0)
            assert flags == sorted(flags), (lam, mu, flags)
    report(7, "pinned pairings and monotone positivity for all pairs of size <= 4", time.perf_counter() - start)


def test_criterion_08_littlewood_product_truncation():
    start = time.perf_counter()
    k = 3
    for lam in ((1,), (2,), (1, 1), (2, 1)):
        maxdeg = sum(lam) + 4
        total = SparsePoly(k)
        for n in range(sum(lam), maxdeg + 1):
            total = total + ssot_poly(lam, n, k)
        rhs = littlewood_truncated(k, maxdeg - sum(lam)).truncated_mul(
            schur_poly(lam, k), maxdeg
        )
        assert total == rhs, lam
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, "sum of SSOT polynomials equals the truncated pair-series product", elapsed)


def _random_tableau(rng, max_boxes=8, max_entry=6):
    word = [rng.randint(1, max_entry) for _ in range(rng.randint(0, max_boxes))]
    return insertion_tableau(word)


def _corners(shape):
    return [
        (i + 1, shape[i])
        for i in range(len(shape))
        if i + 1 == len(shape) or shape[i] > shape[i + 1]
    ]


def test_criterion_09_property_suites():
    start = time.perf_counter()

    # symmetry of ssot_poly, |lam| <= 3, n <= |lam|+4, k <= 4
    for m in range(4):
        for lam in partitions_of(m):
            for n in admissible_lengths(lam, 4):
                for k in range(1, 5):
                    assert is_symmetric(ssot_poly(lam, n, k)), (lam, n, k)

    # theta is a weight-preserving bijection, |lam| <= 2, n <= 6, letters <= 4
    for m in range(3):
        for lam in partitions_of(m):
            for n in admissible_lengths(lam, 6 - m):
                images = set()
                for S in enumerate_ssot(lam, n, 4):
                    pair = sundaram(S)
                    assert sundaram_inverse(pair) == S
                    assert Counter(substep_events(S).profile) == pair.content()
                    images.add((pair.burge.pairs, pair.tableau))
                # injectivity on the fiber
                assert len(images) == len(enumerate_ssot(lam, n, 4))

    # column insertion round trips, 500 random corners
    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        T = _random_tableau(rng)
        if not T:
            continue
        for box in _corners(tableau_shape(T)):
            smaller, value = column_unbump(T, box)
            assert column_insert(smaller, value) == (T, box)
            checked += 1

    # column bumping lemma, 500 random cases
    for _ in range(500):
        T = _random_tableau(rng)
        v, vp = rng.randint(1, 6), rng.randint(1, 6)
        T1, box1 = column_insert(T, v)
        _, box2 = column_insert(T1, vp)
        assert _northeast(box1, box2) == (vp <= v)

    # LR symmetry and the product oracle, |nu| <= 6
    ssyt_cache: dict = {}

    def ssyts(mu, bound):
        key = (mu, bound)
        if key not in ssyt_cache:
            ssyt_cache[key] = list(ssyt_of_shape(mu, bound))
        return ssyt_cache[key]

    for n in range(1, 7):
        for nu in partitions_of(n):
            for a in range(n + 1):
                for lam in partitions_of(a):
                    for mu in partitions_of(n - a):
                        c = lr_coefficient(lam, mu, nu)
                        assert c == lr_coefficient(mu, lam, nu)
                        target = superstandard(nu)
                        hits = sum(
                            1
                            for T in ssyts(mu, len(nu))
                            if product(T, superstandard(lam)) == target
                        )
                        assert c == hits, (lam, mu, nu)

    # standardization preserves descent data, exhaustive length <= 7
    for m in range(4):
        for lam in partitions_of(m):
            for n in admissible_lengths(lam, 7 - m):
                for S in enumerate_ssot(lam, n, 4):
                    O = standardize(S)
                    se, oe = substep_events(S), ot_events(O)
                    assert se.boxes == oe.boxes and se.kinds == oe.kinds
                    assert descent_data(S) == descent_data(O)
                    assert O.length == S.length and O.shape == S.shape

    report(9, "all property suites ran with zero counterexamples", time.perf_counter() - start)


def test_criterion_10_independence():
    start = time.perf_counter()
    for m in range(1, 10):
        for n in (m + 2, m + 4):
            assert independence_rank(m, n) == len(partitions_of(m)), (m, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(10, "Schur-coefficient matrices have full rank for sizes 1..9 at lengths m + 2 and m + 4", elapsed)


def test_criterion_11_snp():
    start = time.perf_counter()
    checked = 0
    for m in range(4):
        for lam in partitions_of(m):
            for n in admissible_lengths(lam, 4):
                for k in range(1, 4):
                    f = ssot_poly(lam, n, k)
                    if f.is_zero():
                        # only shapes unreachable with so few letters vanish
                        assert len(lam) > k or n > sum(lam), (lam, n, k)
                        continue
                    assert has_snp(f).snp, (lam, n, k)
                    checked += 1
    assert checked > 30
    negative = has_snp(SparsePoly(2, {(2, 0): 1, (0, 2): 1}))
    assert not negative.snp
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(11, f"saturated Newton polytopes for {checked} polynomials, negative control rejected", elapsed)
