import copy
import pickle
import random
from collections import Counter
from itertools import islice, permutations, product

import pytest

from oscitab import analysis, correspondences, oscillating, shapes, tableaux
from oscitab.analysis import ssot_schur
from oscitab.oscillating import com, descent_data, enumerate_qyot, enumerate_ssot
from oscitab.polyring import (
    SparsePoly,
    _weight_counts,
    f_expansion,
    fundamental_qsym,
    is_symmetric,
    littlewood_truncated,
    monomial_qsym,
    schur_expand,
    schur_poly,
    ssot_poly,
)
from oscitab.shapes import (
    _weak_refinements,
    dominance_leq,
    _even_conjugate_partitions,
    flat,
    _in_N,
    lambda_bar,
    partitions_of,
    ref_set,
    trim,
)
from oscitab.tableaux import des_syt, enumerate_syt, ssyt_of_shape, weight

from test_oscillating import reference_ots, strip_subshapes, strip_supershapes


def poly_from_pairs(k, pairs):
    return SparsePoly(k, dict(pairs))


def test_ring_operations():
    x1 = SparsePoly.variable(0, 2)
    x2 = SparsePoly.variable(1, 2)
    assert x1 * x2 == poly_from_pairs(2, {(1, 1): 1})
    one = SparsePoly.one(2)
    f = one + x1 * x2
    assert f.truncated_mul(f, 2) == poly_from_pairs(2, {(0, 0): 1, (1, 1): 2})
    assert f * one == f
    g = f + x1.scale(3) - x2
    assert f * g == f.truncated_mul(g, 100)
    assert (f - f).is_zero()
    with pytest.raises(ValueError):
        x1 + SparsePoly.variable(0, 3)
    for nvars, terms in (
        (-1, {}),
        (2, {(1,): 1}),
        (2, {(1, -1): 1}),
        (2, {(1, 1): 1.5}),
        (2, {(1, 1): True}),
        (2, {(0.5, 1): 1}),
        (2, {(True, 1): 1}),
    ):
        with pytest.raises(ValueError):
            SparsePoly(nvars, terms)
    assert SparsePoly.variable(1, 3) == poly_from_pairs(3, {(0, 1, 0): 1})
    for i, nvars in ((5, 2), (2, 2), (-1, 2), (0, 0), (0.5, 2), (True, 2)):
        with pytest.raises(ValueError):
            SparsePoly.variable(i, nvars)
    for c in (1.5, True, None):  # a scale factor is an integer coefficient too
        with pytest.raises(ValueError):
            one.scale(c)
    for call in (SparsePoly.monomial, one.coefficient, one.evaluate):  # input that is not a tuple
        with pytest.raises(ValueError):
            call(5)


def test_poly_json_round_trip():
    f = poly_from_pairs(3, {(2, 1, 0): 1, (0, 0, 3): -7})
    data = f.to_dict()
    assert data["terms"][0] == {"exp": [2, 1, 0], "coef": "1"}
    assert SparsePoly.from_dict(data) == f
    assert SparsePoly.from_dict({"nvars": 1, "terms": [{"exp": [3], "coef": "-12"}]}) == poly_from_pairs(1, {(3,): -12})


@pytest.mark.parametrize("coef", [1.5, True, 1, None, [1], "1.5", "", "-", "--1", "+1", " 1", "1_0", "\u0663", "\xb2"])
def test_poly_from_dict_takes_only_decimal_integer_strings(coef):
    with pytest.raises(ValueError, match="coefficient"):
        SparsePoly.from_dict({"nvars": 1, "terms": [{"exp": [1], "coef": coef}]})


def test_poly_from_dict_rejects_a_repeated_exponent():
    terms = [{"exp": [1], "coef": "2"}, {"exp": [0], "coef": "1"}, {"exp": [1], "coef": "3"}]
    with pytest.raises(ValueError, match="twice"):
        SparsePoly.from_dict({"nvars": 1, "terms": terms})
    for data in ({"nvars": 1}, {"nvars": 1, "terms": [{"exp": [[1]], "coef": "1"}]}, [], {"nvars": 1, "terms": [1]}):
        with pytest.raises(ValueError, match="malformed"):
            SparsePoly.from_dict(data)


def test_monomial_qsym():
    assert monomial_qsym((2,), 2) == poly_from_pairs(2, {(2, 0): 1, (0, 2): 1})
    assert monomial_qsym((1, 1), 2) == poly_from_pairs(2, {(1, 1): 1})
    # independent enumeration: weak compositions in 3 parts flattening to (2,1)
    expected = {}
    for c in product(range(4), repeat=3):
        if flat(c) == (2, 1):
            expected[c] = 1
    assert monomial_qsym((2, 1), 3) == poly_from_pairs(3, expected)
    assert monomial_qsym((2, 1), 1).is_zero()
    assert monomial_qsym((), 0) == SparsePoly.one(0)
    for k in (-1, 2.0, "3", True, False):
        with pytest.raises(ValueError, match="k must be"):
            monomial_qsym((1,), k)


def test_fundamental_qsym():
    assert fundamental_qsym((1,), 2) == poly_from_pairs(2, {(1, 0): 1, (0, 1): 1})
    assert fundamental_qsym((2,), 2) == monomial_qsym((2,), 2) + monomial_qsym((1, 1), 2)
    assert fundamental_qsym((3, 2), 3).coefficient((3, 2, 0)) == 1
    assert not fundamental_qsym((2, 1), 2).is_zero()
    assert fundamental_qsym((1, 1, 1), 2).is_zero()
    for a, k in (((), -1), ((1,), 2.0), ((1,), "3"), ((2,), True), ((), False)):
        with pytest.raises(ValueError):
            fundamental_qsym(a, k)
    assert fundamental_qsym((), 0) == SparsePoly.one(0)
    # the definition, kept apart from the walk shared with schur_poly and ssot_poly
    for m in range(6):
        for a in ref_set((m,)):
            for k in range(1, 5):
                total = SparsePoly(k)
                for b in ref_set(a):
                    total = total + monomial_qsym(b, k)
                assert fundamental_qsym(a, k) == total, (a, k)


def test_schur_poly():
    assert schur_poly((1,), 3) == poly_from_pairs(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert schur_poly((1, 1), 2) == poly_from_pairs(2, {(1, 1): 1})
    f = schur_poly((2, 1), 3)
    assert f.evaluate((1, 1, 1)) == 8
    assert is_symmetric(f)
    assert schur_poly((1, 1, 1), 2).is_zero()
    assert schur_poly((), 2) == SparsePoly.one(2)
    assert schur_poly((2, 1, 0), 2) == schur_poly((2, 1), 2)
    for lam, k in (((1, 2), 3), ((2, -1), 3), ((2, 1), 0), ((1,), 2.0), ((1,), "3"), ((1,), True), ((), False)):
        with pytest.raises(ValueError):
            schur_poly(lam, k)


def test_schur_poly_matches_ssyt_weights():
    # Gessel's walk against listed semistandard tableaux, an independent oracle
    for m in range(6):
        for lam in partitions_of(m):
            for k in range(1, 6):
                weights = Counter(weight(T, k) for T in ssyt_of_shape(lam, k))
                assert schur_poly(lam, k) == SparsePoly(k, weights), (lam, k)


def test_values_are_immutable():
    f = ssot_poly((2, 1), 5, 3)
    with pytest.raises(TypeError):
        f.terms[(5, 0, 0)] = 1
    with pytest.raises(AttributeError):
        f.nvars = 4
    with pytest.raises(AttributeError):
        f.terms = {}
    assert f == ssot_poly((2, 1), 5, 3) and hash(f) == hash(ssot_poly((2, 1), 5, 3))
    assert pickle.loads(pickle.dumps(f)) == f == copy.deepcopy(f)


def test_trusted_builder_drops_zero_coefficients():
    # _of is the one builder a polynomial writes itself: it makes the constructor's canonical form
    terms = {(1, 0): 0, (0, 1): 2}
    f = SparsePoly._of(2, terms)
    assert f == SparsePoly(2, terms) and hash(f) == hash(SparsePoly(2, terms)) and dict(f.terms) == {(0, 1): 2}


def test_ssot_poly_examples():
    assert ssot_poly((2, 1), 3, 3) == schur_poly((2, 1), 3)
    assert ssot_poly((2, 1), 4, 3).is_zero()
    f = ssot_poly((2, 1), 5, 3)
    expansion = f_expansion((2, 1), 5, 3)
    total = SparsePoly(3)
    for a, c in expansion.items():
        total = total + fundamental_qsym(a, 3).scale(c)
    assert f == total
    assert f.is_homogeneous() and f.degree() == 5


def test_f_expansion_paper_values():
    assert f_expansion((2, 1), 5, 3) == {
        (3, 2): 1,
        (3, 1, 1): 1,
        (2, 3): 1,
        (2, 2, 1): 3,
        (2, 1, 2): 2,
        (1, 3, 1): 2,
        (1, 2, 2): 3,
        (1, 1, 3): 1,
    }
    assert f_expansion((1,), 1, 1) == {(1,): 1}
    assert f_expansion((2, 1), 5, 2) == {(3, 2): 1, (2, 3): 1}


def test_f_expansion_oracle_exhaustive():
    # Gessel's identity, the paper's F-expansion: the generating polynomial,
    # built from one weight count per partition, equals sum c_a F_a over the
    # descent compositions of the descent-count DP, up to n = 11
    cases = 0
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(m, 12, 2):
                for k in range(1, 6):
                    cases += 1
                    rhs = Counter()
                    for a, c in f_expansion(lam, n, k).items():
                        assert c > 0
                        for exp in fundamental_qsym(a, k).terms:
                            rhs[exp] += c
                    assert ssot_poly(lam, n, k) == SparsePoly(k, rhs), (lam, n, k)
    assert cases == 285


def test_descent_counts_match_enumerators():
    # the transfer-matrix counts against listed quasi-Yamanouchi SSOTs
    for m in range(4):
        for lam in partitions_of(m):
            for n in range(m, m + 7):
                qys = enumerate_qyot(lam, n, max(n, 1))
                for max_step in range(1, n + 1):
                    listed = Counter(descent_data(Q)[1] for Q in qys if Q.step <= max_step)
                    got = f_expansion(lam, n, max_step)
                    assert got == listed, (lam, n, max_step)
                    assert list(got) == sorted(got, reverse=True)


def test_descent_counts_match_reference_ots():
    # the transfer-matrix counts against OTs listed without the transition table
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(9):
                comps = [descent_data(O)[1] for O in reference_ots(lam, n)]
                for max_step in range(1, n + 2):
                    listed = Counter(comp for comp in comps if len(comp) <= max_step)
                    assert f_expansion(lam, n, max_step) == listed, (lam, n, max_step)


def walk(lam, n, k):
    return list(oscillating._walk(lam, n, k))


def cut_walk(lam, n, k):
    return list(islice(oscillating._walk(lam, n, k), 3))


def test_shared_table_answers_match_a_fresh_table():
    # queries read each shape's table warm, in a shuffled order, and again right after it is emptied
    queries = []
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(m, 9, 2):
                for k in range(1, n + 1):
                    queries += [(f_expansion, lam, n, k), (walk, lam, n, k)]
                    if k <= 4:  # above that ssot_poly reads the table as f_expansion does, and its time is the F-sum
                        queries.append((ssot_poly, lam, n, k))
            queries.append((cut_walk, lam, m + 4, m + 4))  # leaves the table half filled
    random.Random(19).shuffle(queries)
    warm = [f(lam, n, k) for f, lam, n, k in queries]
    for (f, lam, n, k), answer in zip(queries, warm):
        oscillating._transitions.cache_clear()
        assert f(lam, n, k) == answer, (f.__name__, lam, n, k)


def test_ssot_poly_matches_enumerated_ssots():
    # the generating polynomial against the letter weights of listed SSOTs
    for m in range(4):
        for lam in partitions_of(m):
            for n in range(m, m + 5):
                for k in range(1, 5):
                    weights = Counter(
                        com(S) + (0,) * (k - len(com(S)))
                        for S in enumerate_ssot(lam, n, k)
                    )
                    assert ssot_poly(lam, n, k) == SparsePoly(k, weights), (lam, n, k)


def strip_counter(lam):
    """SSOTs of shape lam counted by weight, from the definition.

    The state is the shape.  Letter i deletes one horizontal strip and then
    adds one, c_i boxes in all; a shape further from lam than the boxes left
    is dropped.  Reads neither the transition table nor the descent rule.
    """
    memo = {}

    def dist(shape):
        return sum(shape) + sum(lam) - 2 * sum(map(min, shape, lam))

    def count(shape, rest):
        key = (shape, rest)
        if key not in memo:
            if not rest:
                memo[key] = int(shape == lam)
            elif dist(shape) > sum(rest):
                memo[key] = 0
            else:
                c, tail = rest[0], rest[1:]
                size = sum(shape)
                memo[key] = sum(
                    count(nu, tail)
                    for mu in strip_subshapes(shape)
                    if (added := c - size + sum(mu)) >= 0
                    for nu in strip_supershapes(mu, added)
                    if sum(nu) - sum(mu) == added
                )
        return memo[key]

    return lambda c: count((), tuple(c))


def test_strip_counter_matches_enumerated_ssots():
    # the oracle against the definition: letter weights of listed SSOTs
    for m in range(4):
        for lam in partitions_of(m):
            counter = strip_counter(lam)
            for n in range(m, m + 5, 2):
                for k in range(1, 5):
                    listed = Counter(
                        com(S) + (0,) * (k - len(com(S))) for S in enumerate_ssot(lam, n, k)
                    )
                    for c in _weak_refinements((n,), k):
                        assert counter(c) == listed[c], (lam, n, c)


def test_weight_counts_are_symmetric_and_match_the_strip_counter():
    # every weak composition c: the strip count at c equals the table count at
    # sorted(c), past the sizes that enumeration reaches
    cases = 0
    for lam, n_max, k in (
        ((), 12, 4),
        ((1,), 11, 4),
        ((2,), 12, 4),
        ((1, 1), 12, 4),
        ((2, 1), 11, 5),
        ((3, 1), 12, 3),
        ((3, 2, 1), 10, 4),
    ):
        counter = strip_counter(lam)
        for n in range(sum(lam), n_max + 1, 2):
            counts = _weight_counts(lam, n, k)
            for c in _weak_refinements((n,), k):
                mu = trim(tuple(sorted(c, reverse=True)))
                assert counter(c) == counts.get(mu, 0), (lam, n, c)
                cases += 1
    assert cases == 7241


def test_weight_count_support_is_below_lambda_bar():
    # the SNP claim by Rado: the support is every partition of n with at most
    # k parts that lambda_bar(lam, n) dominates, wherever lambda_bar fits in k rows
    checked = 0
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(m, 15, 2):
                bar = lambda_bar(lam, n)
                for k in range(len(bar), 7):
                    want = {mu for mu in partitions_of(n) if len(mu) <= k and dominance_leq(mu, bar)}
                    counts = _weight_counts(lam, n, k)
                    assert set(counts) == want, (lam, n, k)
                    assert all(c > 0 for c in counts.values())
                    checked += 1
    assert checked > 300


def coarsenings(mu):
    # the compositions that merge adjacent parts of mu, mu among them
    for merged in product((False, True), repeat=max(len(mu) - 1, 0)):
        out = [mu[0]] if mu else []
        for part, merge in zip(mu[1:], merged):
            if merge:
                out[-1] += part
            else:
                out.append(part)
        yield tuple(out)


def pieri_kostka(k):
    # K(nu, mu) for every nu at once: horizontal strips of mu's parts, in turn,
    # in at most k rows; strips memoised per (shape, part)
    strips = {}

    def kostka_row(mu):
        layer = {(): 1}
        for q in mu:
            nxt = Counter()
            for shape, c in layer.items():
                key = shape, q
                if key not in strips:
                    strips[key] = [
                        nu for nu in strip_supershapes(shape, q) if sum(nu) == sum(shape) + q and len(nu) <= k
                    ]
                for nu in strips[key]:
                    nxt[nu] += c
            layer = nxt
        return layer

    return kostka_row


def weight_count_grid(n_max):
    # every lam of at most 4 boxes, admissible n <= n_max, k in {3, 5, 8}, with
    # _weight_counts(lam, n, k) at every partition of n with at most k parts
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(m, n_max + 1, 2):
                for k in (3, 5, 8):
                    counts = _weight_counts(lam, n, k)
                    mus = [mu for mu in partitions_of(n) if len(mu) <= k]
                    assert set(counts) <= set(mus), (lam, n, k)
                    yield lam, n, k, {mu: counts.get(mu, 0) for mu in mus}


def test_weight_counts_match_gessels_f_expansion_on_partitions():
    # [x^mu] of sum_alpha c_alpha F_alpha(x1..xk) is the sum of c_alpha over the
    # coarsenings alpha of mu, at sizes the polynomial does not reach
    cases = 0
    for lam, n, k, counts in weight_count_grid(13):
        terms = f_expansion(lam, n, k)
        for mu, count in counts.items():
            assert count == sum(terms.get(a, 0) for a in coarsenings(mu)), (lam, n, k, mu)
        cases += 1
    assert cases == 207


def test_weight_counts_match_sundarams_schur_expansion_on_partitions():
    # [x^mu] of sum_nu c_nu s_nu(x1..xk) is sum_nu c_nu K(nu, mu) over the nu of
    # at most k parts, with c_nu from Sundaram's LR sum and K from a Pieri walk
    cases = 0
    for lam, n, k, counts in weight_count_grid(15):
        coefficients = ssot_schur(lam, n).coefficients
        kostka_row = pieri_kostka(k)
        for mu, count in counts.items():
            assert count == sum(coefficients.get(nu, 0) * K for nu, K in kostka_row(mu).items()), (lam, n, k, mu)
        cases += 1
    assert cases == 243


def test_descent_count_edge_cases():
    assert f_expansion((), 0, 1) == {(): 1}
    assert ssot_poly((), 0, 3) == SparsePoly.one(3)
    assert f_expansion((1,), 0, 1) == {}
    # inadmissible parity or size: an empty answer, not an error
    assert f_expansion((2, 1), 4, 3) == {}
    assert f_expansion((2, 1), 1, 3) == {}
    assert ssot_poly((2, 1), 6, 3).is_zero()
    assert f_expansion((2, 1, 0), 5, 3) == f_expansion((2, 1), 5, 3)
    assert ssot_poly((2, 1, 0), 5, 3) == ssot_poly((2, 1), 5, 3)


def test_bad_queries_raise():
    for lam, n, bound in (
        ((2, 1), -1, 3),
        ((2, 1), 5, 0),
        ((1, 2), 5, 3),
        ((2, -1), 5, 3),
        ((True,), 1, 2),
        ((1,), 3.0, 2),
        ((1,), 3, 2.0),
    ):
        with pytest.raises(ValueError):
            f_expansion(lam, n, bound)
        with pytest.raises(ValueError):
            ssot_poly(lam, n, bound)


WRONG_TYPES = {
    "ssot_schur": lambda: ssot_schur(None, 2),
    "ssot_poly": lambda: ssot_poly(None, 2, 2),
    "f_expansion": lambda: f_expansion(None, 2, 2),
    "enumerate_ssot": lambda: enumerate_ssot(None, 2, 2),
    "v_set": lambda: shapes.v_set(None, 2),
    "hall_inner": lambda: analysis.hall_inner(None, None, 2),
    "n_zero": lambda: analysis.n_zero(None, None),
    "lr_product": lambda: tableaux.lr_product(None, None),
    "run_of": lambda: oscillating.run_of(None),
    "descent_data": lambda: descent_data(None),
    "standardize": lambda: oscillating.standardize(None),
    "sundaram": lambda: correspondences.sundaram(None),
    "has_snp": lambda: analysis.has_snp(None),
    "schur_expand": lambda: schur_expand(None),
    "replay_events_strings": lambda: oscillating.replay_events([("a", "b")], ["add"]),
    "replay_events_none": lambda: oscillating.replay_events([None], ["delete"]),
    "weight": lambda: weight(None),
    "row_word": lambda: tableaux.row_word(None),
    "tableau_shape": lambda: tableaux.tableau_shape(None),
    "superstandard": lambda: tableaux.superstandard(None),
    "is_vertical_strip": lambda: shapes.is_vertical_strip((1,), (1.5,)),
    "column_insert": lambda: tableaux.column_insert(None, 1),
    "SparsePoly.one": lambda: SparsePoly.one(None),
    "SparsePoly.variable": lambda: SparsePoly.variable(0, None),
    "SparsePoly.truncated_mul_other": lambda: SparsePoly(2, {(1, 0): 1}).truncated_mul(None, 2),
    "SparsePoly.truncated_mul_maxdeg": lambda: SparsePoly(2, {(1, 0): 1}).truncated_mul(SparsePoly(2), "3"),
    "SparsePoly.evaluate": lambda: SparsePoly(2, {(1, 0): 1}).evaluate(("a", "b")),
}


@pytest.mark.parametrize("call", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_arguments_of_the_wrong_type_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_operators_on_a_non_polynomial_raise_type_error():
    f = SparsePoly(2, {(1, 0): 1})
    for call in (lambda: f * 3, lambda: f + 3, lambda: f - None):
        with pytest.raises(TypeError):
            call()


def test_gessel_expansion_of_schur():
    for m in range(1, 6):
        for lam in partitions_of(m):
            k = m
            total = SparsePoly(k)
            for T in enumerate_syt(lam):
                total = total + fundamental_qsym(des_syt(T), k)
            assert total == schur_poly(lam, k), lam


def test_littlewood_truncated():
    assert littlewood_truncated(2, 4) == poly_from_pairs(
        2, {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    )
    assert littlewood_truncated(3, 2) == poly_from_pairs(
        3, {(0, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    )
    assert littlewood_truncated(1, 5) == SparsePoly.one(1)
    for k in (-1, 0, 2.0, "3", True, False):
        with pytest.raises(ValueError, match="k must be"):
            littlewood_truncated(k, 2)
    for maxdeg in (-1, 2.0, "3", True):
        with pytest.raises(ValueError, match="maxdeg must be"):
            littlewood_truncated(2, maxdeg)


def test_pair_series_product_low_variable_counts():
    # the full generating function factors through the truncated pair series
    for k in (1, 2):
        for lam in ((1,), (1, 1)):
            maxdeg = sum(lam) + 4
            total = SparsePoly(k)
            for n in range(sum(lam), maxdeg + 1):
                total = total + ssot_poly(lam, n, k)
            rhs = littlewood_truncated(k, maxdeg - sum(lam)).truncated_mul(
                schur_poly(lam, k) if len(lam) <= k else SparsePoly(k), maxdeg
            )
            assert total == rhs, (lam, k)


def test_littlewood_equals_even_conjugate_schur_sum():
    for k in range(1, 4):
        for d in range(7):
            total = SparsePoly(k)
            for size in range(0, d + 1, 2):
                for beta in _even_conjugate_partitions(size):
                    total = total + schur_poly(beta, k)
            assert littlewood_truncated(k, d) == total, (k, d)


def test_is_symmetric():
    assert is_symmetric(ssot_poly((2, 1), 5, 3))
    assert not is_symmetric(poly_from_pairs(2, {(2, 1): 1}))
    assert not is_symmetric(monomial_qsym((2, 1), 3))
    assert is_symmetric(SparsePoly.zero(3))
    assert is_symmetric(SparsePoly(0, {(): 5}))
    # only the swap of x_1 and x_3 moves the term with coefficient 2 onto its sorted exponent
    lopsided = {exp: 1 for exp in permutations((2, 1, 0))}
    lopsided[(0, 1, 2)] = 2
    assert not is_symmetric(SparsePoly(3, lopsided))
    # invariant under the swaps of x_1, x_2 and of x_3, x_4, not under that of x_2, x_3
    assert not is_symmetric(poly_from_pairs(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}))
    # every coefficient matches its sorted exponent's, but an orbit lacks a term
    assert not is_symmetric(poly_from_pairs(3, {(1, 0, 0): 1, (0, 1, 0): 1}))
    assert not is_symmetric(schur_poly((2, 1), 3) - poly_from_pairs(3, {(0, 1, 2): 1}))
    assert is_symmetric(schur_poly((2, 1), 3) + monomial_qsym((1, 1, 1), 3))


def test_ssot_poly_symmetric_small():
    for m in range(4):
        for lam in partitions_of(m):
            for n in range(m, m + 5):
                if not _in_N(lam, n):
                    continue
                for k in range(1, 5):
                    assert is_symmetric(ssot_poly(lam, n, k)), (lam, n, k)


def test_schur_expand():
    assert schur_expand(schur_poly((2, 1), 4)) == {(2, 1): 1}
    assert schur_expand(ssot_poly((2, 1), 5, 5)) == {
        (3, 2): 1,
        (3, 1, 1): 1,
        (2, 2, 1): 1,
        (2, 1, 1, 1): 1,
    }
    square = schur_poly((1,), 2) * schur_poly((1,), 2)
    assert schur_expand(square) == {(2,): 1, (1, 1): 1}
    assert schur_expand(SparsePoly.zero(3)) == {}
    assert schur_expand(SparsePoly(0, {(): 3})) == {(): 3}


def test_schur_expand_unit_vectors():
    for m in range(1, 6):
        for nu in partitions_of(m):
            assert schur_expand(schur_poly(nu, m)) == {nu: 1}


def test_schur_expand_matches_lr_layer_in_few_variables():
    # in k variables the weight count's polynomial keeps the LR coefficients
    # of the nu with at most k parts: the OT table count against Sundaram's
    # LR sum, up to n = 9 in n variables
    cases = 0
    for m in range(6):
        for lam in partitions_of(m):
            for n in range(m, 10, 2):
                want = ssot_schur(lam, n).coefficients
                for k in sorted({1, 2, 3, n} - {0}):
                    cut = {nu: c for nu, c in want.items() if len(nu) <= k}
                    assert schur_expand(ssot_poly(lam, n, k)) == cut, (lam, n, k)
                    cases += 1
    assert cases == 255


def test_schur_expand_errors():
    with pytest.raises(ValueError):
        schur_expand(poly_from_pairs(2, {(2, 1): 1}))  # not symmetric
    # fewer variables than the degree: the s_nu with at most nvars parts are a basis
    assert schur_expand(schur_poly((2, 1), 2)) == {(2, 1): 1}
    mixed = SparsePoly.one(2) + schur_poly((1,), 2)
    with pytest.raises(ValueError):
        schur_expand(mixed)


def test_schur_expand_lists_only_partitions_in_nvars_parts():
    # x1^200 + x2^200 = s_(200) - s_(199,1); listing every partition of 200 would exhaust memory
    assert schur_expand(SparsePoly(2, {(200, 0): 1, (0, 200): 1})) == {(200,): 1, (199, 1): -1}


def test_lr_polynomial_oracle():
    # products of small Schur polynomials expand with LR multiplicities
    from oscitab.tableaux import lr_coefficient

    for total_size in range(1, 6):
        for a in range(total_size + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(total_size - a):
                    k = total_size
                    prod = schur_poly(lam, k) * schur_poly(mu, k)
                    expected = SparsePoly(k)
                    for nu in partitions_of(total_size):
                        c = lr_coefficient(lam, mu, nu)
                        if c:
                            expected = expected + schur_poly(nu, k).scale(c)
                    assert prod == expected, (lam, mu)


def test_composition_keys_are_trimmed():
    for a in f_expansion((2, 1), 5, 3):
        assert a == trim(a) and all(p > 0 for p in a)
