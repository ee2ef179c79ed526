import dataclasses
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest

from oscitab.analysis import (
    _permutahedron_points,
    _rado_partitions,
    hall_inner,
    has_snp,
    in_convex_hull,
    independence_rank,
    n_similar,
    n_zero,
    rational_rank,
    ssot_schur,
)
from oscitab.polyring import SparsePoly, _orbit_size, _rearrangements, schur_expand, ssot_poly
from oscitab.shapes import _part, _weak_refinements, conjugate, dominance_leq, lambda_bar, partitions_of, trim, v_set
from oscitab.tableaux import lr_coefficient, lr_product


def test_ssot_schur_paper_example():
    expansion = ssot_schur((2, 1), 5)
    assert expansion.degree == 5
    assert expansion.coefficients == {
        (3, 2): 1,
        (3, 1, 1): 1,
        (2, 2, 1): 1,
        (2, 1, 1, 1): 1,
    }
    with pytest.raises(AttributeError):
        expansion.degree = 7
    with pytest.raises(TypeError):
        expansion.coefficients[(5,)] = 9
    with pytest.raises(TypeError):
        del expansion.coefficients[(3, 2)]


def test_schur_expansions_hash_by_value():
    a, b = ssot_schur((2, 1), 5), ssot_schur((2, 1), 5)
    assert a == b and a is not b and hash(a) == hash(b)
    c = ssot_schur((1, 1, 1), 5)
    table = {a: "a", c: "c"}
    assert table[b] == "a" and len({a, b, c}) == 2


def test_ssot_schur_trivial_degree():
    for lam in ((), (1,), (3, 1), (2, 2)):
        assert ssot_schur(lam, sum(lam)).coefficients == {lam: 1}
    for lam, n in (((2, 1), 4), ((1,), True), ((1,), 3.0)):
        with pytest.raises(ValueError):
            ssot_schur(lam, n)


def test_ssot_schur_algebraic_oracle_single_row():
    expansion = ssot_schur((1,), 3)
    assert expansion.coefficients == schur_expand(ssot_poly((1,), 3, 3))


def test_ssot_schur_algebraic_oracle_exhaustive():
    # combinatorial LR sums against the generating functions; ssot_poly is
    # built from the OT descent-count DP, so this is not a check against
    # brute force (test_polyring compares the DP with the enumerators)
    for m in range(4):
        for lam in partitions_of(m):
            for n in range(m, m + 5, 2):
                combinatorial = ssot_schur(lam, n).coefficients
                algebraic = schur_expand(ssot_poly(lam, n, n if n else 1))
                assert combinatorial == algebraic, (lam, n)


def test_ssot_schur_support_and_top_coefficient():
    for m in range(4):
        for lam in partitions_of(m):
            for n in range(m, m + 5, 2):
                coeffs = ssot_schur(lam, n).coefficients
                reachable = set(v_set(lam, n))
                bar = lambda_bar(lam, n)
                assert set(coeffs) <= reachable
                assert coeffs[bar] == 1
                for nu in coeffs:
                    assert dominance_leq(nu, bar)


def test_hall_inner_examples():
    assert hall_inner((3,), (1, 1, 1), 5) == 0
    assert hall_inner((2, 1), (2, 1), 5) == 4
    assert hall_inner((2, 1), (2, 1), 3) == 1
    assert hall_inner((3,), (3,), 3) == 1
    with pytest.raises(ValueError):
        hall_inner((2,), (1, 1, 1), 5)
    with pytest.raises(ValueError):
        hall_inner((3,), (1, 1, 1), 4)
    with pytest.raises(ValueError):
        hall_inner((1,), (1,), 3.0)


def test_non_partition_shapes_raise():
    with pytest.raises(ValueError):
        ssot_schur((1, 2), 5)
    with pytest.raises(ValueError):
        hall_inner((1, 2), (2, 1), 5)
    with pytest.raises(ValueError):
        hall_inner((2, 1), (0, 3), 5)
    assert ssot_schur((2, 1, 0), 5) == ssot_schur((2, 1), 5)


def test_similarity():
    assert n_similar((3,), (1, 1, 1), 7)
    assert not n_similar((3,), (1, 1, 1), 5)
    assert n_zero((3,), (1, 1, 1)) == 7
    assert n_zero((2, 1), (2, 1)) == 3
    assert n_zero((), ()) == 0
    assert n_zero([3, 0], (1, 1, 1)) == 7 and n_similar([3], (1, 1, 1, 0), 7)
    for call in (n_zero, lambda lam, mu: n_similar(lam, mu, 5), lambda lam, mu: hall_inner(lam, mu, 5)):
        for lam, mu in (((2,), (1,)), ((1, 2), (2, 1)), ((2, 1), None), ((3,), (1, 1, 1.0))):
            with pytest.raises(ValueError):
                call(lam, mu)


def n_zero_by_search(lam, mu):
    """The first admissible length at which the two ``v_set``s meet, the oracle of ``n_zero`` and ``n_similar``."""
    n = sum(lam)
    while not set(v_set(lam, n)) & set(v_set(mu, n)):
        n += 2
    return n


def test_similarity_closed_forms_match_the_search():
    # n_zero by its formula and n_similar by its threshold, on every pair of equal size <= 7
    cases = 0
    for m in range(8):
        for lam in partitions_of(m):
            for mu in partitions_of(m):
                n0 = n_zero_by_search(lam, mu)
                assert n_zero(lam, mu) == n0, (lam, mu)
                for n in range(n0 + 5):
                    assert n_similar(lam, mu, n) == bool(set(v_set(lam, n)) & set(v_set(mu, n))), (lam, mu, n)
                cases += 1
    assert cases == 435


def test_similarity_threshold_of_a_row_and_a_column():
    # the search took seconds on shapes of this size; the formula is immediate
    assert n_zero((30,), (1,) * 30) == 88
    assert n_similar((30,), (1,) * 30, 88)
    assert not n_similar((30,), (1,) * 30, 86)


def test_hall_positive_implies_similar():
    # Schur supports sit inside the reachable sets, so positivity forces a
    # common reachable shape; the converse is false (see the pin below).
    for m in range(1, 4):
        shapes = partitions_of(m)
        for lam, mu in combinations_with_replacement(shapes, 2):
            for n in range(m, m + 5, 2):
                if hall_inner(lam, mu, n) > 0:
                    assert n_similar(lam, mu, n)


def test_similarity_does_not_force_positivity():
    # (3) and (1,1,1) share reachable shapes at length 7, e.g. (3,2,2), yet no
    # even-conjugate beta of size 4 has a positive LR coefficient into any
    # shared shape, so the pairing first turns positive at length 9.  The
    # reachability threshold is a lower bound for positivity, not equal to it.
    assert n_similar((3,), (1, 1, 1), 7)
    assert hall_inner((3,), (1, 1, 1), 7) == 0
    assert hall_inner((3,), (1, 1, 1), 9) == 1
    assert n_similar((4,), (2, 1, 1), 8)
    assert hall_inner((4,), (2, 1, 1), 8) == 0


def schur_items_by_lr_coefficient(lam, n):
    """Sundaram's expansion by a loop over every nu of n, one LR count per (beta, nu)."""
    betas = [
        beta
        for beta in partitions_of(n - sum(lam))
        if all(c % 2 == 0 for c in conjugate(beta))
    ]
    items = []
    for nu in partitions_of(n):
        c = sum(lr_coefficient(beta, lam, nu) for beta in betas)
        if c:
            items.append((nu, c))
    return items


def test_ssot_schur_matches_lr_coefficient_loop():
    cases = [
        (lam, n)
        for m in range(5)
        for lam in partitions_of(m)
        for n in range(m, 13, 2)
    ]
    # |lam| > n - |lam| puts beta's boxes onto lam instead
    cases += [(lam, m + 2) for m in range(5, 8) for lam in partitions_of(m)]
    for lam, n in cases:
        expansion = ssot_schur(lam, n)
        assert list(expansion.coefficients.items()) == schur_items_by_lr_coefficient(lam, n), (lam, n)


def hook_length_count(nu):
    """f^nu, the number of standard tableaux of shape nu, by the hook-length formula."""
    cols = conjugate(nu)
    hooks = 1
    for r, row in enumerate(nu):
        for c in range(row):
            hooks *= row - c + cols[c] - r - 1
    return factorial(sum(nu)) // hooks


def test_lr_product_counts_standard_tableaux():
    # s_mu * s_lam read at the standard tableaux: sum_nu c(mu, lam; nu) f^nu
    # interleaves a standard filling of mu with one of lam, for every mu of up
    # to 10 boxes and lam of up to 6, sizes no LR filling listing reaches
    f = {nu: hook_length_count(nu) for m in range(17) for nu in partitions_of(m)}
    for mu in (mu for m in range(11) for mu in partitions_of(m)):
        for lam in (lam for m in range(7) for lam in partitions_of(m)):
            count = sum(c * f[nu] for nu, c in lr_product(mu, lam).items())
            assert count == comb(sum(mu) + sum(lam), sum(lam)) * f[mu] * f[lam], (mu, lam)


def oscillating_walk_counts(n, top):
    """Per length t <= n, the number of walks from () by one-box moves that end at each shape.

    Only walks that can still end at ``top`` boxes or fewer at length n are
    kept: at length t they have at most top + n - t boxes.
    """
    layer = {(): 1}
    counts = [layer]
    for t in range(1, n + 1):
        nxt = {}
        for shape, c in layer.items():
            padded = shape + (0,)
            for i, p in enumerate(padded):
                moves = []
                if i == 0 or padded[i - 1] > p:  # row i takes a box
                    moves.append(padded[:i] + (p + 1,) + padded[i + 1 :])
                if p > _part(padded, i + 1):  # row i gives one up
                    moves.append(padded[:i] + (p - 1,) + padded[i + 1 :])
                for new in map(trim, moves):
                    if sum(new) <= top + n - t:
                        nxt[new] = nxt.get(new, 0) + c
        layer = nxt
        counts.append(layer)
    return counts


def test_ssot_schur_counts_oscillating_walks():
    # Sundaram's sum read at x1...xn: sum_nu c_nu f^nu oscillating tableaux of
    # shape lam and length n, counted here by one-box moves from ()
    walks = oscillating_walk_counts(22, 4)
    cases = 0
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(m, 23, 2):
                coefficients = ssot_schur(lam, n).coefficients
                count = sum(c * hook_length_count(nu) for nu, c in coefficients.items())
                assert count == walks[n].get(lam, 0), (lam, n)
                cases += 1
    assert cases == 125


def fraction_rank(matrix):
    """Gauss-Jordan rank over Fraction."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_rational_rank_matches_fraction_oracle():
    rng = random.Random(2611)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        inner = rng.randint(1, min(nrows, ncols))
        # a product of nrows x inner and inner x ncols factors has rank <= inner
        left = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(inner)]
        for j in rng.sample(range(ncols), rng.randint(0, ncols - 1)):
            for row in right:
                row[j] = 0
        matrix = [
            [sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left
        ]
        assert rational_rank(matrix) == fraction_rank(matrix), matrix
        full = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        assert rational_rank(full) == fraction_rank(full), full
    # rank-deficient products of up to 12 x 15 with factor entries up to 10^6
    for _ in range(40):
        nrows, ncols = rng.randint(2, 12), rng.randint(2, 15)
        inner = rng.randint(1, min(nrows, ncols) - 1)
        left = [[rng.randint(-10**6, 10**6) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(ncols)] for _ in range(inner)]
        matrix = [
            [sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left
        ]
        assert rational_rank(matrix) == fraction_rank(matrix) <= inner, matrix


@pytest.mark.parametrize(
    "matrix,rank",
    [
        # the second row becomes zero at the first pivot, with columns still to go
        ([[2, 1, 0], [4, 2, 0], [0, 0, 3]], 2),
        # the third row becomes zero at the second pivot
        ([[1, 2, 3], [0, 1, 1], [1, 3, 4]], 2),
        ([[1, 2, 3, 4], [2, 4, 6, 8], [1, 2, 3, 5], [0, 0, 0, 7]], 2),
        # negative pivots
        ([[-3, 1], [2, 5]], 2),
        ([[-2, 4, 6], [-1, 2, 3], [5, -1, -7]], 2),
        ([[0, -5, 1], [-7, 2, 2], [7, 3, -3]], 2),
        # an all-zero first column, and zero columns between the pivots
        ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 2),
        ([[0, 0, 3, 0, 1], [0, 0, 6, 0, 2], [0, 0, 0, 0, 4]], 2),
        # rows that are primitive, and rows whose content is more than 1
        ([[1, 2, 3], [2, 3, 5], [3, 5, 8]], 2),
        ([[6, 4, 2], [9, 6, 3], [10, 0, 5]], 2),
        ([[6, 10, 14], [3, 5, 8], [12, 20, 28]], 2),
        ([[4, 8], [6, 10]], 2),
        ([[12, 18, 30], [8, 12, 21], [20, 30, 51]], 2),
    ],
)
def test_rational_rank_edge_cases(matrix, rank):
    assert rational_rank(matrix) == fraction_rank(matrix) == rank
    transpose = [list(col) for col in zip(*matrix)]
    assert rational_rank(transpose) == fraction_rank(transpose) == rank


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 2], [3]],
        [[1], [2, 3]],
        [[1, 2], []],
        [[1, 0.5]],
        [[Fraction(1, 2)]],
        [[True, 0]],
        [["1"]],
        [1, 2],
    ],
)
def test_rational_rank_rejects_bad_input(matrix):
    with pytest.raises(ValueError):
        rational_rank(matrix)


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([]) == 0
    assert rational_rank([[2, 3, 5], [4, 6, 10], [1, 1, 1]]) == 2


def test_independence_matrix_is_in_echelon_form_with_unit_pivots():
    # row lam's lex-largest nu is lam + (j, j), with coefficient c(lam, (j, j); lam + (j, j)) = 1
    # independence_rank keeps only the columns that some row holds; its rank
    # must be that of this dense build over every partition of n
    for m in range(8):
        lams = partitions_of(m)
        for n in range(m, m + 11, 2):
            j = (n - m) // 2
            index = {nu: i for i, nu in enumerate(partitions_of(n))}
            leads, matrix = [], []
            for lam in lams:
                row = [0] * len(index)
                for nu, c in ssot_schur(lam, n).coefficients.items():
                    row[index[nu]] = c
                lead = next(i for i, c in enumerate(row) if c)
                assert lead == index[trim((_part(lam, 0) + j, _part(lam, 1) + j, *lam[2:]))], (lam, n)
                assert row[lead] == 1, (lam, n)
                leads.append(lead)
                matrix.append(row)
            assert all(a < b for a, b in zip(leads, leads[1:])), (m, n)
            assert independence_rank(m, n) == rational_rank(matrix) == len(lams), (m, n)


def test_independence_rank_examples():
    assert independence_rank(3, 5) == 3
    assert independence_rank(1, 1) == 1
    assert independence_rank(4, 6) == 5
    assert independence_rank(6, 30) == 11  # 3,645 of the p(30) = 5,604 partitions of 30 occur
    for m, n in ((3, 4), (-1, 1), (-2, 0), (2, 4.0), (2.0, 4), (True, 1), (2, True)):
        with pytest.raises(ValueError):
            independence_rank(m, n)
    # the message names the size and the length, not a shape of the size's boxes
    for m, n in ((2, 1), (3, -1), (3, 4)):
        with pytest.raises(ValueError, match=rf"^length {n} not admissible for size {m}: "):
            independence_rank(m, n)


def test_in_convex_hull():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert in_convex_hull((1, 1), square)
    assert in_convex_hull((2, 2), square)
    assert not in_convex_hull((3, 0), square)
    assert in_convex_hull((1, 0), [(0, 0), (2, 0)])
    assert not in_convex_hull((1, 1), [(0, 0), (2, 0)])
    assert in_convex_hull((5,), [(5,)])
    assert not in_convex_hull((4,), [(5,)])
    for point, points in (((1,), [(1, 5)]), ((1, 2), [(1,)]), ((1, 1), [(0, 0), (2, 2, 0)])):
        with pytest.raises(ValueError):
            in_convex_hull(point, points)


def test_hull_contains_own_support():
    f = ssot_poly((2,), 4, 3)
    support = list(f.terms)
    for point in support:
        assert in_convex_hull(point, support)


def test_scaled_simplex_lattice_count():
    # conv{(0,0),(3,0),(0,3)} holds the 10 staircase points
    corners = [(0, 0), (3, 0), (0, 3)]
    points = [
        (a, b) for a in range(4) for b in range(4) if in_convex_hull((a, b), corners)
    ]
    assert len(points) == 10
    # a primitive segment has no interior lattice points
    segment = [(0, 0), (7, 5)]
    hits = [
        (a, b)
        for a in range(8)
        for b in range(6)
        if in_convex_hull((a, b), segment)
    ]
    assert hits == [(0, 0), (7, 5)]
    # tetrahedron of side 5: all 56 points with coordinate sum at most 5
    corners3 = [(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5)]
    count = sum(
        1
        for a in range(6)
        for b in range(6)
        for c in range(6)
        if a + b + c <= 5 and in_convex_hull((a, b, c), corners3)
    )
    assert count == 56


def test_has_snp_examples():
    check = has_snp(ssot_poly((2, 1), 5, 3))
    assert check.snp
    assert set(check.support) == set(check.polytope_points)
    with pytest.raises(AttributeError):
        check.snp = False
    assert not dataclasses.replace(check, snp=False).snp

    assert has_snp(SparsePoly(2, {(2, 1): 1})).snp

    negative = has_snp(SparsePoly(2, {(2, 0): 1, (0, 2): 1}))
    assert not negative.snp
    assert (1, 1) in negative.polytope_points

    with pytest.raises(ValueError):
        has_snp(SparsePoly.zero(2))


def test_has_snp_non_homogeneous():
    # 1 + x^2 misses the hull point x
    f = SparsePoly(1, {(0,): 1, (2,): 1})
    check = has_snp(f)
    assert not check.snp
    assert (1,) in check.polytope_points


def _lp_points(f):
    # lattice points of the hull by the LP; a support point lies in its own
    # hull, so only the other points need a simplex
    support = list(f.terms)
    return tuple(
        p
        for p in _weak_refinements(trim((f.degree(),)), f.nvars)
        if p in f.terms or in_convex_hull(p, support)
    )


def _rule(f):
    """Rado's rule on the sorted exponents of ``f``'s support, as ``has_snp`` applies it."""
    return _rado_partitions({tuple(sorted(e, reverse=True)) for e in f.terms}, len(f.terms))


def _orbits(*shapes):
    """The polynomial with coefficient 1 at every rearrangement of each weakly decreasing shape."""
    memo = {}
    return SparsePoly(len(shapes[0]), {p: 1 for mu in shapes for p in _rearrangements(mu, memo)})


def test_rado_partitions_match_a_dominance_filter():
    # the partitions built part by part against a filter over every partition
    # of the degree, for each top of degree <= 9 padded to 1..5 parts
    for d in range(10):
        for top in partitions_of(d):
            for nvars in range(max(len(top), 1), 6):
                pad = top + (0,) * (nvars - len(top))
                want = [
                    p + (0,) * (nvars - len(p))
                    for p in partitions_of(d)
                    if len(p) <= nvars and dominance_leq(p, top)
                ]
                assert _rado_partitions({pad}, _orbit_size(pad)) == want, (top, nvars)
    assert _rado_partitions({()}, 1) == [()]


def test_permutahedron_points_match_a_weak_composition_filter():
    # the rearrangements of the partitions below each top of degree <= 8 in
    # 1..5 variables, and of the two-variable tops (199, 1) and (150, 50),
    # against the weak compositions whose sorted form the top dominates,
    # order included: the simplex tops (d, 0, ..., 0) and the rest
    pads = [
        top + (0,) * (nvars - len(top))
        for d in range(9)
        for top in partitions_of(d)
        for nvars in range(max(len(top), 1), 6)
    ]
    for pad in pads + [(199, 1), (150, 50)]:
        top = trim(pad)
        want = tuple(
            p
            for p in _weak_refinements(trim((sum(pad),)), len(pad))
            if dominance_leq(trim(tuple(sorted(p, reverse=True))), top)
        )
        assert _permutahedron_points(_rado_partitions({pad}, _orbit_size(pad))) == want, pad


def test_rado_partitions_need_closure_and_a_top():
    # one point short of the orbit of (2,1,0), and one point more
    assert _rado_partitions({(2, 1, 0)}, 5) is None
    assert _rado_partitions({(2, 1, 0)}, 7) is None
    # the orbits of (3,3,0) and (4,1,1): neither dominates the other
    assert _rado_partitions({(3, 3, 0), (4, 1, 1)}, 6) is None
    assert _rado_partitions({(4, 1, 1), (3, 2, 1), (2, 2, 2)}, 10) == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]


def test_has_snp_permutahedron_matches_lp():
    # Rado's rule against one phase-one simplex per lattice point, order
    # included, on every nonzero small SSOT polynomial
    cases = 0
    for m in range(4):
        for lam in partitions_of(m):
            for n in range(m, m + 5, 2):
                for k in range(1, 5):
                    f = ssot_poly(lam, n, k)
                    if f.is_zero():
                        continue
                    partitions = _rule(f)
                    assert partitions is not None
                    check = has_snp(f)
                    assert check.polytope_points == _permutahedron_points(partitions) == _lp_points(f), (lam, n, k)
                    assert check.snp, (lam, n, k)
                    cases += 1
    assert cases == 64
    # a symmetric support decides the polytope whatever the coefficients
    f = SparsePoly(2, {(2, 0): 1, (0, 2): 3})
    assert has_snp(f).polytope_points == _lp_points(f) == ((2, 0), (1, 1), (0, 2))
    # symmetric supports that miss lattice points of their permutahedron:
    # x1^3 + x2^3 + x3^3, and the orbit of (2,1,0) without (1,1,1)
    for f in (_orbits((3, 0, 0)), _orbits((2, 1, 0))):
        check = has_snp(f)
        assert _rule(f) is not None
        assert check.polytope_points == _lp_points(f), f
        assert not check.snp, f
    assert len(has_snp(_orbits((3, 0, 0))).polytope_points) == 10


def test_has_snp_lists_the_permutahedron_not_the_partitions_of_the_degree():
    # p(200) is about 4 * 10**12; the segment from (200,0) to (0,200) holds 201 points
    check = has_snp(SparsePoly(2, {(200, 0): 1, (0, 200): 1}))
    assert check.polytope_points == tuple((200 - i, i) for i in range(201))
    assert not check.snp


def test_has_snp_fallbacks_match_lp():
    not_symmetric = SparsePoly(2, {(2, 1): 1})
    # the orbits of (3,3,0) and (4,1,1): neither shape dominates the other
    no_top = SparsePoly(
        3,
        {(3, 3, 0): 1, (3, 0, 3): 1, (0, 3, 3): 1, (4, 1, 1): 1, (1, 4, 1): 1, (1, 1, 4): 1},
    )
    for f in (not_symmetric, no_top):
        assert _rule(f) is None
        assert has_snp(f).polytope_points == _lp_points(f)
    check = has_snp(no_top)
    assert (2, 2, 2) in check.polytope_points and not check.snp
    # non-homogeneous: the LP runs over the bounding box of the support
    f = SparsePoly(2, {(0, 0): 1, (1, 1): 1, (2, 0): 1, (0, 2): 1})
    box = [(a, b) for a in range(3) for b in range(3)]
    check = has_snp(f)
    assert check.polytope_points == tuple(p for p in box if in_convex_hull(p, f.terms))
    assert (1, 0) in check.polytope_points and not check.snp


def test_has_snp_few_variables():
    check = has_snp(SparsePoly(0, {(): 5}))
    assert check.polytope_points == _lp_points(SparsePoly(0, {(): 5})) == ((),)
    assert check.snp
    check = has_snp(SparsePoly(1, {(4,): 1}))
    assert check.polytope_points == _lp_points(SparsePoly(1, {(4,): 1})) == ((4,),)
    assert check.snp


def test_threshold_shape_small():
    # unique switch point: pairings are zero up to some length, positive after,
    # and never positive before the reachability threshold
    for m in range(1, 4):
        shapes = partitions_of(m)
        for lam, mu in combinations_with_replacement(shapes, 2):
            n0 = n_zero(lam, mu)
            flags = []
            for n in range(m, m + 7, 2):
                value = hall_inner(lam, mu, n)
                if n < n0:
                    assert value == 0, (lam, mu, n)
                flags.append(value > 0)
            assert flags == sorted(flags), (lam, mu)
