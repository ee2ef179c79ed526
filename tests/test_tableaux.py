import random
from itertools import product

import pytest

from oscitab.shapes import _even_conjugate_partitions, _is_partition, _northeast, partitions_of, v_set
from oscitab.tableaux import (
    EMPTY,
    _lr_strips,
    check_tableau,
    column_insert,
    column_unbump,
    des_syt,
    enumerate_syt,
    insertion_tableau,
    is_reverse_yamanouchi,
    is_semistandard,
    is_standard,
    lr_coefficient,
    lr_product,
    lr_tableaux,
    product as tab_product,
    row_insert,
    row_word,
    ssyt_of_shape,
    standard_horizontal_bands,
    step_syt,
    superstandard,
    tableau_shape,
    weight,
)


def random_tableau(rng, max_boxes=8, max_entry=6):
    word = [rng.randint(1, max_entry) for _ in range(rng.randint(0, max_boxes))]
    return insertion_tableau(word)


def corners(shape):
    return [
        (i + 1, shape[i])
        for i in range(len(shape))
        if i + 1 == len(shape) or shape[i] > shape[i + 1]
    ]


def test_row_insert():
    assert row_insert(EMPTY, 5) == (((5,),), (1, 1))
    assert insertion_tableau((4, 7, 4, 2, 3, 2)) == ((2, 2), (3, 4), (4,), (7,))
    assert row_insert(((1, 3),), 2) == (((1, 2), (3,)), (2, 1))


def test_column_insert():
    assert column_insert(((1, 2), (4, 5), (6, 7)), 3) == (
        ((1, 2, 5), (3, 4), (6, 7)),
        (1, 3),
    )
    assert column_insert(EMPTY, 1) == (((1,),), (1, 1))
    T, _ = column_insert(EMPTY, 1)
    T, box = column_insert(T, 2)
    assert T == ((1,), (2,)) and box == (2, 1)


def test_column_unbump():
    assert column_unbump(((1, 2, 5), (3, 4), (6, 7)), (1, 3)) == (
        ((1, 2), (4, 5), (6, 7)),
        3,
    )
    assert column_unbump(((5,),), (1, 1)) == (EMPTY, 5)
    assert column_unbump(((1, 2), (2,)), (1, 2)) == (((1,), (2,)), 2)
    with pytest.raises(ValueError):
        column_unbump(((1, 2), (2,)), (2, 2))
    for box in ((-1, 2), (0, 2), (1, 0), (1, -1), (2, 1)):
        with pytest.raises(ValueError):
            column_unbump(((1, 2),), box)
    for box in ((2, -1), (1, -1), (2, 0)):
        with pytest.raises(ValueError):
            column_unbump(((1, 2), (3,)), box)


def test_check_tableau_rejects_non_integer_entries():
    for T in ([[True, 2]], [[1, 2.0]], [[1], ["2"]], [[1, 2], [False]]):
        assert not is_semistandard(T)
        with pytest.raises(ValueError):
            check_tableau(T)


def is_semistandard_by_rows(T):
    """The row-by-row definition, the oracle of ``is_semistandard``."""
    shape = tuple(len(row) for row in T)
    if not _is_partition(shape):
        return False
    for row in T:
        if any(type(x) is not int or x < 1 for x in row):
            return False
        if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(T) - 1):
        if any(T[i][j] >= T[i + 1][j] for j in range(len(T[i + 1]))):
            return False
    return True


def test_is_semistandard_matches_row_oracle():
    shapes = [(), (1,), (2,), (1, 1), (2, 1), (1, 2), (3,), (2, 2), (1, 1, 1), (2, 0), (0,), (3, 1), (2, 1, 1), (1, 2, 1)]
    entries = (0, 1, 2, 3, True, 1.0)
    checked = accepted = 0
    for shape in shapes:
        for cells in product(entries, repeat=sum(shape)):
            it = iter(cells)
            T = tuple(tuple(next(it) for _ in range(p)) for p in shape)
            expected = is_semistandard_by_rows(T)
            assert is_semistandard(T) == expected, T
            assert is_semistandard([list(row) for row in T]) == expected, T
            if expected:
                assert check_tableau(T) == T
                accepted += 1
            else:
                with pytest.raises(ValueError):
                    check_tableau(T)
            checked += 1
    assert checked == 6164
    assert accepted > 0


@pytest.mark.parametrize("T", [5, None, 2.5, [[1, 2], 3], [(1,), None], ((1, 2), 3.0)])
def test_tableau_input_that_is_not_rows_is_rejected(T):
    assert is_semistandard(T) is False
    with pytest.raises(ValueError):
        check_tableau(T)


def test_weight_rejects_entries_above_nvars():
    assert weight(((1, 3),), 3) == (1, 0, 1)
    for T, nvars in ((((3,),), 2), (((1,), (2.0,)), 2), (((0,),), 2), (((1,),), 2.0), ((), -1)):
        with pytest.raises(ValueError):
            weight(T, nvars)


def test_insertions_reject_letters_below_1():
    for x in (0, -3, 2.5, True):
        with pytest.raises(ValueError):
            column_insert(((1, 2),), x)
        with pytest.raises(ValueError):
            row_insert(((1, 2),), x)
        with pytest.raises(ValueError):
            insertion_tableau((2, x, 1))


def test_insertion_tableau_is_the_fold_of_row_insert():
    for length in range(7):
        for word in product(range(1, 5), repeat=length):
            T = EMPTY
            for x in word:
                T, _ = row_insert(T, x)
            assert insertion_tableau(word) == T


def test_column_round_trip_random():
    rng = random.Random(94)
    checked = 0
    while checked < 500:
        T = random_tableau(rng)
        if not T:
            continue
        for box in corners(tableau_shape(T)):
            smaller, cu = column_unbump(T, box)
            assert cu <= T[box[0] - 1][box[1] - 1]
            assert column_insert(smaller, cu) == (T, box)
            checked += 1


def test_column_bumping_lemma():
    rng = random.Random(27)
    for _ in range(500):
        T = random_tableau(rng)
        v, vp = rng.randint(1, 6), rng.randint(1, 6)
        T1, box1 = column_insert(T, v)
        _, box2 = column_insert(T1, vp)
        assert _northeast(box1, box2) == (vp <= v)


def test_column_inserting_increasing_values_adds_vertical_strip():
    # increasing insertion order corresponds to a strictly decreasing column word
    rng = random.Random(7)
    for _ in range(300):
        T = random_tableau(rng)
        start = tableau_shape(T)
        values = sorted(rng.sample(range(1, 10), rng.randint(1, 4)))
        for v in values:
            T, _ = column_insert(T, v)
        end = tableau_shape(T)
        assert all(
            end[i] - (start[i] if i < len(start) else 0) <= 1 for i in range(len(end))
        )


def test_product():
    assert tab_product(EMPTY, ((1, 3), (2,))) == ((1, 3), (2,))
    assert tab_product(((2,), (3,)), superstandard((2, 1))) == superstandard((2, 2, 1))
    rng = random.Random(3)
    for _ in range(100):
        T1, T2 = random_tableau(rng), random_tableau(rng)
        prod = tab_product(T1, T2)
        assert is_semistandard(prod)
        assert weight(prod, 6) == tuple(
            a + b for a, b in zip(weight(T1, 6), weight(T2, 6))
        )


def test_product_associative():
    rng = random.Random(11)
    for _ in range(50):
        A, B, C = (random_tableau(rng, max_boxes=5) for _ in range(3))
        assert tab_product(tab_product(A, B), C) == tab_product(A, tab_product(B, C))


def test_product_with_superstandard_hits_v_set():
    # each nu in the degree-5 reachable set arises from exactly one column tableau
    targets = {}
    for T in ssyt_of_shape((1, 1), 5):
        result = tab_product(T, superstandard((2, 1)))
        for nu in v_set((2, 1), 5):
            if result == superstandard(nu):
                targets.setdefault(nu, []).append(T)
    assert set(targets) == set(v_set((2, 1), 5))
    assert all(len(ts) == 1 for ts in targets.values())


def test_superstandard():
    assert superstandard((2, 1)) == ((1, 1), (2,))
    assert superstandard(()) == EMPTY
    assert superstandard((3,)) == ((1, 1, 1),)


def test_is_reverse_yamanouchi():
    assert is_reverse_yamanouchi((2, 1))
    assert not is_reverse_yamanouchi((1, 2))
    assert is_reverse_yamanouchi(())
    for word in ((-1,), (0,), (1, 0), (2, 1, 1.0), (True,), ("a",), None):
        with pytest.raises(ValueError):
            is_reverse_yamanouchi(word)


def test_lr_coefficient():
    assert lr_coefficient((2, 1), (1, 1), (2, 2, 1)) == 1
    assert lr_coefficient((), (2, 1), (2, 1)) == 1
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2,), (2,), (3, 1)) == 1


def test_lr_tableau_witnesses_are_valid():
    for filling in lr_tableaux((2, 1), (2, 1), (3, 2, 1)):
        word = [x for row in reversed(filling) for x in row if x is not None]
        assert is_reverse_yamanouchi(word)
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_coefficient_trims_zeros_and_rejects_non_partitions():
    assert lr_coefficient((1, 0), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1, 0, 0), (1, 1, 0)) == 1
    assert lr_product((1, 0), (1,)) == {(2,): 1, (1, 1): 1}
    for args in (((1, 2), (1,), (2, 2)), ((1,), (1, 2), (2, 2)), ((1,), (1,), (1, 2))):
        with pytest.raises(ValueError):
            lr_coefficient(*args)
        with pytest.raises(ValueError):
            lr_tableaux(*args)  # raises on the call, before any filling is asked for
    for args in (((1, 2), (1,)), ((1,), (0, 1)), ((1,), (-1,)), ((True,), (1,))):
        with pytest.raises(ValueError):
            lr_product(*args)


def product_by_lr_coefficient(mu, lam):
    """The Schur expansion of s_mu * s_lam, one LR filling count per partition of the size."""
    return {nu: c for nu in partitions_of(sum(mu) + sum(lam)) if (c := lr_coefficient(mu, lam, nu))}


def test_lr_product_matches_lr_coefficient():
    for mu in (mu for m in range(7) for mu in partitions_of(m)):
        for lam in (lam for m in range(5) for lam in partitions_of(m)):
            assert lr_product(mu, lam) == product_by_lr_coefficient(mu, lam), (mu, lam)


def test_lr_strips_sums_products_over_weighted_starts():
    # every start carries lam's strips at once, even a start smaller than lam;
    # each start's product by the LR filling count, weighted by its multiplicity
    small = [mu for m in range(4) for mu in partitions_of(m)]
    start_sets = [
        {},
        {mu: i + 1 for i, mu in enumerate(small)},  # mixed sizes
        dict.fromkeys(partitions_of(4), 2),
        dict.fromkeys(_even_conjugate_partitions(6), 1),
        {(1,): 3, (): 2},
    ]
    lams = [(), (1,), (2, 1), (3, 1), (2, 2), (1, 1, 1, 1), (1,) * 5]
    # and Sundaram's starts, the even-column betas of 8 and 10 boxes, with every lam of 1..4 boxes
    small_lams = [lam for m in range(1, 5) for lam in partitions_of(m)]
    cases = [(starts, lam) for starts in start_sets for lam in lams]
    cases += [(dict.fromkeys(_even_conjugate_partitions(b), 1), lam) for b in (8, 10) for lam in small_lams]
    for starts, lam in cases:
        expected = {}
        for mu, c in starts.items():
            for nu, d in product_by_lr_coefficient(mu, lam).items():
                expected[nu] = expected.get(nu, 0) + c * d
        assert _lr_strips(starts, lam) == expected, (starts, lam)


def test_lr_symmetry_small():
    for n in range(1, 6):
        for nu in partitions_of(n):
            for a in range(n + 1):
                for lam in partitions_of(a):
                    for mu in partitions_of(n - a):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_bands_descents():
    T = ((1, 2, 3, 5), (4, 7), (6,))
    assert standard_horizontal_bands(T) == [3, 2, 2]
    assert des_syt(T) == (3, 2, 2)
    assert step_syt(T) == 3
    assert des_syt(((1, 2, 3),)) == (3,)
    assert des_syt(((1,), (2,), (3,))) == (1, 1, 1)
    # a one-shot iterable of rows is read once
    assert not is_standard(iter([(1, 3)]))
    assert is_standard(iter([(1, 2), (3,)]))
    assert des_syt(iter([(1, 2), (3,)])) == (2, 1)
    assert step_syt(iter([(1, 2), (3,)])) == 2
    assert standard_horizontal_bands(iter(T)) == [3, 2, 2]
    with pytest.raises(ValueError):
        des_syt(((1, 1), (2,)))
    for bad in (None, 5, ((0,),), ((1, 2), (3, 4, 5)), ((2,), (1,))):
        for descents in (des_syt, step_syt, standard_horizontal_bands):
            with pytest.raises(ValueError):
                descents(bad)


def test_des_sums_to_size():
    for m in range(1, 6):
        for lam in partitions_of(m):
            for T in enumerate_syt(lam):
                comp = des_syt(T)
                assert sum(comp) == m
                assert all(p > 0 for p in comp)


def test_row_word_and_shape():
    assert row_word(((1, 3), (2,))) == (2, 1, 3)
    assert tableau_shape(((1, 3), (2,))) == (2, 1)


def test_ssyt_enumeration_count():
    # hand count: 8 semistandard fillings of the L-shape with entries <= 3
    assert sum(1 for _ in ssyt_of_shape((2, 1), 3)) == 8
    assert list(ssyt_of_shape((), 3)) == [EMPTY]
    assert list(ssyt_of_shape((1, 1, 1), 2)) == []
    with pytest.raises(ValueError):
        list(ssyt_of_shape((1, 2), 3))
    assert list(ssyt_of_shape((1,), 0)) == [] and list(ssyt_of_shape((), 0)) == [EMPTY]
    for max_entry in (1.5, None, -1, True, "3"):
        with pytest.raises(ValueError):
            list(ssyt_of_shape((1,), max_entry))


def test_syt_counts_match_hook_formula_values():
    assert sum(1 for _ in enumerate_syt((3, 2))) == 5
    assert sum(1 for _ in enumerate_syt((2, 2))) == 2
    assert sum(1 for _ in enumerate_syt(())) == 1
    assert list(enumerate_syt([2, 1, 0])) == list(enumerate_syt((2, 1)))
    for lam in ((1, 2), None, (2, -1), (1.0,), (True,)):
        with pytest.raises(ValueError):
            list(enumerate_syt(lam))
