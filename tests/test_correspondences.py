import copy
import pickle
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from oscitab.correspondences import (
    EMPTY_ARRAY,
    SundaramPair,
    TwoRowArray,
    burge_map,
    sundaram,
    sundaram_inverse,
    sundaram_steps,
    symmetrize,
)
from oscitab.oscillating import (
    ADD,
    DELETE,
    SSOT,
    _step_events,
    enumerate_ssot,
    _in_N,
    replay_events,
    ssot_from_events,
    substep_events,
)
from oscitab.polyring import SparsePoly, littlewood_truncated, schur_poly, ssot_poly
from oscitab.shapes import conjugate, is_even_partition, partitions_of
from oscitab.tableaux import check_tableau, column_insert, ssyt_of_shape, tableau_shape


SUNDARAM_EXAMPLE = SSOT(
    (
        ((), (1,)),
        ((1,), (2, 1)),
        ((2, 1), (2, 1, 1)),
        ((1, 1), (2, 1)),
        ((2, 1), (2, 2)),
        ((2, 2), (2, 2, 1)),
        ((2, 1, 1), (2, 1, 1)),
    )
)


def all_burge_arrays(max_entry, npairs):
    alphabet = [
        (top, bottom)
        for top in range(1, max_entry + 1)
        for bottom in range(1, top)
    ]
    for pairs in combinations_with_replacement(sorted(alphabet), npairs):
        yield TwoRowArray(pairs)


def inverse_by_events(pair):
    """Sundaram's inverse through an event trace, the oracle of ``sundaram_inverse``.

    The reverse walk collects letters, boxes and kinds, largest letter
    first; ``ssot_from_events`` then replays them forward into steps and
    checks the step-order conventions.
    """
    if not pair.burge.is_burge():
        raise ValueError("not a Burge array")
    T = check_tableau(pair.tableau)
    pairs = list(pair.burge.pairs)
    letters, boxes, kinds = [], [], []
    while pairs or T:
        x = max((row[-1] for row in T), default=0)
        if pairs and pairs[-1][0] > x:
            x, bottom = pairs.pop()
            T, box = column_insert(T, bottom)
            kind = DELETE
        else:
            # the rightmost box holding the largest entry ends the topmost row ending in it
            r = min(i for i, row in enumerate(T) if row[-1] == x)
            box = (r + 1, len(T[r]))
            T = tuple(row[:-1] if i == r else row for i, row in enumerate(T) if i != r or len(row) > 1)
            kind = ADD
        letters.append(x)
        boxes.append(box)
        kinds.append(kind)
    return ssot_from_events(letters[::-1], boxes[::-1], kinds[::-1])


def events_by_lists(S):
    """Letters, boxes and kinds of an SSOT's substeps, built step by step as flat lists."""
    profile, boxes, kinds = [], [], []
    prev = ()
    for i, (deleted, reached) in enumerate(S.steps, 1):
        start = len(boxes)
        for r, old in enumerate(prev):
            low = deleted[r] if r < len(deleted) else 0
            for c in range(old, low, -1):
                boxes.append((r + 1, c))
        middle = len(boxes)
        for r in range(len(reached) - 1, -1, -1):
            low = deleted[r] if r < len(deleted) else 0
            for c in range(low + 1, reached[r] + 1):
                boxes.append((r + 1, c))
        kinds += [DELETE] * (middle - start)
        kinds += [ADD] * (len(boxes) - middle)
        profile += [i] * (len(boxes) - start)
        prev = reached
    return list(zip(profile, boxes, kinds))


def test_symmetrize():
    L = TwoRowArray(((4, 2), (4, 3), (7, 2)))
    assert symmetrize(L).pairs == ((2, 4), (2, 7), (3, 4), (4, 2), (4, 3), (7, 2))
    assert symmetrize(EMPTY_ARRAY).pairs == ()
    assert symmetrize(TwoRowArray(((2, 1),))).pairs == ((1, 2), (2, 1))
    with pytest.raises(ValueError):
        symmetrize(TwoRowArray(((2, 1), (1, 2))))


@pytest.mark.parametrize(
    "pairs",
    [((2.7, 1),), ((True, True),), ((2, True),), (("3", "1"),), ((3, 1, 9),), ((3,),), ((0, 1),), ((2, -1),)],
)
def test_array_entries_are_two_positive_ints(pairs):
    with pytest.raises(ValueError):
        TwoRowArray(pairs)
    with pytest.raises(ValueError):
        TwoRowArray.from_dict({"pairs": [list(p) for p in pairs]})


def test_array_from_dict():
    assert TwoRowArray.from_dict({"pairs": [[3, 1], [4, 2]]}).pairs == ((3, 1), (4, 2))
    for data in ({}, {"pairs": [3]}, {"pairs": 3}, {"pairs": [["3", "1"]]}):
        with pytest.raises(ValueError):
            TwoRowArray.from_dict(data)


def test_burge_map():
    L = TwoRowArray(((4, 2), (4, 3), (7, 2)))
    assert burge_map(L) == ((2, 2), (3, 4), (4,), (7,))
    assert burge_map(EMPTY_ARRAY) == ()
    assert burge_map(TwoRowArray(((2, 1),))) == ((1,), (2,))
    with pytest.raises(ValueError):
        burge_map(TwoRowArray(((2, 3),)))


def test_burge_image_is_even_conjugate():
    for r in range(4):
        seen = {}
        for L in all_burge_arrays(4, r):
            T = burge_map(L)
            shape = tableau_shape(T)
            assert sum(shape) == 2 * r
            assert is_even_partition(conjugate(shape))
            assert T not in seen, f"collision: {L.pairs} and {seen[T]}"
            seen[T] = L.pairs
        # image is exactly the even-conjugate-shape tableaux with entries <= 4
        expected = sum(
            sum(1 for _ in ssyt_of_shape(beta, 4))
            for beta in partitions_of(2 * r)
            if is_even_partition(conjugate(beta))
        )
        assert len(seen) == expected


def test_burge_weight_generating_function():
    for k in range(1, 4):
        maxdeg = 6
        total = SparsePoly(k)
        for r in range(maxdeg // 2 + 1):
            for L in all_burge_arrays(k, r):
                exp = [0] * k
                for top, bottom in L.pairs:
                    exp[top - 1] += 1
                    exp[bottom - 1] += 1
                total = total + SparsePoly.monomial(tuple(exp))
        assert total == littlewood_truncated(k, maxdeg), k


def test_sundaram_paper_trace():
    rows = list(sundaram_steps(SUNDARAM_EXAMPLE))
    tableaux = [row[5] for row in rows]
    assert tableaux == [
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
    arrays = {m: row[4].pairs for row in rows for m in [row[0]]}
    assert arrays[5] == ((4, 2),)
    assert arrays[6] == ((4, 2), (4, 3))
    pair = sundaram(SUNDARAM_EXAMPLE)
    assert pair.burge.pairs == ((4, 2), (4, 3), (7, 2))
    assert pair.tableau == ((1, 4), (5,), (6,))
    assert pair.length() == 10


def test_sundaram_on_additions_only():
    S = ssot_from_events(
        [1, 1, 2, 3], [(1, 1), (1, 2), (2, 1), (1, 3)], [ADD, ADD, ADD, ADD]
    )
    pair = sundaram(S)
    assert pair.burge == EMPTY_ARRAY
    assert pair.tableau == ((1, 1, 3), (2,))


def test_sundaram_inverse_examples():
    pair = SundaramPair(
        TwoRowArray(((4, 2), (4, 3), (7, 2))), ((1, 4), (5,), (6,))
    )
    assert sundaram_inverse(pair) == SUNDARAM_EXAMPLE
    T = ((1, 2), (3,))
    recovered = sundaram_inverse(SundaramPair(EMPTY_ARRAY, T))
    events = substep_events(recovered)
    assert all(kind == ADD for kind in events.kinds)
    assert sundaram(recovered).tableau == T
    with pytest.raises(ValueError):
        sundaram_inverse(SundaramPair(TwoRowArray(((2, 3),)), ()))


def test_sundaram_pair_checks_its_fields():
    with pytest.raises(ValueError):
        SundaramPair(EMPTY_ARRAY, 5)
    with pytest.raises(ValueError):
        SundaramPair(((2, 1),), ())
    with pytest.raises(ValueError):
        SundaramPair(EMPTY_ARRAY, [[1, 2], [1]])  # not semistandard
    pair = SundaramPair(TwoRowArray(((2, 1),)), [[1, 2], [3]])
    assert pair.tableau == ((1, 2), (3,)) and pair.length() == 5
    assert hash(pair) == hash(SundaramPair(TwoRowArray(((2, 1),)), ((1, 2), (3,))))
    assert SundaramPair.from_dict(pair.to_dict()) == pair
    assert sundaram(sundaram_inverse(pair)) == pair


BAD_ARRAYS = (TwoRowArray(((2, 3),)), TwoRowArray(((2, 2),)), TwoRowArray(((3, 1), (2, 1))))


def burge_by_scan(pairs):
    return all(p <= q for p, q in zip(pairs, pairs[1:])) and all(t > b for t, b in pairs)


def test_recorded_burge_verdict_is_invisible():
    arrays = [L for r in range(3) for L in all_burge_arrays(4, r)] + list(BAD_ARRAYS)
    for L in arrays:
        fresh = TwoRowArray(L.pairs)
        pickled = pickle.dumps(fresh)  # before any verdict is recorded
        expected = burge_by_scan(L.pairs)
        assert L.is_burge() is expected
        assert L.is_burge() is expected
        assert L == fresh and fresh == L and hash(L) == hash(fresh)
        assert repr(L) == f"TwoRowArray(pairs={L.pairs!r})"
        assert L.to_dict() == {"pairs": [list(p) for p in L.pairs]}
        for other in (copy.copy(L), pickle.loads(pickle.dumps(L)), pickle.loads(pickled)):
            assert other == L and hash(other) == hash(L) and repr(other) == repr(L)
            assert other.to_dict() == L.to_dict()
            assert other.is_burge() is expected
    for L in BAD_ARRAYS:  # each has returned False once already
        with pytest.raises(ValueError):
            burge_map(L)
        with pytest.raises(ValueError):
            sundaram_inverse(SundaramPair(L, ()))


def test_sundaram_inverse_matches_event_oracle():
    # every Burge array of <= 2 pairs with tops <= 4 against every tableau of <= 4 boxes with entries <= 4,
    # arrays whose tops leave long runs of letters with no cells and no pairs,
    # plus arrays that are not Burge and tableaux that are not semistandard
    gapped = [TwoRowArray(((9, 1),)), TwoRowArray(((9, 2), (9, 5))), TwoRowArray(((3, 1), (9, 2)))]
    arrays = [L for r in range(3) for L in all_burge_arrays(4, r)] + gapped
    tableaux = [T for m in range(5) for lam in partitions_of(m) for T in ssyt_of_shape(lam, 4)]
    assert (len(arrays), len(tableaux)) == (31, 181)
    bad_tableaux = [((2, 1),), ((1,), (1,)), ((1,), (2, 3))]
    inverted = rejected = 0
    for L in arrays + list(BAD_ARRAYS):
        for T in tableaux + bad_tableaux:
            if T in bad_tableaux:  # the pair itself is rejected
                with pytest.raises(ValueError):
                    SundaramPair(L, T)
                rejected += 1
                continue
            pair = SundaramPair(L, T)
            try:
                expected = inverse_by_events(pair)
            except ValueError:
                with pytest.raises(ValueError):
                    sundaram_inverse(pair)
                rejected += 1
                continue
            S = sundaram_inverse(pair)
            assert S == expected, pair
            assert type(S.steps) is tuple and all(
                type(d) is tuple and type(r) is tuple for d, r in S.steps
            )
            inverted += 1
    # the correspondence is a bijection, so exactly the bad inputs are rejected
    assert inverted == 31 * 181
    assert rejected == 34 * 184 - inverted


def test_step_events_match_flat_lists():
    for m in range(4):
        for lam in partitions_of(m):
            for S in enumerate_ssot(lam, m + 4, 4):
                expected = events_by_lists(S)
                assert list(_step_events(S.steps)) == expected
                events = substep_events(S)
                assert list(zip(events.profile, events.boxes, events.kinds)) == expected
    assert list(_step_events(())) == []
    assert substep_events(SSOT(())).profile == ()


def test_sundaram_round_trip_exhaustive():
    # inverse after forward is the identity, and images within a listing are distinct
    for m in range(4):
        for lam in partitions_of(m):
            for n in range(m, m + 5, 2):
                for k in range(1, 5):
                    listing = enumerate_ssot(lam, n, k)
                    images = set()
                    for S in listing:
                        pair = sundaram(S)
                        assert sundaram_inverse(pair) == S
                        images.add(pair)
                    assert len(images) == len(listing), (lam, n, k)


def test_sundaram_steps_end_at_sundaram_and_do_not_alias():
    for m in range(1, 4):
        for lam in partitions_of(m):
            for S in enumerate_ssot(lam, m + 4, 4):
                e = substep_events(S)
                chain = replay_events(e.boxes, e.kinds)
                rows = []
                for step, _, _, _, L, T in sundaram_steps(S):
                    # the replay places additions unchecked: each T_m is a
                    # semistandard tableau of the chain's shape at m
                    assert check_tableau(T) == T and tableau_shape(T) == chain[step], (S, step)
                    # copied as yielded, compared once the replay has ended
                    rows.append((L, T, [list(p) for p in L.pairs], [list(row) for row in T]))
                assert SundaramPair(rows[-1][0], rows[-1][1]) == sundaram(S)
                for L, T, pairs, tableau in rows:
                    assert type(L.pairs) is tuple and all(type(p) is tuple for p in L.pairs)
                    assert type(T) is tuple and all(type(row) is tuple for row in T)
                    assert L.pairs == tuple(map(tuple, pairs)) and T == tuple(map(tuple, tableau))


def test_sundaram_surjective_small():
    # every valid pair is hit: reconstruct, then map forward again
    for m in range(3):
        for lam in partitions_of(m):
            for T in ssyt_of_shape(lam, 3):
                for r in range(3):
                    for L in all_burge_arrays(3, r):
                        pair = SundaramPair(L, T)
                        S = sundaram_inverse(pair)
                        assert S.shape == lam
                        assert S.length == 2 * r + m
                        assert sundaram(S) == pair


def test_weight_preservation_small():
    for lam in ((), (1,), (2,), (1, 1)):
        for n in range(5):
            if not _in_N(lam, n):
                continue
            for S in enumerate_ssot(lam, n, 3):
                events = substep_events(S)
                pair = sundaram(S)
                assert pair.burge.is_burge()
                assert Counter(events.profile) == pair.content()
                assert tableau_shape(pair.tableau) == S.shape
                assert 2 * len(pair.burge) == n - sum(S.shape)


def test_counting_consequence():
    for m in range(4):
        for lam in partitions_of(m):
            for n in range(m, m + 5, 2):
                for k in range(1, 5):
                    count = ssot_poly(lam, n, k).evaluate((1,) * k)
                    expected = sum(
                        schur_poly(beta, k).evaluate((1,) * k)
                        for beta in partitions_of(n - m)
                        if is_even_partition(conjugate(beta))
                    ) * schur_poly(lam, k).evaluate((1,) * k)
                    assert count == expected, (lam, n, k)
