from itertools import accumulate, product

import pytest

from oscitab.shapes import (
    _part,
    _weak_refinements,
    conjugate,
    dominance_leq,
    _even_conjugate_partitions,
    flat,
    _in_N,
    is_even_partition,
    _is_horizontal_strip,
    is_vertical_strip,
    lambda_bar,
    partitions_of,
    ref_set,
    refines,
    trim,
    v_set,
)


def all_strong_compositions(n):
    # independent enumeration by bar placement
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        out.extend((first,) + rest for rest in all_strong_compositions(n - first))
    return out


def splits_into_blocks(b, a):
    # independent refinement check: scan all ways to cut b into len(a) blocks
    if not a:
        return b == ()
    head = a[0]
    for take in range(1, len(b) + 1):
        if sum(b[:take]) == head:
            return splits_into_blocks(b[take:], a[1:])
        if sum(b[:take]) > head:
            return False
    return False


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2, 1, 1)) == (4, 2)
    assert conjugate(()) == ()
    assert conjugate((2, 1, 0)) == (2, 1)
    for bad in ((1, 2), (2, -1), (1.5,), (True,), None):
        with pytest.raises(ValueError):
            conjugate(bad)


def test_conjugate_involution():
    for m in range(7):
        for lam in partitions_of(m):
            assert conjugate(conjugate(lam)) == lam


def test_is_even_partition():
    assert is_even_partition((4, 2))
    assert not is_even_partition((3, 2))
    assert is_even_partition(())


def test_flat():
    assert flat((0, 2, 3, 0, 2)) == (2, 3, 2)
    assert flat((2, 3, 2)) == (2, 3, 2)
    assert flat((0, 0)) == ()


def test_flat_idempotent_and_size_preserving():
    for length in range(6):
        for c in product(range(5), repeat=length):
            assert flat(flat(c)) == flat(c)
            assert sum(flat(c)) == sum(c)


def test_refines():
    assert refines((2, 2, 1), (2, 3))
    assert refines((2, 3), (2, 3))
    assert not refines((3, 2), (2, 3))
    with pytest.raises(ValueError):
        refines((2, 0, 1), (3,))


def test_ref_set_paper_example():
    assert ref_set((2, 3)) == (
        (2, 3),
        (2, 2, 1),
        (2, 1, 2),
        (2, 1, 1, 1),
        (1, 1, 3),
        (1, 1, 2, 1),
        (1, 1, 1, 2),
        (1, 1, 1, 1, 1),
    )


def test_ref_set_small():
    assert ref_set((1,)) == ((1,),)
    # brute force over all strong compositions of 2
    expected = {b for b in all_strong_compositions(2) if splits_into_blocks(b, (2,))}
    assert set(ref_set((2,))) == expected == {(2,), (1, 1)}


def test_refines_agrees_with_ref_set():
    for n in range(7):
        for a in all_strong_compositions(n):
            if not a:
                continue
            members = set(ref_set(a))
            for b in all_strong_compositions(n):
                assert refines(b, a) == (b in members)
                assert refines(b, a) == splits_into_blocks(b, a)


def test_weak_refinements_match_brute_force():
    # every weak composition of |a| into k parts whose partial sums contain
    # those of a, lexicographically descending
    cases = 0
    for n in range(7):
        for k in range(6):
            weak = sorted((c for c in product(range(n + 1), repeat=k) if sum(c) == n), reverse=True)
            for a in all_strong_compositions(n):
                ends = set(accumulate(a))
                expected = [c for c in weak if ends <= set(accumulate(c))]
                assert _weak_refinements(a, k) == expected, (a, k)
                cases += 1
    assert cases == 6 * 64
    assert _weak_refinements((), 0) == [()]
    assert _weak_refinements((), 3) == [(0, 0, 0)]
    assert _weak_refinements((1,), 0) == []
    assert _weak_refinements((1, 1, 1), 2) == []  # more parts than letters
    assert _weak_refinements((2, 1), 3) == [(2, 1, 0), (2, 0, 1), (1, 1, 1), (0, 2, 1)]


def test_dominance():
    assert dominance_leq((1, 1, 1), (2, 1))
    assert not dominance_leq((3,), (2, 1))
    assert dominance_leq((2, 2), (2, 2))
    with pytest.raises(ValueError):
        dominance_leq((2,), (2, 1))
    for mu, lam in (((1, 2), (3,)), ((3,), (1, 2)), ((2, 0, 1), (3,)), ((1.5, 1.5), (3,))):
        with pytest.raises(ValueError):
            dominance_leq(mu, lam)


def test_strips():
    assert _is_horizontal_strip((1,), (3, 1))
    assert is_vertical_strip((1,), (1, 1, 1))
    assert not _is_horizontal_strip((1,), (2, 2))
    assert _is_horizontal_strip((2, 1), (2, 1))
    assert not is_vertical_strip((1,), (3, 1))
    assert not _is_horizontal_strip((3, 1), (2, 1))


def test_in_N():
    assert _in_N((2, 1), 5)
    assert not _in_N((2, 1), 4)
    assert _in_N((), 0)
    assert not _in_N((2, 1), 1)


def test_v_set_paper_examples():
    assert v_set((2, 1), 7) == (
        (4, 3),
        (4, 2, 1),
        (4, 1, 1, 1),
        (3, 3, 1),
        (3, 2, 2),
        (3, 2, 1, 1),
        (3, 1, 1, 1, 1),
        (2, 2, 2, 1),
        (2, 2, 1, 1, 1),
        (2, 1, 1, 1, 1, 1),
    )
    assert v_set((2, 1), 5) == ((3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1))
    assert v_set((2, 1), 3) == ((2, 1),)
    assert v_set((2, 1), 4) == ()
    assert v_set((2, 1, 0), 5) == v_set((2, 1), 5)
    # a list is checked like a tuple, and every spelling of one shape gives the same set
    assert v_set([2, 1], 3) == ((2, 1),)
    for lam in ((2, 1), [2, 1], (2, 1, 0), [2, 1, 0]):
        assert v_set(lam, 5) == ((3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1))


def test_v_set_similarity_examples():
    assert set(v_set((3,), 5)) & set(v_set((1, 1, 1), 5)) == set()
    both = set(v_set((3,), 7)) & set(v_set((1, 1, 1), 7))
    assert both == {(3, 2, 2), (3, 2, 1, 1), (3, 1, 1, 1, 1)}


def test_v_set_members_contain_lambda():
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(m, m + 5):
                for nu in v_set(lam, n):
                    assert sum(nu) == n
                    assert all(nu[i] >= (lam[i] if i < len(lam) else 0) for i in range(len(lam)))


def _vertical_strip_additions(lam, size):
    """All partitions obtained from the partition ``lam`` by adding one vertical strip of ``size`` >= 0 boxes."""
    results = []

    def rec(i, remaining, prev, acc):
        if remaining == 0:
            results.append(tuple(acc) + lam[i:])  # every part is at least 1
            return
        base = _part(lam, i)  # 0 below lam, so each new row takes a box and the strip ends
        for add in (0, 1):
            new = base + add
            if new == 0 or new > prev:
                continue
            acc.append(new)
            rec(i + 1, remaining - add, new, acc)
            acc.pop()

    rec(0, size, size + (lam[0] if lam else 0) + 1, [])
    return results


def v_set_by_all_even_strips(lam, n):
    """Breadth-first closure over vertical strips of every even size, the oracle of ``v_set``."""
    if not _in_N(lam, n):
        return ()
    seen, frontier = {lam}, [lam]
    while frontier:
        new = []
        for mu in frontier:
            for size in range(2, n - sum(mu) + 1, 2):
                for nu in _vertical_strip_additions(mu, size):
                    if nu not in seen:
                        seen.add(nu)
                        new.append(nu)
        frontier = new
    return tuple(sorted((nu for nu in seen if sum(nu) == n), reverse=True))


def test_v_set_two_box_strips_match_all_even_strips():
    # the row bounds of v_set give every shape that strips of every even size reach, in the same order
    cases = 0
    for m in range(8):
        for lam in partitions_of(m):
            for n in range(m, m + 13):
                assert v_set(lam, n) == v_set_by_all_even_strips(lam, n), (lam, n)
                cases += 1
    assert cases == 585


def test_lambda_bar():
    assert lambda_bar((2, 1), 5) == (3, 2)
    assert lambda_bar((3,), 7) == (5, 2)
    assert lambda_bar((2, 1), 3) == (2, 1)
    for lam, n in (((2, 1), 4), ((1, 2), 5), ((2, 1), -1), ((1,), 3.0), ((1,), True)):
        with pytest.raises(ValueError):
            lambda_bar(lam, n)


def test_lambda_bar_is_dominance_max():
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(m, m + 5):
                if not _in_N(lam, n):
                    continue
                bar = lambda_bar(lam, n)
                shapes = v_set(lam, n)
                assert bar in shapes
                for nu in shapes:
                    assert dominance_leq(nu, bar)


def test_lambda_bar_injective_and_order_preserving():
    for m in range(6):
        for n in range(m, m + 5, 2):
            bars = {lam: lambda_bar(lam, n) for lam in partitions_of(m)}
            assert len(set(bars.values())) == len(bars)
            for lam, mu in product(bars, repeat=2):
                if lam == mu:
                    continue
                if dominance_leq(mu, lam):
                    assert dominance_leq(bars[mu], bars[lam])


def test_v_set_similarity_monotone():
    for m in range(1, 5):
        shapes = partitions_of(m)
        for lam, mu in product(shapes, repeat=2):
            similar_at = [
                n
                for n in range(m, m + 7, 2)
                if set(v_set(lam, n)) & set(v_set(mu, n))
            ]
            if similar_at:
                first = similar_at[0]
                assert similar_at == list(range(first, m + 7, 2))


def test_vertical_strip_additions():
    assert set(_vertical_strip_additions((3,), 2)) == {(4, 1), (3, 1, 1)}
    assert set(_vertical_strip_additions((), 2)) == {(1, 1)}
    for nu in _vertical_strip_additions((2, 2, 1), 4):
        assert is_vertical_strip((2, 2, 1), nu)
        assert sum(nu) == 9


def test_even_conjugate_partitions():
    assert _even_conjugate_partitions(4) == ((2, 2), (1, 1, 1, 1))
    assert _even_conjugate_partitions(3) == ()
    for beta in _even_conjugate_partitions(6):
        assert is_even_partition(conjugate(beta))
    assert all(
        not is_even_partition(conjugate(beta)) or beta in _even_conjugate_partitions(6)
        for beta in partitions_of(6)
    )


def test_partition_listings_are_lexicographically_descending():
    # each list as built equals the sorted brute-force list: every strong
    # composition rearranged, kept once, and filtered on an even conjugate
    for m in range(17):
        brute = sorted({tuple(sorted(a, reverse=True)) for a in all_strong_compositions(m)}, reverse=True)
        if m <= 12:
            assert partitions_of(m) == tuple(brute)
        even = [lam for lam in brute if all(c % 2 == 0 for c in conjugate(lam))]
        assert _even_conjugate_partitions(m) == tuple(even), m


def test_trim():
    assert trim((2, 0)) == (2,)
    assert trim((0, 2, 0)) == (0, 2)
    assert trim(()) == ()
    for bad in ("3", [None], (2, 1.0), (True,)):
        with pytest.raises(ValueError):
            trim(bad)
