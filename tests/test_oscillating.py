import random
from collections import Counter
from itertools import product

import pytest

from oscitab.oscillating import (
    ADD,
    DELETE,
    EMPTY_SSOT,
    EventTrace,
    OscillatingTableau,
    Run,
    SSOT,
    com,
    descent_data,
    descent_positions,
    destandardize,
    enumerate_ot,
    enumerate_qyot,
    enumerate_ssot,
    is_quasi_yamanouchi,
    _one_box_moves,
    ot_events,
    render_boxes,
    replay_events,
    run_of,
    ssot_from_dict,
    ssot_from_events,
    ssot_to_dict,
    standardize,
    substep_events,
)
from oscitab.shapes import _is_horizontal_strip, partitions_of


# ---- independent definitional enumeration, used as an oracle ----------------

def strip_subshapes(outer):
    # all inner with outer/inner a horizontal strip
    ranges = [
        range(outer[i + 1] if i + 1 < len(outer) else 0, outer[i] + 1)
        for i in range(len(outer))
    ]
    for choice in product(*ranges):
        yield tuple(p for p in choice if p)


def strip_supershapes(inner, max_add):
    # all outer with outer/inner a horizontal strip and at most max_add new boxes
    nrows = len(inner) + 1
    out = []

    def rec(i, acc, budget):
        if i == nrows:
            out.append(tuple(p for p in acc if p))
            return
        base = inner[i] if i < len(inner) else 0
        hi = inner[i - 1] if i > 0 else base + budget
        hi = min(hi, base + budget)
        for value in range(base, hi + 1):
            acc.append(value)
            rec(i + 1, acc, budget - (value - base))
            acc.pop()

    rec(0, [], max_add)
    return out


def brute_force_ssots(lam, n, kmax):
    found = []

    def rec(steps, prev, used):
        if used == n and prev == lam and steps:
            deleted, reached = steps[-1]
            before = steps[-2][1] if len(steps) > 1 else ()
            if not (deleted == before and reached == deleted):
                found.append(SSOT(tuple(steps)))
        if len(steps) == kmax:
            return
        for deleted in strip_subshapes(prev):
            cost = sum(prev) - sum(deleted)
            if used + cost > n:
                continue
            for reached in strip_supershapes(deleted, n - used - cost):
                steps.append((deleted, reached))
                rec(steps, reached, used + cost + sum(reached) - sum(deleted))
                steps.pop()

    if lam == () and n == 0:
        found.append(EMPTY_SSOT)
    rec([], (), 0)
    return found


# ---- reference listings: the enumeration the pruned walk replaced -----------
# Every OT through the validating constructor, its events and descents derived
# again, and every SSOT rebuilt by ssot_from_events and the public constructor.

def reference_ots(lam, n):
    m = sum(lam)
    out = []
    chain = [()]

    def rec(current, remaining):
        if remaining == 0:
            if current == lam:
                out.append(OscillatingTableau(tuple(chain)))
            return
        for _, _, nxt in definitional_moves(current):
            if abs(sum(nxt) - m) > remaining - 1:
                continue
            chain.append(nxt)
            rec(nxt, remaining - 1)
            chain.pop()

    if n >= m and (n - m) % 2 == 0:
        rec((), n)
    return out


def reference_labelings(n, strict_after, kmax):
    # weakly increasing words in 1..kmax, strictly increasing after marked positions
    word = []

    def rec(j, lo):
        if j == n:
            yield tuple(word)
            return
        for v in range(lo, kmax + 1):
            word.append(v)
            yield from rec(j + 1, v + 1 if (j + 1) in strict_after else v)
            word.pop()

    if n == 0:
        yield ()
    else:
        yield from rec(0, 1)


def reference_block_letters(n, des):
    letters, block = [], 1
    for j in range(1, n + 1):
        letters.append(block)
        if j in des:
            block += 1
    return letters


def validated_ssot(letters, events):
    return SSOT(ssot_from_events(letters, events.boxes, events.kinds).steps)


def inside(inner, outer):
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def changed_box(a, b):
    # the one box in which two shapes of adjacent sizes differ
    rows = range(max(len(a), len(b)))
    a, b = a + (0,) * (len(rows) - len(a)), b + (0,) * (len(rows) - len(b))
    ((row, col),) = [(r + 1, max(a[r], b[r])) for r in rows if a[r] != b[r]]
    return row, col


def definitional_moves(shape):
    # (kind, box, shape reached) per one-box move, from the definition: the partitions
    # of one box less that the shape contains, rightmost box first, then those of one
    # box more that contain it, leftmost box first
    m = sum(shape)
    smaller = [nu for nu in (partitions_of(m - 1) if m else ()) if inside(nu, shape)]
    larger = [nu for nu in partitions_of(m + 1) if inside(shape, nu)]
    deletions = sorted(((DELETE, changed_box(shape, nu), nu) for nu in smaller), key=lambda move: -move[1][1])
    additions = sorted(((ADD, changed_box(shape, nu), nu) for nu in larger), key=lambda move: move[1][1])
    return deletions + additions


def reference_moves(shape, lam):
    # one-box moves from the definition, each distance from scratch
    def dist(nu):
        return sum(nu) + sum(lam) - 2 * sum(min(a, b) for a, b in zip(nu, lam))

    return [(kind, box, nu, dist(nu)) for kind, box, nu in definitional_moves(shape)]


def test_one_box_moves_match_reference():
    for m in range(9):
        for shape in partitions_of(m):
            for size in range(6):
                for lam in partitions_of(size):
                    assert _one_box_moves(shape, lam) == reference_moves(shape, lam), (shape, lam)


def test_listings_match_reference_enumeration():
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(9):
                ots = reference_ots(lam, n)
                assert enumerate_ot(lam, n) == ots, (lam, n)
                traced = [(ot_events(O), descent_positions(ot_events(O))) for O in ots]
                for k in range(1, 6):
                    qyots = [
                        validated_ssot(reference_block_letters(n, des), events)
                        for events, des in traced
                        if len(des) + 1 <= k or n == 0
                    ]
                    assert enumerate_qyot(lam, n, k) == qyots, (lam, n, k)
                    ssots = [
                        validated_ssot(u, events)
                        for events, des in traced
                        for u in reference_labelings(n, set(des), k)
                    ]
                    assert enumerate_ssot(lam, n, k) == ssots, (lam, n, k)


def test_trusted_tableaux_pass_public_constructors():
    for m in range(4):
        for lam in partitions_of(m):
            for n in range(m, m + 5, 2):
                for O in enumerate_ot(lam, n):
                    assert OscillatingTableau(O.chain) == O
                for k in (1, 2, 4):
                    for S in enumerate_ssot(lam, n, k) + enumerate_qyot(lam, n, k):
                        assert SSOT(S.steps) == S
                        assert destandardize(S) == SSOT(destandardize(S).steps)
                        # the events relabelled by run and rebuilt through the checking ssot_from_events
                        events = substep_events(S)
                        letters = reference_block_letters(len(events), descent_positions(events))
                        assert destandardize(S) == validated_ssot(letters, events), S


# ---- construction and validation --------------------------------------------

def test_ssot_validation():
    with pytest.raises(ValueError):
        SSOT((((1,), (2, 1)),))  # step 1 deletes
    with pytest.raises(ValueError):
        SSOT((((), (2,)), ((2,), (2,))))  # trailing trivial step
    with pytest.raises(ValueError):
        SSOT((((), (1, 1)),))  # added boxes not a horizontal strip
    with pytest.raises(ValueError):
        SSOT((((), (2,)), ((3,), (3, 1))))  # deleted shape not inside previous
    for shape in ((1, -1), (2, 0), (0,), (1.5,), (True,)):
        with pytest.raises(ValueError):
            SSOT((((), shape),))  # not a partition
    for step in (((), (1,), (2,)), ((),)):
        with pytest.raises(ValueError, match=r"SSOT steps must be \(deleted, reached\) pairs"):
            SSOT([step])  # not a pair
    assert EMPTY_SSOT.length == 0 and EMPTY_SSOT.shape == () and EMPTY_SSOT.step == 0


def test_ot_validation():
    with pytest.raises(ValueError):
        OscillatingTableau((((1,),),))
    with pytest.raises(ValueError):
        OscillatingTableau(((), (1,), (2, 1)))
    for chain in (((), (2,)), ((), (1,), (1,)), ((), (1.0,)), ((), (True,)), ((), (1,), (1, True))):
        with pytest.raises(ValueError, match="does not change exactly one box"):
            OscillatingTableau(chain)
    O = OscillatingTableau(((), (1,), (1, 1)))
    assert O.shape == (1, 1) and O.length == 2


def step_mutations(a, b):
    """Shapes that cannot follow ``a`` where ``b`` does: ``b`` plus a box, ``a`` again, a trailing zero, non-int parts."""
    yield b + (1,)
    yield a
    yield b + (0,)
    if b:
        yield (float(b[0]),) + b[1:]
    if b and b[-1] == 1:
        yield b[:-1] + (True,)


def test_ot_constructor_accepts_every_reference_chain_and_rejects_step_mutations():
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(m, 9, 2):
                for O in reference_ots(lam, n):
                    chain = O.chain
                    assert OscillatingTableau(list(chain)) == O
                    for j in range(O.length if n <= 6 else 0):  # mutations up to length 6
                        for bad in step_mutations(chain[j], chain[j + 1]):
                            with pytest.raises(ValueError, match=f"chain step {j} "):
                                OscillatingTableau(chain[: j + 1] + (bad,) + chain[j + 2:])


def reference_ot_events(O):
    # each step's box found among the definitional moves of the shape before it
    kinds, boxes = [], []
    for a, b in zip(O.chain, O.chain[1:]):
        ((kind, box),) = [(kind, x) for kind, x, nu in definitional_moves(a) if nu == b]
        kinds.append(kind)
        boxes.append(box)
    return EventTrace(tuple(range(1, O.length + 1)), tuple(boxes), tuple(kinds))


def test_ot_events_match_reference_diff():
    for m in range(5):
        for lam in partitions_of(m):
            for n in range(m, 9, 2):
                for O in reference_ots(lam, n):
                    assert ot_events(O) == reference_ot_events(O), O


def test_substep_events_paper_example():
    S = SSOT((((), (2,)), ((1,), (3, 1)), ((1, 1), (2, 1))))
    events = substep_events(S)
    assert events.profile == (1, 1, 2, 2, 2, 2, 3, 3, 3)
    assert S.length == 9
    assert events.kinds == (
        ADD, ADD, DELETE, ADD, ADD, ADD, DELETE, DELETE, ADD,
    )
    # deletions right to left, additions left to right
    assert events.boxes[2] == (1, 2)
    assert events.boxes[3:6] == ((2, 1), (1, 2), (1, 3))
    assert events.boxes[6:8] == ((1, 3), (1, 2))


def test_substep_events_sundaram_example():
    S = SSOT(
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
    events = substep_events(S)
    assert events.profile == (1, 2, 2, 3, 4, 4, 4, 5, 6, 7)
    deletions = {m + 1 for m, kind in enumerate(events.kinds) if kind == DELETE}
    assert deletions == {5, 6, 10}
    assert com(S) == (1, 2, 1, 3, 1, 1, 1)
    assert render_boxes(S) == [["1", "244"], ["2", "57"], ["346"]]
    assert render_boxes(events) == render_boxes(S)  # an event trace is read as it is


def test_single_addition():
    S = SSOT((((), (1,)),))
    events = substep_events(S)
    assert events.profile == (1,)
    assert events.boxes == ((1, 1),)
    assert events.kinds == (ADD,)


def test_descent_data_paper_examples():
    O = OscillatingTableau(
        ((), (1,), (2,), (2, 1), (1, 1), (1,), (1, 1), (2, 1), (2, 2))
    )
    des_set, comp, step = descent_data(O)
    assert des_set == {2, 3, 7}
    assert comp == (2, 1, 4, 1)
    assert step == 4

    O2 = OscillatingTableau(
        ((), (1,), (2,), (3,), (2,), (1,), (1, 1), (2, 1), (3, 1), (4, 1))
    )
    assert descent_data(O2) == (frozenset({3}), (3, 6), 2)
    assert str(run_of(O2)) == "123|456789"
    # an event trace is read as it is: the events of O2 with their letters 1..9
    events = EventTrace(
        range(1, 10),
        ((1, 1), (1, 2), (1, 3), (1, 3), (1, 2), (2, 1), (1, 2), (1, 3), (1, 4)),
        (ADD, ADD, ADD, DELETE, DELETE, ADD, ADD, ADD, ADD),
    )
    assert events == ot_events(O2)
    assert descent_data(events) == descent_data(O2)
    assert run_of(events) == run_of(O2)

    O3 = OscillatingTableau(((), (1,), (2,), (3,)))
    assert descent_data(O3) == (frozenset(), (3,), 1)

    empty = OscillatingTableau(((),))
    assert descent_data(empty) == (frozenset(), (), 0)


def segmentation_descents(boxes, kinds):
    # independent oracle: cut positions of the maximal run segmentation,
    # alternating northeast addition chains and reverse-northeast deletion
    # chains, each extended as far as possible
    from oscitab.shapes import _northeast

    n = len(boxes)
    descents = []
    j = 0
    while j < n:
        start = j
        while j < n and kinds[j] == ADD and (
            j == start or _northeast(boxes[j - 1], boxes[j])
        ):
            j += 1
        if j < n:
            descents.append(j)
        dstart = j
        while j < n and kinds[j] == DELETE and (
            j == dstart or _northeast(boxes[j], boxes[j - 1])
        ):
            j += 1
    return tuple(descents)


def test_descent_scan_matches_segmentation_oracle():
    from oscitab.oscillating import descent_positions

    for lam, n in (((), 6), ((1,), 5), ((2,), 6), ((1, 1), 6), ((2, 1), 5), ((3,), 5)):
        for O in enumerate_ot(lam, n):
            events = ot_events(O)
            assert descent_positions(events) == segmentation_descents(
                events.boxes, events.kinds
            ), O.chain


def test_standardize_paper_example():
    S = SSOT((((), (3,)), ((1,), (2, 1)), ((2, 1), (4, 1))))
    O = standardize(S)
    assert O.chain == (
        (), (1,), (2,), (3,), (2,), (1,), (1, 1), (2, 1), (3, 1), (4, 1),
    )
    assert str(run_of(S)) == "111|222233"
    assert S.step == 3 and descent_data(O)[2] == 2
    assert descent_data(S) == descent_data(O)


def test_run_variants_from_paper_table():
    # alternative groupings of the same chain, with their printed runs
    R1 = SSOT((((), (3,)), ((1,), (4, 1))))
    assert str(run_of(R1)) == "111|222222"
    R2 = SSOT((((), (3,)), ((2,), (2,)), ((1,), (4, 1))))
    assert str(run_of(R2)) == "111|233333"
    R3 = SSOT(
        (((), (1,)), ((1,), (1,)), ((1,), (3,)), ((1,), (4, 1)))
    )
    assert str(run_of(R3)) == "133|444444"


def test_standardization_preserves_structure():
    for lam, n in (((1,), 5), ((2,), 4), ((1, 1), 4)):
        for S in enumerate_ssot(lam, n, 3):
            O = standardize(S)
            assert O.length == S.length
            assert O.shape == S.shape
            se, oe = substep_events(S), ot_events(O)
            assert se.boxes == oe.boxes and se.kinds == oe.kinds
            assert descent_data(S) == descent_data(O)
            assert descent_data(O)[2] <= S.step


def test_destandardize_paper_example():
    letters = [1, 1, 2, 3, 3, 4, 6]
    boxes = [(1, 1), (1, 2), (1, 3), (1, 3), (2, 1), (2, 2), (1, 3)]
    kinds = [ADD, ADD, ADD, DELETE, ADD, ADD, ADD]
    S = ssot_from_events(letters, boxes, kinds)
    assert render_boxes(S) == [["1", "1", "236"], ["3", "4"]]
    Q = destandardize(S)
    assert render_boxes(Q) == [["1", "1", "122"], ["2", "2"]]
    assert is_quasi_yamanouchi(Q) and not is_quasi_yamanouchi(S)
    assert destandardize(Q) == Q
    assert standardize(Q) == standardize(S)
    _, comp, _ = descent_data(Q)
    assert com(Q) == comp


def test_quasi_yamanouchi_table1_entry():
    Q = ssot_from_events(
        [1, 1, 1, 2, 2],
        [(1, 1), (1, 2), (1, 3), (1, 3), (2, 1)],
        [ADD, ADD, ADD, DELETE, ADD],
    )
    assert render_boxes(Q) == [["1", "1", "12"], ["2"]]
    assert is_quasi_yamanouchi(Q)
    assert str(run_of(Q)) == "111|22"


def test_ssot_from_events_rejects_bad_orders():
    with pytest.raises(ValueError):
        # addition then deletion inside one step
        ssot_from_events([1, 1], [(1, 1), (1, 1)], [ADD, DELETE])
    with pytest.raises(ValueError):
        # additions must move right within a step
        ssot_from_events([1, 1], [(1, 2), (1, 1)], [ADD, ADD])
    with pytest.raises(ValueError):
        ssot_from_events([2, 1], [(1, 1), (1, 2)], [ADD, ADD])
    with pytest.raises(ValueError):
        ssot_from_events((1,), ((1, 1),), ("bogus",))



def test_ssot_from_events_rejects_letters_and_boxes_that_are_not_integers():
    assert ssot_from_events([1], [(1, 1)], [ADD]).steps == (((), (1,)),)
    for profile, boxes in (
        (["a"], [(1, 1)]),
        ([1.0], [(1, 1)]),
        ([True], [(1, 1)]),
        ([1], [5]),
        ([1], [(1, 1.0)]),
        ([1], [(1, 1, 1)]),
    ):
        with pytest.raises(ValueError):
            ssot_from_events(profile, boxes, [ADD])
    for events in ((None, None, None), (1, 2, 3), ([1], None, [ADD])):
        with pytest.raises(ValueError):
            ssot_from_events(*events)


def test_replay_events_rejects_unknown_kinds():
    assert replay_events([(1, 1), (1, 1)], [ADD, DELETE]) == ((), (1,), ())
    with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
        replay_events([(1, 1), (1, 1)], [ADD, "bogus"])


def test_replay_events_takes_boxes_of_int_pairs_at_corners():
    assert replay_events([[1, 1], [1, 2]], [ADD, ADD]) == ((), (1,), (2,))
    for boxes, kinds in (
        ([(True, 1)], [ADD]),  # a bool is not a row
        ([(1, True), (1, 2)], [ADD, ADD]),
        ([(1, 1.0)], [ADD]),
        ([(2, 1)], [ADD]),  # not a corner of the shape it reaches
        ([(1, 1), (1, 2), (1, 1)], [ADD, ADD, DELETE]),
    ):
        with pytest.raises(ValueError):
            replay_events(boxes, kinds)
    # rows and columns below 1 are not boxes, whatever negative indexing finds
    for start, box in ((((1, 1), (2, 1), (1, 2)), (0, 1)), (((1, 1), (1, 2), (1, 3), (2, 1)), (-1, 3)), (((1, 1),), (1, 0))):
        for kind in (ADD, DELETE):
            with pytest.raises(ValueError):
                replay_events([*start, box], [ADD] * len(start) + [kind])


def test_ssot_from_events_rejects_corrupted_traces():
    # a box moved by one row or column gives either a ValueError or the
    # trace of another SSOT; a row of 0 or -1 is never a box
    rejected = 0
    for lam in ((1,), (2,), (1, 1), (2, 1)):
        for S in enumerate_ssot(lam, sum(lam) + 4, 3):
            events = substep_events(S)
            for j, (row, col) in enumerate(events.boxes):
                for moved in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1), (0, col), (-1, col)):
                    boxes = events.boxes[:j] + (moved,) + events.boxes[j + 1 :]
                    try:
                        T = ssot_from_events(events.profile, boxes, events.kinds)
                    except ValueError:
                        rejected += 1
                        continue
                    assert moved[0] >= 1
                    assert SSOT(T.steps) == T
                    assert substep_events(T) == EventTrace(events.profile, boxes, events.kinds)
    assert rejected > 0
    with pytest.raises(ValueError):
        # the deletion's box sits one row too low
        ssot_from_events([1, 1, 2], [(1, 1), (1, 2), (2, 2)], [ADD, ADD, DELETE])
    with pytest.raises(ValueError):
        # the addition's box sits one column too far right
        ssot_from_events([1, 2], [(1, 1), (2, 2)], [ADD, ADD])
    with pytest.raises(ValueError):
        ssot_from_events([1, 1, 2], [(1, 1), (1, 2), (0, 2)], [ADD, ADD, DELETE])
    with pytest.raises(ValueError):
        ssot_from_events([1, 2], [(1, 1), (0, 1)], [ADD, ADD])


def ssot_from_events_by_rows(profile, boxes, kinds):
    """Step-by-step validator with its own row bookkeeping, the oracle of ``ssot_from_events``."""
    profile, boxes, kinds = tuple(profile), tuple(boxes), tuple(kinds)
    if not len(profile) == len(boxes) == len(kinds):
        raise ValueError("event components differ in length")
    if any(type(u) is not int for u in profile) or profile and profile[0] < 1:
        raise ValueError("letters must be positive integers")
    if any(profile[j] > profile[j + 1] for j in range(len(profile) - 1)):
        raise ValueError("letters must weakly increase")
    steps = []
    rows = []  # row lengths of the current shape
    j, n = 0, len(profile)
    top = profile[-1] if profile else 0
    for letter in range(1, top + 1):
        deleted = None  # the shape once the deletions are done
        prev_col = 0
        while j < n and profile[j] == letter:
            box = boxes[j]
            try:
                row, col = box
            except (TypeError, ValueError):
                row = col = None
            if type(row) is not int or type(col) is not int:
                raise ValueError(f"boxes must be pairs of integers, got {box!r}")
            if kinds[j] == DELETE:
                if deleted is not None:
                    raise ValueError(f"step {letter}: deletion after an addition")
                if prev_col and col >= prev_col:
                    raise ValueError(f"step {letter}: deletions must move left")
                if not (1 <= row <= len(rows) and rows[row - 1] == col and (row == len(rows) or rows[row] < col)):
                    raise ValueError(f"box {box} is not an outside corner of {tuple(rows)}")
                if col == 1:  # the last row empties
                    rows.pop()
                else:
                    rows[row - 1] -= 1
            elif kinds[j] != ADD:
                raise ValueError(f"unknown event kind {kinds[j]!r}")
            else:
                if deleted is None:
                    deleted = tuple(rows)
                    prev_col = 0
                if prev_col and col <= prev_col:
                    raise ValueError(f"step {letter}: additions must move right")
                if not (
                    1 <= row <= len(rows) + 1
                    and (rows[row - 1] if row <= len(rows) else 0) == col - 1
                    and (row == 1 or rows[row - 2] >= col)
                ):
                    raise ValueError(f"box {box} is not addable to {tuple(rows)}")
                if row > len(rows):
                    rows.append(1)
                else:
                    rows[row - 1] += 1
            prev_col = col
            j += 1
        reached = tuple(rows)
        steps.append((reached if deleted is None else deleted, reached))
    return SSOT._of(tuple(steps))


def small_ssots():
    """Every SSOT of ``enumerate_ssot(lam, |lam| + e, 4)`` with ``|lam| <= 3`` and ``e`` in 0, 2, 4."""
    return [S for m in range(4) for lam in partitions_of(m) for e in (0, 2, 4) for S in enumerate_ssot(lam, m + e, 4)]


def mutated_events(events, rng):
    """The events with one change: two events swapped, a box moved by a row or a column, a kind flipped or a letter moved."""
    profile, boxes, kinds = list(events.profile), list(events.boxes), list(events.kinds)
    j = rng.randrange(len(profile))
    sign = rng.choice((-1, 1))
    change = rng.choice(("swap", "row", "column", "kind", "letter"))
    if change == "swap":
        i = rng.randrange(len(profile))
        boxes[i], boxes[j] = boxes[j], boxes[i]
        kinds[i], kinds[j] = kinds[j], kinds[i]
    elif change == "row":
        boxes[j] = (boxes[j][0] + sign, boxes[j][1])
    elif change == "column":
        boxes[j] = (boxes[j][0], boxes[j][1] + sign)
    elif change == "kind":
        kinds[j] = ADD if kinds[j] == DELETE else DELETE
    else:
        profile[j] += sign
    return profile, boxes, kinds


def test_ssot_from_events_matches_row_oracle():
    rng = random.Random(15)
    cases = []
    for S in small_ssots():
        events = substep_events(S)
        cases.append((events.profile, events.boxes, events.kinds))
        cases.append((events.profile, [list(box) for box in events.boxes], events.kinds))  # boxes as lists
        if len(events):
            cases += [mutated_events(events, rng) for _ in range(6)]
    accepted = rejected = 0
    for profile, boxes, kinds in cases:
        try:
            expected = ssot_from_events_by_rows(profile, boxes, kinds)
        except ValueError:
            with pytest.raises(ValueError):
                ssot_from_events(profile, boxes, kinds)
            rejected += 1
            continue
        S = ssot_from_events(profile, boxes, kinds)
        assert S.steps == expected.steps, (profile, boxes, kinds)
        assert type(S.steps) is tuple and all(type(d) is tuple and type(r) is tuple for d, r in S.steps)
        assert SSOT(S.steps) == S
        accepted += 1
    assert len(cases) == accepted + rejected and accepted > 2 * 1820 and rejected > 1000
    assert ssot_from_events((), (), ()) == EMPTY_SSOT
    assert ssot_from_events([1, 1], [[1, 1], [1, 2]], [ADD, ADD]).steps == (((), (2,)),)
    for box in ((True, 1), (1, 1.0)):
        for oracle in (ssot_from_events_by_rows, ssot_from_events):
            with pytest.raises(ValueError):
                oracle([1], [box], [ADD])


def test_com_and_length_count_events():
    for S in [EMPTY_SSOT, *small_ssots()]:
        events = substep_events(S)
        counts = Counter(events.profile)
        assert com(S) == tuple(counts[u] for u in range(1, S.step + 1))
        assert S.length == len(events) == sum(com(S))


def test_com_examples():
    S = SSOT((((), (2,)), ((1,), (3, 1)), ((1, 1), (2, 1))))
    assert com(S) == (2, 4, 3)
    O_as_ssot = ssot_from_events(
        [1, 2, 3], [(1, 1), (1, 2), (2, 1)], [ADD, ADD, ADD]
    )
    assert com(O_as_ssot) == (1, 1, 1)
    # a chain relabelled with singleton letters standardizes to itself
    assert standardize(O_as_ssot).chain == ((), (1,), (2,), (2, 1))
    assert is_quasi_yamanouchi(O_as_ssot) == (
        descent_data(O_as_ssot)[1] == (1, 1, 1)
    )


def test_enumerate_ot_counts():
    assert len(enumerate_ot((1,), 1)) == 1
    assert len(enumerate_ot((), 2)) == 1
    assert len(enumerate_ot((2, 1), 4)) == 0
    chains = {O.chain for O in enumerate_ot((2, 1), 5)}

    # independent check: brute force over all one-box moves between partitions
    def one_box_apart(a, b):
        bigger, smaller = (a, b) if sum(a) > sum(b) else (b, a)
        return _is_horizontal_strip(smaller, bigger) and sum(bigger) - sum(smaller) == 1 and all(
            bigger[i] - (smaller[i] if i < len(smaller) else 0) <= 1
            for i in range(len(bigger))
        )

    def grow2(chain):
        if len(chain) == 6:
            if chain[-1] == (2, 1):
                yield chain
            return
        for m in range(6):
            for shape in partitions_of(m):
                if one_box_apart(chain[-1], shape):
                    yield from grow2(chain + (shape,))

    expected = set(grow2(((),)))
    assert chains == expected
    assert len(chains) == len(enumerate_ot((2, 1), 5))


def test_enumerate_ssot_matches_brute_force():
    cases = [((1,), 3, 3), ((2,), 4, 3), ((1, 1), 4, 2), ((), 2, 3), ((1,), 5, 2)]
    for lam, n, k in cases:
        fast = {S.steps for S in enumerate_ssot(lam, n, k)}
        slow = {S.steps for S in brute_force_ssots(lam, n, k)}
        assert fast == slow, (lam, n, k)


def test_enumerate_ssot_edge_cases():
    assert enumerate_ssot((), 0, 3) == [EMPTY_SSOT]
    assert enumerate_ssot((), 1, 3) == []
    assert len(enumerate_ssot((2, 1), 3, 3)) == 8
    assert enumerate_ssot((2, 1, 0), 3, 3) == enumerate_ssot((2, 1), 3, 3)
    for lam, n, k in (((), 0, 0), ((1,), 1, 0), ((1,), -1, 3), ((1, 2), 3, 3), ((True,), 1, 2)):
        with pytest.raises(ValueError):
            enumerate_ssot(lam, n, k)
        with pytest.raises(ValueError):
            enumerate_qyot(lam, n, k)
    for lam, n in (((1, 2), 3), ((2, 1), -1), ((1,), 3.0), ((True,), 1)):
        with pytest.raises(ValueError):
            enumerate_ot(lam, n)


def test_replay_matches_enumerated_chains():
    for S in enumerate_ssot((1, 1), 4, 3):
        events = substep_events(S)
        chain = replay_events(events.boxes, events.kinds)
        assert chain[-1] == S.shape
        assert len(chain) == S.length + 1


def test_enumerate_qyot_table1():
    qy = enumerate_qyot((2, 1), 5, 3)
    assert len(qy) == 14
    runs = Counter(str(run_of(Q)) for Q in qy)
    assert runs == Counter(
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
    step2 = [Q for Q in qy if Q.step <= 2]
    assert sorted(str(run_of(Q)) for Q in step2) == ["111|22", "11|222"]
    assert enumerate_qyot((1,), 1, 1) == [ssot_from_events([1], [(1, 1)], [ADD])]


def test_qyot_bijects_with_ot():
    for lam, n in (((2, 1), 5), ((1,), 3), ((), 4)):
        ots = enumerate_ot(lam, n)
        qys = enumerate_qyot(lam, n, n if n else 1)
        assert len(ots) == len(qys)
        assert {standardize(Q).chain for Q in qys} == {O.chain for O in ots}
        for Q in qys:
            assert is_quasi_yamanouchi(Q)


def test_fiber_weights_are_refinements_of_descents():
    # within one standardization class, the gap-free letter weights are
    # exactly the refinements of the descent composition
    from oscitab.shapes import ref_set

    for lam, n in (((), 4), ((1,), 5), ((2,), 4), ((1, 1), 6), ((2, 1), 5)):
        fibers: dict = {}
        for S in enumerate_ssot(lam, n, n):
            fibers.setdefault(standardize(S).chain, []).append(S)
        for chain, members in fibers.items():
            _, comp, _ = descent_data(members[0])
            strong_weights = {com(S) for S in members if 0 not in com(S)}
            assert strong_weights == set(ref_set(comp)), chain


def test_fibers_have_unique_quasi_yamanouchi():
    for lam, n in (((1,), 5), ((2,), 4)):
        fibers: dict = {}
        for S in enumerate_ssot(lam, n, n):
            fibers.setdefault(standardize(S).chain, []).append(S)
        for members in fibers.values():
            qy = [S for S in members if is_quasi_yamanouchi(S)]
            assert len(qy) == 1
            for S in members:
                assert destandardize(S) == qy[0]


def test_syt_descents_agree_with_chain_descents():
    # a standard tableau read as an addition-only chain keeps its descent data
    from oscitab.tableaux import des_syt, enumerate_syt

    for m in range(1, 8):
        for lam in partitions_of(m):
            for T in enumerate_syt(lam):
                boxes = {
                    x: (r + 1, c + 1)
                    for r, row in enumerate(T)
                    for c, x in enumerate(row)
                }
                S = ssot_from_events(
                    range(1, m + 1),
                    [boxes[x] for x in range(1, m + 1)],
                    [ADD] * m,
                )
                assert descent_data(S)[1] == des_syt(T), T


def test_run_validation():
    with pytest.raises(ValueError):
        Run((2, 1), frozenset())
    with pytest.raises(ValueError):
        Run((1, 1), frozenset({1}))
    assert str(Run((1, 1, 2), frozenset({2}))) == "11|2"
    assert Run((1, 1, 2), frozenset({2})).step == 2


def test_json_round_trip():
    S = SSOT((((), (2,)), ((1,), (3, 1)), ((1, 1), (2, 1))))
    assert ssot_from_dict(ssot_to_dict(S)) == S
    with pytest.raises(ValueError):
        ssot_from_dict({"steps": [{"deleted": [1]}]})
