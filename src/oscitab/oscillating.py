"""Oscillating tableaux and their semistandard refinement.

An oscillating tableau is a chain of partitions from the empty shape where
each step adds or deletes a single box.  A semistandard oscillating tableau
(SSOT) groups substeps into numbered steps: within step i a horizontal strip
is deleted, then a horizontal strip is added, and every touched box records
the letter i.  Events of one step are ordered deletions right-to-left, then
additions left-to-right.
"""

from bisect import bisect_right
from itertools import accumulate, pairwise

from .shapes import (
    Box,
    Composition,
    Partition,
    _Record,
    _check_instance,
    _check_int,
    _descent_composition,
    _in_N,
    _int_pair,
    _is_horizontal_strip,
    _is_partition,
    _memo,
    _northeast,
    _tuple_of,
    _weak_refinements,
    check_partition,
    check_shape_query,
    check_tableau_query,
)

ADD = "add"
DELETE = "delete"


class OscillatingTableau(_Record):
    """Chain of partitions from the empty shape, one box changed per step."""

    __slots__ = _fields = ("chain",)
    chain: tuple[Partition, ...]

    def __init__(self, chain):
        chain = _tuple_of(chain, "chain of partitions", tuple)
        if not chain or chain[0] != ():
            raise ValueError("an oscillating tableau starts at the empty shape")
        for j, (a, b) in enumerate(pairwise(chain)):
            if not (_is_partition(b) and _move(a, b)):  # _is_partition rejects float and bool parts
                raise ValueError(f"chain step {j} does not change exactly one box")
        super().__init__(chain)

    @property
    def shape(self) -> Partition:
        return self.chain[-1]

    @property
    def length(self) -> int:
        return len(self.chain) - 1


class EventTrace(_Record):
    """Substep history: letters, touched boxes and add/delete kinds.

    The constructor checks the types only: letters are ``int``s >= 1, boxes
    pairs of ``int``s and kinds ``ADD`` or ``DELETE``, as many of each.
    ``ssot_from_events`` checks that the events make an SSOT.
    """

    __slots__ = _fields = ("profile", "boxes", "kinds")
    profile: tuple[int, ...]
    boxes: tuple[Box, ...]
    kinds: tuple[str, ...]

    def __init__(self, profile, boxes, kinds):
        profile = _tuple_of(profile, "letters", lambda u: _check_int(u, "a letter", 1))
        boxes, kinds = _tuple_of(boxes, "boxes", _int_pair), _tuple_of(kinds, "event kinds")
        if not len(profile) == len(boxes) == len(kinds):
            raise ValueError("event components differ in length")
        for kind in kinds:
            _check_kind(kind)
        super().__init__(profile, boxes, kinds)

    def __len__(self) -> int:
        return len(self.profile)


class Run(_Record):
    """Weakly increasing letters with bars at descents, e.g. ``111|222233``."""

    __slots__ = _fields = ("letters", "bars")
    letters: tuple[int, ...]
    bars: frozenset[int]

    def __init__(self, letters, bars):
        u, bars = _tuple_of(letters, "run letters"), _tuple_of(bars, "bar positions")
        if any(type(x) is not int for x in u) or u and u[0] < 1 or any(u[j] > u[j + 1] for j in range(len(u) - 1)):
            raise ValueError(f"run letters must be weakly increasing positive integers, got {u}")
        for j in bars:
            if type(j) is not int or not 1 <= j <= len(u) - 1:
                raise ValueError(f"bar position {j!r} out of range")
            if u[j - 1] >= u[j]:
                raise ValueError("letters must strictly increase across a bar")
        super().__init__(u, frozenset(bars))

    def __str__(self) -> str:
        out = []
        for j, x in enumerate(self.letters, 1):
            out.append(str(x))
            if j in self.bars:
                out.append("|")
        return "".join(out)

    @property
    def step(self) -> int:
        return len(self.bars) + 1 if self.letters else 0


class SSOT(_Record):
    """Steps ``(deleted, reached)``: shape after step i's deletions, then additions.

    The first step deletes nothing; the last step must change the shape.
    Interior steps may be empty, which shifts all later letters.
    """

    __slots__ = _fields = ("steps",)
    steps: tuple[tuple[Partition, Partition], ...]

    def __init__(self, steps):
        steps = _tuple_of(steps, "SSOT steps", lambda step: tuple(map(check_partition, step)))
        prev: Partition = ()
        for i, step in enumerate(steps, 1):
            if len(step) != 2:
                raise ValueError(f"SSOT steps must be (deleted, reached) pairs, got {step}")
            deleted, reached = step
            if i == 1 and deleted != ():
                raise ValueError("step 1 cannot delete boxes")
            if not _is_horizontal_strip(deleted, prev):
                raise ValueError(f"step {i}: deleted boxes are not a horizontal strip")
            if not _is_horizontal_strip(deleted, reached):
                raise ValueError(f"step {i}: added boxes are not a horizontal strip")
            prev = reached
        if steps:
            deleted, reached = steps[-1]
            before = steps[-2][1] if len(steps) > 1 else ()
            if deleted == before and reached == deleted:
                raise ValueError("the last step must change the shape")
        super().__init__(steps)

    @property
    def shape(self) -> Partition:
        return self.steps[-1][1] if self.steps else ()

    @property
    def step(self) -> int:
        return len(self.steps)

    @property
    def length(self) -> int:
        return sum(_step_sizes(self.steps))


EMPTY_SSOT = SSOT(())


def _step_sizes(steps) -> "Iterator[int]":
    """Events of each step: the boxes it deletes, then the boxes it adds."""
    prev = 0
    for deleted, reached in steps:
        kept, size = sum(deleted), sum(reached)
        yield prev + size - 2 * kept
        prev = size


def _step_events(steps) -> "Iterator[tuple[int, Box, str]]":
    """``(letter, box, kind)`` of each substep of the SSOT with these steps, in event order.

    Per step, deletions come right to left, then additions left to right.
    A horizontal strip's higher rows lie further right, so deletions run
    top row first and additions bottom row first.
    """
    prev: Partition = ()
    for i, (deleted, reached) in enumerate(steps, 1):
        for r, old in enumerate(prev):
            low = deleted[r] if r < len(deleted) else 0
            for c in range(old, low, -1):
                yield i, (r + 1, c), DELETE
        for r in range(len(reached) - 1, -1, -1):
            low = deleted[r] if r < len(deleted) else 0
            for c in range(low + 1, reached[r] + 1):
                yield i, (r + 1, c), ADD
        prev = reached


def substep_events(S: SSOT) -> EventTrace:
    """Event list of an SSOT: per step, deletions right-to-left then additions left-to-right."""
    _check_instance(S, SSOT, "an SSOT")
    profile, boxes, kinds = tuple(zip(*_step_events(S.steps))) or ((), (), ())
    return EventTrace._of(profile, boxes, kinds)


def ot_events(O: OscillatingTableau) -> EventTrace:
    """Event list of an oscillating tableau; the profile is 1..n."""
    _check_instance(O, OscillatingTableau, "an OscillatingTableau")
    kinds, boxes = tuple(zip(*(_move(a, b) for a, b in pairwise(O.chain)))) or ((), ())
    return EventTrace._of(tuple(range(1, O.length + 1)), boxes, kinds)


def _check_kind(kind) -> None:
    if kind != ADD and kind != DELETE:
        raise ValueError(f"unknown event kind {kind!r}")


def replay_events(boxes, kinds) -> tuple[Partition, ...]:
    """Partition chain traced by events, starting from the empty shape.

    ``ValueError`` unless each event adds or deletes a box that is a pair of
    ``int``s and a corner of the shape it reaches: the event must be one of
    the ``_one_box_moves`` of that shape.
    """
    current: Partition = ()
    chain = [current]
    for box, kind in zip(_tuple_of(boxes, "boxes", _int_pair), _tuple_of(kinds, "event kinds")):
        _check_kind(kind)
        current = next((nxt for kind2, box2, nxt, _ in _one_box_moves(current, ()) if box2 == box and kind2 == kind), None)
        if current is None:
            raise ValueError(f"cannot {kind} the box {box} at the shape {chain[-1]}")
        chain.append(current)
    return tuple(chain)


def _events_of(x) -> EventTrace:
    if isinstance(x, EventTrace):
        return x
    if isinstance(x, SSOT):
        return substep_events(x)
    if isinstance(x, OscillatingTableau):
        return ot_events(x)
    raise ValueError(f"expected SSOT, OscillatingTableau or EventTrace, got {type(x).__name__}")


def _is_descent(kind1: str, box1: Box, kind2: str, box2: Box) -> bool:
    """True when a new step must start between two consecutive events.

    Two additions descend when the second box is not northEast of the first;
    an addition followed by a deletion always descends; two deletions descend
    when the first box is not northEast of the second; a deletion followed by
    an addition never descends.
    """
    if kind1 == ADD:
        return kind2 == DELETE or not _northeast(box1, box2)
    return kind2 == DELETE and not _northeast(box2, box1)


def descent_positions(events: EventTrace) -> tuple[int, ...]:
    """Positions j where a new step must start between events j and j+1."""
    _check_instance(events, EventTrace, "an EventTrace")
    boxes, kinds = events.boxes, events.kinds
    out = []
    for j in range(1, len(boxes)):
        if _is_descent(kinds[j - 1], boxes[j - 1], kinds[j], boxes[j]):
            out.append(j)
    return tuple(out)


def descent_data(x) -> tuple[frozenset[int], Composition, int]:
    """Descent set, descent composition and step count of an OT, SSOT or event trace."""
    events = _events_of(x)
    des = descent_positions(events)
    comp = _descent_composition(des, len(events))
    return frozenset(des), comp, len(comp)


def standardize(S: SSOT) -> OscillatingTableau:
    """Replace the j-th letter by j: the underlying oscillating tableau."""
    events = substep_events(S)
    return OscillatingTableau._of(replay_events(events.boxes, events.kinds))


def ssot_from_events(profile, boxes, kinds) -> SSOT:
    """Rebuild an SSOT from labelled events: exactly the event lists that ``substep_events`` yields.

    The events must replay into a chain from the empty shape, and the steps
    that the letters cut the chain into must yield the same events again.
    """
    events = EventTrace(profile, boxes, kinds)
    profile, boxes, kinds = events.profile, events.boxes, events.kinds
    if any(profile[j] > profile[j + 1] for j in range(len(profile) - 1)):
        raise ValueError("letters must weakly increase")
    chain = replay_events(boxes, kinds)
    ends = [bisect_right(profile, letter) for letter in range(1, max(profile, default=0) + 1)]
    steps = _steps(chain, _deletions(kinds), ends)
    if tuple(_step_events(steps)) != tuple(zip(profile, boxes, kinds)):
        raise ValueError("per letter, events must delete right to left, then add left to right")
    return SSOT._of(steps)


def destandardize(S: SSOT) -> SSOT:
    """The unique quasi-Yamanouchi tableau with the same standardization."""
    events = substep_events(S)
    chain = replay_events(events.boxes, events.kinds)
    return SSOT._of(_qyot_steps(chain, _deletions(events.kinds), descent_positions(events)))


def com(S: SSOT) -> Composition:
    """Letter multiplicities of the profile, up to the largest letter used.

    The last step changes the shape, so the largest letter is the step count.
    """
    return tuple(_step_sizes(_check_instance(S, SSOT, "an SSOT").steps))


def is_quasi_yamanouchi(S: SSOT) -> bool:
    """True when the profile weight equals the descent composition."""
    _, comp, _ = descent_data(S)
    return com(S) == comp


def run_of(x) -> Run:
    """Profile with bars at descents, for an OT or SSOT."""
    events = _events_of(x)
    return Run(events.profile, frozenset(descent_positions(events)))


def _one_box_moves(shape: Partition, lam: Partition) -> list[tuple[str, Box, Partition, int]]:
    """Every event from ``shape``: its kind, its box, the shape it reaches and that shape's distance to ``lam``.

    Deletions come first, rightmost box first, then additions left to right:
    the corners of a partition lie further right in higher rows, so the
    deletions run top row first and the additions from the new bottom row
    up.  The distance is the number of one-box moves from a shape to
    ``lam``, down to their intersection and then up:
    ``|shape| + |lam| - 2 * sum(min(shape[r], lam[r]))``.  A move in row
    ``r`` changes ``min(shape[r], lam[r])`` exactly when the row ends at or
    before ``lam[r]`` (a deletion) or before it (an addition), so each
    move's distance is the shape's own plus or minus one.
    """
    rows = len(shape)
    dist = sum(shape) + sum(lam) - 2 * sum(map(min, shape, lam))
    cap = lam + (0,) * (rows + 1 - len(lam))  # lam[r] for every row r <= rows
    out = []
    for r in range(rows):
        c = shape[r]
        if r + 1 == rows or shape[r + 1] < c:
            nxt = shape[:r] + (c - 1,) + shape[r + 1:] if c > 1 else shape[:r]
            out.append((DELETE, (r + 1, c), nxt, dist + 1 if c <= cap[r] else dist - 1))
    out.append((ADD, (rows + 1, 1), shape + (1,), dist - 1 if cap[rows] else dist + 1))
    for r in range(rows - 1, -1, -1):
        c = shape[r]
        if r == 0 or shape[r - 1] > c:
            nxt = shape[:r] + (c + 1,) + shape[r + 1:]
            out.append((ADD, (r + 1, c + 1), nxt, dist - 1 if c < cap[r] else dist + 1))
    return out


def _move(a: Partition, b: Partition) -> tuple[str, Box] | None:
    """Kind and box of the event from ``a`` to ``b``, read off ``_one_box_moves``; None if there is none."""
    return next(((kind, box) for kind, box, nxt, _ in _one_box_moves(a, ()) if nxt == b), None)


class _Table(dict):
    """Transition table of the OTs that end at ``lam``, filled in as it is read.

    A state is ``(shape, kind, box)``: a shape with the kind and box of the
    event that reached it, ``((), None, None)`` before the first event.
    ``table[state]`` lists, in ``_one_box_moves`` order, one
    ``(state', descends, dist)`` per event from the shape: the state it
    reaches, whether ``_is_descent`` puts a descent between the two events,
    and the distance of the new shape to ``lam``.  An entry is stored whole,
    so a walk stopped part way leaves only complete entries behind.
    """

    __slots__ = ("lam", "moves")

    def __init__(self, lam: Partition):
        self.lam = lam
        self.moves: dict[Partition, list] = {}  # per shape, shared by the states at that shape

    def __missing__(self, state):
        shape, kind, box = state
        moves = self.moves.get(shape) or self.moves.setdefault(shape, _one_box_moves(shape, self.lam))
        out = self[state] = [
            ((nxt, kind2, box2), kind is not None and _is_descent(kind, box, kind2, box2), dist)
            for kind2, box2, nxt, dist in moves
        ]
        return out


@_memo
def _transitions(lam: Partition) -> _Table:
    """The transition table of ``lam``, one per shape for the life of the process.

    The table is a pure function of ``lam``, so the counting programs of
    ``polyring`` and the walk share it: a query reuses every state that
    earlier queries on the same shape filled in.
    ``_transitions.cache_clear()`` empties it.
    """
    return _Table(lam)


def _walk(lam: Partition, n: int, max_parts: int):
    """Depth-first walk over the OTs of shape ``lam`` and length ``n`` with at most ``max_parts`` runs.

    Yields ``(chain, boxes, dels, des)`` once per OT: ``dels[j]`` counts the
    deletions among its first ``j`` events, and ``des`` holds its descent
    positions, read off the shared ``_transitions`` table of ``lam`` as the
    walk goes, so it fills in the states it reaches for later queries.  Both
    are kept per prefix, so a leaf reads them and derives neither again.
    A branch is dropped when its shape is further from ``lam`` than the
    events left, as in the counting programs, or when a descent would make
    more than ``max_parts`` runs, so every branch taken ends in an OT that
    is yielded.  ``lam`` must be a partition and ``n`` nonnegative.
    """
    if not _in_N(lam, n):
        return
    table = _transitions(lam)
    chain: list[Partition] = [()]
    boxes: list[Box] = []
    dels = [0]
    des: list[int] = []

    def rec(state, left: int):
        if left == 0:
            yield tuple(chain), tuple(boxes), tuple(dels), tuple(des)
            return
        t = len(boxes)
        for target, descends, dist in table[state]:
            if dist >= left:
                continue
            if descends:
                if len(des) + 2 > max_parts:
                    continue
                des.append(t)
            shape, kind, box = target
            chain.append(shape)
            boxes.append(box)
            dels.append(dels[-1] + (kind == DELETE))
            yield from rec(target, left - 1)
            chain.pop()
            boxes.pop()
            dels.pop()
            if descends:
                des.pop()

    yield from rec(((), None, None), n)


def _steps(chain, dels, ends) -> tuple[tuple[Partition, Partition], ...]:
    """Steps of the SSOT whose letter blocks of events end at the positions ``ends``.

    A block deletes before it adds, so the block of events ``start..end-1``
    deletes down to ``chain[start + its deletions]`` and reaches
    ``chain[end]``; an empty block is the step ``(chain[end], chain[end])``.
    ``dels[j]`` counts the deletions among the first ``j`` events.  The
    steps stop at the last event, so blocks after it are dropped.
    """
    n = len(chain) - 1
    steps = []
    start = 0
    for end in ends:
        if start == n:
            break
        steps.append((chain[start + dels[end] - dels[start]], chain[end]))
        start = end
    return tuple(steps)


def _deletions(kinds) -> list[int]:
    """Deletions among the first ``j`` events, for every ``j``."""
    return list(accumulate((kind == DELETE for kind in kinds), initial=0))


def _qyot_steps(chain, dels, des) -> tuple[tuple[Partition, Partition], ...]:
    """Steps of the quasi-Yamanouchi SSOT of an OT: step ``i`` holds the ``i``-th run between the descents ``des``.

    ``dels`` counts the deletions among the OT's first ``j`` events, for every ``j``.
    """
    return _steps(chain, dels, (*des, len(chain) - 1))


def enumerate_ot(lam: Partition, n: int) -> list[OscillatingTableau]:
    """All oscillating tableaux of the given shape and length, in a fixed order.

    Successors are explored deletions first (rightmost box first), then
    additions left to right.  A non-partition shape and a negative length
    raise ``ValueError``; an inadmissible length gives an empty list.
    """
    lam = check_shape_query(lam, n)
    return [OscillatingTableau._of(chain) for chain, _, _, _ in _walk(lam, n, n)]


def enumerate_ssot(lam: Partition, n: int, max_letter: int) -> list[SSOT]:
    """All SSOTs of the given shape and length using letters at most ``max_letter``.

    Grouped by standardization, in ``enumerate_ot``'s order: for each
    oscillating tableau, the fiber is the set of weakly increasing
    relabelings that are strict at descents, in lexicographic order.  Their
    contents are the weak refinements of the descent composition, and letter
    ``v`` labels the events up to the ``v``-th partial sum.  One walk lists
    the tableaux and their descents, skipping those with more descents than
    the letters allow.  Each distinct descent set's cuts, the partial sums
    of every content in its fiber, are built once per call.
    """
    lam = check_tableau_query(lam, n, max_letter, "max_letter")
    out: list[SSOT] = []
    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # per descent set, its fiber's cuts
    for chain, _, dels, des in _walk(lam, n, max_letter):
        cuts = fibers.get(des)
        if cuts is None:
            comp = _descent_composition(des, n)
            cuts = fibers[des] = [tuple(accumulate(c)) for c in _weak_refinements(comp, max_letter)]
        out.extend([SSOT._of(_steps(chain, dels, ends)) for ends in cuts])
    return out


def enumerate_qyot(lam: Partition, n: int, max_step: int) -> list[SSOT]:
    """All quasi-Yamanouchi SSOTs of step at most ``max_step``; one per OT of that step.

    Step ``i`` of the tableau of an OT holds the ``i``-th run between its
    descents.  One walk lists the OTs and their descents, skipping those
    with more than ``max_step`` runs.
    """
    lam = check_tableau_query(lam, n, max_step, "max_step")
    return [SSOT._of(_qyot_steps(chain, dels, des)) for chain, _, dels, des in _walk(lam, n, max_step)]


def render_boxes(x) -> list[list[str]]:
    """Multiset-tableau display: per box, the letters that ever touched it (of an SSOT, OT or event trace)."""
    events = _events_of(x)
    return _box_rows(map(str, events.profile), events.boxes)


def _box_rows(letters, boxes) -> list[list[str]]:
    """Rows of cells, each the letters (strings) of the events that touched its box, in order.

    The boxes that a chain from the empty shape touches fill each row from
    the left and the rows from the top, so a box touched for the first time
    is the next cell of its row or the first cell of the next row;
    ``ValueError`` for one that leaves a gap.
    """
    rows: list[list[str]] = []
    for u, (row, col) in zip(letters, boxes):
        if 0 < row <= len(rows):
            cells = rows[row - 1]
            if 0 < col <= len(cells):
                cells[col - 1] += u
                continue
            if col == len(cells) + 1:
                cells.append(u)
                continue
        elif (row, col) == (len(rows) + 1, 1):
            rows.append([u])
            continue
        raise ValueError(f"box {(row, col)} is not next to the boxes touched before it")
    return rows


def ssot_to_dict(S: SSOT) -> dict:
    steps = _check_instance(S, SSOT, "an SSOT").steps
    return {"steps": [{"deleted": list(d), "reached": list(r)} for d, r in steps]}


def _shape_entry(entry) -> Partition:
    if not isinstance(entry, (list, tuple)) or not all(type(p) is int for p in entry):
        raise ValueError(f"malformed SSOT encoding: {entry!r} is not a list of integers")
    return check_partition(entry)


def ssot_from_dict(data: dict) -> SSOT:
    try:
        steps = tuple(
            (_shape_entry(step["deleted"]), _shape_entry(step["reached"]))
            for step in data["steps"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed SSOT encoding: {exc}") from exc
    return SSOT(steps)
