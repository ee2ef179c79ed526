"""Oscillating tableaux and their semistandard refinement.

An oscillating tableau is a chain of partitions from the empty shape where
each step adds or deletes a single box.  A semistandard oscillating tableau
(SSOT) groups substeps into numbered steps: within step i a horizontal strip
is deleted, then a horizontal strip is added, and every touched box records
the letter i.  Events of one step are ordered deletions right-to-left, then
additions left-to-right.
"""

from dataclasses import dataclass

from .shapes import (
    Box,
    Composition,
    Partition,
    add_box,
    addable_boxes,
    check_partition,
    check_shape_query,
    horizontal_strip_boxes,
    in_N,
    is_horizontal_strip,
    is_partition,
    northeast,
    remove_box,
    removable_boxes,
)

ADD = "add"
DELETE = "delete"


@dataclass(frozen=True)
class OscillatingTableau:
    """Chain of partitions from the empty shape, one box changed per step."""

    chain: tuple[Partition, ...]

    def __post_init__(self):
        chain = tuple(tuple(p) for p in self.chain)
        object.__setattr__(self, "chain", chain)
        if not chain or chain[0] != ():
            raise ValueError("an oscillating tableau starts at the empty shape")
        for j in range(len(chain) - 1):
            a, b = chain[j], chain[j + 1]
            if not (is_partition(b) and abs(sum(a) - sum(b)) == 1):
                raise ValueError(f"chain step {j} does not change exactly one box")
            small, big = (a, b) if sum(a) < sum(b) else (b, a)
            if not _one_box_apart(small, big):
                raise ValueError(f"chain step {j} does not change exactly one box")

    @property
    def shape(self) -> Partition:
        return self.chain[-1]

    @property
    def length(self) -> int:
        return len(self.chain) - 1


def _one_box_apart(small: Partition, big: Partition) -> bool:
    if len(big) - len(small) > 1:
        return False
    diff = 0
    for i in range(len(big)):
        d = big[i] - (small[i] if i < len(small) else 0)
        if d < 0:
            return False
        diff += d
    return diff == 1


@dataclass(frozen=True)
class EventTrace:
    """Substep history: letters, touched boxes and add/delete kinds."""

    profile: tuple[int, ...]
    boxes: tuple[Box, ...]
    kinds: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.profile)


@dataclass(frozen=True)
class Run:
    """Weakly increasing letters with bars at descents, e.g. ``111|222233``."""

    letters: tuple[int, ...]
    bars: frozenset[int]

    def __post_init__(self):
        u = self.letters
        if any(u[j] > u[j + 1] for j in range(len(u) - 1)):
            raise ValueError("run letters must weakly increase")
        for j in self.bars:
            if not 1 <= j <= len(u) - 1:
                raise ValueError(f"bar position {j} out of range")
            if u[j - 1] >= u[j]:
                raise ValueError("letters must strictly increase across a bar")

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


@dataclass(frozen=True)
class SSOT:
    """Steps ``(deleted, reached)``: shape after step i's deletions, then additions.

    The first step deletes nothing; the last step must change the shape.
    Interior steps may be empty, which shifts all later letters.
    """

    steps: tuple[tuple[Partition, Partition], ...]

    def __post_init__(self):
        steps = tuple((tuple(d), tuple(r)) for d, r in self.steps)
        object.__setattr__(self, "steps", steps)
        prev: Partition = ()
        for i, (deleted, reached) in enumerate(steps, 1):
            if i == 1 and deleted != ():
                raise ValueError("step 1 cannot delete boxes")
            if not is_horizontal_strip(deleted, prev):
                raise ValueError(f"step {i}: deleted boxes are not a horizontal strip")
            if not is_horizontal_strip(deleted, reached):
                raise ValueError(f"step {i}: added boxes are not a horizontal strip")
            prev = reached
        if steps:
            deleted, reached = steps[-1]
            before = steps[-2][1] if len(steps) > 1 else ()
            if deleted == before and reached == deleted:
                raise ValueError("the last step must change the shape")

    @property
    def shape(self) -> Partition:
        return self.steps[-1][1] if self.steps else ()

    @property
    def step(self) -> int:
        return len(self.steps)

    @property
    def length(self) -> int:
        n = 0
        prev: Partition = ()
        for deleted, reached in self.steps:
            n += (sum(prev) - sum(deleted)) + (sum(reached) - sum(deleted))
            prev = reached
        return n


EMPTY_SSOT = SSOT(())


def substep_events(S: SSOT) -> EventTrace:
    """Event list of an SSOT: per step, deletions right-to-left then additions left-to-right."""
    profile: list[int] = []
    boxes: list[Box] = []
    kinds: list[str] = []
    prev: Partition = ()
    for i, (deleted, reached) in enumerate(S.steps, 1):
        for box in reversed(horizontal_strip_boxes(deleted, prev)):
            profile.append(i)
            boxes.append(box)
            kinds.append(DELETE)
        for box in horizontal_strip_boxes(deleted, reached):
            profile.append(i)
            boxes.append(box)
            kinds.append(ADD)
        prev = reached
    return EventTrace(tuple(profile), tuple(boxes), tuple(kinds))


def ot_events(O: OscillatingTableau) -> EventTrace:
    """Event list of an oscillating tableau; the profile is 1..n."""
    boxes: list[Box] = []
    kinds: list[str] = []
    for j in range(O.length):
        a, b = O.chain[j], O.chain[j + 1]
        if sum(b) > sum(a):
            kinds.append(ADD)
            boxes.append(_box_diff(a, b))
        else:
            kinds.append(DELETE)
            boxes.append(_box_diff(b, a))
    return EventTrace(tuple(range(1, O.length + 1)), tuple(boxes), tuple(kinds))


def _box_diff(small: Partition, big: Partition) -> Box:
    for i in range(len(big)):
        if big[i] != (small[i] if i < len(small) else 0):
            return (i + 1, big[i])
    raise ValueError("shapes are equal")


def replay_events(boxes, kinds) -> tuple[Partition, ...]:
    """Partition chain traced by events, starting from the empty shape."""
    current: Partition = ()
    chain = [current]
    for box, kind in zip(boxes, kinds):
        current = add_box(current, box) if kind == ADD else remove_box(current, box)
        chain.append(current)
    return tuple(chain)


def _events_of(x) -> EventTrace:
    if isinstance(x, SSOT):
        return substep_events(x)
    if isinstance(x, OscillatingTableau):
        return ot_events(x)
    raise TypeError(f"expected SSOT or OscillatingTableau, got {type(x).__name__}")


def is_descent(kind1: str, box1: Box, kind2: str, box2: Box) -> bool:
    """True when a new step must start between two consecutive events.

    Two additions descend when the second box is not northEast of the first;
    an addition followed by a deletion always descends; two deletions descend
    when the first box is not northEast of the second; a deletion followed by
    an addition never descends.
    """
    if kind1 == ADD:
        return kind2 == DELETE or not northeast(box1, box2)
    return kind2 == DELETE and not northeast(box2, box1)


def descent_positions(events: EventTrace) -> tuple[int, ...]:
    """Positions j where a new step must start between events j and j+1."""
    boxes, kinds = events.boxes, events.kinds
    out = []
    for j in range(1, len(boxes)):
        if is_descent(kinds[j - 1], boxes[j - 1], kinds[j], boxes[j]):
            out.append(j)
    return tuple(out)


def descent_data(x) -> tuple[frozenset[int], Composition, int]:
    """Descent set, descent composition and step count of an OT or SSOT."""
    events = _events_of(x)
    n = len(events)
    if n == 0:
        return frozenset(), (), 0
    des = descent_positions(events)
    cuts = list(des) + [n]
    comp = tuple(b - a for a, b in zip([0] + cuts, cuts))
    return frozenset(des), comp, len(comp)


def standardize(S: SSOT) -> OscillatingTableau:
    """Replace the j-th letter by j: the underlying oscillating tableau."""
    events = substep_events(S)
    return OscillatingTableau(replay_events(events.boxes, events.kinds))


def ssot_from_events(profile, boxes, kinds) -> SSOT:
    """Rebuild an SSOT from labelled events, checking the step-order conventions."""
    profile, boxes, kinds = tuple(profile), tuple(boxes), tuple(kinds)
    if not len(profile) == len(boxes) == len(kinds):
        raise ValueError("event components differ in length")
    if any(u < 1 for u in profile):
        raise ValueError("letters must be positive")
    if any(profile[j] > profile[j + 1] for j in range(len(profile) - 1)):
        raise ValueError("letters must weakly increase")
    steps: list[tuple[Partition, Partition]] = []
    current: Partition = ()
    j = 0
    top = profile[-1] if profile else 0
    for letter in range(1, top + 1):
        deleting = True
        prev_box: Box | None = None
        deleted = current
        while j < len(profile) and profile[j] == letter:
            box, kind = boxes[j], kinds[j]
            if kind == DELETE:
                if not deleting:
                    raise ValueError(f"step {letter}: deletion after an addition")
                if prev_box is not None and box[1] >= prev_box[1]:
                    raise ValueError(f"step {letter}: deletions must move left")
                current = remove_box(current, box)
                deleted = current
            else:
                if deleting:
                    deleting = False
                    prev_box = None
                if prev_box is not None and box[1] <= prev_box[1]:
                    raise ValueError(f"step {letter}: additions must move right")
                current = add_box(current, box)
            prev_box = box
            j += 1
        steps.append((deleted, current))
    return SSOT(tuple(steps))


def _block_letters(length: int, des) -> list[int]:
    """Letters 1, 2, ... for ``length`` steps, one higher after each descent position."""
    letters = []
    block = 1
    for j in range(1, length + 1):
        letters.append(block)
        if j in des:
            block += 1
    return letters


def destandardize(S: SSOT) -> SSOT:
    """The unique quasi-Yamanouchi tableau with the same standardization."""
    events = substep_events(S)
    letters = _block_letters(len(events), set(descent_positions(events)))
    return ssot_from_events(letters, events.boxes, events.kinds)


def com(S: SSOT) -> Composition:
    """Letter multiplicities of the profile, up to the largest letter used."""
    events = substep_events(S)
    top = events.profile[-1] if events.profile else 0
    counts = [0] * top
    for u in events.profile:
        counts[u - 1] += 1
    return tuple(counts)


def is_quasi_yamanouchi(S: SSOT) -> bool:
    """True when the profile weight equals the descent composition."""
    _, comp, _ = descent_data(S)
    return com(S) == comp


def run_of(x) -> Run:
    """Profile with bars at descents, for an OT or SSOT."""
    events = _events_of(x)
    return Run(events.profile, frozenset(descent_positions(events)))


def check_tableau_query(lam, n: int, bound: int, bound_name: str) -> Partition:
    """Validate a (shape, length, bound) query and return the shape without trailing zeros.

    A non-partition shape, a negative length and a bound below 1 raise
    ``ValueError``.  An inadmissible length is not an error: its answer is
    empty.
    """
    if bound < 1:
        raise ValueError(f"{bound_name} must be at least 1, got {bound}")
    return check_shape_query(lam, n)


def enumerate_ot(lam: Partition, n: int) -> list[OscillatingTableau]:
    """All oscillating tableaux of the given shape and length, in a fixed order.

    Successors are explored deletions first (rightmost box first), then
    additions left to right.  A non-partition shape and a negative length
    raise ``ValueError``; an inadmissible length gives an empty list.
    """
    lam = check_shape_query(lam, n)
    m = sum(lam)
    if not in_N(lam, n):
        return []
    out: list[OscillatingTableau] = []
    chain: list[Partition] = [()]

    def rec(current: Partition, remaining: int):
        if remaining == 0:
            if current == lam:
                out.append(OscillatingTableau(tuple(chain)))
            return
        candidates = [remove_box(current, b) for b in removable_boxes(current)]
        candidates += [add_box(current, b) for b in addable_boxes(current)]
        for nxt in candidates:
            if abs(sum(nxt) - m) > remaining - 1:
                continue
            chain.append(nxt)
            rec(nxt, remaining - 1)
            chain.pop()

    rec((), n)
    return out


def _labelings(n: int, strict_after: set[int], kmax: int):
    """Weakly increasing words in 1..kmax, strictly increasing after marked positions."""
    word: list[int] = []

    def rec(j: int, lo: int):
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


def enumerate_ssot(lam: Partition, n: int, max_letter: int) -> list[SSOT]:
    """All SSOTs of the given shape and length using letters at most ``max_letter``.

    Grouped by standardization: for each oscillating tableau, the fiber is
    the set of weakly increasing relabelings that are strict at descents.
    """
    lam = check_tableau_query(lam, n, max_letter, "max_letter")
    out: list[SSOT] = []
    for O in enumerate_ot(lam, n):
        events = ot_events(O)
        des = set(descent_positions(events))
        for u in _labelings(O.length, des, max_letter):
            out.append(ssot_from_events(u, events.boxes, events.kinds))
    return out


def enumerate_qyot(lam: Partition, n: int, max_step: int) -> list[SSOT]:
    """All quasi-Yamanouchi SSOTs of step at most ``max_step``; one per OT of that step."""
    lam = check_tableau_query(lam, n, max_step, "max_step")
    out: list[SSOT] = []
    for O in enumerate_ot(lam, n):
        events = ot_events(O)
        des = descent_positions(events)
        if len(des) + 1 > max_step and O.length > 0:
            continue
        letters = _block_letters(O.length, des)
        out.append(ssot_from_events(letters, events.boxes, events.kinds))
    return out


def render_boxes(S: SSOT) -> list[list[str]]:
    """Multiset-tableau display: per box, the letters that ever touched it."""
    events = substep_events(S)
    cells: dict[Box, list[int]] = {}
    for u, box in zip(events.profile, events.boxes):
        cells.setdefault(box, []).append(u)
    if not cells:
        return []
    nrows = max(r for r, _ in cells)
    widths = [max(c for r, c in cells if r == row) for row in range(1, nrows + 1)]
    return [
        ["".join(str(u) for u in cells[(row, col)]) for col in range(1, widths[row - 1] + 1)]
        for row in range(1, nrows + 1)
    ]


def ssot_to_dict(S: SSOT) -> dict:
    return {
        "steps": [
            {"deleted": list(d), "reached": list(r)} for d, r in S.steps
        ]
    }


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
