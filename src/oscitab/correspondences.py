"""Burge arrays and the Sundaram correspondence for oscillating tableaux.

A two-row array is lexicographic when its columns (top, bottom) weakly
increase left to right; it is Burge when additionally top > bottom in every
column.  The Sundaram map replays an SSOT's substeps, growing a tableau on
additions and column-unbumping on deletions, each deletion contributing a
Burge pair (letter, ejected value).
"""

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .shapes import Box, Partition, conjugate
from .oscillating import ADD, SSOT, _step_events
from .tableaux import (
    Tableau,
    _column_insert,
    _column_unbump,
    _columns,
    _from_columns,
    check_tableau,
    insertion_tableau,
    tableau_shape,
)

Pair = tuple[int, int]


@dataclass(frozen=True)
class TwoRowArray:
    """Sequence of (top, bottom) pairs of positive integers."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        pairs = tuple(tuple(p) for p in self.pairs)
        for p in pairs:
            if len(p) != 2 or any(type(x) is not int or x < 1 for x in p):
                raise ValueError(f"array pairs must be two positive integers, got {p}")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _of(cls, pairs: tuple[Pair, ...]) -> "TwoRowArray":
        """Array from a tuple of pairs already known to be valid."""
        out = object.__new__(cls)
        object.__setattr__(out, "pairs", pairs)
        return out

    def is_lexicographic(self) -> bool:
        return all(self.pairs[i] <= self.pairs[i + 1] for i in range(len(self.pairs) - 1))

    def is_burge(self) -> bool:
        return self.is_lexicographic() and all(t > b for t, b in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def content(self) -> Counter:
        """Multiset of all entries, both rows."""
        c: Counter = Counter()
        for t, b in self.pairs:
            c[t] += 1
            c[b] += 1
        return c

    def to_dict(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs]}

    @classmethod
    def from_dict(cls, data: dict) -> "TwoRowArray":
        try:
            return cls(tuple(tuple(p) for p in data["pairs"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed array encoding: {exc}") from exc


EMPTY_ARRAY = TwoRowArray(())


def _symmetrized(pairs: tuple[Pair, ...]) -> list[Pair]:
    """Lexicographic pairs together with their mirrors, rearranged lexicographically."""
    return sorted([*pairs, *((b, t) for t, b in pairs)])


def symmetrize(L: TwoRowArray) -> TwoRowArray:
    """Each pair together with its mirror, rearranged lexicographically."""
    if not L.is_lexicographic():
        raise ValueError("symmetrization needs a lexicographic array")
    return TwoRowArray._of(tuple(_symmetrized(L.pairs)))


def burge_map(L: TwoRowArray) -> Tableau:
    """Insertion tableau of the bottom word of the symmetrized array."""
    if not L.is_burge():
        raise ValueError("the Burge correspondence needs a Burge array")
    return insertion_tableau(tuple(b for _, b in _symmetrized(L.pairs)))


@dataclass(frozen=True)
class SundaramPair:
    """Image of an SSOT: a Burge array and a tableau of the SSOT's shape."""

    burge: TwoRowArray
    tableau: Tableau

    def length(self) -> int:
        return 2 * len(self.burge) + sum(tableau_shape(self.tableau))

    def content(self) -> Counter:
        c = self.burge.content()
        for row in self.tableau:
            c.update(row)
        return c

    def to_dict(self) -> dict:
        return {"burge": self.burge.to_dict(), "tableau": [list(r) for r in self.tableau]}

    @classmethod
    def from_dict(cls, data: dict) -> "SundaramPair":
        try:
            return cls(
                TwoRowArray.from_dict(data["burge"]),
                check_tableau(data["tableau"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed pair encoding: {exc}") from exc


def _place_entry(cols: list[list[int]], box: Box, x: int) -> None:
    """Put ``x`` in the addable ``box`` of a list of columns, in place."""
    row, col = box
    if not (
        1 <= col <= len(cols) + 1
        and (len(cols[col - 1]) if col <= len(cols) else 0) == row - 1
        and (col == 1 or len(cols[col - 2]) >= row)
    ):
        shape = conjugate(tuple(len(c) for c in cols))
        raise ValueError(f"box {box} is not addable to shape {shape}")
    if col > 1 and cols[col - 2][row - 1] > x:
        raise ValueError(f"placing {x} at {box} breaks row order")
    if row > 1 and cols[col - 1][row - 2] >= x:
        raise ValueError(f"placing {x} at {box} breaks column order")
    if col > len(cols):
        cols.append([x])
    else:
        cols[col - 1].append(x)


def _replay(S: SSOT, pairs: list[Pair], cols: list[list[int]]) -> Iterator[tuple[int, int, str, Box]]:
    """Apply the substeps of ``S`` to a sorted pair list and a list of columns, in place.

    Yields ``(m, letter, kind, box)`` after each substep.
    """
    for m, (u, box, kind) in enumerate(_step_events(S.steps), 1):
        if kind == ADD:
            _place_entry(cols, box, u)
        else:
            insort(pairs, (u, _column_unbump(cols, box)))
        yield m, u, kind, box


def _finish(pairs: list[Pair], cols: list[list[int]]) -> SundaramPair:
    """The pair that a finished replay has built, checked to be a Burge pair."""
    L = TwoRowArray._of(tuple(pairs))
    if not L.is_burge():
        raise ValueError("internal error: produced array is not Burge")
    return SundaramPair(L, _from_columns(cols))


def sundaram_steps(S: SSOT) -> Iterator[tuple[int, int, str, Box, TwoRowArray, Tableau]]:
    """Replay the correspondence, yielding (m, letter, kind, box, L_m, T_m) per substep.

    The last row holds ``sundaram(S)``; once it is yielded, the result is
    checked as ``sundaram`` checks it.
    """
    pairs: list[Pair] = []
    cols: list[list[int]] = []
    for m, u, kind, box in _replay(S, pairs, cols):
        yield m, u, kind, box, TwoRowArray._of(tuple(pairs)), _from_columns(cols)
    _finish(pairs, cols)


def sundaram(S: SSOT) -> SundaramPair:
    """The (modified) Sundaram correspondence: an SSOT to its Burge/tableau pair."""
    pairs: list[Pair] = []
    cols: list[list[int]] = []
    for _ in _replay(S, pairs, cols):
        pass
    return _finish(pairs, cols)


def sundaram_inverse(pair: SundaramPair) -> SSOT:
    """Reconstruct the unique SSOT mapping to ``pair``.

    Undoes events largest letter first; a letter present in the tableau was
    an addition (undone before deletions of the same letter), otherwise the
    rightmost array pair is removed and its bottom value column-inserted.
    The largest entry of the tableau is the largest column bottom, and the
    rightmost box holding it is the corner removed.

    The steps are read off the row lengths as the walk goes: a letter's step
    reaches the shape found before its first event is undone, and deletes
    down to the shape found before its first deletion is undone.  Undone in
    reverse, a letter's additions must move left and its deletions right,
    and no addition may follow a deletion.  Every box is a corner that the
    walk removes or a box that column insertion adds, so each event fits
    its shape.
    """
    if not pair.burge.is_burge():
        raise ValueError("not a Burge array")
    T = check_tableau(pair.tableau)
    cols = _columns(T)
    rows = [len(row) for row in T]
    pairs = list(pair.burge.pairs)
    steps: list[tuple[Partition, Partition]] = []  # top letter first
    letter = 0
    reached: Partition = ()
    deleted: Partition | None = None  # set when the letter's first deletion is undone
    prev_col = 0
    while True:
        x, c = 0, 0
        for j, column in enumerate(cols):
            if column[-1] >= x:
                x, c = column[-1], j
        undo_deletion = bool(pairs) and pairs[-1][0] > x
        if undo_deletion:
            x = pairs[-1][0]
        if x != letter:  # close the step of ``letter`` and the empty ones down to ``x``
            if letter:
                shape = tuple(rows)
                steps.append((shape if deleted is None else deleted, reached))
                steps.extend([(shape, shape)] * (letter - x - 1))
            letter, reached, deleted, prev_col = x, tuple(rows), None, 0
        if not x:  # nothing is left
            break
        if undo_deletion:
            if deleted is None:
                deleted, prev_col = tuple(rows), 0
            row, col = _column_insert(cols, pairs.pop()[1])
            if prev_col and col <= prev_col:
                raise ValueError(f"pair has no valid preimage: step {letter}: deletions must move left")
            if row > len(rows):
                rows.append(1)
            else:
                rows[row - 1] += 1
        else:
            if deleted is not None:
                raise ValueError(f"pair has no valid preimage: step {letter}: deletion after an addition")
            col = c + 1
            if prev_col and col >= prev_col:
                raise ValueError(f"pair has no valid preimage: step {letter}: additions must move right")
            column = cols[c]
            column.pop()
            if not column:  # a corner in row 1 ends the last column
                cols.pop()
            row = len(column) + 1
            if rows[row - 1] == 1:  # a corner of length 1 ends the last row
                rows.pop()
            else:
                rows[row - 1] -= 1
        prev_col = col
    return SSOT._of(tuple(steps[::-1]))
