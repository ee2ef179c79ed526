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

from .shapes import Box, conjugate
from .oscillating import ADD, DELETE, SSOT, ssot_from_events, substep_events
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


def symmetrize(L: TwoRowArray) -> TwoRowArray:
    """Each pair together with its mirror, rearranged lexicographically."""
    if not L.is_lexicographic():
        raise ValueError("symmetrization needs a lexicographic array")
    doubled = [*L.pairs, *((b, t) for t, b in L.pairs)]
    return TwoRowArray._of(tuple(sorted(doubled)))


def burge_map(L: TwoRowArray) -> Tableau:
    """Insertion tableau of the bottom word of the symmetrized array."""
    if not L.is_burge():
        raise ValueError("the Burge correspondence needs a Burge array")
    bottom_word = tuple(b for _, b in symmetrize(L).pairs)
    return insertion_tableau(bottom_word)


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
    events = substep_events(S)
    for m, (u, box, kind) in enumerate(
        zip(events.profile, events.boxes, events.kinds), 1
    ):
        if kind == ADD:
            _place_entry(cols, box, u)
        else:
            insort(pairs, (u, _column_unbump(cols, box)))
        yield m, u, kind, box


def sundaram_steps(S: SSOT) -> Iterator[tuple[int, int, str, Box, TwoRowArray, Tableau]]:
    """Replay the correspondence, yielding (m, letter, kind, box, L_m, T_m) per substep."""
    pairs: list[Pair] = []
    cols: list[list[int]] = []
    for m, u, kind, box in _replay(S, pairs, cols):
        yield m, u, kind, box, TwoRowArray._of(tuple(pairs)), _from_columns(cols)


def sundaram(S: SSOT) -> SundaramPair:
    """The (modified) Sundaram correspondence: an SSOT to its Burge/tableau pair."""
    pairs: list[Pair] = []
    cols: list[list[int]] = []
    for _ in _replay(S, pairs, cols):
        pass
    L = TwoRowArray._of(tuple(pairs))
    if not L.is_burge():
        raise ValueError("internal error: produced array is not Burge")
    return SundaramPair(L, _from_columns(cols))


def sundaram_inverse(pair: SundaramPair) -> SSOT:
    """Reconstruct the unique SSOT mapping to ``pair``.

    Undoes events largest letter first; a letter present in the tableau was
    an addition (undone before deletions of the same letter), otherwise the
    rightmost array pair is removed and its bottom value column-inserted.
    The largest entry of the tableau is the largest column bottom, and the
    rightmost box holding it is the corner removed.
    """
    if not pair.burge.is_burge():
        raise ValueError("not a Burge array")
    cols = _columns(check_tableau(pair.tableau))
    pairs = list(pair.burge.pairs)
    letters: list[int] = []
    boxes: list[Box] = []
    kinds: list[str] = []
    while pairs or cols:
        x, c = 0, 0
        for j, col in enumerate(cols):
            if col[-1] >= x:
                x, c = col[-1], j
        if pairs and pairs[-1][0] > x:
            x, bottom = pairs.pop()
            box = _column_insert(cols, bottom)
            kind = DELETE
        else:
            column = cols[c]
            column.pop()
            box = (len(column) + 1, c + 1)
            if not column:  # a corner in row 1 ends the last column
                cols.pop()
            kind = ADD
        letters.append(x)
        boxes.append(box)
        kinds.append(kind)
    try:
        return ssot_from_events(letters[::-1], boxes[::-1], kinds[::-1])
    except ValueError as exc:
        raise ValueError(f"pair has no valid preimage: {exc}") from exc
