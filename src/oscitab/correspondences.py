"""Burge arrays and the Sundaram correspondence for oscillating tableaux.

A two-row array is lexicographic when its columns (top, bottom) weakly
increase left to right; it is Burge when additionally top > bottom in every
column.  The Sundaram map replays an SSOT's substeps, growing a tableau on
additions and column-unbumping on deletions, each deletion contributing a
Burge pair (letter, ejected value).
"""

from .shapes import Box, Partition, _Record, _check_instance, _tuple_of
from .oscillating import ADD, DELETE, SSOT
from .tableaux import (
    Tableau,
    _column_insert,
    _column_unbump,
    _columns,
    _from_columns,
    _row_insert,
    check_tableau,
)

Pair = tuple[int, int]


class TwoRowArray(_Record):
    """Sequence of (top, bottom) pairs of positive integers."""

    __slots__ = ("pairs", "_burge")
    _fields = ("pairs",)
    pairs: tuple[Pair, ...]

    def __init__(self, pairs):
        pairs = _tuple_of(pairs, "array pairs", tuple)
        for p in pairs:
            if len(p) != 2 or any(type(x) is not int or x < 1 for x in p):
                raise ValueError(f"array pairs must be two positive integers, got {p}")
        super().__init__(pairs)

    def is_lexicographic(self) -> bool:
        pairs = self.pairs
        return all(map(tuple.__le__, pairs, pairs[1:]))

    def is_burge(self) -> bool:
        """Lexicographic with top > bottom in every pair.

        The verdict is kept on the instance once found; the pairs are
        immutable, so it cannot go stale, and equality, hash, repr and
        pickling see only the pairs.
        """
        burge = getattr(self, "_burge", None)  # a new array has no verdict yet
        if burge is None:
            burge = self.is_lexicographic() and all(t > b for t, b in self.pairs)
            object.__setattr__(self, "_burge", burge)
        return burge

    def __len__(self) -> int:
        return len(self.pairs)

    def content(self) -> "Counter":
        """Multiset of all entries, both rows."""
        from collections import Counter  # imported here: start-up never needs it

        c = Counter()
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
    if not _check_instance(L, TwoRowArray, "a TwoRowArray").is_lexicographic():
        raise ValueError("symmetrization needs a lexicographic array")
    return TwoRowArray._of(tuple(_symmetrized(L.pairs)))


def burge_map(L: TwoRowArray) -> Tableau:
    """Insertion tableau of the bottom word of the symmetrized array."""
    if not _check_instance(L, TwoRowArray, "a TwoRowArray").is_burge():
        raise ValueError("the Burge correspondence needs a Burge array")
    rows: list[list[int]] = []
    for _, b in _symmetrized(L.pairs):  # the constructor checked every entry
        _row_insert(rows, b)
    return tuple(map(tuple, rows))


class SundaramPair(_Record):
    """Image of an SSOT: a Burge array and a tableau of the SSOT's shape."""

    __slots__ = _fields = ("burge", "tableau")
    burge: TwoRowArray
    tableau: Tableau

    def __init__(self, burge, tableau):
        super().__init__(_check_instance(burge, TwoRowArray, "a TwoRowArray"), check_tableau(tableau))

    def length(self) -> int:
        return 2 * len(self.burge) + sum(map(len, self.tableau))

    def content(self) -> "Counter":
        c = self.burge.content()
        for row in self.tableau:
            c.update(row)
        return c

    def to_dict(self) -> dict:
        return {"burge": self.burge.to_dict(), "tableau": [list(r) for r in self.tableau]}

    @classmethod
    def from_dict(cls, data: dict) -> "SundaramPair":
        try:
            return cls(TwoRowArray.from_dict(data["burge"]), data["tableau"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed pair encoding: {exc}") from exc


def _replay(S: SSOT, pairs: list[Pair], cols: list[list[int]]) -> "Iterator[tuple[int, int, str, Box]]":
    """Apply the substeps of ``S`` to a pair list and a list of columns, in place.

    Walks the steps as ``sundaram_inverse`` undoes them: per step, the
    deletions top row first, each row right to left, then the additions
    bottom row first, each row left to right, the event order of
    ``substep_events``.  Yields ``(m, letter, kind, box)`` after each
    substep.  The pairs come out in lexicographic order, which ``_finish``
    checks.
    """
    m = 0
    prev: Partition = ()
    for u, (deleted, reached) in enumerate(_check_instance(S, SSOT, "an SSOT").steps, 1):
        for r, old in enumerate(prev):
            low = deleted[r] if r < len(deleted) else 0
            for c in range(old, low, -1):
                box = (r + 1, c)
                pairs.append((u, _column_unbump(cols, box)))
                m += 1
                yield m, u, DELETE, box
        # Nothing to check: S was checked when it was built, its additions
        # are a horizontal strip added bottom row first, and every entry
        # before them is a letter below u.  So each box is addable, and u is
        # at least the entry to its left and greater than the one above.
        for r in range(len(reached) - 1, -1, -1):
            low = deleted[r] if r < len(deleted) else 0
            for c in range(low, reached[r]):
                if c == len(cols):  # only row 1 opens a column
                    cols.append([u])
                else:
                    cols[c].append(u)
                m += 1
                yield m, u, ADD, (r + 1, c + 1)
        prev = reached


def _finish(pairs: list[Pair], cols: list[list[int]]) -> SundaramPair:
    """The pair that a finished replay has built, checked to be a Burge pair."""
    L = TwoRowArray._of(tuple(pairs))
    if not L.is_burge():
        raise ValueError("internal error: produced array is not Burge")
    return SundaramPair._of(L, _from_columns(cols))


def sundaram_steps(S: SSOT) -> "Iterator[tuple[int, int, str, Box, TwoRowArray, Tableau]]":
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

    Undoes the events one letter at a time, largest letter first.  The
    letter's additions are undone first: the cells holding the letter are
    the column bottoms equal to it, and they are removed in one pass from
    the right.  Then the pairs whose top is the letter are popped from the
    right, and each bottom is column-inserted.  The step of the letter
    reaches the shape found before its additions are undone, and deletes
    down to the shape found before its deletions are undone; a letter
    with no cells and no pairs has an empty step.  Every box is a corner
    that the walk removes or a box that column insertion adds, so each
    event fits its shape.
    """
    if not _check_instance(pair, SundaramPair, "a SundaramPair").burge.is_burge():
        raise ValueError("not a Burge array")
    T = pair.tableau  # checked when the pair was built
    cols = _columns(T)
    rows = [len(row) for row in T]
    pairs = list(pair.burge.pairs)
    steps: list[tuple[Partition, Partition]] = []  # top letter first
    top = max([column[-1] for column in cols] + [t for t, _ in pairs], default=0)
    for letter in range(top, 0, -1):
        reached = tuple(rows)
        # T is semistandard and holds nothing above the letter, so the cells
        # holding it are column bottoms and form a horizontal strip: taken
        # from the right, each is a corner when removed, and the additions,
        # read forward, move right by construction.
        for c in range(len(cols) - 1, -1, -1):
            column = cols[c]
            if column[-1] == letter:
                column.pop()
                row = len(column)
                if rows[row] == 1:  # a corner of length 1 ends the last row
                    rows.pop()
                else:
                    rows[row] -= 1
                if not column:  # a corner in row 1 ends the last column
                    cols.pop()
        deleted = tuple(rows)
        # Burge bottoms lie below their tops, so no cell holds the letter
        # again: no addition of it can follow an undone deletion.
        prev_col = 0
        while pairs and pairs[-1][0] == letter:
            row, col = _column_insert(cols, pairs.pop()[1])
            if col <= prev_col:
                raise ValueError(f"pair has no valid preimage: step {letter}: deletions must move left")
            prev_col = col
            if row > len(rows):
                rows.append(1)
            else:
                rows[row - 1] += 1
        steps.append((deleted, reached))
    return SSOT._of(tuple(steps[::-1]))
