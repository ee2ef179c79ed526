"""Semistandard Young tableaux: insertion algorithms, products, descents, LR counts.

Tableaux are tuples of row tuples; rows weakly increase, columns strictly
increase.  Row words read the bottom row first, left to right within rows.
"""

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import le, lt, sub

from .shapes import (
    Box,
    Composition,
    Partition,
    _check_int,
    _contains,
    _descent_composition,
    _int_pair,
    _northeast,
    _part,
    _tuple_of,
    check_partition,
    conjugate,
    trim,
)

Tableau = tuple[tuple[int, ...], ...]

EMPTY: Tableau = ()


def tableau_shape(T: Tableau) -> Partition:
    """Row lengths of a semistandard tableau; ``ValueError`` for anything else."""
    return tuple(map(len, check_tableau(T)))


def is_semistandard(T) -> bool:
    """True if ``T`` is an iterable of rows that make a semistandard tableau."""
    try:
        check_tableau(T)
    except ValueError:
        return False
    return True


def check_tableau(T) -> Tableau:
    """``T`` as a tuple of row tuples; ``ValueError`` unless it is a semistandard tableau.

    One pass over the rows: they are nonempty and weakly shorter going down,
    entries are ``int``s >= 1 (not ``bool``), rows weakly increase and columns
    strictly increase.
    """
    try:
        T = tuple(tuple(row) for row in T)
    except TypeError:
        raise ValueError(f"not a semistandard tableau: {T!r}") from None
    above: tuple[int, ...] = ()
    for row in T:
        if (
            not row
            or (above and len(row) > len(above))
            or any(type(x) is not int for x in row)
            or row[0] < 1
            or not all(map(le, row, row[1:]))
            or not all(map(lt, above, row))
        ):
            raise ValueError(f"not a semistandard tableau: {T}")
        above = row
    return T


def weight(T: Tableau, nvars: int | None = None) -> Composition:
    """Content vector: multiplicity of each letter 1..max (or padded to ``nvars``).

    ``T`` must be a semistandard tableau, with entries at most ``nvars`` when
    it is given.
    """
    if nvars is not None:
        _check_int(nvars, "nvars", 0)
    letters = [x for row in check_tableau(T) for x in row]
    top = nvars if nvars is not None else max(letters, default=0)
    counts = [0] * top
    for x in letters:
        if x > top:
            raise ValueError(f"entry {x} exceeds nvars = {nvars}")
        counts[x - 1] += 1
    return tuple(counts)


def row_word(T: Tableau) -> tuple[int, ...]:
    """Reading word: bottom row first, each row left to right."""
    out: list[int] = []
    for row in reversed(check_tableau(T)):
        out.extend(row)
    return tuple(out)


def _row_insert(rows: list[list[int]], x: int) -> Box:
    """Schensted row insertion into a list of rows, in place; returns the new corner box."""
    for r, row in enumerate(rows):
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return (r + 1, j + 1)
        x, row[j] = row[j], x
    rows.append([x])
    return (len(rows), 1)


def row_insert(T: Tableau, x: int) -> tuple[Tableau, Box]:
    """Schensted row insertion into a semistandard tableau; returns the new tableau and the new corner box."""
    _check_int(x, "a tableau entry", 1)
    rows = [list(row) for row in check_tableau(T)]
    box = _row_insert(rows, x)
    return tuple(map(tuple, rows)), box


def insertion_tableau(word) -> Tableau:
    """RSK insertion tableau of a word of ``int``s >= 1, inserted left to right."""
    rows: list[list[int]] = []
    for x in _tuple_of(word, "word"):
        _row_insert(rows, _check_int(x, "a tableau entry", 1))
    return tuple(map(tuple, rows))


def _columns(T: Tableau) -> list[list[int]]:
    width = len(T[0]) if T else 0
    return [[row[c] for row in T if len(row) > c] for c in range(width)]


def _from_columns(cols: list[list[int]]) -> Tableau:
    """The tableau whose columns are ``cols``, none of them empty."""
    depth = len(cols[0]) if cols else 0
    return tuple(
        tuple(col[r] for col in cols if len(col) > r) for r in range(depth)
    )


def _column_insert(cols: list[list[int]], x: int) -> Box:
    """Column insertion into a list of columns, in place; returns the new corner box.

    ``x`` bumps the topmost entry >= x, which moves on to the next column.
    """
    for c, col in enumerate(cols):
        j = bisect_left(col, x)
        if j == len(col):
            col.append(x)
            return (j + 1, c + 1)
        x, col[j] = col[j], x
    cols.append([x])
    return (1, len(cols))


def _column_unbump(cols: list[list[int]], box: Box) -> int:
    """Remove the corner entry at ``box`` from a list of columns in place, reverse-inserting leftward.

    Returns the value ejected from column 1.
    """
    row, col = box
    if not (
        1 <= col <= len(cols)
        and len(cols[col - 1]) == row
        and (col == len(cols) or len(cols[col]) < row)
    ):
        shape = conjugate(tuple(len(c) for c in cols))
        raise ValueError(f"box {box} is not an outside corner of shape {shape}")
    x = cols[col - 1].pop()
    if row == 1:  # a corner in row 1 ends the last column
        cols.pop()
    for c in range(col - 2, -1, -1):
        column = cols[c]
        # largest entry <= x swaps out; strict column increase makes it unique
        j = bisect_right(column, x) - 1
        x, column[j] = column[j], x
    return x


def column_insert(T: Tableau, x: int) -> tuple[Tableau, Box]:
    """Column insertion into a semistandard tableau: ``x`` bumps the topmost entry >= x, moving right."""
    _check_int(x, "a tableau entry", 1)
    cols = _columns(check_tableau(T))
    box = _column_insert(cols, x)
    return _from_columns(cols), box


def column_unbump(T: Tableau, box: Box) -> tuple[Tableau, int]:
    """Remove the corner entry at ``box``, reverse-inserting leftward.

    Returns the smaller tableau and the value ejected from column 1; exact
    inverse of :func:`column_insert`.  ``ValueError`` unless ``T`` is a
    semistandard tableau and ``box`` one of its corners.
    """
    cols = _columns(check_tableau(T))
    x = _column_unbump(cols, _int_pair(box))
    return _from_columns(cols), x


def product(T1: Tableau, T2: Tableau) -> Tableau:
    """Tableau product: insertion tableau of the concatenated row words."""
    return insertion_tableau(row_word(T1) + row_word(T2))


def superstandard(lam: Partition) -> Tableau:
    """The tableau of shape ``lam`` whose row i is filled with i."""
    return tuple((i + 1,) * p for i, p in enumerate(check_partition(trim(lam))))


def is_standard(T: Tableau) -> bool:
    """True if ``T`` is a semistandard tableau whose entries are 1, 2, ..., n, each once."""
    try:
        T = check_tableau(T)
    except ValueError:
        return False
    return sorted(x for row in T for x in row) == list(range(1, sum(map(len, T)) + 1))


def standard_horizontal_bands(T: Tableau) -> list[int]:
    """Sizes of the maximal bands of consecutive entries running northEast."""
    T = check_tableau(T)
    if not is_standard(T):
        raise ValueError("descent decomposition needs a standard tableau")
    pos = {x: (r + 1, c + 1) for r, row in enumerate(T) for c, x in enumerate(row)}
    n = len(pos)
    return list(_descent_composition([v for v in range(1, n) if not _northeast(pos[v], pos[v + 1])], n))


def des_syt(T: Tableau) -> Composition:
    """Descent composition of a standard tableau."""
    return tuple(standard_horizontal_bands(T))


def step_syt(T: Tableau) -> int:
    return len(standard_horizontal_bands(T))


def is_reverse_yamanouchi(word) -> bool:
    """True if every suffix of the word has weakly decreasing letter counts; letters are ``int``s >= 1."""
    word = _tuple_of(word, "word", lambda x: _check_int(x, "a letter", 1))
    top = max(word, default=0)
    counts = [0] * (top + 2)
    for x in reversed(word):
        counts[x] += 1
        if counts[x] > counts[x - 1] and x > 1:
            return False
    return True


def ssyt_of_shape(lam: Partition, max_entry: int):
    """Yield all semistandard tableaux of shape ``lam`` with entries <= max_entry."""
    lam = check_partition(trim(lam))
    _check_int(max_entry, "max_entry", 0)
    if len(lam) > max_entry:
        return
    rows: list[list[int]] = []

    def fill_row(r: int):
        if r == len(lam):
            yield tuple(tuple(row) for row in rows)
            return
        row: list[int] = []

        def fill_cell(c: int):
            if c == lam[r]:
                rows.append(row)
                yield from fill_row(r + 1)
                rows.pop()
                return
            lo = row[c - 1] if c > 0 else 1
            if r > 0 and c < len(rows[r - 1]):
                lo = max(lo, rows[r - 1][c] + 1)
            for x in range(lo, max_entry + 1):
                row.append(x)
                yield from fill_cell(c + 1)
                row.pop()

        yield from fill_cell(0)

    yield from fill_row(0)


def enumerate_syt(lam: Partition):
    """Yield all standard tableaux of shape ``lam``; ``ValueError`` for a non-partition."""
    lam = check_partition(trim(lam))
    yield from _syt_rec(lam, sum(lam))


def _syt_rec(lam: Partition, n: int):
    if n == 0:
        yield EMPTY
        return
    for i in range(len(lam)):
        if lam[i] > _part(lam, i + 1):
            smaller = tuple(p for p in lam[:i] + (lam[i] - 1,) + lam[i + 1 :] if p)
            for T in _syt_rec(smaller, n - 1):
                rows = list(T) + [()] * (i + 1 - len(T))
                rows[i] = rows[i] + (n,)
                yield tuple(rows)


def lr_tableaux(lam: Partition, mu: Partition, nu: Partition):
    """Yield the Littlewood-Richardson fillings of ``nu/lam`` with weight ``mu``.

    Each filling is returned as full-width rows with ``None`` in the inner
    cells; the row word must be reverse Yamanouchi.  Trailing zeros are
    dropped, and any other non-partition raises ``ValueError``.
    """
    lam, mu, nu = (check_partition(trim(s)) for s in (lam, mu, nu))
    return _lr_fillings(lam, mu, nu)


def _lr_fillings(lam: Partition, mu: Partition, nu: Partition):
    if sum(nu) != sum(lam) + sum(mu) or not _contains(lam, nu) or not _contains(mu, nu):
        return
    nrows = len(nu)
    grid: list[list[int | None]] = [
        [None] * _part(lam, r) + [0] * (nu[r] - _part(lam, r)) for r in range(nrows)
    ]
    counts = [0] * (len(mu) + 1)
    remaining = list(mu)

    # cells in suffix-reading order: top to bottom, right to left within rows
    cells = [
        (r, c) for r in range(nrows) for c in range(nu[r] - 1, _part(lam, r) - 1, -1)
    ]

    def rec(idx: int):
        if idx == len(cells):
            if all(x == 0 for x in remaining):
                yield tuple(tuple(row) for row in grid)
            return
        r, c = cells[idx]
        hi = len(mu)
        if c + 1 < nu[r]:
            hi = min(hi, grid[r][c + 1])
        for v in range(1, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            if r > 0 and c < nu[r - 1]:
                above = grid[r - 1][c]
                if above is not None and above >= v:
                    continue
            grid[r][c] = v
            counts[v] += 1
            remaining[v - 1] -= 1
            yield from rec(idx + 1)
            grid[r][c] = 0
            counts[v] -= 1
            remaining[v - 1] += 1

    yield from rec(0)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: the number of LR fillings of ``nu/lam``."""
    return sum(1 for _ in lr_tableaux(lam, mu, nu))


def lr_product(mu: Partition, lam: Partition) -> dict[Partition, int]:
    """Schur expansion of ``s_mu * s_lam``: each ``nu`` with its coefficient ``c^nu_{mu lam}``.

    The boxes of the smaller shape go onto the larger one, its row k as a
    horizontal strip of k's, in one layered search (``_lr_strips``).  The
    lattice rule prunes each strip while it is built, so every branch ends
    in an LR filling and only shapes in the support are built; fillings
    that agree on their shape and lattice bounds are extended once.
    """
    mu, lam = (check_partition(trim(s)) for s in (mu, lam))
    if sum(lam) > sum(mu):
        mu, lam = lam, mu
    return _lr_strips({mu: 1}, lam)


def _lr_strips(starts: dict[Partition, int], lam: Partition) -> dict[Partition, int]:
    """Sum of ``c * s_start * s_lam`` over the ``starts`` and their multiplicities ``c``.

    Row k of ``lam`` goes onto every state as a horizontal strip of k's, one
    strip at a time.  The lattice rule prunes each strip while it is built:
    the k's in rows <= r may not outnumber the (k-1)'s in rows < r.  So
    every branch ends in an LR filling, and only shapes in the support are
    built.  A state is a shape with those lattice bounds: fillings that
    agree on both are carried once, with the sum of their multiplicities,
    and after the last strip they are merged by shape alone.

    The search of a strip is one closure, defined once per strip: the loop
    over states rebinds the ``base``, ``caps``, ``corners``, ``rows`` and
    ``mult`` it reads.  A row bounds its boxes by comparisons, and the row
    that takes the strip's last box records the filling; the last corner,
    the new bottom row, takes what is left in one step, with no bound to check.
    """
    if not lam:
        return dict(starts)
    # label 1 has no lattice bound: its own strip's size is bound enough
    layer = {(shape, (lam[0],) * (len(shape) + 1)): c for shape, c in starts.items()}
    for k, size in enumerate(lam):
        last = k == len(lam) - 1
        out: dict = {}

        def fill(i: int, left: int, done: int) -> None:
            # 0 < left; corner i takes a boxes, and the corners below it the rest
            r = corners[i]
            old = rows[r]
            if old:
                hi = base[r - 1] - old if r else left  # one box per column
                cap = caps[r] - done
                if hi > cap:
                    hi = cap
                # the rows below r hold at most old boxes
                for a in range(left - old if left > old else 0, hi + 1 if hi < left else left):
                    rows[r] = old + a
                    fill(i + 1, left - a, done + a)
                rows[r] = old
                if hi < left:
                    return
            # else r is the new bottom row, and no bound there is ever short of
            # left: the corner above left it no more than the row above holds,
            # and its lattice bound is the previous strip's size, no less than this one's
            rows[r] = old + left
            new = tuple(rows) if rows[-1] else tuple(rows[:-1])
            if not last:
                new = (new, tuple(accumulate(map(sub, new, base), initial=0)))
            out[new] = out.get(new, 0) + mult
            rows[r] = old

        for (shape, caps), mult in layer.items():
            # caps[r] counts label k in rows < r: the lattice bound on label
            # k + 1 in rows <= r.  Only rows that end in an addable box take
            # boxes, and the last of them is the new bottom row, with old == 0.
            base = shape + (0,)
            corners = [0] + [r for r in range(1, len(base)) if base[r - 1] > base[r]]
            rows = list(base)
            fill(0, size, 0)
        layer = out
    return layer
