"""Partitions, compositions and the shape-level order theory.

Partitions are plain tuples of weakly decreasing positive integers with no
trailing zeros; compositions are tuples of nonnegative integers compared
modulo trailing zeros.  Boxes are 1-based ``(row, col)`` pairs.
"""

from itertools import accumulate
from operator import attrgetter
from types import MappingProxyType, SimpleNamespace

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Box = tuple[int, int]


def _memo(fn):
    """``fn`` with its results kept for the life of the process, keyed by its positional arguments.

    Counts as ``functools.lru_cache(maxsize=None)`` does, without importing
    ``functools``, which loads ``collections`` at start-up.  The result is a
    plain function with ``cache_clear()``, ``cache_info()`` (``hits``,
    ``misses`` and ``currsize``) and ``__wrapped__``; a call that raises
    stores nothing.  An entry is a pure value, so a race between threads at
    worst computes it twice, and the counters are informational.
    """
    cache = {}
    hits = misses = 0

    def memo(*args):
        nonlocal hits, misses
        value = cache.get(args, cache)  # the dict itself is never a kept result
        if value is cache:
            misses += 1
            value = cache[args] = fn(*args)
        else:
            hits += 1
        return value

    def cache_clear():
        nonlocal hits, misses
        cache.clear()
        hits = misses = 0

    memo.cache_clear = cache_clear
    memo.cache_info = lambda: SimpleNamespace(hits=hits, misses=misses, currsize=len(cache))
    for name in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(memo, name, getattr(fn, name))
    memo.__wrapped__ = fn
    return memo


class _FromDataclassTwin:
    """Class attribute read off a frozen dataclass with the record's fields."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, cls):
        from dataclasses import make_dataclass  # imported here: start-up never needs it

        return getattr(make_dataclass(cls.__name__, cls._fields, frozen=True), self.name)


class _Record:
    """Base of the immutable value classes, built on their ``_fields``.

    A subclass lists its fields in ``__slots__`` and ``_fields``.  Records of
    one class compare and hash by their fields, which are read-only; the repr
    is ``Cls(field=value, ...)``; pickle and copy go through the public
    constructor, so a restored value is checked again.  A read-only mapping
    field hashes by its items and pickles as a ``dict``.  ``__init__`` takes
    the field values in order, unchecked: each subclass overrides it with
    its own signature and checks, then calls it; ``_of`` builds a record
    from values known to be valid.
    ``dataclasses.replace`` and ``dataclasses.fields`` accept records too,
    and the changed copy goes through the constructor; ``dataclasses`` is
    imported only when they are used.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _FromDataclassTwin()
    __dataclass_params__ = _FromDataclassTwin()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values):
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _of(cls, *values):
        """Record holding ``values`` in field order, past every check of the constructor."""
        out = object.__new__(cls)
        for setter, value in zip(cls._setters, values):
            setter(out, value)
        return out

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        try:
            return hash(self._key(self))
        except TypeError:  # a mapping field hashes by its items
            return hash(self._values(lambda mapping: frozenset(mapping.items())))

    def _values(self, plain):
        """The field values in order, each read-only mapping passed through ``plain``."""
        values = (getattr(self, name) for name in self._fields)
        return tuple(plain(v) if type(v) is MappingProxyType else v for v in values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(dict)


def _is_partition(parts) -> bool:
    """True if ``parts`` is a weakly decreasing tuple of positive integers."""
    return all(type(p) is int and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def _tuple_of(items, what: str, convert=None) -> tuple:
    """``tuple(items)``, each item passed through ``convert`` if given; ``ValueError`` for a wrong type."""
    try:
        return tuple(items if convert is None else map(convert, items))
    except TypeError:
        raise ValueError(f"malformed {what}: {items!r}") from None


def _check_int(value, what: str, low: int | None = None) -> int:
    """``value`` itself; ``ValueError`` naming ``what`` unless it is an ``int`` (not a ``bool``), at least ``low`` if given."""
    if type(value) is not int or low is not None and value < low:
        at_least = "" if low is None else f" >= {low}"
        raise ValueError(f"{what} must be an integer{at_least}, got {value!r}")
    return value


def _int_pair(box) -> Box:
    """``box`` as a tuple; ``ValueError`` unless it is a pair of ``int``s."""
    try:
        row, col = box
    except (TypeError, ValueError):
        row = col = None
    if type(row) is not int or type(col) is not int:
        raise ValueError(f"boxes must be pairs of integers, got {box!r}")
    return row, col


def _check_instance(value, cls, what: str):
    """``value`` itself; ``ValueError`` naming ``what`` unless it is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"expected {what}, got {type(value).__name__}")
    return value


def check_partition(parts) -> Partition:
    """``parts`` as a tuple; ``ValueError`` unless it is a partition, with no zero parts."""
    lam = parts if type(parts) is tuple else _tuple_of(parts, "partition")
    if not _is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    return lam


def _part(lam: Partition, i: int) -> int:
    """Row length ``lam[i]`` with zero padding past the last part (0-based)."""
    return lam[i] if 0 <= i < len(lam) else 0


def _contains(inner: Partition, outer: Partition) -> bool:
    """Diagram containment: every row of ``inner`` fits inside ``outer``."""
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def conjugate(lam: Partition) -> Partition:
    """Transpose of the diagram: column lengths read left to right; ``ValueError`` for a non-partition."""
    lam = check_partition(trim(lam))
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def is_even_partition(lam: Partition) -> bool:
    """True if every row has an even number of boxes; ``ValueError`` for a non-partition."""
    return all(p % 2 == 0 for p in check_partition(trim(lam)))


def trim(c) -> Composition:
    """Canonical form of a composition: drop trailing zeros; ``ValueError`` unless ``c`` is an iterable of ``int``s."""
    c = c if type(c) is tuple else _tuple_of(c, "shape or composition")
    if not all(type(p) is int for p in c):
        raise ValueError(f"malformed shape or composition: {c!r}")
    end = len(c)
    while end > 0 and c[end - 1] == 0:
        end -= 1
    return c[:end]


def _composition(c, strong: bool = False) -> Composition:
    """``c`` without trailing zeros; ``ValueError`` unless its parts are ``int``s >= 0, or >= 1 if ``strong``."""
    c = trim(_tuple_of(c, "composition", lambda p: _check_int(p, "a part", 0)))
    if strong and 0 in c:
        raise ValueError(f"expected a strong composition, got {c}")
    return c


def flat(c) -> Composition:
    """Delete all zero parts, yielding a strong composition of the same size."""
    return tuple(p for p in _composition(c) if p > 0)


def refines(b, a) -> bool:
    """True if ``b`` splits into consecutive blocks summing to the parts of ``a``; both must be strong."""
    a, b = _composition(a, strong=True), _composition(b, strong=True)
    i = 0
    for target in a:
        acc = 0
        while acc < target and i < len(b):
            acc += b[i]
            i += 1
        if acc != target:
            return False
    return i == len(b)


def _splits(n: int):
    # strong compositions of n, by bar placement, lex descending like (3),(2,1),(1,2),(1,1,1)
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _splits(n - first):
            yield (first,) + rest


def ref_set(a) -> tuple[Composition, ...]:
    """All strong compositions refining ``a``, sorted lexicographically descending; ``a`` must be strong."""
    a = _composition(a, strong=True)
    out = [()]
    for p in a:
        out = [head + block for head in out for block in _splits(p)]
    return tuple(sorted(out, reverse=True))


def _weak_refinements(a, k: int) -> list[Composition]:
    """Weak compositions of length ``k`` whose nonzero parts refine ``a``, lexicographically descending.

    These are the contents of the weakly increasing words in ``1..k`` that
    strictly increase at the descents of ``a``: the monomials of F_a, and the
    relabelings of a standard object with descent composition ``a``, words
    ascending.  Letter i fills the next ``c[i]`` positions, and a run of equal
    letters may not cross the end of a part of ``a``.  A run is not tried when
    too few letters would be left to end the remaining parts.
    """
    ends = list(accumulate(a))
    parts, n = len(ends), sum(a)
    out: list[Composition] = []
    exp = [0] * k

    def rec(i: int, filled: int, j: int) -> None:
        # letters below i fill positions 1..filled; ends[j] is the first part end after them
        end = ends[j]
        spare = k - 1 - i - (parts - j)  # letters after i left over once every part has ended
        for c in range(end - filled, -1 if spare >= 0 else end - filled - 1, -1):
            exp[i] = c
            if filled + c == n:
                out.append(tuple(exp))
            elif filled + c == end:
                rec(i + 1, end, j + 1)
            else:
                rec(i + 1, filled + c, j)
        exp[i] = 0

    if n == 0:
        return [(0,) * k]
    if parts <= k:
        rec(0, 0, 0)
    return out


def _descent_composition(des, n: int) -> Composition:
    """Lengths of the runs that the descent positions ``des`` cut ``1..n`` into."""
    if n == 0:
        return ()
    return tuple(b - a for a, b in zip((0, *des), (*des, n)))


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """Dominance comparison: every prefix sum of ``mu`` is at most that of ``lam``; both must be partitions."""
    mu, lam = check_partition(trim(mu)), check_partition(trim(lam))
    if sum(mu) != sum(lam):
        raise ValueError(f"dominance needs equal sizes, got {sum(mu)} and {sum(lam)}")
    acc_mu = acc_lam = 0
    for i in range(max(len(mu), len(lam))):
        acc_mu += _part(mu, i)
        acc_lam += _part(lam, i)
        if acc_mu > acc_lam:
            return False
    return True


def _is_horizontal_strip(inner: Partition, outer: Partition) -> bool:
    """True if ``outer/inner`` has at most one box in each column."""
    if not _contains(inner, outer):
        return False
    return all(_part(outer, i + 1) <= _part(inner, i) for i in range(len(outer)))


def is_vertical_strip(inner: Partition, outer: Partition) -> bool:
    """True if ``outer/inner`` has at most one box in each row; ``ValueError`` for a non-partition."""
    inner, outer = check_partition(trim(inner)), check_partition(trim(outer))
    if not _contains(inner, outer):
        return False
    return all(outer[i] - _part(inner, i) <= 1 for i in range(len(outer)))


def _in_N(lam: Partition, n: int) -> bool:
    """True if ``n`` can be the length of a chain ending at ``lam``: n >= |lam|, same parity."""
    m = sum(lam)
    return n >= m and (n - m) % 2 == 0


def _check_in_N(lam: Partition, n: int) -> None:
    """Raise ``ValueError`` unless ``n`` is an ``int`` admissible as a length for ``lam`` (see ``_in_N``)."""
    if type(n) is not int or not _in_N(lam, n):
        raise ValueError(
            f"{n!r} not admissible for {tuple(lam)}: need n >= |lam| and n == |lam| (mod 2)"
        )


def check_shape_query(lam, n: int) -> Partition:
    """The shape without trailing zeros; ``ValueError`` for a non-partition or an ``n`` that is not an ``int`` >= 0."""
    _check_int(n, "length", 0)
    return check_partition(trim(lam))


def check_tableau_query(lam, n: int, bound: int, bound_name: str) -> Partition:
    """Validate a (shape, length, bound) query and return the shape without trailing zeros.

    A non-partition shape, a length that is not an ``int`` >= 0 and a bound
    that is not an ``int`` >= 1 raise ``ValueError``.  An inadmissible length
    is not an error: its answer is empty.
    """
    _check_int(bound, bound_name, 1)
    return check_shape_query(lam, n)


def v_set(lam: Partition, n: int) -> tuple[Partition, ...]:
    """Partitions of ``n`` reachable from ``lam`` by adding even-size vertical strips, lexicographically descending.

    With j = (n - |lam|)/2 these are the partitions nu of ``n`` with
    lam_i <= nu_i <= lam_i + j in every row (lam_i = 0 below ``lam``): an even
    strip is a chain of two-box ones, each adding at most one box to a row,
    and any such nu comes down to j - 1 by a two-box strip (the last box of
    each row holding j boxes of nu/lam, lowest first, then of the lowest
    other row of nu/lam).  Each part runs from its upper bound down, leaving
    the boxes that the rows of ``lam`` below it need.  Empty when the parity
    or size constraint fails; ``ValueError`` for a non-partition shape or a
    negative ``n``.
    """
    lam = check_shape_query(lam, n)
    if not _in_N(lam, n):
        return ()
    j = (n - sum(lam)) // 2
    out: list[Partition] = []
    parts: list[int] = []

    def rec(i: int, left: int, need: int, prev: int) -> None:
        # ``left`` boxes go to rows i, i+1, ..., of which ``lam`` needs ``need``
        if left == 0:
            out.append(tuple(parts))
            return
        low = _part(lam, i)
        for p in range(min(prev, low + j, left - need + low), max(low, 1) - 1, -1):
            parts.append(p)
            rec(i + 1, left - p, need - low, p)
            parts.pop()

    rec(0, n, sum(lam), n)
    return tuple(out)


def lambda_bar(lam: Partition, n: int) -> Partition:
    """The dominance-maximum of ``v_set(lam, n)``: the top two rows take their upper bound lam_i + (n-|lam|)/2."""
    lam = check_partition(trim(lam))
    _check_in_N(lam, n)
    r = (n - sum(lam)) // 2
    padded = lam + (0,) * max(0, 2 - len(lam))
    return trim((padded[0] + r, padded[1] + r) + padded[2:])


def partitions_of(m: int) -> tuple[Partition, ...]:
    """All partitions of ``m``, lexicographically descending; ``ValueError`` unless ``m`` is an ``int`` >= 0."""
    _check_int(m, "size", 0)
    return _partitions_of(m, m, m)


@_memo
def _partitions_of(m: int, largest: int, parts: int) -> tuple[Partition, ...]:
    """Partitions of ``m`` with parts at most ``largest``, at most ``parts`` of them, lexicographically descending.

    The first part is at least m/parts, so every branch ends in a partition
    (``parts`` is 0 only when ``m`` is).  The rest goes in at most
    ``min(parts - 1, rest)`` parts, so the calls with no bound on the parts
    (``parts == m``) share their entries.
    """
    if m == 0:
        return ((),)
    out = []
    for first in range(min(m, largest), (m - 1) // parts, -1):
        rest = m - first
        out.extend((first,) + tail for tail in _partitions_of(rest, first, min(parts - 1, rest)))
    return tuple(out)


def _even_conjugate_partitions(m: int) -> tuple[Partition, ...]:
    """Partitions of ``m`` whose conjugate is even, i.e. rows repeat in equal pairs.

    Lexicographically descending, as doubling every row keeps the order of
    ``partitions_of(m // 2)``.
    """
    if m % 2 != 0:
        return ()
    return tuple(tuple(p for p in gamma for _ in range(2)) for gamma in partitions_of(m // 2))


def _northeast(b1: Box, b2: Box) -> bool:
    """True if ``b2`` lies strictly northEast of ``b1``: weakly above and strictly right."""
    return b1[0] >= b2[0] and b1[1] < b2[1]
