"""Schur expansions, Hall inner products, independence and Newton-polytope checks.

Everything here is exact.  Schur coefficients are integers from one
Littlewood-Richardson search that puts a shape's strips onto every
even-column shape at once, with one search closure per strip, not one per
filling; and the rank runs in integers by fraction-free elimination on
primitive rows.  The saturated-Newton-polytope check
decides a symmetric homogeneous support by Rado's theorem, stated once on
partitions: its Newton polytope is a permutahedron, whose lattice points
are the rearrangements of the partitions that the top exponent dominates,
and the support is saturated when it holds each of those partitions.
Other supports fall back to a feasibility search over
``fractions.Fraction`` per lattice point, never floating-point geometry;
it is the only code here that uses fractions.
The results ``SchurExpansion`` and ``LatticePolytopeCheck`` are records on
the package's one value base, ``shapes._Record``.
"""

from itertools import accumulate, product
from math import gcd
from operator import le
from types import MappingProxyType

from .shapes import (
    Partition,
    _Record,
    _check_in_N,
    _check_instance,
    _check_int,
    _even_conjugate_partitions,
    _in_N,
    _memo,
    _part,
    _tuple_of,
    _weak_refinements,
    check_partition,
    partitions_of,
    trim,
)
from .tableaux import _lr_strips
from .polyring import SparsePoly, _fills_orbits, _rearrangements


class SchurExpansion(_Record):
    """Nonnegative integer combination of Schur functions of one degree.

    ``coefficients`` is a read-only copy of the mapping, or the pairs
    ``(partition, coefficient)``, that the expansion is built from, without
    its zero coefficients; the record base hashes it by its items and
    pickles it as a ``dict``.  ``ValueError`` unless ``degree`` is an
    ``int`` >= 0 and each key a partition of it with an ``int`` coefficient
    >= 0.
    """

    __slots__ = _fields = ("degree", "coefficients")
    degree: int
    coefficients: MappingProxyType

    def __init__(self, degree, coefficients):
        _check_int(degree, "degree", 0)
        try:
            coefficients = dict(coefficients)
        except (TypeError, ValueError):
            raise ValueError(f"malformed coefficients: {coefficients!r}") from None
        for nu, c in coefficients.items():
            if sum(check_partition(nu)) != degree:
                raise ValueError(f"{nu} is not a partition of {degree}")
            _check_int(c, "a coefficient", 0)
        super().__init__(degree, MappingProxyType({nu: c for nu, c in coefficients.items() if c}))


@_memo
def _ssot_schur_items(lam: Partition, n: int) -> tuple[tuple[Partition, int], ...]:
    """Sundaram's expansion sum_beta s_lam * s_beta, lex-descending in nu.

    The betas are the partitions of n - |lam| with even conjugate.  When
    none is smaller than lam, lam's strips go onto all of them in one
    ``_lr_strips`` search, which merges fillings across the betas.
    Otherwise each beta's strips go onto lam, the smaller shape onto the
    larger, as in ``lr_product``.
    """
    betas = _even_conjugate_partitions(n - sum(lam))
    if n - sum(lam) >= sum(lam):
        total = _lr_strips(dict.fromkeys(betas, 1), lam)
    else:
        total = {}
        for beta in betas:
            for nu, c in _lr_strips({lam: 1}, beta).items():
                total[nu] = total.get(nu, 0) + c
    return tuple(sorted(total.items(), reverse=True))


def ssot_schur(lam: Partition, n: int) -> SchurExpansion:
    """Schur coefficients of the degree-``n`` SSOT function of shape ``lam``.

    The coefficient of nu sums the LR coefficients c(beta, lam; nu) over
    partitions beta of n - |lam| with even conjugate.
    """
    lam = check_partition(trim(lam))
    _check_in_N(lam, n)
    return SchurExpansion._of(n, MappingProxyType(dict(_ssot_schur_items(lam, n))))


def _same_size(lam, mu) -> tuple[Partition, Partition]:
    """Both shapes checked and trimmed; ``ValueError`` unless they have the same size."""
    lam, mu = check_partition(trim(lam)), check_partition(trim(mu))
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return lam, mu


def hall_inner(lam: Partition, mu: Partition, n: int) -> int:
    """Hall pairing of two SSOT functions: dot product of their Schur coefficients."""
    lam, mu = _same_size(lam, mu)
    _check_in_N(lam, n)
    left = dict(_ssot_schur_items(lam, n))
    right = dict(_ssot_schur_items(mu, n))
    return sum(c * right.get(nu, 0) for nu, c in left.items())


def n_similar(lam: Partition, mu: Partition, n: int) -> bool:
    """True when some partition of ``n`` is reachable from both shapes: ``n`` is admissible and at least ``n_zero``."""
    lam, mu = _same_size(lam, mu)
    return _in_N(lam, _check_int(n, "length", 0)) and n >= n_zero(lam, mu)


def n_zero(lam: Partition, mu: Partition) -> int:
    """Smallest admissible length at which the two shapes become similar: |lam| + 2 max(D, ceil(E/2)).

    Here D = max_i |lam_i - mu_i| and E = sum_i (lam_i - mu_i)^+.  By the row
    bounds of ``v_set``, a common shape at length |lam| + 2j lies between the
    row-wise max of the two shapes and their row-wise min plus j.  Such a
    partition exists exactly when j >= D and the row-wise max, of size
    |lam| + E, fits in |lam| + 2j boxes; a larger j keeps it.
    """
    lam, mu = _same_size(lam, mu)
    diffs = [_part(lam, i) - _part(mu, i) for i in range(max(len(lam), len(mu)))]
    excess = sum(d for d in diffs if d > 0)
    return sum(lam) + 2 * max(max(map(abs, diffs), default=0), (excess + 1) // 2)


def rational_rank(matrix) -> int:
    """Rank of an integer matrix by fraction-free elimination on primitive rows.

    Each column's pivot is the first row at or below the rank with a
    nonzero entry there.  A row below it with a 0 in the pivot column is
    left as it is, so a matrix already in row-echelon form costs no row
    operation; any other row becomes ``p * row - f * top`` divided by the
    gcd of its entries, a gcd of 0 meaning that the row became zero.
    Entries stay no larger than in Bareiss elimination.  After k pivots a
    row is zero in the k pivot columns and lies in the span of the pivot
    rows and itself, which fixes it up to a scalar; and each row is either
    primitive or still a row of the input.  So Bareiss's row at that step,
    whose entries are minors of the matrix, is an integer multiple of it,
    and the product before a division is no larger than Bareiss's.
    Rows of unequal length and entries that are not ``int`` raise
    ``ValueError``.
    """
    try:
        rows = [list(row) for row in matrix]
    except TypeError as exc:
        raise ValueError(f"not a matrix: {exc}") from exc
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"rows of unequal length: {len(row)} and {ncols}")
        if any(type(x) is not int for x in row):
            raise ValueError(f"matrix entries must be integers, got {row}")
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                row = [p * a - f * b for a, b in zip(rows[r], top)]
                g = gcd(*row)
                rows[r] = [a // g for a in row] if g > 1 else row
        rank += 1
        if rank == len(rows):
            break
    return rank


def independence_rank(m: int, n: int) -> int:
    """Rank of the Schur-coefficient matrix of all SSOT functions of size ``m``.

    Its columns are the partitions of ``n`` that some row holds: each
    row's lex-largest nu first, in row order, then the others as they first
    occur.  Row lam's lex-largest nu is lam + (j, j) with coefficient 1, and
    these leaders fall lex-descending with the rows, each row holding no nu
    lex-larger than its own; so the matrix is in echelon form with unit
    pivots, and ``rational_rank`` makes no row operation on it.
    """
    _check_int(m, "size", 0)
    if type(n) is not int or n < m or (n - m) % 2:
        raise ValueError(f"length {n!r} not admissible for size {m}: need n >= {m} and n == {m} (mod 2)")
    items = [_ssot_schur_items(lam, n) for lam in partitions_of(m)]
    index = {pairs[0][0]: j for j, pairs in enumerate(items)}  # every row holds a nu
    for pairs in items:
        for nu, _ in pairs:
            if nu not in index:
                index[nu] = len(index)
    matrix = []
    for pairs in items:
        row = [0] * len(index)
        for nu, c in pairs:
            row[index[nu]] = c
        matrix.append(row)
    return rational_rank(matrix)


def in_convex_hull(point, points) -> bool:
    """Exact membership of ``point`` in the convex hull of ``points``.

    Phase-one simplex with Bland's rule over Fractions: feasibility of
    nonnegative weights summing to 1 with the prescribed barycenter.  Points
    are tuples of ``int``s; anything else, or a point of another dimension
    than ``point``, raises ``ValueError``.
    """
    from fractions import Fraction  # imported here: the rest of the package never needs it

    points = _int_points(points, "points")
    (point,) = _int_points((point,), "point")
    k = len(point)
    if any(len(p) != k for p in points):
        raise ValueError(f"points must all have the dimension {k} of {point}")
    if not points:
        return False
    ncols = len(points)
    nrows = k + 1
    total = ncols + nrows
    tab = []
    for r in range(nrows):
        row = [Fraction(points[c][r] if r < k else 1) for c in range(ncols)]
        row += [Fraction(int(i == r)) for i in range(nrows)]
        row.append(Fraction(point[r] if r < k else 1))
        tab.append(row)
    basis = list(range(ncols, ncols + nrows))

    def reduced_cost(j: int) -> Fraction:
        rc = Fraction(1 if j >= ncols else 0)
        for i in range(nrows):
            if basis[i] >= ncols:
                rc -= tab[i][j]
        return rc

    while True:
        enter = next((j for j in range(total) if reduced_cost(j) < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(nrows):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave is None:
            raise RuntimeError("phase-one simplex cannot be unbounded")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(nrows):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        basis[leave] = enter
    infeasibility = sum((tab[i][-1] for i in range(nrows) if basis[i] >= ncols), Fraction(0))
    return infeasibility == 0


def _int_points(items, what: str) -> tuple[tuple[int, ...], ...]:
    """``items`` as a tuple of tuples of ``int``s; ``ValueError`` naming ``what`` for anything else."""
    return _tuple_of(items, what, lambda p: _tuple_of(p, "point", lambda x: _check_int(x, "a coordinate")))


class LatticePolytopeCheck(_Record):
    """Support, lattice points of its hull, and whether the two sets agree.

    ``ValueError`` unless both sets are tuples of ``int`` points and ``snp``
    is a ``bool``.
    """

    __slots__ = _fields = ("support", "polytope_points", "snp")
    support: tuple[tuple[int, ...], ...]
    polytope_points: tuple[tuple[int, ...], ...]
    snp: bool

    def __init__(self, support, polytope_points, snp):
        if type(snp) is not bool:
            raise ValueError(f"snp must be a bool, got {snp!r}")
        super().__init__(_int_points(support, "support"), _int_points(polytope_points, "polytope points"), snp)


_ZERO_HULL = "the zero polynomial has no Newton polytope"


def _rado_partitions(shapes, size: int | None):
    """Rado's rule: the sorted lattice points of a homogeneous support's Newton polytope, or None.

    ``shapes`` are the distinct sorted exponents of a support of ``size``
    terms, weakly decreasing and all of one length and sum; a ``size`` of
    None says that the support is the union of their orbits.  If the support
    is closed under permuting the variables (``polyring._fills_orbits``) and
    the lex-largest shape mu dominates every other, the Newton polytope is
    the permutahedron P(mu), and by Rado's theorem its lattice points are
    the rearrangements of the partitions that mu dominates.  Those are
    returned lex-descending, padded with zeros to the shapes' length, and
    built part by part: each part at most the one before, each prefix sum
    within mu's, and each part large enough that the parts left, none
    larger, can make up the sum.  Any other support gives None.
    """
    if size is not None and not _fills_orbits(shapes, size):
        return None
    top = max(shapes)
    bounds = tuple(accumulate(top))
    if not all(all(map(le, accumulate(s), bounds)) for s in shapes):
        return None
    nvars, degree = len(top), sum(top)
    out: list[tuple[int, ...]] = []
    parts: list[int] = []

    def extend(total: int, prev: int) -> None:
        left = degree - total
        i = len(parts)
        if not left:
            out.append(tuple(parts) + (0,) * (nvars - i))
            return
        for q in range(min(prev, bounds[i] - total, left), -(-left // (nvars - i)) - 1, -1):
            parts.append(q)
            extend(total + q, q)
            parts.pop()

    extend(0, degree)
    return out


def _symmetric_snp(shapes):
    """Rado's rule on a symmetric support given by its partitions: ``(snp, partitions)``, or None.

    ``shapes`` holds the distinct weakly decreasing exponents of one length
    and sum, as a set or a dict's keys, such as a symmetric polynomial's
    coefficients at partitions; the support is the union of their orbits,
    so it is closed under permuting the variables by construction, and no
    term is looked at.  ``partitions`` are those of ``_rado_partitions``,
    and ``snp`` is whether ``shapes`` holds each of them, as in ``has_snp``.
    None when no shape dominates the others.  The empty support raises the
    ``ValueError`` of ``has_snp`` on the zero polynomial.
    """
    if not shapes:
        raise ValueError(_ZERO_HULL)
    partitions = _rado_partitions(shapes, None)
    if partitions is None:
        return None
    return all(p in shapes for p in partitions), partitions


def _permutahedron_points(partitions) -> tuple[tuple[int, ...], ...]:
    """The distinct rearrangements of the weakly decreasing ``partitions``, lex-descending.

    On the list of ``_rado_partitions``, whose first entry is the top mu,
    these are the lattice points of the permutahedron P(mu), in the order of
    the LP fallback's candidates.  When mu is (d, 0, ..., 0), P(mu) is the
    simplex and they are every weak composition of d, listed in order.  For
    any other top they are each partition's rearrangements from
    ``polyring._rearrangements``, the lister that ``ssot_poly`` writes
    through, with one memo, sorted.
    """
    top = partitions[0]
    if not any(top[1:]):  # P((d, 0, ..., 0)) is the simplex: every weak composition of d
        return tuple(_weak_refinements(trim(top[:1]), len(top)))
    memo: dict = {}
    return tuple(sorted((p for mu in partitions for p in _rearrangements(mu, memo)), reverse=True))


def has_snp(f: SparsePoly) -> LatticePolytopeCheck:
    """Saturated-Newton-polytope check: hull lattice points versus support.

    A homogeneous support closed under permuting the variables, with one
    dominance-largest sorted exponent, is decided by Rado's rule on its
    sorted exponents (``_rado_partitions``): it is saturated when it holds
    every partition that its top dominates.  A saturated support is its own
    set of lattice points; an unsaturated one has them listed from those
    partitions (``_permutahedron_points``).  Any other support falls back
    to one exact phase-one simplex (``in_convex_hull``) per candidate
    lattice point.  A polynomial known to be symmetric is decided on its
    partitions alone by ``_symmetric_snp``, with the same answer.
    """
    if _check_instance(f, SparsePoly, "a SparsePoly").is_zero():
        raise ValueError(_ZERO_HULL)
    support = sorted(f.terms)
    if f.is_homogeneous():
        shapes = {tuple(sorted(e, reverse=True)) for e in support}
        partitions = _rado_partitions(shapes, len(support))
        if partitions is not None:
            snp = shapes.issuperset(partitions)
            # a saturated support is its own set of lattice points, lex-descending when reversed
            points = tuple(reversed(support)) if snp else _permutahedron_points(partitions)
            return LatticePolytopeCheck._of(tuple(support), points, snp)
        candidates = _weak_refinements(trim((f.degree(),)), f.nvars)
    else:
        lo = [min(e[i] for e in support) for i in range(f.nvars)]
        hi = [max(e[i] for e in support) for i in range(f.nvars)]
        candidates = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    inside = tuple(p for p in candidates if in_convex_hull(p, support))
    return LatticePolytopeCheck._of(tuple(support), inside, all(p in f.terms for p in inside))
