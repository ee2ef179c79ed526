"""Closed formulas and brute-force checks that the benchmark trusts.

Nothing here imports oscitab: each function is computed apart from the
program, from a textbook formula or a direct search, so the benchmark can
check the program's answers against it.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod


class CheckError(AssertionError):
    """An answer of the program disagrees with an oracle or a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def hooks(lam: tuple[int, ...]) -> list[int]:
    """Hook length of every box of ``lam``."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    return [lam[i] - j - 1 + conj[j] - i - 1 + 1 for i in range(len(lam)) for j in range(lam[i])]


def syt_count(lam: tuple[int, ...]) -> int:
    """Number f^lam of standard Young tableaux, by the hook-length formula."""
    return factorial(sum(lam)) // prod(hooks(lam))


def double_factorial(m: int) -> int:
    """m!! with (-1)!! = 0!! = 1."""
    return prod(range(m, 0, -2)) if m > 0 else 1


def ot_count(lam: tuple[int, ...], n: int) -> int:
    """Oscillating tableaux of shape ``lam`` and length ``n`` (Sundaram).

    C(n, |lam|) * (n - |lam| - 1)!! * f^lam, and 0 when n < |lam| or the
    parities differ.
    """
    m = sum(lam)
    if n < m or (n - m) % 2:
        return 0
    return comb(n, m) * double_factorial(n - m - 1) * syt_count(lam)


def schur_at_ones(lam: tuple[int, ...], k: int) -> int:
    """s_lam(1^k) by the hook-content formula."""
    num = prod(k + j - i for i in range(len(lam)) for j in range(lam[i]))
    return num // prod(hooks(lam))


def fundamental_at_ones(a: tuple[int, ...], k: int) -> int:
    """F_a(1^k) = C(k - l(a) + |a|, |a|): weakly increasing words strict at l(a) - 1 places."""
    n, parts = sum(a), len(a)
    return comb(k - parts + n, n) if k >= parts else 0


def partition_count(m: int) -> int:
    """p(m) by the standard coin-change recursion."""
    ways = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def dominated(mu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """Dominance mu <= lam for sorted tuples of equal sum."""
    acc_mu = acc_lam = 0
    for i in range(max(len(mu), len(lam))):
        acc_mu += mu[i] if i < len(mu) else 0
        acc_lam += lam[i] if i < len(lam) else 0
        if acc_mu > acc_lam:
            return False
    return True


def sort_desc(exp) -> tuple[int, ...]:
    return tuple(sorted(exp, reverse=True))


def dominance_top(support) -> tuple[int, ...]:
    """The sorted exponent that dominates every other, which a symmetric SNP support must have."""
    shapes = {sort_desc(e) for e in support}
    tops = [s for s in shapes if all(dominated(t, s) for t in shapes)]
    require(len(tops) == 1, f"support has no dominance-largest exponent: {sorted(shapes)}")
    return tops[0]


def weak_compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in weak_compositions(n - first, k - 1):
            yield (first,) + rest


def rado_points(top: tuple[int, ...], k: int) -> set[tuple[int, ...]]:
    """Lattice points of the permutahedron P(top) in k variables (Rado's theorem)."""
    padded = top + (0,) * (k - len(top))
    return {c for c in weak_compositions(sum(top), k) if dominated(sort_desc(c), padded)}


def is_symmetric_terms(terms: dict) -> bool:
    """True when every permutation of each exponent carries the same coefficient.

    Groups exponents by their sorted form: each group must hold all distinct
    permutations of it, with one coefficient.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for exp, coef in terms.items():
        groups.setdefault(sort_desc(exp), []).append(coef)
    for shape, coefs in groups.items():
        orbit = factorial(len(shape)) // prod(factorial(c) for c in Counter(shape).values())
        if len(coefs) != orbit or len(set(coefs)) != 1:
            return False
    return True


def is_burge(pairs) -> bool:
    """Columns weakly increase lexicographically and every top exceeds its bottom."""
    pairs = [tuple(p) for p in pairs]
    return all(pairs[i] <= pairs[i + 1] for i in range(len(pairs) - 1)) and all(
        t > b for t, b in pairs
    )


def has_even_columns(rows) -> bool:
    """True when every column of the diagram has even length (Burge's theorem for symmetric arrays)."""
    width = len(rows[0]) if rows else 0
    return all(sum(1 for r in rows if len(r) > j) % 2 == 0 for j in range(width))


def is_semistandard(rows) -> bool:
    rows = [tuple(r) for r in rows]
    if any(len(rows[i]) < len(rows[i + 1]) for i in range(len(rows) - 1)):
        return False
    rows_ok = all(r[j] <= r[j + 1] for r in rows for j in range(len(r) - 1))
    cols_ok = all(
        rows[i][j] < rows[i + 1][j] for i in range(len(rows) - 1) for j in range(len(rows[i + 1]))
    )
    return rows_ok and cols_ok


def vertical_strip_additions(mu: tuple[int, ...], size: int) -> set[tuple[int, ...]]:
    """Every partition made from ``mu`` by adding ``size`` boxes, at most one per row."""
    rows = len(mu) + size
    padded = list(mu) + [0] * size
    out = set()
    for chosen in combinations(range(rows), size):
        new = padded[:]
        for r in chosen:
            new[r] += 1
        if all(new[i] >= new[i + 1] for i in range(rows - 1)):
            out.add(tuple(p for p in new if p))
    return out


@lru_cache(maxsize=None)
def even_strip_reachable(lam: tuple[int, ...], n: int) -> frozenset:
    """Partitions of ``n`` reached from ``lam`` by adding vertical strips of even size."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            for size in range(2, n - sum(mu) + 1, 2):
                for nu in vertical_strip_additions(mu, size) - seen:
                    seen.add(nu)
                    new.append(nu)
        frontier = new
    return frozenset(nu for nu in seen if sum(nu) == n)


def similarity_threshold(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Least n = |lam| (mod 2) at which both shapes reach a common partition of n."""
    m = sum(lam)
    n = m
    while not even_strip_reachable(lam, n) & even_strip_reachable(mu, n):
        n += 2
    return n
