"""Exact sparse integer polynomials and the quasi-symmetric / Schur bases.

Exponent vectors are fixed-length tuples; coefficients are Python ints.
Serialization order is graded lexicographic, largest first.
"""

from itertools import combinations
from math import comb, factorial, prod
from types import MappingProxyType

from .shapes import Composition, Partition, _Record, _check_instance, _check_int, _composition, _in_N, _tuple_of
from .shapes import _partitions_of, _weak_refinements, check_partition, check_tableau_query, trim
from .oscillating import _transitions


class SparsePoly(_Record):
    """Immutable multivariate polynomial with exact integer coefficients.

    A record (``shapes._Record``) that prints as its terms.  ``terms`` maps
    exponent tuples of length ``nvars`` to nonzero ``int`` coefficients,
    read-only; it is built from a mapping or pairs, dropping zeros.
    """

    __slots__ = _fields = ("nvars", "terms")
    nvars: int
    terms: MappingProxyType

    def __init__(self, nvars: int, terms=()):
        _check_int(nvars, "nvars", 0)
        try:
            terms = dict(terms)
        except TypeError:
            raise ValueError(f"malformed terms: {terms!r}") from None
        checked = {}
        for exp, coef in terms.items():
            exp = _tuple_of(exp, "exponent vector")
            if len(exp) != nvars or any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {nvars} variables")
            if _check_int(coef, "a coefficient"):
                checked[exp] = coef
        super().__init__(nvars, MappingProxyType(checked))

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "SparsePoly":
        """Polynomial from exponent tuples known to fit ``nvars``; zero coefficients are dropped."""
        return super()._of(nvars, MappingProxyType({exp: c for exp, c in terms.items() if c}))

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "SparsePoly":
        _check_int(nvars, "nvars", 0)
        return cls._of(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exp, coef: int = 1) -> "SparsePoly":
        exp = _tuple_of(exp, "exponent vector")
        return cls(len(exp), {exp: coef})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "SparsePoly":
        """The variable ``x_{i+1}``, for ``i`` in ``0..nvars-1``."""
        if _check_int(i, "variable index", 0) >= _check_int(nvars, "nvars", 0):
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._of(nvars, {exp: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "SparsePoly"):
        if not isinstance(other, SparsePoly):
            raise TypeError("expected a SparsePoly")
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, 0) + coef
        return SparsePoly._of(self.nvars, terms)

    def __neg__(self) -> "SparsePoly":
        return self.scale(-1)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scale(self, c: int) -> "SparsePoly":
        _check_int(c, "a coefficient")
        return SparsePoly._of(self.nvars, {exp: c * coef for exp, coef in self.terms.items()})

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)  # a TypeError for a non-polynomial, as Python operators raise
        return self.truncated_mul(other, None)

    def truncated_mul(self, other: "SparsePoly", maxdeg: int | None) -> "SparsePoly":
        """Product with all terms of total degree above ``maxdeg`` dropped (none when ``None``)."""
        self._check_compatible(_check_instance(other, SparsePoly, "a SparsePoly"))
        if maxdeg is not None:
            _check_int(maxdeg, "maxdeg", 0)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if maxdeg is not None and d1 + sum(e2) > maxdeg:
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return SparsePoly._of(self.nvars, terms)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def evaluate(self, point) -> int:
        point = _tuple_of(point, "point", lambda x: _check_int(x, "a coordinate"))
        if len(point) != self.nvars:
            raise ValueError("point has wrong dimension")
        total = 0
        for exp, coef in self.terms.items():
            v = coef
            for x, e in zip(point, exp):
                v *= x**e
            total += v
        return total

    def coefficient(self, exp) -> int:
        return self.terms.get(_tuple_of(exp, "exponent vector"), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join([_term_text(exp, coef) for exp, coef in self.sorted_terms()]).replace("+ -", "- ")

    def to_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(exp), "coef": str(coef)}
                for exp, coef in self.sorted_terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SparsePoly":
        """The polynomial that ``to_dict`` encodes: each coefficient a decimal-integer string, no exponent twice."""
        try:
            terms = {}
            for t in data["terms"]:
                exp, coef = tuple(t["exp"]), t["coef"]
                if type(coef) is not str or not (coef.isascii() and coef.removeprefix("-").isdigit()):
                    raise ValueError(f"malformed polynomial encoding: coefficient {coef!r} is not an integer string")
                if exp in terms:
                    raise ValueError(f"malformed polynomial encoding: exponent {list(exp)} appears twice")
                terms[exp] = int(coef)
            return cls(data["nvars"], terms)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial encoding: {exc}") from exc


def _term_text(exp: tuple[int, ...], coef: int) -> str:
    """One term as ``SparsePoly`` prints it: ``coef*x1^2*x3``, with a coefficient of 1 or -1 left as its sign.

    Terms are joined by `` + ``, and a joint before a negative term reads `` - ``.
    """
    mono = "*".join([f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exp, 1) if e])
    if not mono:
        return str(coef)
    if coef == 1:
        return mono
    if coef == -1:
        return "-" + mono
    return f"{coef}*{mono}"


def monomial_qsym(b: Composition, k: int) -> SparsePoly:
    """Sum of ``x^c`` over weak compositions ``c`` of length ``k`` flattening to ``b``."""
    _check_int(k, "k", 0)
    b = _composition(b, strong=True)
    terms = {}
    for positions in combinations(range(k), len(b)):
        exp = [0] * k
        for pos, value in zip(positions, b):
            exp[pos] = value
        terms[tuple(exp)] = 1
    return SparsePoly._of(k, terms)


def fundamental_qsym(a: Composition, k: int) -> SparsePoly:
    """Fundamental quasi-symmetric polynomial: the sum of ``M_b`` over all refinements ``b`` of ``a``."""
    _check_int(k, "k", 0)
    a = _composition(a, strong=True)
    # the weak compositions of length k that refine a: the contents of the
    # weakly increasing words in 1..k that strictly increase at a's descents
    return SparsePoly._of(k, dict.fromkeys(_weak_refinements(a, k), 1))


def schur_poly(lam: Partition, k: int) -> SparsePoly:
    """Generating polynomial of the SSYT of shape ``lam`` with entries <= k.

    An SSYT is an SSOT of length ``|lam|``, which adds a box at every step,
    so [x^mu] is the Kostka number K(lam, mu).
    """
    lam = check_partition(trim(lam))
    return ssot_poly(lam, sum(lam), k)


# 2, 4 and 8 time alike on the fexpand benchmark; 4 leaves (3,2,1), n = 18, max_step = 7 on the faster sparse path
_DENSE_SHARE = 4


def _descent_counts(lam: Partition, n: int, max_step: int) -> dict[Composition, int]:
    """OTs of shape ``lam`` and length ``n`` counted by descent composition, kept up to ``max_step`` parts.

    One of two exact paths, chosen from ``n`` and ``max_step`` alone.  When
    the descent sets of fewer than ``max_step`` elements are at least one in
    ``_DENSE_SHARE`` of all 2^(n-1), the transfer-matrix method (Stanley,
    EC1 4.7) counts every descent set at once: whether events j and j+1 are
    split by a descent depends on those two events only, so the OTs are
    built one event at a time on the shared ``_transitions`` table of
    ``lam``, dropping a branch whose shape is further from ``lam`` than the
    events left.  Each state carries one int of ``w``-byte slots, bit t - 1
    of a slot's index standing for a descent before event t, so such a
    descent shifts the int left by 2^(t-1) slots and each move is one
    addition.  Every partial path extends to an OT, and there are
    C(n, |lam|) (n - |lam| - 1)!! f^lam of them (Sundaram), at most
    n! / (n - |lam|)!! as f^lam <= |lam|!.  ``w`` is the byte length of that
    bound, so no slot carries into the next.

    Otherwise the weight counts give the answer: [x^mu] ``ssot_poly`` is the
    sum of c_alpha over the coarsenings alpha of mu (Gessel), so on cut sets
    a(T) = sum of c(S) over S in T, and c is the subset Moebius inversion of
    a (Stanley, EC1 2.1 and 3.8), a(T) being ``_weight_counts`` at the
    sorted composition of T.  Every c is >= 0, so a(U) = 0 gives a(T) = 0
    for T in U: the inversion runs in place over the support of a, and a cut
    set missing from it is a zero.
    """
    if not _in_N(lam, n):
        return {}
    if n == 0:
        return {(): 1}
    slots = 1 << (n - 1)
    if slots <= _DENSE_SHARE * sum(comb(n - 1, j) for j in range(min(max_step, n))):
        table = _transitions(lam)
        m = sum(lam)
        w = (factorial(n) // prod(range(n - m, 0, -2))).bit_length() + 7 >> 3
        layer = {((), None, None): 1}
        for t in range(n):
            left = n - 1 - t
            shift = 4 * w << t  # 2^(t-1) slots of 8w bits
            nxt: dict = {}
            for state, v in layer.items():
                up = v << shift
                for target, descends, dist in table[state]:
                    if dist <= left:
                        nxt[target] = nxt.get(target, 0) + (up if descends else v)
            layer = nxt
        data = sum(layer.values()).to_bytes(w * slots, "little")
        # each composition of at most max_step parts with its slot's byte
        # offset; a cut after p + 1 events, taken last to first, splits the
        # first part, so the list runs lexicographically descending
        cells = [((n,), 0)]
        for p in range(n - 2, -1, -1):
            cells += [((p + 1, a[0] - p - 1, *a[1:]), at + (w << p)) for a, at in cells if len(a) < max_step]
        return {a: c for a, at in cells if (c := int.from_bytes(data[at:at + w], "little"))}

    g: dict[int, int] = {}
    memo: dict = {}
    for mu, c in _weight_counts(lam, n, max_step).items():
        for alpha in _rearrangements(mu, memo):
            mask = cut = 0
            for part in alpha[:-1]:
                cut += part
                mask |= 1 << cut
            g[mask] = c
    for j in range(1, n):
        bit = 1 << j
        for mask in g:
            if mask & bit:
                g[mask] -= g.get(mask ^ bit, 0)
    return {_mask_composition(mask, n): c for mask, c in g.items() if c}


def _mask_composition(mask: int, n: int) -> Composition:
    """The composition of ``n`` >= 1 cut at the set bits of ``mask``, in one pass over those bits."""
    parts = []
    prev = 0
    while mask:
        low = mask & -mask
        j = low.bit_length() - 1
        parts.append(j - prev)
        prev = j
        mask ^= low
    parts.append(n - prev)
    return tuple(parts)


def _weight_counts(lam: Partition, n: int, k: int) -> dict[Partition, int]:
    """OTs of shape ``lam`` and length ``n`` whose descents all fall at partial sums of mu, per partition mu.

    The partitions are those of ``n`` with at most ``k`` parts.  By Gessel's
    rule the count at mu is [x^mu] ``ssot_poly``: relabelling an OT with the
    letters of weight mu, in order, gives an SSOT exactly when its letters
    step up at every descent.  The OTs are built one event at a time on the
    shared ``_transitions`` table of ``lam``, with a plain count per state
    (shape, kind and box of the last event): the events of each part form a
    block, and only a block's first event may descend.  The parts are chosen depth first,
    weakly decreasing, and the layer after ``q`` events of a block serves the
    part ``q`` and every longer one, so partitions with a common prefix share
    its layers.  A branch ends when its layer is empty; a part is not tried
    when the parts left, none larger, cannot make up ``n``.  These counts fix
    the symmetric polynomial: ``ssot_poly`` writes each at every
    rearrangement, and the CLI's ``snp`` and ``ssot-poly`` write from them
    without building it.
    """
    if not _in_N(lam, n):
        return {}
    if n == 0:
        return {(): 1}
    table = _transitions(lam)
    out: dict[Partition, int] = {}
    parts: list[int] = []

    def extend(layer: dict, t: int) -> None:
        # layer: the states after the t events of ``parts``, with their counts
        rows = k - len(parts)
        smallest = -(-(n - t) // rows)
        for q in range(1, min(parts[-1] if parts else n, n - t) + 1):
            left = n - t - q
            nxt: dict = {}
            for state, c in layer.items():
                for target, descends, dist in table[state]:
                    if dist <= left and (q == 1 or not descends):
                        nxt[target] = nxt.get(target, 0) + c
            if not nxt:
                return
            layer = nxt
            if q >= smallest:
                if left:
                    parts.append(q)
                    extend(layer, t + q)
                    parts.pop()
                else:
                    out[(*parts, q)] = sum(layer.values())

    extend({((), None, None): 1}, 0)
    return out


def _rearrangements(exp: tuple[int, ...], memo: dict) -> list[tuple[int, ...]]:
    """The distinct rearrangements of ``exp``, which is weakly decreasing; memoised in ``memo`` by ``exp``."""
    out = memo.get(exp)
    if out is None:
        if len(exp) < 2:
            out = [exp]
        else:
            out = [
                (v, *rest)
                for i, v in enumerate(exp)
                if i == 0 or exp[i - 1] != v
                for rest in _rearrangements(exp[:i] + exp[i + 1:], memo)
            ]
        memo[exp] = out
    return out


def ssot_poly(lam: Partition, n: int, k: int) -> SparsePoly:
    """Generating polynomial of SSOTs of shape ``lam``, length ``n``, letters <= k.

    The polynomial is symmetric, so each partition mu of ``n`` with at most
    ``k`` parts gives one count, [x^mu], written at every distinct
    rearrangement of mu padded with zeros to length ``k``.
    """
    lam = check_tableau_query(lam, n, k, "k")
    terms: dict[tuple[int, ...], int] = {}
    memo: dict = {}
    for mu, c in _weight_counts(lam, n, k).items():
        terms.update(dict.fromkeys(_rearrangements(mu + (0,) * (k - len(mu)), memo), c))
    return SparsePoly._of(k, terms)


def f_expansion(lam: Partition, n: int, max_step: int) -> dict[Composition, int]:
    """Multiplicity of each descent composition over the quasi-Yamanouchi SSOTs.

    Equivalently, the OTs of shape ``lam`` and length ``n`` counted by
    descent composition, kept when it has at most ``max_step`` parts; sorted
    lexicographically descending.
    """
    lam = check_tableau_query(lam, n, max_step, "max_step")
    return dict(sorted(_descent_counts(lam, n, max_step).items(), reverse=True))


def littlewood_truncated(k: int, maxdeg: int) -> SparsePoly:
    """Truncation of the product over i<j of the geometric series in ``x_i x_j``."""
    _check_int(k, "k", 1)
    _check_int(maxdeg, "maxdeg", 0)
    total = SparsePoly.one(k)
    for i in range(k):
        for j in range(i + 1, k):
            series = {}
            for t in range(0, maxdeg // 2 + 1):
                exp = [0] * k
                exp[i] = exp[j] = t
                series[tuple(exp)] = 1
            total = total.truncated_mul(SparsePoly._of(k, series), maxdeg)
    return total


def is_symmetric(f: SparsePoly) -> bool:
    """True if ``f`` is invariant under every permutation of its variables.

    Each term's coefficient must be the one at its exponent sorted into a
    partition.  Then the terms lie in the orbits of the partition exponents
    of ``f``, and must fill them (``_fills_orbits``).
    """
    terms = _check_instance(f, SparsePoly, "a SparsePoly").terms
    shapes = []
    for exp, coef in terms.items():
        top = tuple(sorted(exp, reverse=True))
        if top == exp:
            shapes.append(exp)
        elif terms.get(top) != coef:
            return False
    return _fills_orbits(shapes, len(terms))


def _fills_orbits(shapes, size: int) -> bool:
    """True if the orbits of the distinct weakly decreasing ``shapes`` hold ``size`` points in all.

    A support of ``size`` exponents whose sorted forms are the ``shapes`` lies
    in their orbits, so it is closed under permuting the variables exactly
    when this holds.
    """
    return sum(map(_orbit_size, shapes)) == size


def _orbit_size(exp: tuple[int, ...]) -> int:
    """Number of distinct rearrangements of ``exp``: a multinomial coefficient."""
    size = factorial(len(exp))
    for m in map(exp.count, set(exp)):
        size //= factorial(m)
    return size


def schur_expand(f: SparsePoly) -> dict[Partition, int]:
    """Expand a symmetric homogeneous polynomial in Schur polynomials, lex-descending.

    The s_nu with at most ``nvars`` parts are a basis, and [x^mu] s_nu is the
    Kostka number K(nu, mu), unitriangular in dominance order (Stanley, EC2
    7.10-7.12).  So, lex-largest mu first, c_mu is f's coefficient at mu less
    the c_nu K(nu, mu) of the nu found before.  The row K(nu, .) of each nu
    found is ``_weight_counts(nu, |nu|, nvars)``: an SSYT is an SSOT of
    length ``|nu|``.
    """
    if _check_instance(f, SparsePoly, "a SparsePoly").is_zero():
        return {}
    if not f.is_homogeneous():
        raise ValueError("schur expansion needs a homogeneous polynomial")
    if not is_symmetric(f):
        raise ValueError("schur expansion needs a symmetric polynomial")
    nvars, d = f.nvars, f.degree()
    out: dict[Partition, int] = {}
    found: dict[Partition, int] = {}  # sum of c_nu K(nu, mu) over the nu found so far
    for mu in _partitions_of(d, d, min(d, nvars)):
        c = f.coefficient(mu + (0,) * (nvars - len(mu))) - found.get(mu, 0)
        if c:
            out[mu] = c
            for rho, K in _weight_counts(mu, d, nvars).items():
                found[rho] = found.get(rho, 0) + c * K
    return out
