"""Exact arithmetic on monomials and monomial ideals.

A monomial in n variables is an exponent tuple of n nonnegative integers;
its degree is the sum of the entries.  A :class:`MonomialIdeal` stores the
unique minimal generating set (a divisibility antichain) in a fixed
graded-lexicographic order, so equal ideals compare and serialize equally.
All values are immutable and every operation is a pure function.  An ideal
may keep a verdict computed on it (the componentwise exchange verdicts of
:mod:`polyquot.exchange`) in a private slot; what it keeps never changes
what a call returns, nor equality or hashing.
"""

from __future__ import annotations

from itertools import groupby
from operator import le
from typing import Iterable, Iterator, Sequence

Monomial = tuple  # exponent vector: tuple[int, ...]

#: Largest degree `graded_component` and `graded_components` will reach.
#: A degree-j component can hold C(j + n - 1, n - 1) generators.
DEGREE_GUARD = 64


class ZeroIdealError(ValueError):
    """Raised by operations that are undefined on the zero ideal."""


class DegreeGuardError(ValueError):
    """Raised when a graded-component degree exceeds ``DEGREE_GUARD``;
    ``degree`` is the degree refused."""

    def __init__(self, degree: int):
        super().__init__(
            f"graded component degree {degree} exceeds guard {DEGREE_GUARD}; "
            "the expansion would enumerate too many monomials"
        )
        self.degree = degree


# ---------------------------------------------------------------------------
# monomial helpers


def divides(u: Monomial, v: Monomial) -> bool:
    """True if u divides v componentwise."""
    return all(map(le, u, v))


def monomial_mul(u: Monomial, v: Monomial) -> Monomial:
    return tuple([a + b for a, b in zip(u, v)])


def monomial_colon(g: Monomial, u: Monomial) -> Monomial:
    """g / gcd(g, u), i.e. componentwise truncated subtraction."""
    return tuple(a - b if a > b else 0 for a, b in zip(g, u))


def monomial_div(u: Monomial, v: Monomial) -> Monomial:
    """Exact quotient u / v; raises if v does not divide u."""
    if not divides(v, u):
        raise ValueError(f"{v} does not divide {u}")
    return tuple([a - b for a, b in zip(u, v)])


def unit_monomial(nvars: int) -> Monomial:
    return (0,) * nvars


def variable(nvars: int, i: int) -> Monomial:
    """The monomial x_i (0-based variable index)."""
    e = [0] * nvars
    e[i] = 1
    return tuple(e)


def compositions(total: int, nvars: int) -> Iterator[Monomial]:
    """All exponent tuples of length nvars summing to total."""
    return bounded_compositions(total, (total,) * nvars)


def bounded_compositions(total: int, caps: Sequence[int]) -> Iterator[Monomial]:
    """All exponent tuples with sum `total` and entry i at most caps[i].

    Tuples are produced in descending lexicographic order: prefixes grow
    one variable at a time, each by its entries from the largest down that
    the later caps can complete, and the last two entries in one step.
    """
    rest = sum(caps)  # the most the entries not yet placed can take
    if not 0 <= total <= rest:
        return iter(())
    if len(caps) < 2:  # () for no variable, (total,) for one
        return iter([(total,)[:len(caps)]])
    level = [((), total)]
    for c in caps[:-2]:
        rest -= c
        level = [(p + (e,), r - e) for p, r in level
                 for e in range(min(c, r), max(0, r - rest) - 1, -1)]
    c, last = caps[-2], caps[-1]
    return iter([p + (e, r - e) for p, r in level
                 for e in range(min(c, r), max(0, r - last) - 1, -1)])


def _canonical_key(g: Monomial):
    # graded-lex with x_1 > ... > x_n; used descending (largest first)
    return (sum(g), g)


def _validate_monomial(nvars: int, g) -> Monomial:
    g = tuple(g)
    if len(g) != nvars:
        raise ValueError(
            f"exponent vector {g} has length {len(g)}, expected {nvars}"
        )
    for e in g:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponent vector {g} has invalid entry {e!r}")
    return g


# ---------------------------------------------------------------------------
# the ideal type


class MonomialIdeal:
    """A monomial ideal, stored by its minimal generating set.

    The constructor minimalizes its input: generators divisible by another
    generator are dropped, duplicates collapse.  ``gens`` is the resulting
    antichain as a tuple sorted in descending graded-lex order;  ``gen_set``
    is the same set as a frozenset for O(1) membership of exponent tuples.

    An empty generating set is the zero ideal; a single all-zero generator
    is the unit ideal (the whole ring).
    """

    # _verdicts: the componentwise exchange verdicts, set on the first full
    # sweep (exchange._componentwise_verdicts), unset until then
    __slots__ = ("nvars", "gens", "gen_set", "_verdicts")

    def __init__(self, nvars: int, gens: Iterable[Monomial] = ()):
        if nvars < 1:
            raise ValueError("number of variables must be positive")
        self.nvars = nvars
        kept = _minimal_subset([_validate_monomial(nvars, g) for g in gens])
        self.gens = tuple(reversed(kept))
        self.gen_set = frozenset(kept)

    # construction shortcuts -------------------------------------------------

    @classmethod
    def _presorted(cls, nvars: int, gens: tuple, gen_set=None) -> "MonomialIdeal":
        # an antichain already in canonical order, stored as given
        self = cls.__new__(cls)
        self.nvars = nvars
        self.gens = gens
        self.gen_set = frozenset(gens) if gen_set is None else gen_set
        return self

    @classmethod
    def _from_valid(cls, nvars: int, raw) -> "MonomialIdeal":
        # exponent tuples already known valid (built by the library, or
        # checked by the text parser): minimalized, not validated again
        if nvars < 1:
            raise ValueError("number of variables must be positive")
        kept = _minimal_subset(raw)
        return cls._presorted(nvars, tuple(reversed(kept)), frozenset(kept))

    @classmethod
    def _equigenerated(cls, nvars: int, gens: Iterable[Monomial]) -> "MonomialIdeal":
        # generators of one common degree form an antichain automatically,
        # and their canonical order is descending lex
        seen = frozenset(gens)
        return cls._presorted(nvars, tuple(sorted(seen, reverse=True)), seen)

    # basic queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and sum(self.gens[0]) == 0

    @property
    def mindeg(self) -> int:
        """The last generator's degree: the canonical order descends by degree."""
        if self.is_zero:
            raise ZeroIdealError("zero ideal has no generator degrees")
        return sum(self.gens[-1])

    @property
    def maxdeg(self) -> int:
        """The first generator's degree (see :attr:`mindeg`)."""
        if self.is_zero:
            raise ZeroIdealError("zero ideal has no generator degrees")
        return sum(self.gens[0])

    @property
    def is_equigenerated(self) -> bool:
        # the canonical order is by degree, so the ends have the extremes
        return bool(self.gens) and sum(self.gens[0]) == sum(self.gens[-1])

    def contains(self, u: Monomial) -> bool:
        """Membership of the monomial u in the ideal."""
        if len(u) != self.nvars:
            raise ValueError(
                f"monomial {u} has length {len(u)}, expected {self.nvars}"
            )
        for g in self.gens:
            if all(map(le, g, u)):
                return True
        return False

    __contains__ = contains

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.gen_set == other.gen_set

    def __hash__(self) -> int:
        return hash((self.nvars, self.gen_set))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"MonomialIdeal({self.nvars}, zero)"
        return f"MonomialIdeal({self.nvars}, {list(self.gens)})"


def _minimal_subset(raw: Sequence[Monomial]) -> list:
    """Divisibility-minimal elements of raw, ascending graded-lex (no duplicates)."""
    # degree-ascending scan: only already-kept (lower or equal degree)
    # elements can divide the current one
    kept: list = []
    for g in sorted(set(raw), key=_canonical_key):
        for h in kept:
            if all(map(le, h, g)):
                break
        else:
            kept.append(g)
    return kept


# ---------------------------------------------------------------------------
# operations


def minimalize(nvars: int, raw: Iterable[Monomial]) -> MonomialIdeal:
    """The ideal generated by `raw`, reduced to its minimal generators.

    Idempotent; the result generates the same ideal and its generating set
    is an antichain under divisibility.  An empty input gives the zero
    ideal.
    """
    return MonomialIdeal(nvars, raw)


def contains(ideal: MonomialIdeal, u: Monomial) -> bool:
    """True iff some minimal generator divides u.  False on the zero ideal."""
    return ideal.contains(tuple(u))


def colon_by_monomial(ideal: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """The colon ideal (I : u) = (g / gcd(g, u) : g in G(I)), minimalized."""
    if ideal.is_zero:
        raise ZeroIdealError("colon of the zero ideal is undefined here")
    u = _validate_monomial(ideal.nvars, u)
    gens = [monomial_colon(g, u) for g in ideal.gens]
    return MonomialIdeal._from_valid(ideal.nvars, gens)


def product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The product ideal IJ, via pairwise generator products.

    Commutes; the product with a zero factor is the zero ideal, the
    product with the unit ideal is the other factor.
    """
    if I.nvars != J.nvars:
        raise ValueError(f"variable counts differ: {I.nvars} vs {J.nvars}")
    if I.is_zero or J.is_zero:
        return zero_ideal(I.nvars)
    prods = {monomial_mul(g, h) for g in I.gens for h in J.gens}
    return MonomialIdeal._from_valid(I.nvars, prods)


def translate(ideal: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """The ideal u * I.  Shifting preserves minimality of the generators
    and their canonical order: it keeps degree order and lex order."""
    u = _validate_monomial(ideal.nvars, u)
    gens = [monomial_mul(u, g) for g in ideal.gens]
    return MonomialIdeal._presorted(ideal.nvars, tuple(gens))


def deflate(ideal: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """The ideal I / u, defined when u divides every generator."""
    u = _validate_monomial(ideal.nvars, u)
    gens = [monomial_div(g, u) for g in ideal.gens]
    return MonomialIdeal._presorted(ideal.nvars, tuple(gens))


def graded_component(ideal: MonomialIdeal, j: int) -> MonomialIdeal:
    """The ideal generated by all degree-j monomials of I.

    The generating set is exactly the set of degree-j monomials contained
    in I (an antichain, all of one degree).  Empty below the minimal
    generator degree.  Degrees beyond ``DEGREE_GUARD`` are refused because
    the expansion enumerates every monomial of degree j over each
    generator.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    guard_degree(j)
    n = ideal.nvars
    found = set()
    for g in ideal.gens:
        dg = sum(g)
        if dg == j:  # its own only multiple of degree j
            found.add(g)
        elif dg < j:
            for t in compositions(j - dg, n):
                found.add(monomial_mul(g, t))
    return MonomialIdeal._equigenerated(n, found)


def _by_degree(gens) -> dict:
    """The canonical generators grouped by degree, highest degree first."""
    return {d: tuple(layer) for d, layer in groupby(gens, sum)}


def graded_components(ideal: MonomialIdeal) -> Iterator[tuple]:
    """Yield (j, I_<j>) for j = mindeg..maxdeg, each stepped up from the last.

    From the zero component below mindeg up, I_<j> is {x_r * w : w in
    G(I_<j-1>)} (:func:`_times_maximal_order`) with the generators of
    degree j.  Components beyond maxdeg are products with the maximal
    ideal, so the componentwise predicates need none of them.
    ``DegreeGuardError`` is raised only on reaching a degree beyond
    ``DEGREE_GUARD``.  For one high degree alone, :func:`graded_component`
    is faster.
    """
    n = ideal.nvars
    new_gens = _by_degree(ideal.gens)
    gens: tuple = ()
    for j in range(ideal.mindeg, ideal.maxdeg + 1):
        guard_degree(j)
        comp = MonomialIdeal._equigenerated(
            n, _times_maximal_order(gens, n) + new_gens.get(j, ())
        )
        gens = comp.gens
        yield j, comp


def _times_maximal_order(order: tuple, nvars: int) -> tuple:
    """The generators of m * (u_1, ..., u_k) for an equigenerated
    u_1, ..., u_k: for i = 1..k, the products x_r * u_i (r = 0..n-1) not
    listed earlier.  This is the step of :func:`graded_components` and of
    the sweep of :func:`polyquot.quotients.has_componentwise_linear_quotients`,
    which proves that when u_1, ..., u_k is an admissible order, so is
    this listing.
    """
    out = {}
    for u in order:
        w = list(u)
        for r in range(nvars):
            w[r] += 1
            out[tuple(w)] = None
            w[r] -= 1
    return tuple(out)


def guard_degree(j: int) -> None:
    """Refuse a component degree beyond ``DEGREE_GUARD``."""
    if j > DEGREE_GUARD:
        raise DegreeGuardError(j)


def _capped_caps(nvars: int, d: int, caps: Sequence[int]) -> tuple:
    """The caps of I_(d; caps) clamped to d, after refusing bad parameters."""
    if nvars < 1:
        raise ValueError("number of variables must be positive")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    caps = tuple(caps)
    if len(caps) != nvars:
        raise ValueError(f"expected {nvars} caps, got {len(caps)}")
    if any(c < 0 for c in caps):
        raise ValueError("caps must be nonnegative")
    return tuple([min(c, d) for c in caps])


def veronese(nvars: int, d: int, caps: Sequence[int]) -> MonomialIdeal:
    """The capped degree-d ideal: all degree-d monomials u with u_i <= caps[i].

    Zero ideal when the caps cannot reach degree d, the unit ideal when
    d = 0.  The parameters are checked as ``chains.VeroneseSpec`` checks them.
    """
    # descending lex, the canonical order within one degree
    gens = bounded_compositions(d, _capped_caps(nvars, d, caps))
    return MonomialIdeal._presorted(nvars, tuple(gens))


def maximal_ideal(nvars: int) -> MonomialIdeal:
    """The ideal (x_1, ..., x_n)."""
    return MonomialIdeal._from_valid(nvars, [variable(nvars, i) for i in range(nvars)])


def unit_ideal(nvars: int) -> MonomialIdeal:
    return MonomialIdeal._from_valid(nvars, (unit_monomial(nvars),))


def zero_ideal(nvars: int) -> MonomialIdeal:
    return MonomialIdeal._from_valid(nvars, ())
