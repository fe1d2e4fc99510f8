"""Structure of monomial ideals in two variables.

Minimal generators in K[x, y] sort into a chain x^{a_0} y^{b_0}, ...,
x^{a_m} y^{b_m} with the a_i strictly decreasing and the b_i strictly
increasing.  On that chain the componentwise-polymatroidal ideals are
recognized by consecutive-integer patterns in the exponent sequences
("tight" ideals, after dividing off the common monomial factor), and they
all carry an explicit admissible order that pivots at the generator of
minimal degree.  The tight class and the degree-pattern test both read
one scan of the chain's steps, the join indices of :func:`_joins`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .ideal import (
    MonomialIdeal,
    Monomial,
    ZeroIdealError,
    deflate,
)
from .quotients import GeneratorOrder, _colon_steps

NOT_TIGHT = "not-tight"
X_TIGHT = "x-tight"
Y_TIGHT = "y-tight"
XY_TIGHT = "xy-tight"  # simultaneously x- and y-tight (powers of (x, y))
STRICT_YX_TIGHT = "strict-yx-tight"


@dataclass(frozen=True)
class TightClass:
    """Classification of a normalized bivariate ideal.

    ``join_indices`` lists every position where a y-tight prefix of the
    generator chain meets an x-tight suffix; it is nonempty exactly when
    the ideal is yx-tight.  ``interval`` is (0, m) for m + 1 generators.
    """

    kind: str
    join_indices: Tuple[int, ...]
    interval: Tuple[int, int]

    @property
    def is_yx_tight(self) -> bool:
        return bool(self.join_indices)


@dataclass(frozen=True)
class StructuralCheck:
    """Outcome of the componentwise-polymatroidal pattern test.

    ``valley`` is the smallest index at which the generator degree
    sequence turns from non-increasing to non-decreasing; ``valleys``
    lists every valid turning index.
    """

    ok: bool
    valley: Optional[int]
    valleys: Tuple[int, ...]

    def __bool__(self) -> bool:
        return self.ok


def lex_order(ideal: MonomialIdeal) -> Tuple[Monomial, ...]:
    """Minimal generators sorted by strictly decreasing x-exponent.

    Minimality forces the y-exponents to be strictly increasing along the
    same sequence; both chains are checked, and a break raises
    ``RuntimeError``.
    """
    if ideal.nvars != 2:
        raise ValueError(f"expected 2 variables, got {ideal.nvars}")
    if ideal.is_zero:
        raise ZeroIdealError("bivariate classification needs a nonzero ideal")
    gens = sorted(ideal.gens, reverse=True)
    for (a1, b1), (a2, b2) in zip(gens, gens[1:]):
        if not (a1 > a2 and b1 < b2):
            raise RuntimeError(
                f"{ideal!r}: generators ({a1}, {b1}) and ({a2}, {b2}) do not "
                "form a staircase"
            )
    return tuple(gens)


def classify_tight(ideal: MonomialIdeal) -> TightClass:
    """Tightness of a normalized (x, y)-primary ideal.

    Requires the pure powers x^{a_0} and y^{b_m} among the generators
    (a_m = b_0 = 0); otherwise divide off the common factor first, see
    :func:`tight_factorization`.  The ideal is x-tight when the
    x-exponents run through m, m-1, ..., 0, y-tight when the y-exponents
    run through 0, 1, ..., m, and yx-tight when a y-tight prefix meets an
    x-tight suffix at some join index.
    """
    gens = lex_order(ideal)
    if gens[-1][0] != 0 or gens[0][1] != 0:
        raise ValueError(
            "ideal is not in normalized primary form (pure powers of both "
            "variables); use tight_factorization to divide off the common "
            "factor"
        )
    return _classify_staircase(gens)


def _joins(gens) -> Tuple[int, ...]:
    """Join indices q..p of staircase ``gens``: its steps raise y by exactly
    1 up to index p and lower x by exactly 1 from index q.  Steps do not
    see the common factor x^s y^t, so ``gens`` need not be normalized."""
    m = len(gens) - 1
    p = 0
    while p < m and gens[p + 1][1] == gens[p][1] + 1:
        p += 1
    q = m
    while q > 0 and gens[q - 1][0] == gens[q][0] + 1:
        q -= 1
    return tuple(range(q, p + 1))


def _classify_staircase(gens) -> TightClass:
    """The tight class of the normalized core of staircase ``gens``."""
    m = len(gens) - 1
    joins = _joins(gens)
    if not joins:
        kind = NOT_TIGHT
    elif joins[0] == 0 and joins[-1] == m:
        kind = XY_TIGHT
    elif joins[0] == 0:
        kind = X_TIGHT
    elif joins[-1] == m:
        kind = Y_TIGHT
    else:
        kind = STRICT_YX_TIGHT
    return TightClass(kind, joins, (0, m))


def tight_factorization(ideal: MonomialIdeal):
    """Split I = x^s y^t J with J normalized, and classify J.

    Returns (s, t, J, tight class of J).  I is componentwise
    polymatroidal exactly when the class is yx-tight.
    """
    gens = lex_order(ideal)  # refuses a non-bivariate or zero ideal
    s = gens[-1][0]
    t = gens[0][1]
    return s, t, deflate(ideal, (s, t)), _classify_staircase(gens)


def cwp_structural(ideal: MonomialIdeal) -> StructuralCheck:
    """Pattern test equivalent to componentwise polymatroidality.

    On the staircase order, a degree drop from one generator to the next
    must raise the y-exponent by exactly 1 while the x-exponent falls by
    more than 1; a degree rise mirrors this; equal degrees force both
    exponents to move by exactly 1; and the degree sequence must fall to
    a single valley and rise after it.
    """
    return _structural(lex_order(ideal))


def _structural(gens) -> StructuralCheck:
    """:func:`cwp_structural` of the ideal with staircase ``gens``.

    Its valleys are the join indices.  A step lowers the x-exponent a and
    raises the y-exponent b, so it passes the pattern exactly when b rises
    by 1 (a drop, or a level step if a falls by 1 too) or a falls by 1 (a
    rise, or a level step).  The degrees fall to one valley r exactly when
    the steps before r raise b by 1 and the steps from r lower a by 1: r
    is a join index, and a step that fails the pattern ends the y-prefix
    before the x-suffix starts.
    """
    joins = _joins(gens)
    return StructuralCheck(bool(joins), joins[0] if joins else None, joins)


def valley_order(ideal: MonomialIdeal, valley: Optional[int] = None) -> GeneratorOrder:
    """The pivot admissible order of a componentwise polymatroidal ideal.

    Starting from the valley generator u_j the order runs out to the
    y-end, u_j, ..., u_m, then walks the head back, u_{j-1}, ..., u_0.
    Along the tail every colon is exactly (x); along the head it is
    exactly (y).  Both facts, and so admissibility, are checked: a colon
    that is not the theorem's raises ``RuntimeError``.

    ``valley`` overrides the turning index and must be one of the valid
    valleys reported by :func:`cwp_structural`.
    """
    pivot = _pivot(ideal, valley)
    if pivot is None:
        raise ValueError("ideal is not componentwise polymatroidal; no pivot order exists")
    return pivot[1]


def _pivot(ideal: MonomialIdeal, valley: Optional[int] = None):
    """(valley, valley_order) from one sorted staircase; None if not structural."""
    gens = lex_order(ideal)
    chk = _structural(gens)
    if not chk:
        return None
    if valley is None:
        valley = chk.valley
    elif valley not in chk.valleys:
        raise ValueError(f"valley {valley} not in valid range {chk.valleys}")
    m = len(gens) - 1
    seq = list(gens[valley:]) + list(gens[valley - 1 :: -1] if valley else [])
    # the theorem's exact colons: (x) along the tail, (y) along the head;
    # the walk stops at a colon not generated by variables
    colons = _colon_steps((), seq)[0]
    for t in range(1, m + 1):
        expected = (0,) if t <= m - valley else (1,)
        if t == len(colons) or colons[t] != expected:
            raise RuntimeError(
                f"{ideal!r}: colon at position {t} of the valley-{valley} "
                f"order is not ({'xy'[expected[0]]})"
            )
    return valley, GeneratorOrder(ideal, tuple(seq))
