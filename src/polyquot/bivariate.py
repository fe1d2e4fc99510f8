"""Structure of monomial ideals in two variables.

Minimal generators in K[x, y] sort into a chain x^{a_0} y^{b_0}, ...,
x^{a_m} y^{b_m} with the a_i strictly decreasing and the b_i strictly
increasing.  On that chain the componentwise-polymatroidal ideals are
recognized by consecutive-integer patterns in the exponent sequences
("tight" ideals, after dividing off the common monomial factor), and they
all carry an explicit admissible order that pivots at the generator of
minimal degree.
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
    return _classify_staircase(lex_order(ideal))


def _classify_staircase(gens) -> TightClass:
    """:func:`classify_tight` of the ideal with staircase ``gens``."""
    m = len(gens) - 1
    if gens[-1][0] != 0 or gens[0][1] != 0:
        raise ValueError(
            "ideal is not in normalized primary form (pure powers of both "
            "variables); use tight_factorization to divide off the common "
            "factor"
        )
    a = [g[0] for g in gens]
    b = [g[1] for g in gens]
    # p: longest prefix with b_i == i; q: earliest start of an a_i == m - i
    # suffix.  Join indices are exactly q..p.
    p = 0
    while p < m and b[p + 1] == p + 1:
        p += 1
    q = m
    while q > 0 and a[q - 1] == m - (q - 1):
        q -= 1
    joins = tuple(range(q, p + 1)) if q <= p else ()
    x_tight = q == 0
    y_tight = p == m
    if not joins:
        kind = NOT_TIGHT
    elif x_tight and y_tight:
        kind = XY_TIGHT
    elif x_tight:
        kind = X_TIGHT
    elif y_tight:
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
    core = deflate(ideal, (s, t))
    return s, t, core, _classify_staircase([(a - s, b - t) for a, b in gens])


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
    """:func:`cwp_structural` of the ideal with staircase ``gens``."""
    for (a1, b1), (a2, b2) in zip(gens, gens[1:]):
        d1, d2 = a1 + b1, a2 + b2
        if d1 > d2:
            if not (b2 == b1 + 1 and a1 - 1 > a2):
                return StructuralCheck(False, None, ())
        elif d1 < d2:
            if not (a2 == a1 - 1 and b1 + 1 < b2):
                return StructuralCheck(False, None, ())
        else:
            if not (a2 == a1 - 1 and b2 == b1 + 1):
                return StructuralCheck(False, None, ())
    degs = [a + b for a, b in gens]
    m = len(degs) - 1
    r = 0
    while r < m and degs[r] >= degs[r + 1]:
        r += 1
    s = m
    while s > 0 and degs[s - 1] <= degs[s]:
        s -= 1
    if s > r:
        return StructuralCheck(False, None, ())
    return StructuralCheck(True, s, tuple(range(s, r + 1)))


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
    gens = lex_order(ideal)
    chk = _structural(gens)
    if not chk:
        raise ValueError(
            "ideal is not componentwise polymatroidal; no pivot order exists"
        )
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
    return GeneratorOrder(ideal, tuple(seq))
