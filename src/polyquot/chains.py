"""Extension-by-linear-quotients chains between capped equigenerated ideals.

A capped ideal I_(d; a_1, ..., a_n) is generated by every degree-d monomial
whose i-th exponent stays at or below a_i (Veronese type).  Equigenerated
ideals with the strong exchange property are exactly the monomial
translates of such ideals, and between nested capped ideals the new
generators can be appended one by one so that every colon against the
accumulated set is variable-generated.  Chaining those steps degree by
degree produces a verified admissible order for any componentwise
polymatroidal ideal with the strong exchange property.

A spec keeps the capped ideal it builds, so a degree step of
:func:`sep_admissible_order` builds each capped ideal once.  Each chain
constructor verifies its chain step by step before returning it, the
factorization checks its rebuild, and :func:`sep_admissible_order` reads
only the appended parts of the chains and walks the assembled order once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from .ideal import (
    MonomialIdeal,
    Monomial,
    _by_degree,
    _capped_caps,
    _times_maximal_order,
    bounded_compositions,
    graded_components,
    monomial_mul,
    translate,
)
from .exchange import (
    ExchangeWitness,
    NotPolymatroidalError,
    _box,
    _one_degree_failure,
    _require_nonzero,
    satisfies_strong_exchange,
)
from .quotients import GeneratorOrder, _colon_steps


class ChainVerificationError(RuntimeError):
    """A constructed extension chain failed its step-wise colon check."""


class NotComponentwiseSEPError(ValueError):
    """Some graded component fails the strong exchange property.

    ``degree`` is the lowest failing component and ``witness`` the first
    failing (u, v, index, missing) of its strong-exchange sweep.
    """

    def __init__(self, degree: int, witness: ExchangeWitness):
        super().__init__(
            "ideal is not componentwise polymatroidal with the strong "
            "exchange property"
        )
        self.degree = degree
        self.witness = witness


class ReconstructionError(RuntimeError):
    """A factorization did not rebuild the input ideal; the strong-exchange
    verdict or the factorization code is wrong."""


@dataclass(frozen=True)
class VeroneseSpec:
    """Degree d plus per-variable caps describing a capped ideal.

    Checked and clamped to d as :func:`veronese` does, so equal ideals get
    equal specs.  Specs of the zero ideal are also rejected; degree 0 (the
    unit ideal) is allowed so that principal ideals factor.  The ideal is
    built on the first call of :meth:`ideal` and kept.
    """

    nvars: int
    degree: int
    caps: Tuple[int, ...]
    _ideal: MonomialIdeal = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        caps = _capped_caps(self.nvars, self.degree, self.caps)
        if sum(caps) < self.degree:
            raise ValueError("caps sum below the degree: the ideal is zero")
        object.__setattr__(self, "caps", caps)

    def ideal(self) -> MonomialIdeal:
        if self._ideal is None:
            gens = tuple(bounded_compositions(self.degree, self.caps))  # descending lex
            object.__setattr__(self, "_ideal", MonomialIdeal._presorted(self.nvars, gens))
        return self._ideal

    def bump(self, i: int) -> "VeroneseSpec":
        """Degree and cap i both raised by one."""
        caps = list(self.caps)
        caps[i] += 1
        return VeroneseSpec(self.nvars, self.degree + 1, tuple(caps))


@dataclass(frozen=True)
class ExtensionChain:
    """An ordering of G(end) minus G(start) passing every colon step."""

    start: MonomialIdeal
    end: MonomialIdeal
    appended: Tuple[Monomial, ...]


def verify_chain(start: MonomialIdeal, end: MonomialIdeal,
                 appended: Sequence[Monomial]) -> None:
    """Raise unless appended is a valid extension order from start to end."""
    appended = tuple(tuple(g) for g in appended)
    if not start.gen_set <= end.gen_set:
        raise ChainVerificationError(
            "start generators are not minimal generators of the end ideal"
        )
    fresh = end.gen_set - start.gen_set
    if set(appended) != fresh or len(appended) != len(fresh):
        raise ChainVerificationError(
            "appended sequence does not cover G(end) minus G(start)"
        )
    bad = _colon_steps(start.gens, appended)[1]
    if bad is not None:
        raise ChainVerificationError(
            f"colon at appended position {bad} ({appended[bad]}) is not "
            "variable-generated"
        )


def _verified(start: MonomialIdeal, end: MonomialIdeal,
              appended: Sequence[Monomial]) -> ExtensionChain:
    verify_chain(start, end, appended)
    return ExtensionChain(start, end, tuple(appended))


def translate_chain(chain: ExtensionChain, u: Monomial) -> ExtensionChain:
    """Multiply a chain through by a monomial; colons are unchanged."""
    if sum(u) == 0:
        return chain
    return ExtensionChain(
        translate(chain.start, u),
        translate(chain.end, u),
        tuple([monomial_mul(u, g) for g in chain.appended]),
    )


def concat_chains(first: ExtensionChain, second: ExtensionChain) -> ExtensionChain:
    if first.end != second.start:
        raise ValueError("chains do not meet: end of first != start of second")
    return ExtensionChain(first.start, second.end, first.appended + second.appended)


# ---------------------------------------------------------------------------
# factorization


def sep_factorization(ideal: MonomialIdeal):
    """Write a strong-exchange ideal as u * I_(d; caps).

    u is the componentwise minimum of the generators, d the common degree
    minus deg(u), and cap i the largest remaining i-th exponent.  The
    factorization is rebuilt and compared against the input before it is
    returned; a mismatch aborts loudly.
    """
    chk = satisfies_strong_exchange(ideal)  # validates nonzero/equigenerated
    if not chk:
        raise NotPolymatroidalError(
            "ideal does not satisfy the strong exchange property "
            f"(witness {chk.witness})"
        )
    return _factor(ideal)


def _factor(ideal: MonomialIdeal):
    """sep_factorization without the strong-exchange check."""
    u, caps, d = _box(ideal.gens)
    spec = VeroneseSpec(ideal.nvars, d, caps)
    if translate(spec.ideal(), u) != ideal:
        raise ReconstructionError(
            f"monomial {u} times capped ideal {spec} does not rebuild the "
            "input; the strong-exchange verdict or this factorization is wrong"
        )
    return u, spec


# ---------------------------------------------------------------------------
# chain constructors


def _raise_key(caps: Sequence[int]):
    """Sort key of the sweep raising ``caps`` one unit at a time in variable
    order: g joins when the cap of its highest variable over ``caps``
    reaches its exponent there, descending lex within one step."""
    def key(g):
        over = max([i for i, (e, c) in enumerate(zip(g, caps)) if e > c])
        return (over, g[over], tuple([-e for e in g]))

    return key


def chain_absorb_variable(spec: VeroneseSpec, i: int) -> ExtensionChain:
    """Chain from x_i * I_(d; a) to I_(d+1; a with cap i raised).

    The target has linear quotients in the lexicographic order that ranks
    x_i first.  Its generators divisible by x_i are exactly x_i * I_(d; a)
    and form the initial segment, so the appended part is the x_i-free
    generators of the target, which that order lists as descending lex.
    """
    if not 0 <= i < spec.nvars:
        raise ValueError(f"variable index {i} out of range")
    end = spec.bump(i).ideal()
    start = MonomialIdeal._presorted(spec.nvars, tuple([g for g in end.gens if g[i]]))
    return _verified(start, end, [g for g in end.gens if not g[i]])


def chain_absorb_monomial(spec: VeroneseSpec, c: Sequence[int]) -> ExtensionChain:
    """Chain from x^c * I_(d; a) to I_(d + sum c; a + c), one variable step
    at a time.  An all-zero c gives the empty chain."""
    c = tuple(c)
    if len(c) != spec.nvars:
        raise ValueError(f"expected {spec.nvars} increments, got {len(c)}")
    if any(e < 0 for e in c):
        raise ValueError("increments must be nonnegative")
    shift = list(c)
    cur = spec
    start = end = None
    appended: list = []
    for i in range(spec.nvars):
        for _ in range(c[i]):
            shift[i] -= 1
            step = chain_absorb_variable(cur, i)
            if start is None:  # x^c * I_(d; a), from x_i * I_(d; a)
                start = translate(step.start, shift)
            appended.extend([monomial_mul(shift, g) for g in step.appended])
            end = step.end
            cur = cur.bump(i)
    if start is None:
        start = end = spec.ideal()
    return _verified(start, end, appended)


def chain_raise_caps(src: VeroneseSpec, dst: VeroneseSpec) -> ExtensionChain:
    """Chain from I_(d; a) to I_(d; b) for componentwise a <= b.

    Caps are raised one unit at a time in variable order; each unit step
    appends the generators that use the new cap, in descending
    lexicographic order, after everything already present.  Only I_(d; b)
    is built; I_(d; a) is its members within the caps a.
    """
    if src.nvars != dst.nvars or src.degree != dst.degree:
        raise ValueError("specs must share the variable count and degree")
    if any(a > b for a, b in zip(src.caps, dst.caps)):
        raise ValueError(f"caps {src.caps} not dominated by {dst.caps}")
    end = dst.ideal()
    caps = src.caps
    inside, fresh = [], []
    for g in end.gens:
        (fresh if any([e > c for e, c in zip(g, caps)]) else inside).append(g)
    start = MonomialIdeal._presorted(src.nvars, tuple(inside))
    return _verified(start, end, sorted(fresh, key=_raise_key(caps)))


def chain_absorb_maximal_ideal(spec: VeroneseSpec) -> ExtensionChain:
    """Chain from (x_1, ..., x_n) * I_(d; a) to I_(d+1; a + 1).

    The start ideal's generators are the degree-(d+1) monomials exceeding
    at most one cap by one, built as {x_r * g} without minimalizing (all
    have degree d+1, so none divides another).  The remaining target
    generators are appended in the cap-raising sweep order (highest
    over-cap variable first, then descending lex), which restricts the
    absorb-one-variable chain followed by cap raises to the missing part.
    """
    n = spec.nvars
    start = MonomialIdeal._equigenerated(n, _times_maximal_order(spec.ideal().gens, n))
    end = VeroneseSpec(n, spec.degree + 1, tuple(c + 1 for c in spec.caps)).ideal()
    fresh = [g for g in end.gens if g not in start.gen_set]
    return _verified(start, end, sorted(fresh, key=_raise_key(spec.caps)))


# ---------------------------------------------------------------------------
# the global admissible order


def sep_admissible_order(ideal: MonomialIdeal) -> GeneratorOrder:
    """A verified admissible order for a componentwise strong-exchange ideal.

    The minimal generators of the lowest degree are ordered
    lexicographically (a translate of a capped ideal always admits that
    order).  For each degree step j -> j+1 the component factorizations
    I_<j> = u * I_(d; a) and I_<j+1> = v * I_(l; b) give a chain from
    (x_1, ..., x_n) * I_<j> to I_<j+1>: absorb the maximal ideal into the
    spec, absorb x^(u-v) when u != v, then raise caps to b, reusing the
    capped ideals the factorizations built.  Its appended monomials,
    shifted by u and v, must be the new generators of degree j+1; they
    join the order in chain position.  Each constructor verifies its own
    chain and each factorization its rebuild; the assembled order is
    walked once more.  An ideal some component of which fails strong
    exchange raises :class:`NotComponentwiseSEPError`.
    """
    return _sep_order(ideal)[0]


def _sep_order(ideal: MonomialIdeal):
    """sep_admissible_order and the colon variables of the walk checking it.

    The chains of one step meet without a check of their own: the degrees
    add up, (d + 1) + |u - v| = (j - |u|) + 1 + |u| - |v| = l; u >= v, as
    x_r * g is in I_<j+1> for g in G(I_<j>), so for n >= 2 and any r != i,
    v_i <= min_g (x_r * g)_i = min_g g_i = u_i (n = 1 has one degree); and
    v * I_(l; b) = I_<j+1> is the factorization's rebuild check.
    """
    _require_nonzero(ideal)
    factors = {}
    for j, comp in graded_components(ideal):
        # strong exchange within one degree implies the exchange property,
        # so the strong test alone decides each component
        failure = _one_degree_failure(comp, True)
        if failure is not None:
            raise NotComponentwiseSEPError(j, ExchangeWitness(*failure))
        factors[j] = _factor(comp)
    new_gens = _by_degree(ideal.gens)

    order = list(new_gens[ideal.mindeg])  # descending lex, as stored
    for j in range(ideal.mindeg, ideal.maxdeg):
        u, spec_u = factors[j]
        v, spec_v = factors[j + 1]
        c = tuple(a - b for a, b in zip(u, v))
        step = [monomial_mul(u, g) for g in chain_absorb_maximal_ideal(spec_u).appended]
        mid = VeroneseSpec(spec_u.nvars, spec_u.degree + 1, tuple(a + 1 for a in spec_u.caps))
        if any(c):  # with u = v the chain absorbing x^c is empty
            step += [monomial_mul(v, g) for g in chain_absorb_monomial(mid, c).appended]
        after = VeroneseSpec(mid.nvars, mid.degree + sum(c), monomial_mul(mid.caps, c))
        step += [monomial_mul(v, g) for g in chain_raise_caps(after, spec_v).appended]
        if sorted(step) != sorted(new_gens.get(j + 1, ())):
            raise ChainVerificationError(
                f"appended monomials of the degree {j + 1} chain are not the "
                "new minimal generators"
            )
        order.extend(step)

    # the ideal of the lower-degree generators placed before degree j+1
    # and m * I_<j> agree in every degree >= j+1, so this walk sees the
    # colons the constructors verified, now of the whole order
    result = GeneratorOrder(ideal, tuple(order))
    variables, bad = _colon_steps((), result.order)
    if bad is not None:
        raise ChainVerificationError(
            f"assembled order failed admissibility at position {bad}"
        )
    return result, tuple(variables)
