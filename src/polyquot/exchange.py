"""Exchange-property predicates on minimal generators, with failure witnesses.

The four predicates share one sweep, ``_exchange_failure``: it moves one
generator of each pair by x_j / x_i (x_i / x_j for the dual property) and
asks some partner j, or every one for strong exchange, to land in the
ideal.  It walks the generator pairs in canonical order (as stored on
the ideal), the exchanged variable index ascending, and stops at the first
failure, so the reported witness is deterministic.  A failing witness is
independently re-checkable: replaying (u, v, i) against membership must
show every admissible exchange monomial absent from the ideal.

Every one-degree check is decided first by the box rule.  With
u_i = min g_i, a_i = max g_i - u_i and d' = deg - |u|, generators filling
the box of b with |b| = d', 0 <= b <= a are u * I_(d'; a), which has strong
exchange, so exchange: x_j * g / x_i stays in the box when g_i > h_i and
g_j < h_j.  So the box decides every passing check; the pair sweep runs off
it.  Only such translates have strong exchange (Herzog-Hibi, Discrete
polymatroids, 2002), so where the strong sweep runs (satisfies_strong_exchange,
chains.sep_admissible_order) a pass raises.  In K[x, y] every polymatroidal
component is a filled box: there the sweep runs only to find a failing witness.

The componentwise predicates share one sweep over the graded components,
which gives both verdicts when the exchange verdict is asked for; the ideal
object keeps that pair, so asking it either question again sweeps nothing.
Nothing is shared between objects, even equal ones.

Variable indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ideal import (
    MonomialIdeal,
    Monomial,
    ZeroIdealError,
    graded_components,
)


class NotEquigeneratedError(ValueError):
    """The operation requires all minimal generators to share one degree."""


class NotPolymatroidalError(ValueError):
    """The operation requires a polymatroidal input ideal."""


class DualExchangeViolationError(RuntimeError):
    """An exchange walk stalled: the claimed dual exchange property is false."""


@dataclass(frozen=True)
class ExchangeWitness:
    """A failing instance of an exchange predicate.

    ``u`` and ``v`` are the generator pair, ``index`` the variable whose
    exchange cannot be completed, and ``missing`` the first exchange
    candidate that is absent from the ideal (None when no admissible
    partner index existed at all).
    """

    u: Monomial
    v: Monomial
    index: int
    missing: Optional[Monomial]


@dataclass(frozen=True)
class ExchangeCheck:
    ok: bool
    witness: Optional[ExchangeWitness]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ComponentCheck:
    """Verdict of a componentwise predicate; degree/witness set on failure."""

    ok: bool
    degree: Optional[int]
    witness: Optional[ExchangeWitness]

    def __bool__(self) -> bool:
        return self.ok


_PASS = ExchangeCheck(True, None)


def _require_nonzero(ideal: MonomialIdeal) -> None:
    if ideal.is_zero:
        raise ZeroIdealError("predicate undefined on the zero ideal")


def _require_equigenerated(ideal: MonomialIdeal) -> None:
    if not ideal.is_equigenerated:
        raise NotEquigeneratedError(
            "generators span degrees "
            f"{ideal.mindeg}..{ideal.maxdeg}; a single degree is required"
        )


def _exchange_failure(pairs, n, sign, members, every):
    """First failing (moved, other, i, missing) of the exchange sweep, or None.

    For each (w, o) in ``pairs`` and each i with sign * (w_i - o_i) > 0,
    the partners are the j with sign * (w_j - o_j) < 0 and the exchange
    monomials are x_j * w / x_i (sign +1) or x_i * w / x_j (sign -1).  One
    of them, or with ``every`` each of them, must lie in ``members``;
    ``missing`` is the first absent one, None if there is no partner.
    """
    for w, o in pairs:
        a, b = (w, o) if sign > 0 else (o, w)
        for i in range(n):
            if a[i] <= b[i]:
                continue
            base = list(w)
            base[i] -= sign
            missing = None
            for j in range(n):
                if a[j] >= b[j]:
                    continue
                base[j] += sign
                cand = tuple(base)
                base[j] -= sign
                if cand in members:
                    if not every:
                        break  # some partner works
                elif every:
                    return w, o, i, cand  # a partner fails
                elif missing is None:
                    missing = cand
            else:
                if not every:
                    return w, o, i, missing  # no partner works
    return None


def _box(gens):
    """(u, a, d') of the box of nonempty equigenerated generators."""
    cols = tuple(zip(*gens))
    u = tuple(map(min, cols))
    return u, tuple(max(c) - m for c, m in zip(cols, u)), sum(gens[0]) - sum(u)


def _box_count(total, caps):
    """The number of b with |b| = total and 0 <= b_i <= caps[i]; ways[t]
    counts the b over the caps so far with |b| = t."""
    ways = [1] * (min(caps[0], total) + 1) + [0] * (total - caps[0])
    for c in caps[1:-1]:
        ways = [sum(ways[max(0, t - c) : t + 1]) for t in range(total + 1)]
    return sum(ways[max(0, total - caps[-1]) :]) if len(caps) > 1 else ways[total]


def _fills_box(gens) -> bool:
    """Whether nonempty equigenerated generators are all of u * I_(d'; a)."""
    _, caps, d = _box(gens)
    return len(gens) == _box_count(d, caps)


def _pair_failure(ideal: MonomialIdeal, every: bool):
    """The sweep of all ordered pairs of one degree; u moves."""
    gens = ideal.gens
    pairs = ((u, v) for u in gens for v in gens if u is not v)
    return _exchange_failure(pairs, ideal.nvars, 1, ideal.gen_set, every)


def _one_degree_failure(ideal: MonomialIdeal, every: bool):
    """The box rule, then the pair sweep; a strong sweep passing off the
    box contradicts Herzog-Hibi and raises."""
    if _fills_box(ideal.gens):
        return None
    failure = _pair_failure(ideal, every)
    if failure is None and every:
        raise RuntimeError(f"{ideal!r}: strong exchange, box not filled (Herzog-Hibi)")
    return failure


def _nonpure_check(ideal: MonomialIdeal, sign: int) -> ExchangeCheck:
    """The sweep over the pairs with deg(u) <= deg(v), where v moves."""
    _require_nonzero(ideal)
    gens = ideal.gens
    pairs = ((v, u) for u in gens for v in gens if u is not v and sum(u) <= sum(v))
    failure = _exchange_failure(pairs, ideal.nvars, sign, ideal, False)
    if failure is None:
        return _PASS
    v, u, i, missing = failure
    return ExchangeCheck(False, ExchangeWitness(u, v, i, missing))


def _check(failure) -> ExchangeCheck:
    return _PASS if failure is None else ExchangeCheck(False, ExchangeWitness(*failure))


def is_polymatroidal(ideal: MonomialIdeal) -> ExchangeCheck:
    """Exchange property for an equigenerated ideal.

    For every pair u, v of minimal generators and every i with u_i > v_i
    there must be some j with u_j < v_j such that x_j * u / x_i lies in
    the ideal.  Since all generators share one degree, membership of the
    exchanged monomial reduces to membership in the generator set.
    """
    _require_nonzero(ideal)
    _require_equigenerated(ideal)
    return _check(_one_degree_failure(ideal, False))


def satisfies_nonpure_exchange(ideal: MonomialIdeal) -> ExchangeCheck:
    """Exchange across degrees, correcting the larger-degree generator.

    For u, v in G(I) with deg(u) <= deg(v) and every i with v_i > u_i,
    some j with v_j < u_j must make x_j * v / x_i a member of the ideal.
    """
    return _nonpure_check(ideal, 1)


def satisfies_nonpure_dual_exchange(ideal: MonomialIdeal) -> ExchangeCheck:
    """Dual exchange across degrees, raising the larger-degree generator.

    For u, v in G(I) with deg(u) <= deg(v) and every i with v_i < u_i,
    some j with v_j > u_j must make x_i * v / x_j a member of the ideal.
    """
    return _nonpure_check(ideal, -1)


def satisfies_strong_exchange(ideal: MonomialIdeal) -> ExchangeCheck:
    """Exchange for every admissible index pair, not merely some partner.

    Defined only on polymatroidal ideals: for all u, v in G(I) and all
    i, j with u_i > v_i and u_j < v_j, the monomial x_j * u / x_i must
    lie in the ideal.  Generators filling their box pass in O(m n), being
    u * I_(d'; a) (closed under the moves; only such pass, Herzog-Hibi).
    """
    _require_nonzero(ideal)
    _require_equigenerated(ideal)
    failure = _one_degree_failure(ideal, True)
    if failure is None:
        return _PASS  # within one degree strong exchange implies exchange
    chk = is_polymatroidal(ideal)
    if not chk:
        raise NotPolymatroidalError(
            f"ideal is not polymatroidal (witness {chk.witness})"
        )
    return _check(failure)


def is_componentwise_polymatroidal(ideal: MonomialIdeal) -> ComponentCheck:
    """Every graded component between mindeg and maxdeg is polymatroidal.

    Components beyond maxdeg need no check: each is the product of the
    maximal ideal with the previous component, and products of
    polymatroidal ideals stay polymatroidal.
    """
    return _componentwise_verdicts(ideal)[0]


def is_componentwise_sep(ideal: MonomialIdeal) -> bool:
    """Every graded component is polymatroidal with the strong exchange
    property."""
    return _componentwise_verdicts(ideal, poly=False)[1]


def _componentwise_verdicts(ideal: MonomialIdeal, poly=True):
    """(is_componentwise_polymatroidal(ideal), is_componentwise_sep(ideal))
    from one sweep over the graded components.

    A component filling its box u * I_(d'; a) passes both; only such
    components have strong exchange (Herzog-Hibi), so the box alone gives
    the strong verdict.  The pair sweep runs on the other components, and
    only with ``poly``.  Such a sweep gives both verdicts, so it keeps the
    pair on the ideal object, and later calls on that object read it
    instead of sweeping.  Without ``poly`` a sweep stops at the first
    component off its box, gives None for the exchange check and keeps
    nothing, as does a sweep that raises ``DegreeGuardError``.
    """
    kept = getattr(ideal, "_verdicts", None)
    if kept is None:
        kept = _sweep_components(ideal, poly)
        if poly:
            ideal._verdicts = kept
    return kept


def _sweep_components(ideal: MonomialIdeal, poly: bool):
    """(exchange check, None without ``poly``; strong verdict)."""
    _require_nonzero(ideal)
    strong = True
    for j, comp in graded_components(ideal):
        if _fills_box(comp.gens):
            continue
        strong = False
        if not poly:
            break
        failure = _pair_failure(comp, False)
        if failure is not None:
            return ComponentCheck(False, j, ExchangeWitness(*failure)), False
    return (ComponentCheck(True, None, None) if poly else None), strong


def _distance(w: Monomial, v: Monomial) -> int:
    return sum(abs(a - b) for a, b in zip(w, v))


def _walk_step(w: Monomial, v: Monomial, i: int, gen_set) -> Optional[Monomial]:
    """The walk's next generator x_k * w / x_l, for the first k != i with
    w_k < v_k and the first l with w_l > v_l that lands in ``gen_set``;
    None when no such k is left."""
    k = next((k for k in range(len(w)) if k != i and w[k] < v[k]), None)
    if k is None:
        return None
    for l in range(len(w)):
        if w[l] > v[l]:
            cand = list(w)
            cand[k] += 1
            cand[l] -= 1
            cand = tuple(cand)
            if cand in gen_set:
                return cand
    raise DualExchangeViolationError(
        f"walk stalled at {w} toward {v} (index {k}): the ideal "
        "does not satisfy the dual exchange property"
    )


def exchange_walk(
    ideal: MonomialIdeal, u: Monomial, v: Monomial, i: int
) -> Monomial:
    """Walk from u toward v through generator exchanges, freezing index i.

    Requires an equigenerated ideal with the dual exchange property,
    u, v in G(I) and u_i < v_i.  Each step replaces the current generator
    w by x_k * w / x_l in G(I) with w_k < v_k and w_l > v_l, strictly
    decreasing the L1 distance to v.  The result w satisfies w_i = u_i
    and w_j >= v_j for every j != i.

    A stalled walk means the dual exchange property fails for the input
    ideal and raises :class:`DualExchangeViolationError`.
    """
    _require_nonzero(ideal)
    _require_equigenerated(ideal)
    u, v = tuple(u), tuple(v)
    gen_set = ideal.gen_set
    if u not in gen_set or v not in gen_set:
        raise ValueError("u and v must be minimal generators")
    if not 0 <= i < ideal.nvars:
        raise ValueError(f"variable index {i} out of range")
    if u[i] >= v[i]:
        raise ValueError("need deg_i(u) < deg_i(v)")
    w = u
    while (nxt := _walk_step(w, v, i, gen_set)) is not None:
        if _distance(nxt, v) >= _distance(w, v):
            raise RuntimeError(f"walk step {w} -> {nxt} does not move closer to {v}")
        w = nxt
    if w[i] != u[i]:
        raise RuntimeError(f"walk from {u} moved the frozen index {i} to {w}")
    if any(a < b for k, (a, b) in enumerate(zip(w, v)) if k != i):
        raise RuntimeError(f"walk from {u} ended at {w}, short of {v} off index {i}")
    return w
