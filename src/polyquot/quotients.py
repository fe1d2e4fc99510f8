"""Admissible-order verification and backtracking search for linear quotients.

An ordering u_1, ..., u_m of the minimal generators is admissible when each
colon ideal (u_1, ..., u_{i-1}) : u_i is generated by variables.  For an
antichain that holds iff for every k < i some l < i has u_l : u_i equal to
a single variable dividing u_k : u_i.  Verification and search share one
test of that step, on bitsets over the generators: for each candidate and
variable x_r, ``_colon_bits`` precomputes which generators have a colon
against the candidate involving x_r and which have a colon exactly x_r,
so one step check costs O(n) big-int operations however many generators
are already placed.  :func:`is_admissible_order`,
:func:`order_colon_variables` and the chain checks walk an order with it
(``_colon_steps``); the search tries candidates with it
(``_search_extension``).

Search nodes count attempted placements.  Whether a generator may extend a
partial order depends only on the *set* already placed, so failed prefix
sets are memoized and an exhausted verdict is a complete proof that no
admissible order exists.

:func:`find_admissible_order` and the componentwise sweep decide layers:
the generators of one degree, placed after all those of lower degree
(:func:`_decide_layer`).  The same bitsets first refute a layer not
joined to the ones below by exchange steps (``_exchange_unreached``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .ideal import (
    MonomialIdeal,
    Monomial,
    ZeroIdealError,
    _by_degree,
    _times_maximal_order,
    graded_component,
    guard_degree,
)

DEFAULT_BUDGET = 10**6

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class GeneratorOrder:
    """A permutation of the minimal generators of an ideal."""

    ideal: MonomialIdeal
    order: tuple

    def __post_init__(self):
        order = tuple(tuple(g) for g in self.order)
        object.__setattr__(self, "order", order)
        if len(order) != len(self.ideal.gens) or set(order) != self.ideal.gen_set:
            raise ValueError(_permutation_fault(order, self.ideal))


def _permutation_fault(order: tuple, ideal: MonomialIdeal) -> str:
    """Name the first row (0-based) that is not a minimal generator or
    repeats an earlier row, else the first minimal generator missing."""
    head = "order is not a permutation of the minimal generators: "
    seen = {}
    for k, g in enumerate(order):
        row = f"{head}position {k} ({' '.join(map(str, g))})"
        if g not in ideal.gen_set:
            return f"{row} is not a minimal generator"
        if g in seen:
            return f"{row} repeats position {seen[g]}"
        seen[g] = k
    missing = next(g for g in ideal.gens if g not in seen)
    return f"{head}minimal generator ({' '.join(map(str, missing))}) is missing"


@dataclass(frozen=True)
class AdmissibilityCheck:
    ok: bool
    fail_index: Optional[int]  # position whose colon is not variable-generated

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # FOUND / EXHAUSTED / BUDGET_EXCEEDED
    order: Optional[tuple]  # the (partial-universe) ordering found
    nodes: int
    # (u, v) no chain of exchange steps joins; set only when the
    # connectivity refuter decided an exhausted outcome
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class ComponentwiseLQ:
    """Tri-state componentwise verdict: True / False / None (budget ran out);
    when True, ``layered`` is the ideal's :func:`find_admissible_order`."""

    value: Optional[bool]
    outcomes: dict = field(compare=False)
    layered: Optional[SearchOutcome] = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.value is True


# ---------------------------------------------------------------------------
# verification


def _colon_steps(base: Sequence[Monomial], appended: Sequence[Monomial]):
    """(variables, bad) for the members of ``appended`` placed in turn
    after ``base``, all in one antichain: the search's step test on
    ``_colon_bits(base + appended, len(base))``.

    variables[i] lists the 0-based r whose x_r generate the colon of
    appended[i] against everything placed before it (empty with nothing
    placed); bad is the index of the first step that fails, where the
    walk stops, or None.
    """
    nb = len(base)
    placed = (1 << nb) - 1
    variables = []
    for i, row in enumerate(_colon_bits(tuple(base) + tuple(appended), nb)):
        cover = 0
        rs = []
        for r, (w, k) in enumerate(row):
            if placed & w:
                cover |= k
                rs.append(r)
        if placed & ~cover:
            return variables, i
        variables.append(tuple(rs))
        placed |= 1 << (nb + i)
    return variables, None


def is_admissible_order(order: GeneratorOrder) -> AdmissibilityCheck:
    """Check each successive colon of the ordering for variable generation.

    On failure, ``fail_index`` is the 0-based position of the generator
    whose colon against its predecessors is not variable-generated.
    """
    bad = _colon_steps((), order.order)[1]
    return AdmissibilityCheck(bad is None, bad)


def order_colon_variables(order: GeneratorOrder) -> tuple:
    """Audit trail of an admissible order: the variables generating each colon.

    Entry i (for i >= 1) lists the 0-based variable indices whose first
    powers generate (u_1, ..., u_i) : u_{i+1}; entry 0 is empty, and the
    empty order has no entries.  Raises if some colon is not
    variable-generated.
    """
    variables, bad = _colon_steps((), order.order)
    if bad is not None:
        raise ValueError(f"colon at position {bad} is not variable-generated")
    return tuple(variables)


# ---------------------------------------------------------------------------
# backtracking search


def _colon_bits(universe, nb):
    """Per candidate universe[nb:] and variable x_r, the bitsets (W, K).

    Bit l of a mask stands for universe[l].  K holds the members whose
    colon against the candidate involves x_r, W those whose colon is
    exactly x_r (x_r exponent one above the candidate's, no other K
    containing them).  A member in no K divides the candidate: its colon
    is the unit ideal.
    """
    # For each variable r, at[r][e] holds the members with x_r exponent e
    # and above[r][e] the members with x_r exponent greater than e (for
    # every e that occurs).
    above = []
    at = []
    for column in zip(*universe):
        buckets: dict[int, int] = {}
        for l, e in enumerate(column):
            buckets[e] = buckets.get(e, 0) | (1 << l)
        greater = {}
        acc = 0
        for e in sorted(buckets, reverse=True):
            greater[e] = acc
            acc |= buckets[e]
        above.append(greater)
        at.append(buckets)
    colon_bits = []
    for gc in universe[nb:]:
        ks = [above[r][e] for r, e in enumerate(gc)]
        once = many = 0
        for k in ks:
            many |= once & k
            once |= k
        colon_bits.append([
            (at[r].get(e + 1, 0) & ~many, k)
            for r, (e, k) in enumerate(zip(gc, ks))
        ])
    return colon_bits


def _search_extension(nb, cands, colon_bits, budget):
    """Order `cands` after a fixed prefix of nb members so every colon step
    passes; ``colon_bits`` is ``_colon_bits(prefix + cands, nb)``.

    All monomials must belong to one antichain.  Returns (status, order,
    nodes) with order a tuple over cands on success.  The depth-first
    search is a loop over an explicit stack: unplaced candidates in
    canonical order, one node per attempted placement, a placed set that
    failed is never expanded again, and nodes = budget + 1 on overrun.
    """
    # cands[c] is bit nb + c; ``free`` holds the candidates left to try
    everything = (1 << (nb + len(cands))) - 1
    placed = (1 << nb) - 1
    free = everything & ~placed
    dead: set[int] = set()
    stack = []  # (placed, free, c) of each enclosing depth, c chosen there
    nodes = 0
    while placed != everything:
        if not free:
            dead.add(placed)
            if not stack:
                return EXHAUSTED, None, nodes
            placed, free, _ = stack.pop()
            continue
        bit = free & -free
        free ^= bit
        c = bit.bit_length() - 1 - nb
        nodes += 1
        if nodes > budget:
            return BUDGET_EXCEEDED, None, nodes
        # (placed) : cands[c] is generated by the variables x_r that some
        # placed member's colon equals; the step passes iff every placed
        # member's colon involves one of them, i.e. lies in the cover, the
        # union of K over those r.
        cover = 0
        for w, k in colon_bits[c]:
            if placed & w:
                cover |= k
        if placed & ~cover == 0 and placed | bit not in dead:
            stack.append((placed, free, c))
            placed |= bit
            free = everything & ~placed
    return FOUND, tuple(cands[c] for _, _, c in stack), nodes


def _exchange_unreached(universe, colon_bits, reached) -> Optional[Monomial]:
    """The first member of ``universe`` that no chain of steps joins to
    the members in ``reached``, or None.

    ``colon_bits`` is ``_colon_bits(universe, nb)``, its candidates of one
    degree.  A step joins u to a candidate v when u : v = x_r (in W):
    among the candidates that is the exchange step u = x_r * v / x_s,
    which is symmetric.  The mask ``reached`` holds bit 0, every member
    below nb and nothing but members joined to one another.

    In an admissible order each colon (u_1, ..., u_{i-1}) : u_i with
    i >= 2 is generated by variables, each of them some u_l : u_i, so
    every generator after the first is one step from an earlier one.  An
    order placing the members below nb first and passing each candidate's
    step so joins every candidate to them, or, with none, to one another.
    """
    nb = len(universe) - len(colon_bits)
    steps = []
    todo = 0
    for c, row in enumerate(colon_bits):
        s = 0
        for w, _ in row:
            s |= w
        steps.append(s)
        if s & reached:
            todo |= 1 << (nb + c)
    todo &= ~reached
    reached |= todo
    while todo:
        low = todo & -todo
        todo ^= low
        s = steps[low.bit_length() - 1 - nb] & ~reached
        todo |= s
        reached |= s
    missed = ~reached & ((1 << len(universe)) - 1)
    return universe[(missed & -missed).bit_length() - 1] if missed else None


def _decide_layer(lower: tuple, new: tuple, budget: int):
    """(status, order, nodes, v) for the generators ``new`` of one degree
    ordered after the lower generators ``lower``, all one antichain.  A
    member v of ``new`` not joined to the rest (see
    :func:`_exchange_unreached`) refutes every such order: exhausted with
    0 nodes.  Otherwise v is None, and a found order is over ``new``.
    """
    nb = len(lower)
    universe = lower + new
    colon_bits = _colon_bits(universe, nb)
    v = _exchange_unreached(universe, colon_bits, (1 << nb) - 1 or 1)
    if v is not None:
        return EXHAUSTED, None, 0, v
    return (*_search_extension(nb, new, colon_bits, budget), None)


def find_admissible_order(
    ideal: MonomialIdeal, budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """Search for an admissible order of the minimal generators.

    An ideal has linear quotients iff it has an admissible order in which
    degrees do not decrease (Jahan-Zheng, JCTA 117, 2010, Lemma 2.1).  So
    each degree, lowest first, is decided as a layer after all lower ones
    (:func:`_decide_layer`); the order found is the layers' orders in turn,
    and all layers share the one budget (nodes = budget + 1 on overrun).
    A refuted layer gives ``exhausted``, 0 nodes and ``witness`` (first
    generator of the lowest degree, first one of the layer not joined).
    Candidates are tried in canonical order, so node counts are
    reproducible.  ``exhausted`` is a proof that no admissible order
    exists; ``budget-exceeded`` is inconclusive.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no generator ordering")
    lower, order, nodes = (), (), 0
    for new in reversed(_by_degree(ideal.gens).values()):
        status, part, used, v = _decide_layer(lower, new, budget - nodes)
        if v is not None:
            return SearchOutcome(EXHAUSTED, None, 0, ((lower or new)[0], v))
        nodes += used
        if status != FOUND:
            return SearchOutcome(status, None, nodes)
        order += part
        lower += new
    return SearchOutcome(FOUND, order, nodes)


def extends_by_linear_quotients(
    inner: MonomialIdeal, outer: MonomialIdeal, budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """Search for an ordering of G(outer) minus G(inner) extending inner.

    Requires G(inner) to be a subset of G(outer).  Found outcomes carry
    the appended ordering.  One DFS places every candidate, whatever its
    degree: with a zero inner ideal and an equigenerated outer ideal this
    is the DFS of :func:`find_admissible_order`, without its refuter.
    """
    if inner.nvars != outer.nvars:
        raise ValueError("variable counts differ")
    if not inner.gen_set <= outer.gen_set:
        raise ValueError("generators of the inner ideal must all be "
                         "minimal generators of the outer ideal")
    cands = tuple(g for g in outer.gens if g not in inner.gen_set)
    nb = len(inner.gens)
    colon_bits = _colon_bits(inner.gens + cands, nb)
    status, order, nodes = _search_extension(nb, cands, colon_bits, budget)
    return SearchOutcome(status, order, nodes)


def _replay_layers(layers, budget: int) -> SearchOutcome:
    """One shared budget's outcome, from each layer's search with all of it."""
    order, nodes = (), 0
    for status, used, part in layers:
        if used > budget - nodes:
            return SearchOutcome(BUDGET_EXCEEDED, None, budget + 1)
        nodes += used
        if status != FOUND:
            return SearchOutcome(status, None, nodes)
        order += part
    return SearchOutcome(FOUND, order, nodes)


def has_componentwise_linear_quotients(
    ideal: MonomialIdeal, budget: int = DEFAULT_BUDGET
) -> ComponentwiseLQ:
    """Decide linear quotients of every graded component.

    Components beyond the top generator degree inherit linear quotients
    from the top component, so only mindeg..maxdeg are visited.  The
    lowest component is built with :func:`graded_component` and searched
    by :func:`find_admissible_order`.  Each later I_<j> is stepped up from
    the one below, I_<j> = m * I_<j-1> + (N) with N the generators of I of
    degree j, in one loop that keeps one listing of G(I_<j-1>): the order
    found for it, or, when it was not found, the listing it was built from.

    The colon lemma.  For v of degree j, not in (G(I)_<j), and T a set of
    degree-j monomials, (G(I)_<j + T) : v = (m * I_<j-1> + T) : v.  The
    generators of m * I_<j-1> are the degree-j monomials of (G(I)_<j),
    and each h of them is a multiple of some g in G(I)_<j, so h : v is a
    multiple of g : v.  Conversely, for g in G(I)_<j write g = c * a and
    v = c * b with c = gcd(g, v); deg a < deg b, so some b' dividing b
    has deg b' = deg b - deg a, and h = g * b' is a generator of
    m * I_<j-1> (degree j, a multiple of g) with h : v = a = g : v, as
    gcd(a, b) = 1.  So the colons of the two sets against v generate the
    same ideal, and one of them is the variable x_r iff one of the other
    set is.

    Above a found component, I_<j> is decided from G(I)_<j, gathered
    from the degrees already swept, and N:

    1. Base.  :func:`_times_maximal_order` of the order below is an
       admissible order of m * I_<j-1> (Sharifan-Varbaro 2008; cf.
       Jahan-Zheng, JCTA 117, 2010).  For w = x_r * u_i, an earlier
       x_s * u_l with l < i meets some x_t != x_r dividing u_l : u_i with
       u_l' : u_i = x_t, l' < i.  So x_t * u_i = x_q * u_l' is listed
       before w, and its colon is x_t; an earlier x_s * u_i has colon x_s.
       With N empty (a pure step) the base is the outcome, with 0 nodes.
       Otherwise N is decided after G(I)_<j> by :func:`_decide_layer`,
       and the base is listed only once its refuter has passed.
    2. Refuter.  An admissible order of I_<j> joins all of it by exchange
       steps (see :func:`_exchange_unreached`), and by the lemma a member
       of N is one step from the base iff it is one from G(I)_<j>.  So a
       member of N not joined to G(I)_<j> refutes I_<j>: exhausted,
       0 nodes, witness (base[0], that member).
    3. Extension.  By the lemma each step of N after G(I)_<j>, and so the
       nodes and the order, are those of N after the base.  The order
       found is the base followed by it.
    4. Otherwise the whole component, the base and N, goes to
       :func:`find_admissible_order` with its own full budget, and the
       outcome takes that search's status, order and witness, with the
       nodes of both searches.  A failed extension is not a proof: a
       proof that the extension always exists would settle whether
       componentwise linear quotients imply linear quotients.

    Above a component that is not found, the base is listed from the
    listing it was built from, and the base and N are searched as in
    step 4, with no extension nodes.  The verdict is False as soon as one
    component is exhausted, None when a component ran out of budget and
    none was exhausted, True otherwise.  A component decided by steps 1-3
    has an admissible order, so against a search of every component a
    verdict can only move from None to True.

    The replay.  With the verdict True the sweep ran every search of
    ``find_admissible_order(I, budget)``: the lowest component's, then
    step 3's of each N after G(I)_<j> (no refuter fired).  Only the
    budget differs: the sweep gives each layer all of it, that search
    what the layers below left.  A DFS given b' nodes takes the steps it
    takes with more until its nodes exceed b', so a layer that took k
    nodes takes k again if k <= b' and otherwise runs out (budget + 1
    nodes in all).  So :func:`_replay_layers` of the layers' (status,
    nodes, part), lowest first, is that search's outcome: ``layered``.
    """
    if ideal.is_zero:
        raise ZeroIdealError("predicate undefined on the zero ideal")
    n = ideal.nvars
    new_gens = _by_degree(ideal.gens)
    outcomes: dict[int, SearchOutcome] = {}
    saw_budget, layers = False, []
    res = None
    lower = listing = ()
    for j in range(ideal.mindeg, ideal.maxdeg + 1):
        new = new_gens.get(j, ())
        if res is None:
            comp = graded_component(ideal, j)
            listing, res = comp.gens, find_admissible_order(comp, budget)
            layers.append((res.status, res.nodes, res.order))
        else:
            guard_degree(j)
            # below a component not found there is no order to extend: its
            # status sends I_<j> to the whole search
            status, part, nodes, v = (
                _decide_layer(lower, new, budget) if new and res.status == FOUND
                else (res.status, (), 0, None)
            )
            layers.append((status, nodes, part))
            if v is not None:  # the base's first member is x_1 * listing[0]
                first = (listing[0][0] + 1,) + listing[0][1:]
                res = SearchOutcome(EXHAUSTED, None, 0, (first, v))
            elif status == FOUND:
                listing = _times_maximal_order(listing, n)
                res = SearchOutcome(FOUND, listing + part, nodes)
            else:
                listing = _times_maximal_order(listing, n) + new
                comp = MonomialIdeal._equigenerated(n, listing)
                whole = find_admissible_order(comp, budget)
                res = replace(whole, nodes=nodes + whole.nodes)
        if res.status == FOUND:
            listing = res.order
        lower += new
        outcomes[j] = res
        if res.status == EXHAUSTED:
            return ComponentwiseLQ(False, outcomes)
        if res.status == BUDGET_EXCEEDED:
            saw_budget = True
    layered = None if saw_budget else _replay_layers(layers, budget)
    return ComponentwiseLQ(None if saw_budget else True, outcomes, layered)
