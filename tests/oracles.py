"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: membership by expanding generator
multiples, colon ideals by explicit minimalization, admissibility by
computing each colon ideal in full, counting by inclusion-exclusion.
None of it shares code paths with the implementations under test.
"""

import itertools
import re
from math import comb

from polyquot import IdealFormatError, MonomialIdeal, minimalize


def naive_divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def naive_contains(ideal, u):
    """Membership via expansion: u = g * t for some generator g."""
    du = sum(u)
    for g in ideal.gens:
        k = du - sum(g)
        if k < 0:
            continue
        for t in itertools.product(range(k + 1), repeat=ideal.nvars):
            if sum(t) == k and tuple(a + b for a, b in zip(g, t)) == u:
                return True
    return False


def naive_colon_gens(gens, v):
    """Minimal generators of (gens) : v, computed by full minimalization."""
    quot = sorted({tuple(max(a - b, 0) for a, b in zip(g, v)) for g in gens})
    return sorted(
        q for q in quot
        if not any(p != q and naive_divides(p, q) for p in quot)
    )


def naive_order_admissible(order):
    """Admissibility by computing each colon ideal outright."""
    for i in range(1, len(order)):
        colon = naive_colon_gens(order[:i], order[i])
        if any(sum(q) != 1 for q in colon):
            return False
    return True


def naive_has_admissible_order(ideal, cap=None):
    """Try every permutation of the generators (factorial oracle)."""
    gens = list(ideal.gens)
    if cap is not None and len(gens) > cap:
        raise ValueError(f"too many generators for the factorial oracle: {len(gens)}")
    return any(naive_order_admissible(perm) for perm in itertools.permutations(gens))


def count_bounded_compositions(total, caps):
    """Inclusion-exclusion count of bounded compositions."""
    n = len(caps)
    total_count = 0
    for subset in itertools.product((0, 1), repeat=n):
        over = sum(s * (c + 1) for s, c in zip(subset, caps))
        rem = total - over
        if rem < 0:
            continue
        sign = -1 if sum(subset) % 2 else 1
        total_count += sign * comb(rem + n - 1, n - 1)
    return total_count


def naive_degree_slice(ideal, j):
    """All degree-j monomials of the ideal, by scanning the full degree slice."""
    out = set()
    for t in itertools.product(range(j + 1), repeat=ideal.nvars):
        if sum(t) == j and any(naive_divides(g, t) for g in ideal.gens):
            out.add(t)
    return out


def naive_squarefree_part(ideal, j):
    """The generators of the squarefree part I_[j]: every 0/1 vector of
    weight j that some generator divides."""
    return [t for t in itertools.product((0, 1), repeat=ideal.nvars)
            if sum(t) == j and any(naive_divides(g, t) for g in ideal.gens)]


def naive_degree_pattern(gens):
    """(ok, valley, valleys) of the two-variable degree pattern, as the
    ``cwp_structural`` docstring states it.  Along the generators with
    x-exponents falling, a step that lowers the degree raises y by exactly
    1 and lowers x by more than 1, a step that raises it lowers x by
    exactly 1 and raises y by more than 1, and a level step moves both by
    exactly 1.  The valleys are every r with the degrees non-increasing up
    to r and non-decreasing from r; the pattern holds when every step
    passes and some valley exists, and then ``valley`` is the first."""
    seq = sorted(gens, reverse=True)
    degs = [a + b for a, b in seq]
    steps = True
    for u, v in zip(seq, seq[1:]):
        x_fall, y_rise = u[0] - v[0], v[1] - u[1]
        if sum(v) < sum(u):
            steps &= y_rise == 1 and x_fall > 1
        elif sum(v) > sum(u):
            steps &= x_fall == 1 and y_rise > 1
        else:
            steps &= x_fall == y_rise == 1
    valleys = tuple(
        r for r in range(len(seq))
        if all(degs[i] >= degs[i + 1] for i in range(r))
        and all(degs[i] <= degs[i + 1] for i in range(r, len(seq) - 1))
    )
    if not (steps and valleys):
        return False, None, ()
    return True, valleys[0], valleys


def naive_dual_exchange(ideal):
    """Direct double loop for the dual exchange predicate."""
    gens = list(ideal.gens)
    n = ideal.nvars
    for u in gens:
        for v in gens:
            if u == v or sum(u) > sum(v):
                continue
            for i in range(n):
                if v[i] >= u[i]:
                    continue
                ok = False
                for j in range(n):
                    if v[j] <= u[j]:
                        continue
                    cand = list(v)
                    cand[i] += 1
                    cand[j] -= 1
                    if naive_contains(ideal, tuple(cand)):
                        ok = True
                        break
                if not ok:
                    return False
    return True


def naive_exchange_witness(ideal, mode):
    """First failing (u, v, index, missing) of an exchange predicate, or None.

    Written from the definitions, with membership by divisibility.  Pairs
    run over the generators in stored order, then the index i ascending,
    then the partner j ascending:

    - ``exchange``: u != v, u_i > v_i, some j with u_j < v_j has
      x_j * u / x_i in the ideal;
    - ``strong``: the same pairs, but every such j must work;
    - ``nonpure``: deg u <= deg v, v_i > u_i, some j with v_j < u_j has
      x_j * v / x_i in the ideal;
    - ``dual``: deg u <= deg v, v_i < u_i, some j with v_j > u_j has
      x_i * v / x_j in the ideal.

    ``missing`` is the first absent exchange monomial, or None when no
    partner index j exists.
    """
    gens = list(ideal.gens)
    n = ideal.nvars

    def member(w):
        return any(naive_divides(g, w) for g in gens)

    def exchanged(w, down, up):
        w = list(w)
        w[down] -= 1
        w[up] += 1
        return tuple(w)

    for u in gens:
        for v in gens:
            if u == v:
                continue
            if mode in ("nonpure", "dual") and sum(u) > sum(v):
                continue
            for i in range(n):
                if mode in ("exchange", "strong"):
                    if u[i] <= v[i]:
                        continue
                    partners = [j for j in range(n) if u[j] < v[j]]
                    cands = [exchanged(u, i, j) for j in partners]
                elif mode == "nonpure":
                    if v[i] <= u[i]:
                        continue
                    partners = [j for j in range(n) if v[j] < u[j]]
                    cands = [exchanged(v, i, j) for j in partners]
                elif mode == "dual":
                    if v[i] >= u[i]:
                        continue
                    partners = [j for j in range(n) if v[j] > u[j]]
                    cands = [exchanged(v, j, i) for j in partners]
                else:
                    raise ValueError(f"unknown mode {mode!r}")
                absent = [c for c in cands if not member(c)]
                missing = absent[0] if absent else None
                if mode == "strong":
                    if absent:
                        return u, v, i, missing
                elif len(absent) == len(cands):
                    return u, v, i, missing
    return None


def naive_exchange_part(gens, u):
    """The generators joined to u by chains of exchange steps, u included.

    From the definition: u and v of degree d are one step apart when
    deg lcm(u, v) = d + 1.
    """
    gens = [tuple(g) for g in gens]
    d = sum(u)

    def adjacent(v, w):
        return sum(max(a, b) for a, b in zip(v, w)) == d + 1

    reached = {tuple(u)}
    stack = [tuple(u)]
    while stack:
        v = stack.pop()
        for w in gens:
            if w not in reached and adjacent(v, w):
                reached.add(w)
                stack.append(w)
    return reached


def naive_exchange_connected(gens):
    """Are equigenerated generators joined by chains of exchange steps?

    They are when every one is reached from the first.
    """
    gens = [tuple(g) for g in gens]
    return naive_exchange_part(gens, gens[0]) >= set(gens)


def mcs_chordal(nvertices, edges):
    """Is the graph on vertices 0..nvertices-1 with ``edges`` chordal?

    Maximum cardinality search (Tarjan-Yannakakis, SIAM J. Comput. 13,
    1984) visits the vertices one at a time, always one with the most
    visited neighbours.  A graph is chordal iff that visit order, reversed,
    is a perfect elimination order: the neighbours of each vertex visited
    before it are pairwise adjacent.
    """
    adj = [set() for _ in range(nvertices)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    visited = []
    weight = [0] * nvertices
    left = set(range(nvertices))
    while left:
        v = max(sorted(left), key=weight.__getitem__)
        left.remove(v)
        for u in adj[v]:
            weight[u] += 1
        earlier = adj[v].intersection(visited)
        if any(b not in adj[a] for a in earlier for b in earlier if a != b):
            return False
        visited.append(v)
    return True


def mcs_cochordal(nvertices, edges):
    """Is the complement of the graph chordal (see :func:`mcs_chordal`)?"""
    edges = {frozenset(e) for e in edges}
    return mcs_chordal(nvertices, [
        e for e in itertools.combinations(range(nvertices), 2)
        if frozenset(e) not in edges
    ])


def naive_chordal(nvertices, edges):
    """Chordality from the definition: no induced cycle of length >= 4.

    A vertex set of size >= 4 spans an induced cycle iff each of its
    vertices has exactly two neighbours in it and it is connected.
    """
    adj = [set() for _ in range(nvertices)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for size in range(4, nvertices + 1):
        for subset in itertools.combinations(range(nvertices), size):
            inside = set(subset)
            if any(len(adj[v] & inside) != 2 for v in subset):
                continue
            reached, stack = {subset[0]}, [subset[0]]
            while stack:
                for u in adj[stack.pop()] & inside - reached:
                    reached.add(u)
                    stack.append(u)
            if reached == inside:
                return False
    return True


def ideal_of(nvars, gens):
    return minimalize(nvars, gens)


def naive_search_extension(base, cands, budget):
    """Reference admissible-order search over a pairwise colon table.

    Mirrors the library's search step for step: candidates are tried in
    the given order, a failed set of placed candidates is never expanded
    twice, every attempted placement is one node and the search gives up
    once the nodes exceed the budget.  A step is checked pair by pair:
    the colon of the placed generators against the candidate is
    variable-generated iff each placed generator's colon (from
    naive_colon_gens) involves a variable that is itself some placed
    generator's colon.  Returns (status, order, nodes).
    """
    universe = list(base) + list(cands)
    colon = {
        (l, c): naive_colon_gens([g], v)[0]
        for l, g in enumerate(universe)
        for c, v in enumerate(cands)
    }
    chosen = []
    dead = set()
    nodes = 0

    def step_valid(c):
        placed = list(range(len(base))) + [len(base) + k for k in chosen]
        cols = [colon[l, c] for l in placed]
        variables = {q.index(1) for q in cols if sum(q) == 1}
        return all(any(q[r] for r in variables) for q in cols)

    class OutOfBudget(Exception):
        pass

    def dfs():
        nonlocal nodes
        if len(chosen) == len(cands):
            return True
        key = frozenset(chosen)
        if key in dead:
            return False
        for c in range(len(cands)):
            if c in chosen:
                continue
            nodes += 1
            if nodes > budget:
                raise OutOfBudget
            if step_valid(c):
                chosen.append(c)
                if dfs():
                    return True
                chosen.pop()
        dead.add(key)
        return False

    try:
        if dfs():
            return "found", tuple(cands[c] for c in chosen), nodes
        return "exhausted", None, nodes
    except OutOfBudget:
        return "budget-exceeded", None, nodes


def naive_layered_search(gens, budget):
    """Reference layered search: the generators of each degree, lowest
    first and in the given order, searched by naive_search_extension after
    all those of lower degree.  Every layer is charged to the one budget.
    Returns (status, order, nodes) with the nodes of the layers searched.
    """
    gens = [tuple(g) for g in gens]
    lower, order, nodes = [], (), 0
    for d in sorted({sum(g) for g in gens}):
        layer = [g for g in gens if sum(g) == d]
        status, part, used = naive_search_extension(lower, layer, budget - nodes)
        nodes += used
        if status != "found":
            return status, None, nodes
        order += part
        lower += layer
    return "found", order, nodes


def naive_colon_joined(gens, v):
    """Is the generator v joined to the generators of lower degree by a
    chain of single-variable colons?

    From pairwise colons: a generator w of degree deg v is reached when
    the colon u : w (naive_colon_gens) of some reached u is one variable.
    The chain starts from every generator of lower degree, or from the
    first generator of degree deg v when there is none.
    """
    gens = [tuple(g) for g in gens]
    d = sum(v)
    layer = [g for g in gens if sum(g) == d]
    reached = [g for g in gens if sum(g) < d] or layer[:1]
    grew = True
    while grew:
        grew = False
        for w in layer:
            if w not in reached and any(
                sum(naive_colon_gens([u], w)[0]) == 1 for u in reached
            ):
                reached.append(w)
                grew = True
    return tuple(v) in reached


def naive_colon_steps(base, appended):
    """(variables, bad) for appended placed in turn after base.

    variables[i] lists the indices r of the variables generating the
    colon of appended[i] against everything placed before it, computed in
    full by naive_colon_gens (empty with nothing placed).  bad is the
    first i whose colon has a generator of degree != 1, where the list
    stops, or None.
    """
    placed = [tuple(g) for g in base]
    variables = []
    for i, v in enumerate(appended):
        colon = naive_colon_gens(placed, v)
        if any(sum(q) != 1 for q in colon):
            return variables, i
        variables.append(tuple(sorted(q.index(1) for q in colon)))
        placed.append(tuple(v))
    return variables, None


# Reference chains between capped ideals, one capped ideal per unit step:
# each returns (start, end, appended), start and end in canonical order.


def naive_capped(nvars, d, caps):
    """The degree-d monomials with entry i at most caps[i], descending lex
    (the canonical order within one degree), by scanning the box."""
    return sorted(
        (t for t in itertools.product(*(range(min(c, d) + 1) for c in caps))
         if sum(t) == d),
        reverse=True,
    )


def _shifted(u, gens):
    return [tuple(a + b for a, b in zip(u, g)) for g in gens]


def naive_absorb_variable(nvars, d, caps, i):
    """x_i * I_(d; caps) to I_(d+1; caps + e_i): the x_i-free generators
    of the target, descending in the lex order that ranks x_i first."""
    x_i = tuple(int(r == i) for r in range(nvars))
    bumped = tuple(c + x for c, x in zip(caps, x_i))
    end = naive_capped(nvars, d + 1, bumped)
    appended = sorted(
        (g for g in end if g[i] == 0),
        key=lambda g: (g[i],) + g[:i] + g[i + 1:],
        reverse=True,
    )
    return _shifted(x_i, naive_capped(nvars, d, caps)), end, appended


def naive_raise_caps(nvars, d, caps, dst):
    """I_(d; caps) to I_(d; dst): caps raised one unit at a time in
    variable order, each step appending the generators at its new cap,
    descending."""
    cur = list(caps)
    appended = []
    for i in range(nvars):
        while cur[i] < dst[i]:
            cur[i] += 1
            fresh = [g for g in naive_capped(nvars, d, cur) if g[i] == cur[i]]
            appended += sorted(fresh, reverse=True)
    return naive_capped(nvars, d, caps), naive_capped(nvars, d, dst), appended


def naive_absorb_monomial(nvars, d, caps, c):
    """x^c * I_(d; caps) to I_(d + |c|; caps + c): one absorbed variable at
    a time, variable order, each step's appended part shifted by what is
    left of c."""
    shift = list(c)
    cur = list(caps)
    appended = []
    for i in range(nvars):
        for _ in range(c[i]):
            shift[i] -= 1
            _, _, part = naive_absorb_variable(nvars, d, cur, i)
            appended += _shifted(shift, part)
            d += 1
            cur[i] += 1
    start = _shifted(c, naive_capped(nvars, d - sum(c), caps))
    return start, naive_capped(nvars, d, cur), appended


def reference_parse_rows(text, expected_nvars=None):
    """The text format's rows, one regex match per token: the reference
    for ``textio.parse_rows``, with its messages, lines and columns."""
    nvars = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if nvars is None:
            m = re.match(r"n\s*=\s*(\d+)\s*$", line.strip())
            if not m:
                raise IdealFormatError(
                    f"expected header 'n=<count>', got {line.strip()!r}", lineno
                )
            nvars = int(m.group(1))
            if nvars < 1:
                raise IdealFormatError("variable count must be positive", lineno)
            if expected_nvars is not None and nvars != expected_nvars:
                raise IdealFormatError(
                    f"header declares {nvars} variables, expected "
                    f"{expected_nvars}",
                    lineno,
                )
            continue
        row = []
        for tok in re.finditer(r"\S+", line):
            col = tok.start() + 1
            try:
                value = int(tok.group())
            except ValueError:
                raise IdealFormatError(
                    f"exponent {tok.group()!r} is not an integer", lineno, col
                ) from None
            if value < 0:
                raise IdealFormatError(f"exponent {value} is negative", lineno, col)
            row.append(value)
        if len(row) != nvars:
            raise IdealFormatError(f"expected {nvars} exponents, got {len(row)}", lineno)
        rows.append(tuple(row))
    if nvars is None:
        raise IdealFormatError("missing 'n=<count>' header", 1)
    return nvars, rows
