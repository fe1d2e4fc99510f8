"""Admissible-order checking and search against the factorial oracle."""

import hashlib
import itertools
import random

import pytest

from polyquot import (
    BUDGET_EXCEEDED,
    ChainVerificationError,
    DEFAULT_BUDGET,
    EXHAUSTED,
    FOUND,
    GeneratorOrder,
    SearchOutcome,
    ZeroIdealError,
    extends_by_linear_quotients,
    find_admissible_order,
    graded_component,
    has_componentwise_linear_quotients,
    is_admissible_order,
    minimalize,
    order_colon_variables,
    translate,
    verify_chain,
    veronese,
    zero_ideal,
)
from polyquot.families import iter_equigenerated_ideals, random_antichain
from polyquot.quotients import _replay_layers, _times_maximal_order
from conftest import ideal, SEVEN_GENS, SEVEN_ORDER
from edge_ideals import all_masks, check, graph
import squarefree
from oracles import (
    mcs_chordal,
    naive_chordal,
    naive_colon_joined,
    naive_colon_steps,
    naive_degree_slice,
    naive_exchange_connected,
    naive_exchange_part,
    naive_has_admissible_order,
    naive_layered_search,
    naive_order_admissible,
    naive_search_extension,
)


def random_ideal(rng, n, max_exp, max_gens):
    return minimalize(
        n,
        [tuple(rng.randint(0, max_exp) for _ in range(n))
         for _ in range(rng.randint(1, max_gens))],
    )


def test_generator_order_validation():
    I = ideal(2, (2, 0), (0, 2))
    with pytest.raises(ValueError):
        GeneratorOrder(I, ((2, 0),))
    with pytest.raises(ValueError):
        GeneratorOrder(I, ((2, 0), (2, 0)))
    with pytest.raises(ValueError):
        GeneratorOrder(I, ((2, 0), (1, 1)))


def test_admissible_examples():
    I = ideal(2, *SEVEN_GENS)
    assert is_admissible_order(GeneratorOrder(I, tuple(SEVEN_ORDER)))
    chk = is_admissible_order(GeneratorOrder(I, tuple(sorted(I.gens, reverse=True))))
    assert not chk
    assert chk.fail_index == 2  # first colon that is not variable-generated


def test_admissible_small_ideals():
    single = ideal(2, (3, 1))
    assert is_admissible_order(GeneratorOrder(single, single.gens))
    pair = ideal(2, (2, 0), (0, 2))
    for perm in itertools.permutations(pair.gens):
        chk = is_admissible_order(GeneratorOrder(pair, perm))
        assert bool(chk) == naive_order_admissible(list(perm))


def test_admissible_matches_naive_oracle_random():
    # the bitset walk against every colon computed in full: fail index,
    # colon variables, and chain checks after a nonempty start
    rng = random.Random(43)
    seen = {True: 0, False: 0}
    for _ in range(300):
        I = random_ideal(rng, rng.randint(2, 4), 4, 6)
        for _ in range(4):
            perm = list(I.gens)
            rng.shuffle(perm)
            order = GeneratorOrder(I, tuple(perm))
            variables, bad = naive_colon_steps((), perm)
            chk = is_admissible_order(order)
            assert (chk.ok, chk.fail_index) == (bad is None, bad)
            assert chk.ok == naive_order_admissible(perm)
            seen[chk.ok] += 1
            if bad is None:
                assert order_colon_variables(order) == tuple(variables)
            else:
                with pytest.raises(ValueError, match=f"position {bad} "):
                    order_colon_variables(order)
            k = rng.randint(1, len(perm))
            start = minimalize(I.nvars, perm[:k])
            _, bad = naive_colon_steps(start.gens, perm[k:])
            if bad is None:
                verify_chain(start, I, perm[k:])
            else:
                with pytest.raises(ChainVerificationError, match=f"position {bad} "):
                    verify_chain(start, I, perm[k:])
    assert min(seen.values()) > 200
    empty = GeneratorOrder(zero_ideal(3), ())
    assert is_admissible_order(empty) and order_colon_variables(empty) == ()


def test_find_single_generator():
    out = find_admissible_order(ideal(3, (1, 2, 3)))
    assert out.status == FOUND and out.nodes == 1


def test_find_zero_ideal_raises():
    with pytest.raises(ZeroIdealError):
        find_admissible_order(zero_ideal(2))


def test_found_orders_verify():
    # a found order places the generators layer by layer, degrees not
    # decreasing
    rng = random.Random(47)
    for _ in range(100):
        I = random_ideal(rng, rng.randint(2, 3), 4, 5)
        out = find_admissible_order(I)
        if out.status == FOUND:
            assert is_admissible_order(GeneratorOrder(I, out.order))
            degrees = [sum(g) for g in out.order]
            assert degrees == sorted(degrees)


def test_polymatroidal_ideals_are_found():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 3)
        d = rng.randint(1, 4)
        caps = tuple(rng.randint(1, d) for _ in range(n))
        if sum(caps) < d:
            continue
        out = find_admissible_order(veronese(n, d, caps))
        assert out.status == FOUND


def test_search_agrees_with_factorial_oracle():
    # a refuted outcome names (first generator of the lowest degree, v),
    # with v not joined to the generators below its degree by colons that
    # are one variable, as replayed from pairwise colons; (x^2, y^3) is
    # refuted on its degree-3 layer
    rng = random.Random(59)
    ideals = [ideal(2, (2, 0), (0, 3))]
    ideals += [random_ideal(rng, rng.randint(2, 3), 4, 5) for _ in range(120)]
    exhausted_seen = refuted_above = 0
    for I in ideals:
        if len(I.gens) > 6:
            continue
        out = find_admissible_order(I)
        oracle = naive_has_admissible_order(I, cap=7)
        assert (out.status == FOUND) == oracle
        if out.status == EXHAUSTED:
            exhausted_seen += 1
        if out.witness is not None:
            u, v = out.witness
            assert (out.status, out.nodes) == (EXHAUSTED, 0)
            assert u == next(g for g in I.gens if sum(g) == I.mindeg)
            assert v in I.gen_set and not naive_colon_joined(I.gens, v)
            refuted_above += sum(v) > I.mindeg
    assert exhausted_seen > 5 and refuted_above > 5


def test_budget_semantics():
    I = ideal(2, *SEVEN_GENS)
    out = find_admissible_order(I, budget=2)
    assert out.status == BUDGET_EXCEEDED
    assert out.order is None and out.nodes >= 2
    full = find_admissible_order(I)
    again = find_admissible_order(I)
    assert full.nodes == again.nodes  # deterministic node counts


def pairwise_reference_corpus():
    """The 400 random draws of test_search_matches_pairwise_reference.

    Yields (drawn antichain, case) where case is (ideal searched, budget,
    inner ideal), or None when the ideal searched has over 12 generators.
    """
    rng = random.Random(71)
    for _ in range(400):
        drawn = I = random_antichain(rng, rng.randint(1, 4), 3, 7)
        if rng.random() < 0.5:
            I = graded_component(I, rng.randint(I.mindeg, I.maxdeg))
        if len(I.gens) > 12:
            yield drawn, None
            continue
        budget = rng.choice((0, 1, 7, 10**6))
        inner = minimalize(
            I.nvars, [g for g in I.gens if rng.random() < 0.3]
        )
        yield drawn, (I, budget, inner)


def test_search_matches_pairwise_reference():
    # the bitset kernel against the pairwise reference: same verdict, same
    # order and same node count, layer by layer in find_admissible_order
    # and after a fixed prefix in extends_by_linear_quotients; an outcome
    # the connectivity refuter decided is exhausted with 0 nodes, and the
    # reference must not find an order
    seen = set()
    for _, case in pairwise_reference_corpus():
        if case is None:
            continue
        I, budget, inner = case
        cands = tuple(g for g in I.gens if g not in inner.gen_set)
        out = find_admissible_order(I, budget)
        ref = naive_layered_search(I.gens, budget)
        if out.witness is not None:
            assert (out.status, out.order, out.nodes) == (EXHAUSTED, None, 0)
            assert ref[0] != FOUND
        else:
            assert (out.status, out.order, out.nodes) == ref
        seen.add(out.status)
        out = extends_by_linear_quotients(inner, I, budget)
        assert (out.status, out.order, out.nodes) == naive_search_extension(
            inner.gens, cands, budget
        )
        seen.add(out.status)
    assert seen == {FOUND, EXHAUSTED, BUDGET_EXCEEDED}


def test_connectivity_refuter_matches_oracle():
    # refuted iff the generators are not connected by exchange steps (the
    # oracle, from lcm degrees); a refuted ideal has no admissible order
    # by the reference search and, up to 7 generators, by the factorial
    # oracle
    ideals = [I for d in range(1, 4) for I in iter_equigenerated_ideals(3, d, 4)]
    for drawn, _ in pairwise_reference_corpus():
        ideals += [graded_component(drawn, j)
                   for j in range(drawn.mindeg, drawn.maxdeg + 1)]
    refuted = 0
    for I in ideals:
        out = find_admissible_order(I, budget=0)
        assert (out.witness is not None) == (not naive_exchange_connected(I.gens))
        if out.witness is None:
            continue
        refuted += 1
        u, v = out.witness
        assert u == I.gens[0] and v in I.gen_set and u != v
        assert (out.status, out.order, out.nodes) == (EXHAUSTED, None, 0)
        if len(I.gens) <= 12:
            assert naive_search_extension((), I.gens, 10**6)[0] != FOUND
        if len(I.gens) <= 7:
            assert not naive_has_admissible_order(I, cap=7)
    assert refuted > 100


# node counts recorded before the search moved to bitsets
EXHAUSTED_9 = [(3, 2, 1, 0), (2, 3, 1, 0), (2, 2, 2, 0), (2, 2, 1, 1),
               (2, 1, 3, 0), (1, 2, 3, 0), (1, 1, 4, 0), (1, 1, 3, 1),
               (0, 3, 2, 1)]
EXHAUSTED_10 = [(1, 2, 3, 0), (1, 2, 1, 2), (1, 0, 3, 2), (0, 3, 3, 0),
                (0, 2, 4, 0), (0, 2, 3, 1), (0, 2, 0, 4), (0, 1, 3, 2),
                (0, 0, 4, 2), (0, 0, 3, 3)]


@pytest.mark.parametrize(
    "nvars, inner, gens, status, nodes",
    [
        (2, [], SEVEN_GENS, FOUND, 90),
        (2, [], [(3, 0), (0, 3)], EXHAUSTED, 4),
        (4, [], EXHAUSTED_9, EXHAUSTED, 623),
        (4, [], EXHAUSTED_10, EXHAUSTED, 584),
        (2, [(5, 6)], SEVEN_GENS, FOUND, 16),
        (2, [(9, 5), (10, 4)], SEVEN_GENS, EXHAUSTED, 12),
        (4, [(1, 1, 4, 0)], EXHAUSTED_9, EXHAUSTED, 228),
        (4, [(2, 2, 2, 0), (2, 2, 1, 1)], EXHAUSTED_9, EXHAUSTED, 200),
    ],
)
def test_search_node_counts_pinned(nvars, inner, gens, status, nodes):
    out = extends_by_linear_quotients(
        minimalize(nvars, inner), ideal(nvars, *gens)
    )
    assert (out.status, out.nodes) == (status, nodes)


def test_prefix_pruning_is_safe():
    # a failing prefix can never complete: compare pruned search with the
    # factorial oracle on ideals that require backtracking
    rng = random.Random(61)
    for _ in range(60):
        I = random_ideal(rng, 2, 5, 5)
        out = find_admissible_order(I)
        assert (out.status == FOUND) == naive_has_admissible_order(I, cap=7)


def test_extends_trivial_and_zero():
    I = ideal(2, (2, 0), (1, 1))
    same = extends_by_linear_quotients(I, I)
    assert same.status == FOUND and same.order == ()
    # on an equigenerated ideal both run the same DFS, here with backtracking
    E = ideal(3, (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2))
    via_zero = extends_by_linear_quotients(zero_ideal(3), E)
    direct = find_admissible_order(E)
    assert via_zero.status == direct.status == FOUND
    assert via_zero.order == direct.order
    assert via_zero.nodes == direct.nodes == 7
    # on several degrees find_admissible_order places them layer by layer
    J = ideal(2, *SEVEN_GENS)
    layered = find_admissible_order(J)
    assert layered.order == ((5, 6), (9, 5), (10, 4), (13, 3), (14, 2),
                             (4, 12), (3, 13))
    assert layered.nodes == 9


def test_extends_requires_subset():
    I = ideal(2, (1, 0))
    J = ideal(2, (2, 0), (0, 2))
    with pytest.raises(ValueError):
        extends_by_linear_quotients(I, J)


def test_extends_between_capped_ideals():
    inner = veronese(3, 3, (1, 1, 2))
    outer = veronese(3, 3, (1, 2, 2))
    out = extends_by_linear_quotients(inner, outer)
    assert out.status == FOUND
    assert set(out.order) == outer.gen_set - inner.gen_set


def test_order_colon_variables_audit():
    I = ideal(2, *SEVEN_GENS)
    audit = order_colon_variables(GeneratorOrder(I, tuple(SEVEN_ORDER)))
    # (x) along the tail, (y) along the reversed head
    assert audit == ((), (0,), (0,), (1,), (1,), (1,), (1,))
    with pytest.raises(ValueError):
        order_colon_variables(GeneratorOrder(I, tuple(sorted(I.gens, reverse=True))))


def test_extends_veronese_cap_bump():
    # x_i * capped ideal extends into the ideal with that cap and degree bumped
    rng = random.Random(67)
    for _ in range(30):
        n = rng.randint(2, 3)
        d = rng.randint(1, 4)
        caps = tuple(rng.randint(1, d) for _ in range(n))
        if sum(caps) < d:
            continue
        i = rng.randrange(n)
        inner = translate(veronese(n, d, caps), tuple(int(q == i) for q in range(n)))
        bumped = list(caps)
        bumped[i] += 1
        outer = veronese(n, d + 1, tuple(bumped))
        assert extends_by_linear_quotients(inner, outer).status == FOUND


def test_componentwise_lq():
    I = ideal(2, *SEVEN_GENS)
    res = has_componentwise_linear_quotients(I)
    assert res.value is True
    assert set(res.outcomes) == set(range(I.mindeg, I.maxdeg + 1))
    single = ideal(3, (1, 1, 1))
    assert has_componentwise_linear_quotients(single).value is True


def test_componentwise_polymatroidal_implies_componentwise_lq():
    from polyquot import is_componentwise_polymatroidal
    from conftest import SQUARE_REGRESSION

    assert has_componentwise_linear_quotients(ideal(3, *SQUARE_REGRESSION)).value is True
    rng = random.Random(131)
    done = 0
    while done < 30:
        I = random_ideal(rng, 2, 6, 4)
        if not is_componentwise_polymatroidal(I):
            continue
        assert has_componentwise_linear_quotients(I).value is True
        done += 1


def test_componentwise_lq_false_case():
    # (x^3, y^3): the degree-3 component is the ideal itself, no admissible order
    I = ideal(2, (3, 0), (0, 3))
    res = has_componentwise_linear_quotients(I)
    assert res.value is False


def test_componentwise_lq_unknown_on_tiny_budget():
    I = ideal(2, *SEVEN_GENS)
    res = has_componentwise_linear_quotients(I, budget=1)
    assert res.value is None


def test_found_implies_componentwise_small_box():
    for d in range(1, 4):
        for I in iter_equigenerated_ideals(3, d, 4):
            out = find_admissible_order(I)
            if out.status == FOUND:
                assert has_componentwise_linear_quotients(I).value is True
    # mixed-degree generators via the exhaustive bivariate box
    from polyquot.families import iter_bivariate_antichains

    hits = 0
    for I in iter_bivariate_antichains(4, 5):
        if find_admissible_order(I).status == FOUND:
            hits += 1
            assert has_componentwise_linear_quotients(I).value is True
    assert hits > 100


def componentwise_reference(I, budget):
    """The componentwise verdict from a search of every component."""
    saw_budget = False
    for j in range(I.mindeg, I.maxdeg + 1):
        status = find_admissible_order(graded_component(I, j), budget).status
        if status == EXHAUSTED:
            return False
        saw_budget |= status == BUDGET_EXCEEDED
    return None if saw_budget else True


def componentwise_corpus():
    """(ideal, budget) pairs: the bivariate box and random 2-4-variable
    draws at budgets small enough to run out."""
    from polyquot.families import iter_bivariate_antichains

    rng = random.Random(29)
    corpus = [(I, 10**4) for I in iter_bivariate_antichains(4, 5)]
    for _ in range(400):
        I = random_antichain(rng, rng.randint(2, 4), 3, 5)
        corpus.append((I, rng.choice((7, 50, 10**4))))
    return corpus


def test_pure_steps_absorbed_exactly():
    # a degree with no generator of its own, above a found component, is
    # decided without a search; its order must pass the naive colon test.
    # Every other degree is checked against the oracles: a found order is
    # an admissible permutation of the degree slice, a 0-node refutation
    # names a pair in different exchange parts of the slice, and anything
    # else is the whole-component search's outcome, with the nodes of a
    # failed extension on top.  The verdict must agree with a search of
    # every component wherever that is decided
    absorbed = searched = refuted = whole_searched = 0
    for I, budget in componentwise_corpus():
        cw = has_componentwise_linear_quotients(I, budget)
        degrees = {sum(g) for g in I.gens}
        for j, out in cw.outcomes.items():
            below = cw.outcomes.get(j - 1)
            if j not in degrees and below is not None and below.status == FOUND:
                absorbed += 1
                assert (out.status, out.nodes, out.witness) == (FOUND, 0, None)
                assert len(set(out.order)) == len(out.order)
                assert set(out.order) == naive_degree_slice(I, j)
                assert naive_order_admissible(out.order)
                continue
            searched += 1
            if out.status == FOUND:
                assert out.witness is None
                assert len(set(out.order)) == len(out.order)
                assert set(out.order) == naive_degree_slice(I, j)
                assert naive_order_admissible(out.order)
            elif (out.status, out.nodes) == (EXHAUSTED, 0) and out.witness:
                refuted += 1
                slice_ = sorted(naive_degree_slice(I, j))
                assert not naive_exchange_connected(slice_)
                u, v = out.witness
                assert u in slice_ and v in slice_
                assert v not in naive_exchange_part(slice_, u)
            else:
                whole_searched += 1
                whole = find_admissible_order(graded_component(I, j), budget)
                assert (out.status, out.order, out.witness) == (
                    whole.status, whole.order, whole.witness)
                assert out.nodes >= whole.nodes
        ref = componentwise_reference(I, budget)
        assert cw.value is ref or (ref is None and cw.value is True)
    assert absorbed > 150 and searched > 500 and refuted > 150
    assert whole_searched > 0


def test_componentwise_sweep_yields_layered_order():
    # when every degree with new generators was decided by extending
    # m * I_<j-1>, the lowest component's order followed by each degree's
    # new generators, in their extension order, is admissible for I
    layered = 0
    for I, budget in componentwise_corpus():
        cw = has_componentwise_linear_quotients(I, budget)
        if cw.value is not True:
            continue
        lo = I.mindeg
        order = list(cw.outcomes[lo].order)
        for j in range(lo + 1, I.maxdeg + 1):
            base = _times_maximal_order(cw.outcomes[j - 1].order, I.nvars)
            step = cw.outcomes[j].order
            if step[:len(base)] != base:
                break
            order += step[len(base):]
        else:
            assert sorted(order) == sorted(I.gens)
            assert naive_order_admissible(order)
            layered += len({sum(g) for g in I.gens}) > 1
    assert layered > 150


def test_layered_replay_matches_global_search():
    # the sweep's replayed layers against the global search and the
    # pairwise reference, on the corpus at its budgets and on seeded draws
    # at small budgets, where the layers' shared budget runs out
    rng = random.Random(43)
    cases = componentwise_corpus() + [
        (random_antichain(rng, rng.randint(2, 4), 3, 5), budget)
        for budget in (1, 2, 3, 5, 50, DEFAULT_BUDGET)
        for _ in range(150)
    ]
    seen = {}
    for I, budget in cases:
        cw = has_componentwise_linear_quotients(I, budget)
        if cw.value is not True:
            assert cw.layered is None
            continue
        out = cw.layered
        assert out == find_admissible_order(I, budget)
        assert (out.status, out.order, out.nodes) == naive_layered_search(
            I.gens, budget)
        if out.status == FOUND:
            assert sorted(out.order) == sorted(I.gens)
            assert naive_order_admissible(out.order)
        seen[out.status] = seen.get(out.status, 0) + 1
    assert seen[FOUND] > 500 and seen[BUDGET_EXCEEDED] > 20
    assert EXHAUSTED not in seen  # that would answer the open question


def test_layered_replay_runs_out_after_found_components():
    # (x^2, xy, y^3): at budget 2 both components are found (2 nodes, then
    # 1 for y^3 after x^2, xy), but one budget for both layers runs out
    I = ideal(2, (2, 0), (1, 1), (0, 3))
    cw = has_componentwise_linear_quotients(I, 2)
    assert cw.value is True
    assert [(o.status, o.nodes) for o in cw.outcomes.values()] == [
        (FOUND, 2), (FOUND, 1)]
    assert cw.layered == find_admissible_order(I, 2) == SearchOutcome(
        BUDGET_EXCEEDED, None, 3)
    cw = has_componentwise_linear_quotients(I, 3)
    assert cw.layered == find_admissible_order(I, 3)
    assert (cw.layered.status, cw.layered.nodes) == (FOUND, 3)


def test_replay_layers_on_hand_made_layers():
    # the exhausted branches are not reached from a componentwise-true
    # ideal (it would answer the open question), so they are pinned here
    a, b, c = (2, 0), (1, 1), (0, 2)
    found = [(FOUND, 2, (a, b)), (FOUND, 0, ()), (FOUND, 3, (c,))]
    assert _replay_layers(found, 5) == SearchOutcome(FOUND, (a, b, c), 5)
    assert _replay_layers(found, 4) == SearchOutcome(BUDGET_EXCEEDED, None, 5)
    dead = [(FOUND, 2, (a, b)), (EXHAUSTED, 3, None), (FOUND, 1, (c,))]
    assert _replay_layers(dead, 10) == SearchOutcome(EXHAUSTED, None, 5)
    assert _replay_layers(dead, 5) == SearchOutcome(EXHAUSTED, None, 5)
    assert _replay_layers(dead, 4) == SearchOutcome(BUDGET_EXCEEDED, None, 5)
    assert _replay_layers([(EXHAUSTED, 0, None)], 0) == SearchOutcome(
        EXHAUSTED, None, 0)
    over = [(FOUND, 1, (a,)), (BUDGET_EXCEEDED, 11, None)]
    assert _replay_layers(over, 10) == SearchOutcome(BUDGET_EXCEEDED, None, 11)


def test_componentwise_outcomes_pinned():
    # every verdict, status, order, node count and witness of the sweep
    # over the corpus, as recorded before the stepped components were
    # decided against G(I)_<j in place of m * I_<j-1>
    rows = []
    for I, budget in componentwise_corpus():
        cw = has_componentwise_linear_quotients(I, budget)
        rows.append((cw.value, {
            j: (out.status, out.order, out.nodes, out.witness)
            for j, out in cw.outcomes.items()
        }))
    assert len(rows) == 651
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "bf2ed3aa999222f621ce4371bf1518e68314f38695b61ba60baab4f5d6257d21")


def test_stepped_extension_against_lower_generators():
    # the colon lemma, on the reference search alone: above a found
    # component, extending G(I)_<j by the degree-j generators N is the same
    # search as extending the listing of m * I_<j-1>, in status, order and
    # nodes; a found extension is the library's outcome after that listing
    compared = found = 0
    for I, budget in componentwise_corpus():
        cw = has_componentwise_linear_quotients(I, budget)
        for j, out in cw.outcomes.items():
            below = cw.outcomes.get(j - 1)
            new = tuple(g for g in I.gens if sum(g) == j)
            if not new or below is None or below.status != FOUND:
                continue
            lower = tuple(g for g in I.gens if sum(g) < j)
            base = _times_maximal_order(below.order, I.nvars)
            assert set(base) == naive_degree_slice(I, j) - set(new)
            ref = naive_search_extension(lower, new, budget)
            assert ref == naive_search_extension(base, new, budget)
            compared += 1
            if ref[0] == FOUND:
                found += 1
                assert (out.status, out.order, out.nodes) == (
                    FOUND, base + ref[1], ref[2])
    assert compared > 300 and found > 200


def test_sweep_searches_and_lists_only_what_it_must(monkeypatch):
    # per sweep, find_admissible_order runs once for the lowest component
    # and once per degree searched whole; m * I_<j-1> is listed
    # (_times_maximal_order) for every later degree but one the refuter
    # decides, since the listing is built only after the refuter passes.
    # Which degrees are refuted or searched whole comes from the oracles:
    # above a found component the refuter fires iff the degree slice is
    # not exchange-connected, and the extension is the reference search
    import polyquot.quotients as quotients

    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("find_admissible_order", "_times_maximal_order"):
        monkeypatch.setattr(quotients, name, counted(name, getattr(quotients, name)))
    wholes = refuted = 0
    for I, budget in componentwise_corpus():
        calls.update(find_admissible_order=0, _times_maximal_order=0)
        cw = has_componentwise_linear_quotients(I, budget)
        whole = listed = 0
        for j in list(cw.outcomes)[1:]:
            new = tuple(g for g in I.gens if sum(g) == j)
            if cw.outcomes[j - 1].status != FOUND:
                whole += 1
            elif new and not naive_exchange_connected(sorted(naive_degree_slice(I, j))):
                refuted += 1
                continue
            elif new:
                lower = tuple(g for g in I.gens if sum(g) < j)
                whole += naive_search_extension(lower, new, budget)[0] != FOUND
            listed += 1
        wholes += whole
        assert calls == {"find_admissible_order": 1 + whole,
                         "_times_maximal_order": listed}
    assert wholes > 0 and refuted > 100


def test_cochordality_oracle_against_induced_cycles():
    # maximum cardinality search against the definition of chordality on
    # every graph on 4 and 5 vertices and a sample on 6 (on 3 or fewer
    # every graph is chordal)
    rng = random.Random(7)
    for n, masks in ((4, all_masks(4)), (5, all_masks(5)),
                     (6, rng.sample(all_masks(6), 300))):
        chordal = 0
        for mask in masks:
            edges = graph(n, mask)
            assert mcs_chordal(n, edges) == naive_chordal(n, edges), (n, mask)
            chordal += naive_chordal(n, edges)
        assert 0 < chordal < len(masks)


def test_edge_ideals_found_iff_complement_chordal():
    # Froberg 1990 with Herzog-Hibi-Zheng 2004: found exactly when the
    # complement is chordal, and every other edge ideal is proved
    # exhausted.  All 1,094 graphs with an edge on 2-5 vertices and a
    # seeded sample on 6 (CI runs all 32,767 on 6 through the script)
    totals = [check(n, all_masks(n)) for n in range(2, 6)]
    assert [w for _, _, w in totals] == [[]] * 4
    assert sum(f for f, _, _ in totals) == 889
    assert sum(e for _, e, _ in totals) == 205
    found, exhausted, wrong = check(6, random.Random(6).sample(all_masks(6), 1500))
    assert wrong == [] and found > 0 and exhausted > 0



def test_squarefree_found_iff_every_squarefree_part_found():
    # Bjorner-Wachs 1996 with Herzog-Hibi-Zheng 2004: a squarefree ideal
    # has linear quotients exactly when each squarefree part I_[j] does,
    # and the parts are one degree each.  All 189 proper nonzero
    # squarefree ideals on 1-4 variables and a seeded sample on 5 (CI runs
    # all 7,579 on 5 through the script)
    totals = [squarefree.check(n, squarefree.all_ideals(n)) for n in range(1, 5)]
    assert [w for _, _, w in totals] == [[]] * 4
    assert sum(f for f, _, _ in totals) == 186
    assert sum(e for _, e, _ in totals) == 3
    sample = random.Random(5).sample(squarefree.all_ideals(5), 1500)
    found, exhausted, wrong = squarefree.check(5, sample)
    assert wrong == [] and found > 0 and exhausted > 0

def test_real_projective_plane_dual_is_exhausted():
    # the 6-vertex triangulation of the real projective plane is not
    # shellable, so the ideal of its facet complements has no linear
    # quotients (Herzog-Hibi-Zheng 2004); its exchange graph is connected,
    # so the search must prove it, with no refuter witness
    facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
    # every edge of K6 on exactly two triangles: a closed surface, with
    # Euler characteristic 6 - 15 + 10 = 1
    assert all(sum(set(e) <= set(f) for f in facets) == 2
               for e in itertools.combinations(range(6), 2))
    I = minimalize(6, [tuple(int(k not in f) for k in range(6)) for f in facets])
    assert len(I) == 10 and I.is_equigenerated
    out = find_admissible_order(I)
    assert (out.status, out.witness) == (EXHAUSTED, None)
    assert out.nodes == 700
