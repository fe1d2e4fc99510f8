"""Exchange predicates against the worked examples and small exhaustive boxes."""

import functools
import itertools
import random
import sys

import pytest

import polyquot.ideal
from polyquot import (
    DegreeGuardError,
    DualExchangeViolationError,
    ExchangeWitness,
    MonomialIdeal,
    NotEquigeneratedError,
    NotPolymatroidalError,
    ZeroIdealError,
    contains,
    exchange_walk,
    graded_component,
    is_componentwise_polymatroidal,
    is_componentwise_sep,
    is_polymatroidal,
    maximal_ideal,
    minimalize,
    product,
    satisfies_nonpure_dual_exchange,
    satisfies_nonpure_exchange,
    satisfies_strong_exchange,
    translate,
    veronese,
    zero_ideal,
)
from polyquot import exchange
from polyquot.exchange import _box_count, _componentwise_verdicts, _one_degree_failure
from polyquot.families import iter_equigenerated_ideals, random_componentwise_sep
from conftest import ideal, DUAL_ONLY, NONPURE_ONLY, SEVEN_GENS, SQUARE_REGRESSION
from oracles import (
    count_bounded_compositions,
    ideal_of,
    naive_degree_slice,
    naive_dual_exchange,
    naive_exchange_witness,
)


def replay_witness(I, w, mode):
    """Confirm a failure witness: every admissible partner index misses."""
    n = I.nvars
    u, v, i = w.u, w.v, w.index
    assert u in I.gen_set and v in I.gen_set
    checked = 0
    for j in range(n):
        if mode == "polymatroidal" or mode == "strong":
            if u[j] >= v[j]:
                continue
            cand = list(u)
            cand[i] -= 1
        elif mode == "nonpure":
            if v[j] >= u[j]:
                continue
            cand = list(v)
            cand[i] -= 1
        else:  # dual
            if v[j] <= u[j]:
                continue
            cand = list(v)
            cand[i] += 1
        if mode == "dual":
            cand[j] -= 1
        else:
            cand[j] += 1
        checked += 1
        assert not contains(I, tuple(cand))
    return checked


# ---------------------------------------------------------------------------
# the worked examples


def test_nonpure_only_ideal():
    I = ideal(6, *NONPURE_ONLY)
    assert satisfies_nonpure_exchange(I)
    res = satisfies_nonpure_dual_exchange(I)
    assert not res
    replay_witness(I, res.witness, "dual")
    # the published failing pair: u = x1 x2^2 x6, v = x3 x4^2 x5^2 at x6
    u, v, i = (1, 2, 0, 0, 0, 1), (0, 0, 1, 2, 2, 0), 5
    for j in range(6):
        if v[j] > u[j]:
            cand = list(v)
            cand[i] += 1
            cand[j] -= 1
            assert not contains(I, tuple(cand))


def test_dual_only_ideal():
    I = ideal(4, *DUAL_ONLY)
    assert satisfies_nonpure_dual_exchange(I)
    res = satisfies_nonpure_exchange(I)
    assert not res
    replay_witness(I, res.witness, "nonpure")


def test_single_generator_vacuous():
    I = ideal(3, (2, 1, 0))
    assert satisfies_nonpure_exchange(I)
    assert satisfies_nonpure_dual_exchange(I)
    assert is_polymatroidal(I)


def test_zero_ideal_errors():
    for fn in (
        satisfies_nonpure_exchange,
        satisfies_nonpure_dual_exchange,
        is_polymatroidal,
        is_componentwise_polymatroidal,
    ):
        with pytest.raises(ZeroIdealError):
            fn(zero_ideal(2))


def test_polymatroidal_examples():
    # power of the maximal ideal in two variables
    assert is_polymatroidal(graded_component(maximal_ideal(2), 4))
    I = ideal(4, (1, 1, 0, 0), (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2))
    comp = graded_component(I, 3)
    res = is_polymatroidal(comp)
    assert not res
    replay_witness(comp, res.witness, "polymatroidal")


def test_polymatroidal_requires_equigenerated():
    with pytest.raises(NotEquigeneratedError):
        is_polymatroidal(ideal(2, (2, 0), (0, 3)))


def test_equivalence_with_dual_exchange_exhaustive():
    # equigenerated: polymatroidal iff dual exchange (small box)
    for d in range(1, 4):
        for I in iter_equigenerated_ideals(2, d, 4):
            assert bool(is_polymatroidal(I)) == bool(
                satisfies_nonpure_dual_exchange(I)
            )
    for I in iter_equigenerated_ideals(3, 3, 4):
        assert bool(is_polymatroidal(I)) == bool(satisfies_nonpure_dual_exchange(I))


@functools.lru_cache(maxsize=None)
def _witness_corpus():
    """Fixed corpus: random 2-4 variable ideals, random componentwise
    strong-exchange and transversal ideals, and their graded components
    of up to 40 generators."""
    rng = random.Random(211)
    ideals = []
    for _ in range(300):
        n = rng.randint(2, 4)
        ideals.append(minimalize(n, [tuple(rng.randint(0, 3) for _ in range(n))
                                     for _ in range(rng.randint(2, 5))]))
    sep_rng = random.Random(7)
    for _ in range(30):
        ideals.append(random_componentwise_sep(sep_rng, sep_rng.randint(2, 4), 4))
    # transversal ideals (x_a, x_b)(x_c, x_e)(x_k : k in S) over a shuffle
    # a, b, c, e of four variables: polymatroidal without strong exchange
    def prime(support):
        return minimalize(4, [tuple(int(k == i) for k in range(4))
                              for i in support])

    for _ in range(40):
        perm = rng.sample(range(4), 4)
        T = product(prime(perm[:2]), prime(perm[2:]))
        ideals.append(product(T, prime(rng.sample(range(4), rng.randint(1, 4)))))
    comps = []
    for I in ideals:
        for j in range(I.mindeg, I.maxdeg + 1):
            comp = graded_component(I, j)
            if len(comp.gens) <= 40:
                comps.append(comp)
    return ideals, comps


def test_witness_is_canonical_first():
    # the reported witness is the first failing (u, v, index, missing) when
    # pairs run in canonical generator order, the index ascending and the
    # partner index ascending; checked against a definition-level oracle
    ideals, comps = _witness_corpus()
    predicates = {
        "nonpure": satisfies_nonpure_exchange,
        "dual": satisfies_nonpure_dual_exchange,
        "exchange": is_polymatroidal,
        "strong": satisfies_strong_exchange,
    }
    seen = dict.fromkeys(predicates, 0)
    for I in ideals + comps:
        modes = ["nonpure", "dual"]
        if I.is_equigenerated:
            modes.append("exchange")
            if is_polymatroidal(I):
                modes.append("strong")
            else:
                with pytest.raises(NotPolymatroidalError):
                    satisfies_strong_exchange(I)
        for mode in modes:
            res = predicates[mode](I)
            expected = naive_exchange_witness(I, mode)
            assert res.ok == (expected is None)
            if expected is not None:
                seen[mode] += 1
                assert res.witness == ExchangeWitness(*expected)
    assert min(seen.values()) > 20, seen


def test_componentwise_sep_is_strong_exchange_on_components():
    ideals, _ = _witness_corpus()
    held = 0
    for I in ideals:
        expected = all(
            is_polymatroidal(C) and satisfies_strong_exchange(C)
            for C in (graded_component(I, j)
                      for j in range(I.mindeg, I.maxdeg + 1))
        )
        assert is_componentwise_sep(I) == expected
        # classify's single sweep gives both componentwise verdicts
        assert _componentwise_verdicts(I) == (
            is_componentwise_polymatroidal(I), expected
        )
        held += expected
    assert 30 <= held < len(ideals)


def test_dual_exchange_matches_naive_oracle_random():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 4)
        d = rng.randint(2, 5)
        pool = [t for t in itertools.product(range(d + 1), repeat=n) if sum(t) == d]
        gens = rng.sample(pool, min(len(pool), rng.randint(1, 5)))
        I = minimalize(n, gens)
        assert bool(satisfies_nonpure_dual_exchange(I)) == naive_dual_exchange(I)


def test_componentwise_polymatroidal_examples():
    I = ideal(3, *SQUARE_REGRESSION)
    assert is_componentwise_polymatroidal(I)
    J = ideal(4, *DUAL_ONLY)
    res = is_componentwise_polymatroidal(J)
    assert not res and res.degree == 3
    # equigenerated polymatroidal: the single relevant component
    V = veronese(3, 3, (2, 2, 2))
    assert is_componentwise_polymatroidal(V)


def test_componentwise_implies_both_nonpure_properties():
    rng = random.Random(29)
    cases = 0
    for _ in range(400):
        n = rng.randint(2, 3)
        I = minimalize(n, [tuple(rng.randint(0, 3) for _ in range(n))
                           for _ in range(rng.randint(1, 4))])
        if is_componentwise_polymatroidal(I):
            cases += 1
            assert satisfies_nonpure_exchange(I)
            assert satisfies_nonpure_dual_exchange(I)
    assert cases > 20


def test_componentwise_stays_polymatroidal_beyond_top_degree():
    # sanity for the mindeg..maxdeg restriction
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 3)
        I = minimalize(n, [tuple(rng.randint(0, 2) for _ in range(n))
                           for _ in range(rng.randint(1, 3))])
        if is_componentwise_polymatroidal(I):
            checked += 1
            for extra in (1, 2):
                assert is_polymatroidal(graded_component(I, I.maxdeg + extra))
    assert checked > 10


def test_strong_exchange_examples():
    assert satisfies_strong_exchange(veronese(4, 6, (3, 2, 1, 4)))
    bumped = product(maximal_ideal(4), veronese(4, 6, (3, 2, 1, 4)))
    res = satisfies_strong_exchange(bumped)
    assert not res
    replay = (4, 2, 1, 0), (0, 3, 0, 4)
    assert replay[0] in bumped.gen_set and replay[1] in bumped.gen_set
    assert (4, 3, 0, 0) not in bumped.gen_set
    assert satisfies_strong_exchange(translate(veronese(3, 4, (1, 3, 3)), (2, 1, 0)))


def test_strong_exchange_preconditions_distinct():
    with pytest.raises(NotEquigeneratedError):
        satisfies_strong_exchange(ideal(2, (2, 0), (0, 3)))
    bad = graded_component(ideal(4, *DUAL_ONLY), 3)
    with pytest.raises(NotPolymatroidalError):
        satisfies_strong_exchange(bad)


def test_componentwise_sep_examples():
    assert is_componentwise_sep(ideal(3, *SQUARE_REGRESSION))
    assert not is_componentwise_sep(ideal(4, *DUAL_ONLY))
    assert is_componentwise_sep(veronese(3, 4, (2, 3, 1)))


def test_square_of_regression_ideal_fails():
    I = ideal(3, *SQUARE_REGRESSION)
    sq = product(I, I)
    assert not is_componentwise_polymatroidal(sq)


def test_box_count_matches_inclusion_exclusion():
    # totals above the sum of the caps count 0
    for n in range(1, 5):
        for caps in itertools.product(range(5), repeat=n):
            for total in range(13):
                expected = count_bounded_compositions(total, caps)
                assert _box_count(total, caps) == expected


def _random_equigenerated(rng):
    """A degree <= 4 ideal in 2-4 variables with at most 12 generators: a
    random subset of the degree slice, a box of the slice (half the time
    with one monomial dropped or added), or a transversal product of
    prime ideals (polymatroidal, often without strong exchange)."""
    n, d = rng.randint(2, 4), rng.randint(0, 4)
    pool = sorted(t for t in itertools.product(range(d + 1), repeat=n) if sum(t) == d)
    mode = rng.randrange(3)
    if mode == 0:
        gens = set(rng.sample(pool, rng.randint(1, min(12, len(pool)))))
    elif mode == 1:
        lo = tuple(rng.randint(0, 2) for _ in range(n))
        hi = tuple(e + rng.randint(0, 2) for e in lo)
        gens = {t for t in pool if all(a <= e <= b for a, e, b in zip(lo, t, hi))}
        gens = gens or {rng.choice(pool)}
        tweak = rng.random()
        if tweak < 0.25 and len(gens) > 1:
            gens.discard(rng.choice(sorted(gens)))
        elif tweak < 0.5:
            gens.add(rng.choice(pool))
    else:
        gens = {(0,) * n}
        for _ in range(d):
            support = rng.sample(range(n), rng.randint(1, n))
            gens = {g[:k] + (g[k] + 1,) + g[k + 1:] for g in gens for k in support}
    return MonomialIdeal._equigenerated(n, sorted(gens)[:12])


def test_strong_exchange_box_rule_matches_naive_oracle():
    # the filled-box shortcut plus the pair sweep give the oracle's verdict
    # and first witness on random ideals and on their next components
    rng = random.Random(14)
    seen = {"strong": 0, "polymatroidal only": 0, "not polymatroidal": 0}
    for _ in range(1500):
        I = _random_equigenerated(rng)
        for J in (I, graded_component(I, I.mindeg + 1)):
            expected = naive_exchange_witness(J, "strong")
            assert _one_degree_failure(J, True) == expected
            if naive_exchange_witness(J, "exchange") is not None:
                seen["not polymatroidal"] += 1
                with pytest.raises(NotPolymatroidalError):
                    satisfies_strong_exchange(J)
                continue
            res = satisfies_strong_exchange(J)
            assert res.ok == (expected is None)
            if expected is None:
                seen["strong"] += 1
            else:
                seen["polymatroidal only"] += 1
                assert res.witness == ExchangeWitness(*expected)
    assert min(seen.values()) > 100, seen


def test_exchange_box_rule_matches_naive_oracle():
    # the filled box decides every passing exchange check and the pair sweep
    # gives the oracle's first witness on the rest; the componentwise
    # verdicts, read off the boxes, match the oracle applied per component
    rng = random.Random(16)
    seen = {"exchange holds": 0, "exchange fails": 0, "sep": 0, "not sep": 0}
    for _ in range(600):
        I = _random_equigenerated(rng)
        n, d = I.nvars, I.mindeg
        pool = [t for t in itertools.product(range(d + 2), repeat=n) if sum(t) == d + 1]
        multi = ideal_of(n, list(I.gens) + rng.sample(pool, rng.randint(0, min(3, len(pool)))))
        for J in (I, graded_component(I, d + 1), multi):
            if J.is_equigenerated:
                expected = naive_exchange_witness(J, "exchange")
                assert _one_degree_failure(J, False) == expected
                seen["exchange " + ("holds" if expected is None else "fails")] += 1
            first_fail, sep = _naive_componentwise(J)
            assert is_componentwise_sep(J) == sep
            chk = is_componentwise_polymatroidal(J)
            assert chk.ok == (first_fail is None)
            if first_fail is not None:
                assert (chk.degree, chk.witness) == first_fail
            seen["sep" if sep else "not sep"] += 1
    assert min(seen.values()) > 100, seen


def _naive_componentwise(J):
    """The first failing (degree, witness) of the exchange oracle over the
    naive degree slices of J, or None, and whether every slice passes the
    strong oracle."""
    first_fail, sep = None, True
    for j in range(J.mindeg, J.maxdeg + 1):
        comp = ideal_of(J.nvars, naive_degree_slice(J, j))
        sep = sep and naive_exchange_witness(comp, "strong") is None
        witness = naive_exchange_witness(comp, "exchange")
        if first_fail is None and witness is not None:
            first_fail = (j, ExchangeWitness(*witness))
    return first_fail, sep


def _count_sweeps(monkeypatch):
    """Lists growing by one entry per graded_components sweep and per
    _pair_failure call of the library."""
    sweeps, pair_calls = [], []
    orig = polyquot.ideal.graded_components

    def counted(*args):
        sweeps.append(args)
        return orig(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("polyquot") and vars(module).get("graded_components") is orig:
            monkeypatch.setattr(module, "graded_components", counted)
    real = exchange._pair_failure
    monkeypatch.setattr(exchange, "_pair_failure", lambda *a: pair_calls.append(a) or real(*a))
    return sweeps, pair_calls


def test_componentwise_verdicts_are_kept_on_the_ideal(monkeypatch):
    # a sweep asked for the exchange verdict keeps both verdicts on the
    # ideal object; a sep-only sweep stops early and keeps nothing.  The
    # transversal ideal's component is polymatroidal off its box (in three
    # variables none is: a bound on two exponents' sum bounds the third
    # from below, so every polymatroidal component fills its box)
    cases = [
        ideal(2, *SEVEN_GENS),  # K[x, y], positive
        ideal(2, (3, 0), (0, 3)),  # K[x, y], negative
        ideal(4, (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)),
        ideal(3, *SQUARE_REGRESSION),
        product(ideal(3, *SQUARE_REGRESSION), ideal(3, *SQUARE_REGRESSION)),
    ]
    oracle = [_naive_componentwise(I) for I in cases]
    assert [(f is None, sep) for f, sep in oracle] == [
        (True, True), (False, False), (True, False), (True, True), (False, False)]
    sweeps, pair_calls = _count_sweeps(monkeypatch)
    cw, sep = is_componentwise_polymatroidal, is_componentwise_sep

    def verdict(pred, I, expected):
        first_fail, strong = expected
        if pred is sep:
            assert sep(I) is strong
        else:
            chk = cw(I)
            assert chk.ok == (first_fail is None)
            assert (chk.degree, chk.witness) == (first_fail or (None, None))

    for I, expected in zip(cases, oracle):
        for first, second, count in ((cw, sep, 1), (sep, cw, 2), (sep, sep, 2), (cw, cw, 1)):
            J = ideal(I.nvars, *I.gens)
            sweeps.clear()
            pair_calls.clear()
            verdict(first, J, expected)
            verdict(second, J, expected)
            assert len(sweeps) == count, (I, first, second)
            if first is second is sep:
                assert pair_calls == []
        # the joint call reads the kept pair; an equal ideal built afresh
        # sweeps again, and what is kept leaves equality and hash alone
        sweeps.clear()
        strong = expected[1]
        assert _componentwise_verdicts(J) == (cw(J), strong)
        assert sweeps == []
        fresh = ideal(I.nvars, *I.gens)
        assert fresh == J and hash(fresh) == hash(J)
        assert _componentwise_verdicts(fresh, poly=False) == (None, strong)
        verdict(cw, fresh, expected)
        assert len(sweeps) == 2


def test_degree_guard_keeps_no_verdict():
    # a sweep stopped by the degree guard keeps nothing, so the next call
    # on the same object raises again at the same degree
    for first, second in itertools.product(
            (is_componentwise_polymatroidal, is_componentwise_sep), repeat=2):
        I = ideal(2, (70, 0), (0, 1))
        for pred in (first, second):
            with pytest.raises(DegreeGuardError) as err:
                pred(I)
            assert err.value.degree == 65


def test_strong_exchange_contradiction_guard(monkeypatch):
    # a capped ideal passes the sweep, so a box count that misses it must
    # raise rather than report a failure the sweep did not find
    real = exchange._box_count
    monkeypatch.setattr(exchange, "_box_count", lambda t, caps: real(t, caps) - 1)
    for I in (veronese(3, 4, (2, 3, 1)), ideal(2, (1, 2))):
        with pytest.raises(RuntimeError, match="Herzog-Hibi"):
            satisfies_strong_exchange(I)


def test_generalized_exchange_on_ideal_members():
    # componentwise polymatroidal ideals satisfy the exchange for arbitrary
    # members (not only minimal generators) up to maxdeg + 2
    rng = random.Random(37)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        I = minimalize(n, [tuple(rng.randint(0, 2) for _ in range(n))
                           for _ in range(rng.randint(1, 3))])
        if not is_componentwise_polymatroidal(I):
            continue
        done += 1
        top = I.maxdeg + 2
        members = [
            t
            for j in range(I.mindeg, top + 1)
            for t in graded_component(I, j).gens
        ]
        for u in rng.sample(members, min(10, len(members))):
            for v in rng.sample(members, min(10, len(members))):
                if sum(u) > sum(v) or all(a <= b for a, b in zip(u, v)):
                    continue
                for i in range(n):
                    if v[i] <= u[i]:
                        continue
                    assert any(
                        v[j] < u[j]
                        and contains(
                            I,
                            tuple(
                                e + (1 if q == j else 0) - (1 if q == i else 0)
                                for q, e in enumerate(v)
                            ),
                        )
                        for j in range(n)
                    )


# ---------------------------------------------------------------------------
# the exchange walk


def test_walk_trivial_cases():
    V = veronese(2, 3, (3, 3))
    u = (1, 2)
    # u already dominates v off the frozen index: no steps
    assert exchange_walk(V, u, (3, 0), 0) == u


def test_walk_adjacent_pairs_need_no_step():
    # at swap distance 1 the start already dominates the target off the
    # frozen index, so the walk stops immediately
    V = veronese(3, 3, (2, 2, 2))
    gens = list(V.gens)
    found = 0
    for u in gens:
        for v in gens:
            if sum(abs(a - b) for a, b in zip(u, v)) != 2:
                continue
            i = next(q for q in range(3) if u[q] < v[q])
            assert exchange_walk(V, u, v, i) == u
            found += 1
    assert found > 0


def test_walk_single_step_swaps_two_coordinates():
    V = veronese(4, 4, (2, 2, 2, 2))
    u, v = (0, 0, 2, 2), (1, 1, 1, 1)
    assert u in V.gen_set and v in V.gen_set
    w = exchange_walk(V, u, v, 0)
    assert w != u
    assert sum(1 for a, b in zip(w, u) if a != b) == 2
    assert w[0] == 0 and w[1] >= 1


def test_walk_contract_on_random_polymatroidal():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 4)
        d = rng.randint(2, 5)
        caps = tuple(rng.randint(1, d) for _ in range(n))
        if sum(caps) < d:
            continue
        V = veronese(n, d, caps)
        gens = list(V.gens)
        u = rng.choice(gens)
        v = rng.choice(gens)
        idxs = [i for i in range(n) if u[i] < v[i]]
        if not idxs:
            continue
        i = rng.choice(idxs)
        w = exchange_walk(V, u, v, i)
        assert w in V.gen_set
        assert w[i] == u[i]
        assert all(w[j] >= v[j] for j in range(n) if j != i)


def test_walk_stalls_on_non_dual_exchange_input():
    comp = graded_component(ideal(4, *DUAL_ONLY), 3)
    assert not is_polymatroidal(comp)
    stalled = False
    for u in comp.gens:
        for v in comp.gens:
            for i in range(4):
                if u[i] >= v[i]:
                    continue
                try:
                    exchange_walk(comp, u, v, i)
                except DualExchangeViolationError:
                    stalled = True
    assert stalled


def test_walk_rejects_bad_arguments():
    V = veronese(2, 2, (2, 2))
    with pytest.raises(ValueError):
        exchange_walk(V, (2, 0), (0, 2), 0)  # u_i >= v_i
    with pytest.raises(ValueError):
        exchange_walk(V, (1, 0), (0, 2), 1)  # u not a generator


def test_walk_checks_its_steps_and_end(monkeypatch):
    # each check on the walk raises, also under python -O, when a step is
    # made to break it
    V = veronese(3, 3, (3, 3, 3))
    u, v = (0, 1, 2), (1, 2, 0)
    assert exchange_walk(V, u, v, 1) == (1, 1, 1)
    cases = (
        ({u: (0, 0, 3)}, "does not move closer"),
        ({u: v}, "moved the frozen index 1"),
        ({}, "short of"),
    )
    for steps, message in cases:
        monkeypatch.setattr(exchange, "_walk_step", lambda w, *_: steps.get(w))
        with pytest.raises(RuntimeError, match=message):
            exchange_walk(V, u, v, 1)
