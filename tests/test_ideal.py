"""Core monomial/ideal arithmetic against small examples and naive oracles."""

import itertools
import random

import pytest

from polyquot import (
    DegreeGuardError,
    MonomialIdeal,
    VeroneseSpec,
    ZeroIdealError,
    bounded_compositions,
    chain_absorb_maximal_ideal,
    chain_absorb_monomial,
    chain_absorb_variable,
    chain_raise_caps,
    colon_by_monomial,
    contains,
    deflate,
    graded_component,
    graded_components,
    maximal_ideal,
    minimalize,
    product,
    translate,
    unit_ideal,
    veronese,
    zero_ideal,
)
from polyquot.families import iter_bivariate_antichains, random_antichain
from polyquot.ideal import divides, monomial_colon, monomial_mul, unit_monomial
from conftest import ideal, NONPURE_ONLY
from oracles import (
    count_bounded_compositions,
    naive_contains,
    naive_degree_slice,
    naive_divides,
)


def test_minimalize_drops_multiples():
    I = minimalize(2, [(2, 0), (3, 0), (1, 1)])
    assert set(I.gens) == {(2, 0), (1, 1)}


def test_minimalize_empty_is_zero():
    I = minimalize(3, [])
    assert I.is_zero
    assert len(I) == 0
    assert MonomialIdeal._from_valid(3, []) == I


def test_minimalize_idempotent_random():
    # the shortcut for tuples already known valid stores what the
    # validating constructor stores
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 4)
        raw = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        I = minimalize(n, raw)
        again = minimalize(n, I.gens)
        assert I == again
        fast = MonomialIdeal._from_valid(n, raw)
        assert (fast.gens, fast.gen_set) == (I.gens, I.gen_set)
        # antichain: no generator divides another
        for g, h in itertools.permutations(I.gens, 2):
            assert not all(a <= b for a, b in zip(g, h))


def test_minimalize_length_mismatch():
    with pytest.raises(ValueError):
        minimalize(2, [(1, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        minimalize(2, [(1, -1)])


def test_minimalize_excludes_double_excess():
    # degree-7 generators of (x_1..x_4) * I_(6;3,2,1,4) never exceed two caps
    I = product(maximal_ideal(4), veronese(4, 6, (3, 2, 1, 4)))
    assert (4, 3, 0, 0) not in I.gen_set
    assert (4, 2, 1, 0) in I.gen_set
    assert (0, 3, 0, 4) in I.gen_set


def test_contains_basic():
    I = ideal(2, (2, 0), (1, 1))
    assert contains(I, (2, 5))
    assert not contains(I, (1, 0))
    assert not contains(zero_ideal(2), (0, 0))


def test_contains_paper_case():
    I = ideal(6, *NONPURE_ONLY)
    # x_6 * (x_3 x_4^2 x_5^2) / x_4 is outside the ideal
    assert not contains(I, (0, 0, 1, 1, 2, 1))


def test_contains_length_mismatch():
    with pytest.raises(ValueError):
        contains(ideal(2, (1, 0)), (1, 0, 0))


def test_contains_matches_expansion_oracle():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 3)
        I = minimalize(n, [tuple(rng.randint(0, 3) for _ in range(n))
                           for _ in range(rng.randint(1, 4))])
        u = tuple(rng.randint(0, 5) for _ in range(n))
        assert contains(I, u) == naive_contains(I, u)


def test_divisibility_kernel_matches_naive_oracles():
    # divides, contains and minimalize against the naive definitions on
    # random tuples, the unit ideal and repeated or zero exponents included
    rng = random.Random(16)
    for _ in range(400):
        n = rng.randint(1, 4)
        raw = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 7))]
        if rng.random() < 0.1:
            raw.append(unit_monomial(n))
        I = minimalize(n, raw)
        minimal = {g for g in raw if not any(h != g and naive_divides(h, g) for h in raw)}
        assert I.gen_set == minimal
        assert I.gens == tuple(sorted(minimal, key=lambda g: (sum(g), g), reverse=True))
        assert MonomialIdeal._from_valid(n, minimal).gens == I.gens
        for J in (I, unit_ideal(n)):
            for _ in range(5):
                u = tuple(rng.randint(0, 4) for _ in range(n))
                assert contains(J, u) == naive_contains(J, u)
                if raw:
                    g = rng.choice(raw)
                    assert divides(g, u) == naive_divides(g, u)
                    assert divides(u, g) == naive_divides(u, g)


def test_library_built_ideals_match_the_validating_constructor():
    # product, colon_by_monomial and random_antichain skip validating the
    # exponent tuples they build; each must store what the validating
    # constructor stores for the same tuples, and is_equigenerated must
    # agree with the generator degrees
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 4)
        I, J = random_antichain(rng, n, 3, 5), random_antichain(rng, n, 3, 5)
        u = tuple(rng.randint(0, 4) for _ in range(n))
        state = rng.getstate()
        drawn = random_antichain(rng, n, 3, 5)
        rng.setstate(state)
        k = rng.randint(1, 5)
        raw = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(k)]
        for built, tuples in (
            (product(I, J), [monomial_mul(g, h) for g in I.gens for h in J.gens]),
            (product(I, zero_ideal(n)), []),
            (colon_by_monomial(I, u), [monomial_colon(g, u) for g in I.gens]),
            (drawn, raw),
        ):
            ref = MonomialIdeal(n, tuples)
            assert (built.nvars, built.gens, built.gen_set) == (
                ref.nvars, ref.gens, ref.gen_set)
            assert built.is_equigenerated == (len({sum(g) for g in ref.gens}) == 1)


def test_colon_examples():
    assert colon_by_monomial(ideal(2, (2, 1)), (1, 1)) == ideal(2, (1, 0))
    assert colon_by_monomial(ideal(2, (5, 0), (3, 1)), (2, 2)) == ideal(2, (1, 0))
    I = ideal(3, (1, 2, 0), (0, 1, 1))
    assert colon_by_monomial(I, (0, 0, 0)) == I


def test_colon_members_multiply_back():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 3)
        I = minimalize(n, [tuple(rng.randint(0, 3) for _ in range(n))
                           for _ in range(rng.randint(1, 5))])
        u = tuple(rng.randint(0, 3) for _ in range(n))
        for w in colon_by_monomial(I, u).gens:
            assert contains(I, tuple(a + b for a, b in zip(w, u)))


def test_colon_zero_ideal_raises():
    with pytest.raises(ZeroIdealError):
        colon_by_monomial(zero_ideal(2), (1, 0))


def test_product_tight_example():
    I = ideal(2, (2, 0), (1, 2), (0, 3))
    J = ideal(2, (3, 0), (1, 1), (0, 2))
    IJ = product(I, J)
    assert set(IJ.gens) == {(5, 0), (3, 1), (2, 2), (1, 4), (0, 5)}
    # the split through the pure powers gives the same ideal
    split = minimalize(2, [(a, b + 2) for a, b in I.gens] + [(a + 2, b) for a, b in J.gens])
    assert IJ == split


def test_product_commutative_and_units():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        I = minimalize(n, [tuple(rng.randint(0, 3) for _ in range(n))
                           for _ in range(rng.randint(1, 4))])
        J = minimalize(n, [tuple(rng.randint(0, 3) for _ in range(n))
                           for _ in range(rng.randint(1, 4))])
        assert product(I, J) == product(J, I)
        assert product(I, unit_ideal(n)) == I
        assert product(I, zero_ideal(n)).is_zero


def test_product_by_principal_is_translation():
    I = ideal(2, (3, 0), (1, 2))
    w = (2, 5)
    assert product(I, ideal(2, w)) == translate(I, w)


def test_product_nvars_mismatch():
    with pytest.raises(ValueError):
        product(ideal(2, (1, 0)), ideal(3, (1, 0, 0)))


def test_graded_component_paper_example():
    I = ideal(4, (1, 1, 0, 0), (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2))
    comp = graded_component(I, 3)
    assert (2, 1, 0, 0) in comp.gen_set
    assert (0, 0, 1, 2) in comp.gen_set
    assert (1, 0, 1, 1) not in comp.gen_set


def test_graded_component_below_mindeg_is_zero():
    I = ideal(2, (2, 1))
    assert graded_component(I, 2).is_zero
    assert graded_component(zero_ideal(2), 4).is_zero


def test_graded_component_matches_slice_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        I = minimalize(n, [tuple(rng.randint(0, 3) for _ in range(n))
                           for _ in range(rng.randint(1, 4))])
        j = rng.randint(0, 7)
        assert set(graded_component(I, j).gens) == naive_degree_slice(I, j)


def test_graded_component_step_is_product_with_maximal():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        I = minimalize(n, [tuple(rng.randint(0, 2) for _ in range(n))
                           for _ in range(rng.randint(1, 4))])
        top = I.maxdeg
        for j in (top, top + 1):
            stepped = product(maximal_ideal(n), graded_component(I, j))
            assert stepped == graded_component(I, j + 1)


def test_generators_appear_in_their_component():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        I = minimalize(n, [tuple(rng.randint(0, 3) for _ in range(n))
                           for _ in range(rng.randint(1, 5))])
        for g in I.gens:
            assert g in graded_component(I, sum(g)).gen_set


def test_graded_component_guard():
    with pytest.raises(DegreeGuardError):
        graded_component(ideal(2, (1, 0)), 65)


def test_graded_components_match_component_and_slice_oracle(monkeypatch):
    # the sweep steps every component up from the zero one below mindeg,
    # without graded_component
    import polyquot.ideal

    monkeypatch.setattr(polyquot.ideal, "graded_component", None)
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 4)
        top = 3 if n < 4 else 2
        I = minimalize(n, [tuple(rng.randint(0, top) for _ in range(n))
                           for _ in range(rng.randint(1, 5))])
        swept = list(graded_components(I))
        assert [j for j, _ in swept] == list(range(I.mindeg, I.maxdeg + 1))
        for j, comp in swept:
            assert comp.gens == graded_component(I, j).gens
            assert set(comp.gens) == naive_degree_slice(I, j)


def test_graded_components_guard_is_reached_lazily():
    I = ideal(2, (60, 0), (0, 70))
    swept = []
    for j, _ in graded_components(I):
        swept.append(j)
        if j == 64:
            break  # a sweep that stops at the guard never raises
    assert swept == list(range(60, 65))
    with pytest.raises(DegreeGuardError, match="degree 65 exceeds guard 64"):
        list(graded_components(I))
    sweep = graded_components(ideal(2, (70, 0), (0, 70)))  # nothing built yet
    with pytest.raises(DegreeGuardError, match="degree 70 exceeds guard 64"):
        next(sweep)


def test_veronese_examples():
    assert veronese(2, 1, (1, 1)) == maximal_ideal(2)
    V = veronese(3, 7, (3, 4, 3))
    assert (0, 4, 3) in V.gen_set
    assert veronese(2, 3, (1, 1)).is_zero  # caps cannot reach the degree
    assert veronese(3, 0, (0, 0, 0)).is_unit


def test_veronese_cardinality_vs_inclusion_exclusion():
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 4)
        d = rng.randint(1, 6)
        caps = tuple(rng.randint(0, 6) for _ in range(n))
        expect = count_bounded_compositions(d, caps)
        assert len(veronese(n, d, caps)) == expect
        assert len(list(bounded_compositions(d, caps))) == expect
    # element for element, the descending-sorted members of the box with
    # the sum, for every caps up to 4 in up to 4 variables (and none)
    for n in range(5):
        for caps in itertools.product(range(5), repeat=n):
            box = sorted(itertools.product(*[range(c + 1) for c in caps]), reverse=True)
            for total in range(-1, sum(caps) + 2):
                expect = [t for t in box if sum(t) == total]
                assert list(bounded_compositions(total, caps)) == expect


def test_canonical_order_is_deterministic():
    I = ideal(2, (0, 3), (3, 0), (1, 1))
    J = ideal(2, (1, 1), (3, 0), (0, 3))
    assert I.gens == J.gens
    degs = [sum(g) for g in I.gens]
    assert degs == sorted(degs, reverse=True)


def test_shifts_and_capped_ideals_keep_the_canonical_order():
    # translate, deflate, veronese and _equigenerated store their
    # generators without sorting; each must list them as the constructor,
    # which sorts, does
    def canonical(n, gens):
        return MonomialIdeal(n, list(gens)).gens

    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 4)
        d = rng.randint(0, 5)
        if rng.random() < 0.5:  # one degree
            raw = [t for t in itertools.product(range(d + 1), repeat=n) if sum(t) == d]
            I = MonomialIdeal._equigenerated(n, rng.sample(raw, rng.randint(1, len(raw))))
            assert I.gens == canonical(n, I.gens)
        else:
            I = minimalize(n, [tuple(rng.randint(0, 4) for _ in range(n))
                               for _ in range(rng.randint(1, 7))])
        u = tuple(rng.randint(0, 3) for _ in range(n))
        T = translate(I, u)
        assert T.gens == canonical(n, T.gen_set)
        assert deflate(T, u).gens == canonical(n, I.gen_set) == I.gens
        caps = tuple(rng.randint(0, d) for _ in range(n))
        V = veronese(n, d, caps)
        assert V.gens == canonical(n, V.gen_set)


def test_mindeg_and_maxdeg_on_every_construction_path():
    # mindeg and maxdeg read the last and the first stored generator, so
    # every way of building an ideal must store the canonical order,
    # highest degree first; a zero ideal from any path refuses both
    rng = random.Random(31)
    built = []
    for _ in range(200):
        n = rng.randint(1, 4)
        raw = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 7))]
        d = rng.randint(0, 5)
        layer = [t for t in itertools.product(range(d + 1), repeat=n) if sum(t) == d]
        I = MonomialIdeal(n, raw)
        u = tuple(rng.randint(0, 3) for _ in range(n))
        built += [
            I,
            MonomialIdeal._from_valid(n, raw),
            MonomialIdeal._equigenerated(n, rng.sample(layer, rng.randint(1, len(layer)))),
            translate(I, u),
            deflate(translate(I, u), u),
            veronese(n, d, tuple(rng.randint(0, d) for _ in range(n))),
        ]
    for n, d in ((2, 2), (3, 2), (3, 3)):
        for caps in itertools.product(range(d + 1), repeat=n):
            if sum(caps) < d:
                continue
            spec = VeroneseSpec(n, d, caps)
            chains = [chain_absorb_variable(spec, i) for i in range(n)]
            chains += [
                chain_absorb_monomial(spec, tuple(rng.randint(0, 2) for _ in range(n))),
                chain_raise_caps(spec, VeroneseSpec(n, d, (d,) * n)),
                chain_absorb_maximal_ideal(spec),
            ]
            built += [ch.start for ch in chains]
    built += iter_bivariate_antichains(6, 4)
    zeros = 0
    for I in built:
        if I.is_zero:
            zeros += 1
            for name in ("mindeg", "maxdeg"):
                with pytest.raises(ZeroIdealError):
                    getattr(I, name)
        else:
            degrees = [sum(g) for g in I.gens]
            assert (I.mindeg, I.maxdeg) == (min(degrees), max(degrees)), I
    assert zeros > 0 and sum(I.mindeg < I.maxdeg for I in built if not I.is_zero) > 500
