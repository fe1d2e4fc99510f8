"""Capped-ideal factorization and extension chains."""

import itertools
import random
from pathlib import Path

import pytest

from polyquot import (
    ChainVerificationError,
    ExchangeWitness,
    extends_by_linear_quotients,
    NotComponentwiseSEPError,
    NotPolymatroidalError,
    VeroneseSpec,
    chain_absorb_maximal_ideal,
    chain_absorb_monomial,
    chain_absorb_variable,
    chain_raise_caps,
    concat_chains,
    is_admissible_order,
    is_componentwise_sep,
    maximal_ideal,
    minimalize,
    product,
    satisfies_strong_exchange,
    sep_admissible_order,
    sep_factorization,
    translate,
    translate_chain,
    verify_chain,
    veronese,
)
import polyquot.chains
from polyquot.exchange import _box
from polyquot.families import random_componentwise_sep
from polyquot.ideal import graded_components
from polyquot.textio import parse_ideal
from conftest import ideal, SQUARE_REGRESSION
from oracles import naive_absorb_monomial, naive_absorb_variable, naive_raise_caps


def test_spec_normalization_and_validation():
    spec = VeroneseSpec(3, 2, (5, 1, 2))
    assert spec.caps == (2, 1, 2)  # clamped to the degree
    assert spec.ideal() == veronese(3, 2, (5, 1, 2))
    with pytest.raises(ValueError):
        VeroneseSpec(2, 3, (1, 1))  # zero ideal
    with pytest.raises(ValueError):
        VeroneseSpec(2, 2, (1,))


# (nvars, d, caps) a capped ideal is refused for, and the message; where
# several checks fail, the first in this order speaks
MALFORMED_CAPPED = [
    (0, 2, (), "number of variables must be positive"),
    (-1, -1, (-1,), "number of variables must be positive"),
    (2, -1, (1, 1), "degree must be nonnegative"),
    (2, -1, (1,), "degree must be nonnegative"),
    (2, 2, (1,), "expected 2 caps, got 1"),
    (2, 2, (1, 1, 1), "expected 2 caps, got 3"),
    (2, 2, (1, -1, 0), "expected 2 caps, got 3"),
    (3, 2, (), "expected 3 caps, got 0"),
    (2, 2, (3, -1), "caps must be nonnegative"),
    (3, 0, (0, -2, 0), "caps must be nonnegative"),
]


def test_capped_parameters_refused_alike():
    # veronese and VeroneseSpec share one check of their parameters
    for nvars, d, caps, message in MALFORMED_CAPPED:
        for build in (veronese, VeroneseSpec):
            with pytest.raises(ValueError) as err:
                build(nvars, d, caps)
            assert str(err.value) == message, (build, nvars, d, caps)
    # the zero ideal is a capped ideal, but not one a spec describes
    assert veronese(2, 3, (1, 1)).is_zero
    with pytest.raises(ValueError, match="the ideal is zero"):
        VeroneseSpec(2, 3, (1, 1))


def test_sep_factorization_example():
    I = translate(veronese(3, 4, (1, 3, 3)), (2, 1, 0))
    u, spec = sep_factorization(I)
    assert u == (2, 1, 0)
    assert spec == VeroneseSpec(3, 4, (1, 3, 3))
    # not itself of capped form: the only candidate misses a generator
    V = veronese(3, 7, (3, 4, 3))
    assert I != V
    missing = V.gen_set - I.gen_set
    assert (0, 4, 3) in missing
    assert all(g[0] < 2 or g[1] < 1 for g in missing)


def test_sep_factorization_of_capped_ideal_is_trivial():
    # every variable is avoidable, so the gcd is 1
    V = veronese(3, 3, (2, 2, 2))
    u, spec = sep_factorization(V)
    assert u == (0, 0, 0)
    assert spec == VeroneseSpec(3, 3, (2, 2, 2))
    # caps that force a variable into every generator pull it into the factor
    forced = veronese(3, 5, (2, 2, 3))
    u, spec = sep_factorization(forced)
    assert u == (0, 0, 1)
    assert spec == VeroneseSpec(3, 4, (2, 2, 2))
    assert translate(spec.ideal(), u) == forced


def test_sep_factorization_requires_strong_exchange():
    bumped = product(maximal_ideal(4), veronese(4, 6, (3, 2, 1, 4)))
    with pytest.raises(NotPolymatroidalError):
        sep_factorization(bumped)


def test_sep_factorization_roundtrip_random():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(2, 3)
        d = rng.randint(1, 5)
        caps = tuple(rng.randint(1, d) for _ in range(n))
        if sum(caps) < d:
            continue
        shift = tuple(rng.randint(0, 2) for _ in range(n))
        I = translate(veronese(n, d, caps), shift)
        u, spec = sep_factorization(I)
        assert translate(spec.ideal(), u) == I


def test_veronese_ideals_have_strong_exchange():
    # exhaustive for up to three variables; the four-variable box is too
    # large for a routine run, so it gets a seeded random slice
    for n in (2, 3):
        for d in range(1, 6):
            for caps in itertools.product(range(0, 6), repeat=n):
                if sum(min(c, d) for c in caps) < d:
                    continue
                assert satisfies_strong_exchange(veronese(n, d, caps))
    rng = random.Random(103)
    for _ in range(60):
        d = rng.randint(1, 5)
        caps = tuple(rng.randint(0, 5) for _ in range(4))
        if sum(min(c, d) for c in caps) < d:
            continue
        assert satisfies_strong_exchange(veronese(4, d, caps))


def test_absorb_variable_smallest_case():
    # x * (x, y) reaches only the cap-bumped target; nothing to append
    ch = chain_absorb_variable(VeroneseSpec(2, 1, (1, 1)), 0)
    assert ch.start == ideal(2, (2, 0), (1, 1))
    assert ch.end == veronese(2, 2, (2, 1))
    assert ch.appended == ()
    # the step on to the full square appends y^2 with colon (x)
    verify_chain(ch.end, veronese(2, 2, (2, 2)), [(0, 2)])


def test_absorb_variable_squarefree_case():
    ch = chain_absorb_variable(VeroneseSpec(3, 2, (1, 1, 1)), 1)
    # no degree-3 generator of the target avoids the absorbed variable
    assert ch.appended == ()
    assert ch.start == ch.end == veronese(3, 3, (1, 2, 1))


def test_absorb_variable_desk_scale():
    ch = chain_absorb_variable(VeroneseSpec(4, 6, (3, 2, 1, 4)), 0)
    assert ch.end == veronese(4, 7, (4, 2, 1, 4))
    assert set(ch.appended) == ch.end.gen_set - ch.start.gen_set
    verify_chain(ch.start, ch.end, ch.appended)


def test_absorb_monomial_examples():
    spec = VeroneseSpec(3, 4, (1, 3, 3))
    empty = chain_absorb_monomial(spec, (0, 0, 0))
    assert empty.appended == () and empty.start == empty.end == spec.ideal()
    one = chain_absorb_monomial(spec, (1, 0, 0))
    step = chain_absorb_variable(spec, 0)
    assert one.start == step.start and one.end == step.end
    assert one.appended == step.appended
    full = chain_absorb_monomial(spec, (2, 1, 0))
    assert full.start == translate(spec.ideal(), (2, 1, 0))
    assert full.end == veronese(3, 7, (3, 4, 3))
    assert len(full.appended) == len(full.end.gens) - len(full.start.gens)


def test_raise_caps_examples():
    same = chain_raise_caps(VeroneseSpec(3, 3, (1, 2, 2)), VeroneseSpec(3, 3, (1, 2, 2)))
    assert same.appended == ()
    ch = chain_raise_caps(VeroneseSpec(3, 3, (1, 1, 2)), VeroneseSpec(3, 3, (1, 2, 2)))
    assert all(g[1] == 2 for g in ch.appended)
    big = chain_raise_caps(VeroneseSpec(4, 6, (3, 2, 1, 4)), VeroneseSpec(4, 6, (6, 6, 6, 6)))
    assert big.end == veronese(4, 6, (6, 6, 6, 6))


def reference_specs(max_deg):
    """Every spec with n <= 3 and d <= max_deg, and n = 4 with d <= 2."""
    for n in range(1, 5):
        for d in range(0, (2 if n == 4 else max_deg) + 1):
            for caps in itertools.product(range(d + 1), repeat=n):
                if sum(caps) >= d:
                    yield VeroneseSpec(n, d, caps)


def chain_parts(ch):
    return [list(ch.start.gens), list(ch.end.gens), list(ch.appended)]


def test_constructors_match_unit_step_reference():
    # the constructors build each capped ideal once; the reference builds
    # one per absorbed variable and per raised cap, as the steps are defined
    counts = [0, 0, 0]
    for spec in reference_specs(4):
        n, d, caps = spec.nvars, spec.degree, spec.caps
        for i in range(n):
            assert chain_parts(chain_absorb_variable(spec, i)) == list(
                naive_absorb_variable(n, d, caps, i)
            )
            counts[0] += 1
        for dst in itertools.product(*(range(a, d + 1) for a in caps)):
            ch = chain_raise_caps(spec, VeroneseSpec(n, d, dst))
            assert chain_parts(ch) == list(naive_raise_caps(n, d, caps, dst))
            counts[1] += 1
        if d <= (1 if n == 4 else 2):
            for c in itertools.product(range(3), repeat=n):
                ch = chain_absorb_monomial(spec, c)
                assert chain_parts(ch) == list(naive_absorb_monomial(n, d, caps, c))
                counts[2] += 1
    assert counts == [1013, 3850, 2232]


def test_raise_caps_requires_domination():
    with pytest.raises(ValueError):
        chain_raise_caps(VeroneseSpec(2, 3, (2, 2)), VeroneseSpec(2, 3, (1, 3)))
    with pytest.raises(ValueError):
        chain_raise_caps(VeroneseSpec(2, 3, (2, 2)), VeroneseSpec(2, 4, (2, 2)))


def test_absorb_maximal_ideal():
    rng = random.Random(107)
    for _ in range(30):
        n = rng.randint(2, 3)
        d = rng.randint(1, 4)
        caps = tuple(rng.randint(1, d) for _ in range(n))
        if sum(caps) < d:
            continue
        spec = VeroneseSpec(n, d, caps)
        ch = chain_absorb_maximal_ideal(spec)
        assert ch.start == product(maximal_ideal(n), spec.ideal())
        assert ch.end == veronese(n, d + 1, tuple(c + 1 for c in spec.caps))
    unitish = chain_absorb_maximal_ideal(VeroneseSpec(2, 0, (0, 0)))
    assert unitish.start == unitish.end == maximal_ideal(2)


def test_absorb_maximal_ideal_box():
    # the sweep order verifies on every distinct spec with n <= 4 and
    # d <= 5 (d <= 3 for n = 4); chain_absorb_maximal_ideal has no other
    # way to build the chain, so a failure here raises
    specs = set()
    for n in range(1, 5):
        for d in range(0, (3 if n == 4 else 5) + 1):
            for caps in itertools.product(range(d + 1), repeat=n):
                if sum(caps) >= d:
                    specs.add(VeroneseSpec(n, d, caps))
    assert len(specs) == 766
    for spec in specs:
        n, d = spec.nvars, spec.degree
        ch = chain_absorb_maximal_ideal(spec)
        assert ch.start == product(maximal_ideal(n), spec.ideal())
        assert ch.end == veronese(n, d + 1, tuple(c + 1 for c in spec.caps))


def test_absorb_maximal_ideal_start_is_the_product():
    # the start ideal is built as {x_r * g} without minimalizing; every
    # product has degree d + 1, so it is m * I_(d; a) itself
    count = 0
    for n in range(1, 5):
        for d in range(5):
            for caps in itertools.product(range(d + 1), repeat=n):
                if sum(caps) < d:
                    continue
                spec = VeroneseSpec(n, d, caps)
                start = chain_absorb_maximal_ideal(spec).start
                expected = product(maximal_ideal(n), spec.ideal())
                assert start == expected and start.gens == expected.gens
                count += 1
    assert count == 1153


def test_absorb_maximal_ideal_fallback_search_agrees():
    # the general search (extends_by_linear_quotients) also finds a valid
    # extension order for the maximal-ideal step the sweep order provides
    rng = random.Random(131)
    for _ in range(10):
        n = rng.randint(2, 3)
        d = rng.randint(1, 3)
        caps = tuple(rng.randint(1, d) for _ in range(n))
        if sum(caps) < d:
            continue
        spec = VeroneseSpec(n, d, caps)
        start = product(maximal_ideal(n), spec.ideal())
        end = veronese(n, d + 1, tuple(c + 1 for c in spec.caps))
        res = extends_by_linear_quotients(start, end)
        assert res.status == "found"
        verify_chain(start, end, res.order)


def test_chain_concatenation_verifies():
    a = chain_raise_caps(VeroneseSpec(3, 3, (1, 1, 2)), VeroneseSpec(3, 3, (1, 2, 2)))
    b = chain_raise_caps(VeroneseSpec(3, 3, (1, 2, 2)), VeroneseSpec(3, 3, (3, 3, 3)))
    both = concat_chains(a, b)
    verify_chain(both.start, both.end, both.appended)
    with pytest.raises(ValueError):
        concat_chains(b, a)


def test_chain_translation_verifies():
    rng = random.Random(109)
    ch = chain_raise_caps(VeroneseSpec(2, 3, (1, 2)), VeroneseSpec(2, 3, (3, 3)))
    for _ in range(10):
        u = (rng.randint(0, 3), rng.randint(0, 3))
        moved = translate_chain(ch, u)
        verify_chain(moved.start, moved.end, moved.appended)


def test_verify_chain_rejects_bad_orders():
    start = ideal(2, (2, 0), (1, 1))
    end = veronese(2, 2, (2, 2))
    with pytest.raises(ChainVerificationError):
        verify_chain(end, start, [])  # not nested this way round
    with pytest.raises(ChainVerificationError):
        verify_chain(start, end, [])  # does not cover the difference
    lone = ideal(2, (3, 0))
    target = ideal(2, (3, 0), (0, 3))
    with pytest.raises(ChainVerificationError):
        verify_chain(lone, target, [(0, 3)])  # colon (x^3) is not a variable


def test_sep_admissible_order_regression_ideal():
    I = ideal(3, *SQUARE_REGRESSION)
    order = sep_admissible_order(I)
    assert is_admissible_order(order)
    assert len(order.order) == 6
    degs = [sum(g) for g in order.order]
    assert degs == sorted(degs)


def test_sep_admissible_order_equigenerated():
    V = translate(veronese(3, 3, (2, 2, 2)), (1, 0, 0))
    order = sep_admissible_order(V)
    assert order.order == tuple(sorted(V.gens, reverse=True))
    assert is_admissible_order(order)


def test_sep_admissible_order_requires_property():
    with pytest.raises(NotComponentwiseSEPError) as info:
        sep_admissible_order(ideal(2, (3, 0), (0, 3)))
    assert isinstance(info.value, ValueError)
    assert info.value.degree == 3
    assert info.value.witness == ExchangeWitness((3, 0), (0, 3), 0, (2, 1))


def test_sep_admissible_order_random():
    rng = random.Random(113)
    for _ in range(40):
        I = random_componentwise_sep(rng, rng.randint(2, 3), 6)
        order = sep_admissible_order(I)
        assert is_admissible_order(order)


def test_componentwise_capped_sums():
    # sums of capped ideals across degrees (componentwise capped form)
    rng = random.Random(127)
    done = 0
    while done < 20:
        n = rng.randint(2, 3)
        d1 = rng.randint(1, 3)
        caps1 = tuple(rng.randint(1, d1) for _ in range(n))
        d2 = rng.randint(d1, 5)
        caps2 = tuple(rng.randint(1, d2) for _ in range(n))
        if sum(caps1) < d1 or sum(caps2) < d2:
            continue
        I = minimalize(
            n, list(veronese(n, d1, caps1).gens) + list(veronese(n, d2, caps2).gens)
        )
        if not is_componentwise_sep(I):
            continue
        assert is_admissible_order(sep_admissible_order(I))
        done += 1


def test_sep_admissible_order_builds_each_capped_ideal_once_per_step(monkeypatch):
    # one build per component, for the factorization's rebuild check; per
    # degree step one for the end of the absorb-maximal chain and one per
    # variable step absorbing x^c, c = u - v.  The factorizations' capped
    # ideals are passed through, and c = 0 builds no chain at all.
    built = []

    def counting(*args):
        built.append(args)
        return veronese(*args)

    monkeypatch.setattr(polyquot.chains, "veronese", counting)
    data = Path(__file__).parent / "data"
    inputs = [
        parse_ideal((data / name).read_text())
        for name in ("golden/i1.txt", "golden/i2.txt", "golden/seven.txt",
                     "golden/square-regression.txt", "i3.txt")
    ]
    rng = random.Random(151)
    inputs += [random_componentwise_sep(rng, 3, 8) for _ in range(30)]
    kinds = set()
    for I in inputs:
        shifts = [_box(comp.gens)[0] for _, comp in graded_components(I)]
        absorbed = [sum(u) - sum(v) for u, v in zip(shifts, shifts[1:])]
        kinds.update(bool(k) for k in absorbed)
        del built[:]
        sep_admissible_order(I)
        assert len(built) == len(shifts) + len(absorbed) + sum(absorbed)
    assert kinds == {False, True}  # steps with and without x^c absorbed

    spec = VeroneseSpec(3, 4, (1, 3, 3))
    first = spec.ideal()
    assert spec.ideal() is first
    fresh = VeroneseSpec(3, 4, (1, 3, 3))
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh)
