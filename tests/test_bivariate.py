"""Bivariate classification, structure test, pivot order, product closure."""

import random

import pytest

import polyquot.bivariate
from polyquot import (
    MonomialIdeal,
    StructuralCheck,
    ZeroIdealError,
    classify_tight,
    cwp_structural,
    deflate,
    find_admissible_order,
    is_admissible_order,
    is_componentwise_polymatroidal,
    is_polymatroidal,
    lex_order,
    minimalize,
    product,
    satisfies_nonpure_dual_exchange,
    satisfies_nonpure_exchange,
    tight_factorization,
    translate,
    unit_ideal,
    valley_order,
    zero_ideal,
)
from polyquot.bivariate import NOT_TIGHT, STRICT_YX_TIGHT, X_TIGHT, XY_TIGHT, Y_TIGHT
from polyquot.families import iter_bivariate_antichains, random_yx_tight
from conftest import ideal, I1_GENS, I2_GENS, I3_GENS, SEVEN_GENS, SEVEN_ORDER


def test_lex_order_examples():
    I3 = ideal(2, *I3_GENS)
    assert lex_order(I3) == tuple(I3_GENS)
    single = ideal(2, (4, 7))
    assert lex_order(single) == ((4, 7),)


def test_lex_order_staircase_random():
    rng = random.Random(3)
    for _ in range(100):
        I = minimalize(2, [(rng.randint(0, 9), rng.randint(0, 9))
                           for _ in range(rng.randint(1, 6))])
        seq = lex_order(I)
        assert all(p[0] > q[0] and p[1] < q[1] for p, q in zip(seq, seq[1:]))


def test_lex_order_checks_the_staircase():
    # generators that break the staircase raise, also under python -O
    for gens in (((2, 1), (1, 0)), ((1, 2), (1, 0))):
        with pytest.raises(RuntimeError, match="staircase"):
            lex_order(MonomialIdeal._presorted(2, gens))


def test_lex_order_rejects_wrong_arity():
    with pytest.raises(ValueError):
        lex_order(ideal(3, (1, 0, 0)))
    with pytest.raises(ZeroIdealError):
        lex_order(zero_ideal(2))


def test_classify_running_examples():
    c1 = classify_tight(ideal(2, *I1_GENS))
    assert c1.kind == X_TIGHT and c1.interval == (0, 7)
    c2 = classify_tight(ideal(2, *I2_GENS))
    assert c2.kind == Y_TIGHT and c2.interval == (0, 8)
    I3 = ideal(2, *I3_GENS)
    c3 = classify_tight(I3)
    assert c3.kind == STRICT_YX_TIGHT
    assert 4 in c3.join_indices
    assert lex_order(I3)[4] == (6, 4)


def test_classify_join_invariants():
    I3 = ideal(2, *I3_GENS)
    c3 = classify_tight(I3)
    m = c3.interval[1]
    seq = lex_order(I3)
    for j in c3.join_indices:
        assert seq[j] == (m - j, j)


def test_i3_splits_at_the_join():
    # the head through the join is a shifted y-tight ideal, the tail from
    # the join a shifted x-tight ideal
    I3 = ideal(2, *I3_GENS)
    seq = lex_order(I3)
    head = deflate(MonomialIdeal(2, seq[:5]), (6, 0))
    tail = deflate(MonomialIdeal(2, seq[4:]), (0, 4))
    ch = classify_tight(head)
    ct = classify_tight(tail)
    assert ch.kind == Y_TIGHT and ch.interval == (0, 4)
    assert ct.kind == X_TIGHT and ct.interval == (0, 6)


def test_classify_requires_normalized():
    with pytest.raises(ValueError):
        classify_tight(ideal(2, *SEVEN_GENS))


def test_classify_degenerate_and_not_tight():
    u = classify_tight(unit_ideal(2))
    assert u.kind == XY_TIGHT and u.join_indices == (0,)
    bad = classify_tight(ideal(2, (3, 0), (0, 3)))
    assert bad.kind == NOT_TIGHT and not bad.is_yx_tight


def test_tight_factorization_examples():
    I1 = ideal(2, *I1_GENS)
    s, t, core, cls = tight_factorization(translate(I1, (3, 2)))
    assert (s, t) == (3, 2)
    assert core == I1 and cls.kind == X_TIGHT
    s, t, core, cls = tight_factorization(ideal(2, (5, 7)))
    assert (s, t) == (5, 7) and core.is_unit and cls.kind == XY_TIGHT
    s, t, core, cls = tight_factorization(ideal(2, (3, 0), (0, 3)))
    assert cls.kind == NOT_TIGHT
    assert not is_componentwise_polymatroidal(ideal(2, (3, 0), (0, 3)))


def test_tight_factorization_sorts_the_staircase_once(monkeypatch):
    # the core is classified from the ideal's own staircase, shifted, and
    # gets the class classify_tight gives the deflated core
    calls = []
    real = polyquot.bivariate.lex_order
    monkeypatch.setattr(polyquot.bivariate, "lex_order", lambda I: calls.append(I) or real(I))
    for I in iter_bivariate_antichains(5, 4):
        calls.clear()
        s, t, core, cls = tight_factorization(I)
        assert calls == [I]
        assert core == deflate(I, (s, t)) and cls == classify_tight(core)


def test_bivariate_antichains_are_stored_canonically():
    # the enumerator stores its generator sets as the constructor would
    for I in iter_bivariate_antichains(5, 4):
        ref = MonomialIdeal(2, I.gens)
        assert I.gens == ref.gens and I.gen_set == ref.gen_set


def test_structural_examples():
    chk = cwp_structural(ideal(2, *I3_GENS))
    assert chk and chk.valley == 4
    assert not cwp_structural(ideal(2, (3, 0), (0, 3)))
    # equigenerated polymatroidal: consecutive in both exponent sequences
    eq = ideal(2, (4, 1), (3, 2), (2, 3))
    chk = cwp_structural(eq)
    assert chk and chk.valleys == tuple(range(0, 3))


def test_polymatroidal_iff_consecutive_exponents():
    # equigenerated bivariate: polymatroidal exactly when both exponent
    # sequences run through consecutive integers
    import itertools

    for d in range(1, 7):
        monos = [(a, d - a) for a in range(d, -1, -1)]
        for k in range(1, min(6, d + 1) + 1):
            for combo in itertools.combinations(monos, k):
                I = MonomialIdeal._equigenerated(2, combo)
                xs = sorted(g[0] for g in combo)
                consecutive = xs == list(range(xs[0], xs[0] + len(xs)))
                assert bool(is_polymatroidal(I)) == consecutive


def test_valley_order_matches_printed_example():
    I = ideal(2, *SEVEN_GENS)
    vo = valley_order(I)
    assert vo.order == tuple(SEVEN_ORDER)


def test_valley_order_degenerate_ends():
    # valley at the left end: the staircase order itself
    x_side = translate(ideal(2, *I1_GENS), (0, 0))
    chk = cwp_structural(x_side)
    assert chk.valley == 0
    vo = valley_order(x_side)
    assert vo.order == lex_order(x_side)
    # valley at the right end: the reversed staircase
    y_side = ideal(2, *I2_GENS)
    chk = cwp_structural(y_side)
    assert chk.valleys[-1] == len(I2_GENS) - 1
    vo = valley_order(y_side, valley=chk.valleys[-1])
    assert vo.order == tuple(reversed(lex_order(y_side)))


def test_valley_order_every_valid_valley_is_admissible():
    rng = random.Random(71)
    seen_multi = 0
    for _ in range(200):
        I = minimalize(2, [(rng.randint(0, 8), rng.randint(0, 8))
                           for _ in range(rng.randint(1, 5))])
        chk = cwp_structural(I)
        if not chk:
            continue
        if len(chk.valleys) > 1:
            seen_multi += 1
        for j in chk.valleys:
            assert is_admissible_order(valley_order(I, valley=j))
    assert seen_multi > 0


def test_valley_order_requires_structural():
    with pytest.raises(ValueError):
        valley_order(ideal(2, (3, 0), (0, 3)))


def test_valley_order_checks_its_colons(monkeypatch):
    # a structural test reporting a wrong valley must not yield an order:
    # the colon walk raises, also with assert statements off (python -O)
    I = ideal(2, *SEVEN_GENS)
    assert cwp_structural(I).valleys == (4,)
    for wrong in (0, 3, 6):
        monkeypatch.setattr(
            polyquot.bivariate, "_structural",
            lambda gens, v=wrong: StructuralCheck(True, v, (v,)),
        )
        with pytest.raises(RuntimeError, match="colon at position"):
            valley_order(I)


def test_equivalence_chain_small_exhaustive():
    # all four characterizations agree on a small exhaustive family
    for I in iter_bivariate_antichains(4, 3):
        a = bool(satisfies_nonpure_exchange(I))
        b = bool(satisfies_nonpure_dual_exchange(I))
        c = bool(is_componentwise_polymatroidal(I))
        d = tight_factorization(I)[3].is_yx_tight
        e = bool(cwp_structural(I))
        assert a == b == c == d == e


def test_x_times_y_tight_product_formula():
    rng = random.Random(73)
    for _ in range(50):
        I = random_yx_tight(rng, 9, "x")
        J = random_yx_tight(rng, 9, "y")
        r = classify_tight(I).interval[1]
        s = classify_tight(J).interval[1]
        formula = minimalize(
            2,
            [(a, b + s) for a, b in I.gens] + [(a + r, b) for a, b in J.gens],
        )
        assert product(I, J) == formula


def test_products_of_tight_ideals_stay_tight():
    rng = random.Random(79)
    kinds = ["x", "y", "strict", "xy"]
    for ka in kinds:
        for kb in kinds:
            for _ in range(8):
                I = random_yx_tight(rng, 8, ka)
                J = random_yx_tight(rng, 8, kb)
                cls = classify_tight(product(I, J))
                assert cls.is_yx_tight, (ka, kb, I.gens, J.gens)


def split_at_join(I):
    """Split a tight ideal at its smallest join index: I = x^(m-j) P + y^j K."""
    cls = classify_tight(I)
    j = cls.join_indices[0]
    m = cls.interval[1]
    seq = lex_order(I)
    head = MonomialIdeal(2, seq[: j + 1])   # x^(m-j) * P
    tail = MonomialIdeal(2, seq[j:])        # y^j * K
    P = deflate(head, (m - j, 0))
    K = deflate(tail, (0, j))
    return j, m, P, K


def test_strict_product_join_decomposition():
    # the join monomial of the strict x strict case lies in both halves
    rng = random.Random(83)
    done = 0
    while done < 30:
        I = random_yx_tight(rng, 9, "strict")
        J = random_yx_tight(rng, 9, "strict")
        t, m, P, Q = split_at_join(I)   # I = x^(m-t) P + y^t Q
        j, n, L, K = split_at_join(J)   # J = x^(n-j) L + y^j K
        join = (m - t + n - j, t + j)
        M = translate(
            minimalize(
                2,
                list(product(P, L).gens)
                + [(a, b + t) for a, b in L.gens]
                + [(a, b + j) for a, b in P.gens],
            ),
            (m - t + n - j, 0),
        )
        N = translate(
            minimalize(
                2,
                [(a + n - j, b) for a, b in Q.gens]
                + [(a + m - t, b) for a, b in K.gens]
                + list(product(Q, K).gens),
            ),
            (0, t + j),
        )
        assert join in M.gen_set and join in N.gen_set
        assert minimalize(2, list(M.gens) + list(N.gens)) == product(I, J)
        done += 1


def test_products_of_cwp_ideals_stay_cwp():
    rng = random.Random(89)
    done = 0
    while done < 40:
        I = minimalize(2, [(rng.randint(0, 6), rng.randint(0, 6))
                           for _ in range(rng.randint(1, 4))])
        J = minimalize(2, [(rng.randint(0, 6), rng.randint(0, 6))
                           for _ in range(rng.randint(1, 4))])
        if not (is_componentwise_polymatroidal(I) and is_componentwise_polymatroidal(J)):
            continue
        assert is_componentwise_polymatroidal(product(I, J))
        done += 1


def test_valley_orders_found_by_search_too():
    rng = random.Random(97)
    done = 0
    while done < 30:
        I = minimalize(2, [(rng.randint(0, 7), rng.randint(0, 7))
                           for _ in range(rng.randint(1, 5))])
        if not cwp_structural(I):
            continue
        assert find_admissible_order(I).status == "found"
        done += 1
