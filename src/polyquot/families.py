"""Deterministic families of test ideals: exhaustive boxes and seeded samplers.

The exhaustive enumerators yield ideals as ready-made antichains so no
input is visited twice; the random samplers consume a caller-supplied
``random.Random`` so identical seeds replay identical streams.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Iterator, Optional

from .ideal import (
    MonomialIdeal,
    _canonical_key,
    compositions,
    divides,
    translate,
    veronese,
)
from .exchange import is_componentwise_sep
from .bivariate import classify_tight


def iter_equigenerated_ideals(
    nvars: int, degree: int, max_gens: int
) -> Iterator[MonomialIdeal]:
    """All nonzero ideals generated by up to max_gens monomials of one degree."""
    monos = sorted(compositions(degree, nvars), reverse=True)
    for k in range(1, min(max_gens, len(monos)) + 1):
        for combo in itertools.combinations(monos, k):
            yield MonomialIdeal._equigenerated(nvars, combo)


def iter_bivariate_antichains(max_exp: int, max_gens: int) -> Iterator[MonomialIdeal]:
    """All bivariate antichains with exponents at most max_exp.

    A bivariate antichain is a strictly decreasing x-exponent sequence
    paired with a strictly increasing y-exponent sequence, so the family
    is a double choice of exponent subsets.
    """
    rng = range(max_exp + 1)
    for k in range(1, max_gens + 1):
        for xs in itertools.combinations(rng, k):
            a = tuple(reversed(xs))
            for bs in itertools.combinations(rng, k):
                gens = frozenset(zip(a, bs))
                yield MonomialIdeal._presorted(
                    2, tuple(sorted(gens, key=_canonical_key, reverse=True)), gens
                )


def iter_antichains(nvars: int, max_exp: int, max_gens: int) -> Iterator[MonomialIdeal]:
    """All antichains of up to max_gens monomials with exponents <= max_exp.

    Generic depth-first enumeration over the exponent box in canonical
    monomial order; every emitted subset is already an antichain.
    """
    monos = sorted(itertools.product(range(max_exp + 1), repeat=nvars))
    chosen: list = []

    def rec(start: int) -> Iterator[MonomialIdeal]:
        for idx in range(start, len(monos)):
            g = monos[idx]
            if any(divides(h, g) or divides(g, h) for h in chosen):
                continue
            chosen.append(g)
            yield MonomialIdeal._from_valid(nvars, chosen)
            if len(chosen) < max_gens:
                yield from rec(idx + 1)
            chosen.pop()

    yield from rec(0)


def random_antichain(
    rng: Random, nvars: int, max_exp: int, max_gens: int
) -> MonomialIdeal:
    """A random nonzero ideal from up to max_gens random monomials."""
    k = rng.randint(1, max_gens)
    raw = [
        tuple(rng.randint(0, max_exp) for _ in range(nvars)) for _ in range(k)
    ]
    return MonomialIdeal._from_valid(nvars, raw)


def _random_strict_increasing(rng: Random, count: int, lo: int, hi: int):
    """count strictly increasing values from [lo, hi]."""
    return sorted(rng.sample(range(lo, hi + 1), count))


def random_yx_tight(
    rng: Random, max_exp: int, kind: Optional[str] = None
) -> MonomialIdeal:
    """A random normalized bivariate tight ideal of the requested kind.

    kind is one of "x", "y", "strict", "xy" (both at once, i.e. a power
    of (x, y)); None picks one at random among those that occur with
    exponents at most max_exp.  Sampling repeats until the classification
    matches the request exactly, so e.g. "x" never returns an ideal that
    happens to be y-tight as well.  A kind that cannot occur raises
    ValueError: "x" and "y" need max_exp >= 2, "strict" max_exp >= 3.
    """
    want = {  # kind: (its class, the least max_exp it occurs at)
        "x": ("x-tight", 2), "y": ("y-tight", 2),
        "strict": ("strict-yx-tight", 3), "xy": ("xy-tight", 0),
    }
    if max_exp < 0:
        raise ValueError(f"negative max_exp: {max_exp}")
    if kind is None:
        kind = rng.choice([k for k in sorted(want) if max_exp >= want[k][1]])
    if kind not in want:
        raise ValueError(f"unknown kind {kind!r}")
    tight, least = want[kind]
    if max_exp < least:
        raise ValueError(f"no {tight} ideal has exponents at most {max_exp}")
    while True:
        ideal = _draw_tight(rng, max_exp, kind)
        if classify_tight(ideal).kind == tight:
            return ideal


def _draw_tight(rng: Random, max_exp: int, kind: str) -> MonomialIdeal:
    if kind == "xy":
        m = rng.randint(0, max_exp)
        return MonomialIdeal._from_valid(2, [(m - i, i) for i in range(m + 1)])
    if kind == "x":
        m = rng.randint(1, max_exp)
        b = [0] + _random_strict_increasing(rng, m, 1, max_exp)
        gens = [(m - i, b[i]) for i in range(m + 1)]
    elif kind == "y":
        m = rng.randint(1, max_exp)
        a = [0] + _random_strict_increasing(rng, m, 1, max_exp)
        a.reverse()
        gens = [(a[i], i) for i in range(m + 1)]
    else:  # strict
        m = rng.randint(2, max_exp)
        j = rng.randint(1, m - 1)
        # y-tight head: b_i = i for i <= j, a strictly decreasing into a_j = m - j
        head_a = _random_strict_increasing(rng, j, m - j + 1, max_exp)
        head_a.reverse()
        # x-tight tail: a_i = m - i for i >= j, b strictly increasing from b_j = j
        tail_b = _random_strict_increasing(rng, m - j, j + 1, max_exp)
        gens = (
            [(head_a[i], i) for i in range(j)]
            + [(m - j, j)]
            + [(m - (j + 1 + t), tail_b[t]) for t in range(m - j)]
        )
    return MonomialIdeal._from_valid(2, gens)


def _random_composition(rng: Random, total: int, nvars: int):
    counts = [0] * nvars
    for _ in range(total):
        counts[rng.randrange(nvars)] += 1
    return tuple(counts)


def random_componentwise_sep(
    rng: Random, nvars: int, max_deg: int
) -> MonomialIdeal:
    """A random componentwise strong-exchange ideal.

    Built as a sum of one to three monomial translates of capped ideals,
    resampled until the componentwise strong-exchange check passes (a
    single summand always does).
    """
    while True:
        k = rng.randint(1, 3)
        gens: set = set()
        for _ in range(k):
            total = rng.randint(1, max_deg)
            shift_deg = rng.randint(0, total - 1)
            d = total - shift_deg
            shift = _random_composition(rng, shift_deg, nvars)
            while True:
                caps = tuple(rng.randint(1, d) for _ in range(nvars))
                if sum(caps) >= d:
                    break
            gens.update(translate(veronese(nvars, d, caps), shift).gens)
        ideal = MonomialIdeal._from_valid(nvars, gens)
        if is_componentwise_sep(ideal):
            return ideal
