"""Squarefree ideals against a theorem: the search decides them layer by
layer exactly as their squarefree parts say.

A squarefree ideal I on n variables is the Alexander dual ideal of a
simplicial complex D: its generators are the complements of the facets.
I has linear quotients iff D is shellable (Herzog-Hibi-Zheng 2004), and D
is shellable iff each pure skeleton of D is (Bjorner-Wachs 1996).  The
squarefree part I_[j], generated by the squarefree monomials of degree j
in I, is the dual ideal of the pure (n - j - 1)-skeleton.  So
``find_admissible_order(I)`` must find an order exactly when it finds one
for every I_[j], j = mindeg..n, and must prove every other I
``exhausted``.  Each I_[j] is built from the definition by
:func:`oracles.naive_squarefree_part`; each is one degree, so the check
sets the layered search on mixed degrees against one-degree searches.

Run as a script to check every proper nonzero squarefree ideal on N
variables (the antichains of nonempty subsets of N elements; 7,579 for
N = 5)::

    PYTHONPATH=src python tests/squarefree.py 5

It prints the counts and exits 1 on any disagreement.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from oracles import naive_squarefree_part
from polyquot import MonomialIdeal
from polyquot.quotients import EXHAUSTED, FOUND, find_admissible_order


def all_ideals(nvars):
    """The generator lists of every proper nonzero squarefree ideal on
    ``nvars`` variables: each antichain of nonempty subsets of
    range(nvars), its members listed by increasing bitmask."""
    out = []

    def extend(chosen, start):
        if chosen:
            out.append(chosen)
        for s in range(start, 1 << nvars):
            # a later mask is never a subset of an earlier one
            if all(s & c != c for c in chosen):
                extend(chosen + [s], s + 1)

    extend([], 1)
    return [[tuple(s >> k & 1 for k in range(nvars)) for s in masks]
            for masks in out]


def check(nvars, ideals):
    """(found, exhausted, disagreements) over the generator lists
    ``ideals``; a disagreement is (gens, status, statuses of the parts)."""
    found = exhausted = 0
    wrong = []
    for gens in ideals:
        ideal = MonomialIdeal(nvars, gens)
        status = find_admissible_order(ideal).status
        found += status == FOUND
        exhausted += status == EXHAUSTED
        parts = [
            find_admissible_order(
                MonomialIdeal(nvars, naive_squarefree_part(ideal, j))
            ).status
            for j in range(ideal.mindeg, nvars + 1)
        ]
        want = FOUND if all(p == FOUND for p in parts) else EXHAUSTED
        if status != want or not set(parts) <= {FOUND, EXHAUSTED}:
            wrong.append((gens, status, parts))
    return found, exhausted, wrong


def main(argv):
    n = int(argv[1])
    ideals = all_ideals(n)
    found, exhausted, wrong = check(n, ideals)
    print(f"{n} variables: {len(ideals)} ideals, {found} found, "
          f"{exhausted} exhausted, {len(wrong)} disagreements")
    for gens, status, parts in wrong[:10]:
        print(f"  {gens}: {status}, parts {parts}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
