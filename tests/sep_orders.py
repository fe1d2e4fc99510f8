"""Strong-exchange chain orders against the naive colons.

``sep_admissible_order`` builds an order for every componentwise
polymatroidal ideal with the strong exchange property and checks it with
the library's own colon walk.  Here each order is checked again by
:func:`oracles.naive_order_admissible`, which computes every colon ideal
outright and shares no code with the library, over a whole box: every
antichain of at most 4 monomials in N variables with exponents at most E
(2 unless given).

Run as a script to check one box (185,431 antichains for N = 4, of them
1,007 componentwise SEP)::

    PYTHONPATH=src python tests/sep_orders.py 4

It prints the counts and exits 1 on any order the oracle rejects.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from oracles import naive_order_admissible
from polyquot import is_componentwise_sep, sep_admissible_order
from polyquot.families import iter_antichains

MAX_GENS = 4


def sep_ideals(nvars, max_exp):
    """(the number of antichains in the box, its componentwise-SEP ideals)."""
    total, ideals = 0, []
    for ideal in iter_antichains(nvars, max_exp, MAX_GENS):
        total += 1
        if is_componentwise_sep(ideal):
            ideals.append(ideal)
    return total, ideals


def check(ideals):
    """(ideals spanning more than one degree, rejections): a rejection is
    the generators of an ideal whose order is not a permutation of them or
    fails a naive colon."""
    multi = 0
    wrong = []
    for ideal in ideals:
        multi += ideal.maxdeg > ideal.mindeg
        order = sep_admissible_order(ideal).order
        if sorted(order) != sorted(ideal.gens) or not naive_order_admissible(order):
            wrong.append(ideal.gens)
    return multi, wrong


def main(argv):
    n = int(argv[1])
    e = int(argv[2]) if len(argv) > 2 else 2
    total, ideals = sep_ideals(n, e)
    multi, wrong = check(ideals)
    print(f"{n} variables, exponents at most {e}: {total} antichains, "
          f"{len(ideals)} componentwise SEP ({multi} with more than one "
          f"degree), {len(wrong)} rejected")
    for gens in wrong[:10]:
        print(f"  {gens}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
