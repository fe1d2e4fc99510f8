"""Edge ideals against a theorem: ``find_admissible_order`` decides them.

The edge ideal I(G) of a graph G on the vertices 0..n-1 is generated by
x_a * x_b for the edges {a, b}.  It has a linear resolution iff the
complement of G is chordal (Froberg 1990), and being generated in one
degree it then has linear quotients (Herzog-Hibi-Zheng 2004).  So the
search must find an order exactly when the complement is chordal, and
must prove every other edge ideal ``exhausted``: its verdicts there are
checked against :func:`oracles.mcs_cochordal`, which shares no code with
the library.

Run as a script to check every labelled graph with at least one edge on
N vertices (2**(N(N-1)/2) - 1 graphs; 32,767 for N = 6)::

    PYTHONPATH=src python tests/edge_ideals.py 6

It prints the counts and exits 1 on any disagreement.
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from oracles import mcs_cochordal
from polyquot import MonomialIdeal
from polyquot.quotients import EXHAUSTED, FOUND, find_admissible_order


def edge_ideal(nvertices, edges):
    return MonomialIdeal(nvertices, [
        tuple(int(k in e) for k in range(nvertices)) for e in edges
    ])


def graph(nvertices, mask):
    """The edges of the graph numbered ``mask``: bit i stands for the i-th
    pair of vertices in lexicographic order."""
    pairs = itertools.combinations(range(nvertices), 2)
    return [e for i, e in enumerate(pairs) if mask >> i & 1]


def all_masks(nvertices):
    """Every graph with at least one edge."""
    return range(1, 1 << (nvertices * (nvertices - 1) // 2))


def check(nvertices, masks):
    """(found, exhausted, disagreements) over the graphs ``masks``; a
    disagreement is (mask, status, complement chordal)."""
    found = exhausted = 0
    wrong = []
    for mask in masks:
        edges = graph(nvertices, mask)
        status = find_admissible_order(edge_ideal(nvertices, edges)).status
        found += status == FOUND
        exhausted += status == EXHAUSTED
        cochordal = mcs_cochordal(nvertices, edges)
        if status != (FOUND if cochordal else EXHAUSTED):
            wrong.append((mask, status, cochordal))
    return found, exhausted, wrong


def main(argv):
    n = int(argv[1])
    masks = all_masks(n)
    found, exhausted, wrong = check(n, masks)
    print(f"{n} vertices: {len(masks)} graphs, {found} found, "
          f"{exhausted} exhausted, {len(wrong)} disagreements")
    for mask, status, cochordal in wrong[:10]:
        print(f"  graph {mask}: {status}, complement chordal: {cochordal}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
