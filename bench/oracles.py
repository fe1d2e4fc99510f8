"""Output checks that share no code with the library under test.

Monomials are plain exponent tuples and every check is written out from
the definitions: graded components as all multiples of the generators
in one degree, colon ideals from their generators g / gcd(g, v), admissibility
by trying every prefix set, and the bivariate verdict from the interval
shape of each graded component.  Nothing here imports ``polyquot``.
"""

from __future__ import annotations

import json

#: Largest generator count on which an exhausted search is re-proved by
#: trying every prefix set (2^k sets).
MAX_ORACLE_GENS = 10


def _monomials(total, nvars):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _monomials(total - first, nvars - 1):
            yield (first,) + rest


def _divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def component(gens, degree):
    """Every degree-`degree` monomial that some generator divides."""
    nvars = len(gens[0])
    out = set()
    for g in gens:
        rest = degree - sum(g)
        if rest >= 0:
            out.update(tuple(a + b for a, b in zip(g, t)) for t in _monomials(rest, nvars))
    return out


def colon_is_linear(prefix, v):
    """Is the colon ideal (prefix) : v generated by variables?

    Its generators are g / gcd(g, v).  A zero quotient makes it the unit
    ideal (not generated by variables); otherwise it is generated by
    variables exactly when each quotient is divisible by a variable x_r
    whose first power is itself one of the quotients.
    """
    quotients = [tuple(max(a - b, 0) for a, b in zip(g, v)) for g in prefix]
    if any(sum(q) == 0 for q in quotients):
        return False
    linear = {q.index(1) for q in quotients if sum(q) == 1}
    return all(any(q[r] for r in linear) for q in quotients)


def order_problem(gens, order):
    """Why `order` is not an admissible order of `gens`, or None."""
    order = [tuple(g) for g in order]
    if len(order) != len(gens) or set(order) != set(gens):
        return "order is not a permutation of the generators"
    for i in range(1, len(order)):
        if not colon_is_linear(order[:i], order[i]):
            return f"colon at position {i} is not generated by variables"
    return None


def has_admissible_order(gens):
    """Brute force over all prefix sets; limited to MAX_ORACLE_GENS.

    Whether a generator may follow a prefix depends only on the prefix as
    a set, so an order exists iff the full set is reachable from the
    empty set by such steps.
    """
    gens = list(gens)
    k = len(gens)
    if k > MAX_ORACLE_GENS:
        raise ValueError(f"{k} generators exceed the oracle limit")
    full = (1 << k) - 1
    reachable = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            prefix = [gens[i] for i in range(k) if mask >> i & 1]
            for i in range(k):
                bit = 1 << i
                if mask & bit or (mask | bit) in reachable:
                    continue
                if not prefix or colon_is_linear(prefix, gens[i]):
                    reachable.add(mask | bit)
                    nxt.append(mask | bit)
        frontier = nxt
    return full in reachable


def bivariate_positive(gens):
    """Componentwise polymatroidal, for an ideal in two variables.

    In two variables a degree-j component is polymatroidal exactly when
    its monomials x^a y^(j-a) have their exponents a in one interval.
    Components between the smallest and largest generator degree decide.
    """
    degs = [a + b for a, b in gens]
    for j in range(min(degs), max(degs) + 1):
        xs = sorted(a for a, _ in component(gens, j))
        if xs[-1] - xs[0] + 1 != len(xs):
            return False
    return True


def parse_text(text):
    """(nvars, rows) of the plain-text ideal format, strictly."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not text.endswith("\n") or not lines or not lines[0].startswith("n="):
        raise ValueError("bad header or missing final newline")
    nvars = int(lines[0][2:])
    rows = [tuple(int(t) for t in ln.split(" ")) for ln in lines[1:]]
    if any(len(r) != nvars for r in rows):
        raise ValueError("row length differs from the header")
    return nvars, rows


def is_antichain(gens):
    return all(
        not _divides(g, h) for g in gens for h in gens if g != h
    ) and len(set(gens)) == len(gens)


SEARCH_FLAGS = {
    "candidate-counterexample": {"exhausted"},
    "inconclusive": {"budget-exceeded", "componentwise-unknown"},
}


def search_job_problem(job, summary, jsonl):
    """Why one search job's artifacts are inconsistent, or None.

    ``job`` holds the job's count, max_exp, max_gens, nvars range and
    budget; ``summary`` is the summary as a dict and ``jsonl`` the output
    file's text.
    """
    s = summary
    count = job["count"]
    if s["scanned"] != count or s["stopped_at"] != count or not s["complete"]:
        return "summary does not cover every draw"
    if s["cw_true"] + s["cw_false"] + s["cw_unknown"] != s["scanned"]:
        return "componentwise counters do not add up"
    if s["found"] + s["candidates"] + s["budget_exceeded"] != s["cw_true"]:
        return "global-search counters do not add up"
    if not jsonl.endswith("\n") and jsonl:
        return "output does not end with a newline"
    lines = jsonl.splitlines()
    if len(lines) != s["candidates"] + s["budget_exceeded"] + s["cw_unknown"]:
        return "record count differs from the summary"
    statuses = {"exhausted": 0, "budget-exceeded": 0, "componentwise-unknown": 0}
    last = -1
    for line in lines:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return "a record does not parse"
        if set(rec) != {"flag", "status", "nodes", "schema", "index", "nvars", "gens"}:
            return "a record has unexpected keys"
        if rec["status"] not in SEARCH_FLAGS.get(rec["flag"], ()):
            return "a record's flag and status disagree"
        statuses[rec["status"]] += 1
        if not last < rec["index"] < count:
            return "record indices are not increasing within the job"
        last = rec["index"]
        gens = [tuple(g) for g in rec["gens"]]
        lo, hi = job["nvars"]
        if not lo <= rec["nvars"] <= hi or any(len(g) != rec["nvars"] for g in gens):
            return "a record has the wrong variable count"
        if not 1 <= len(gens) <= job["max_gens"] or any(
            e > job["max_exp"] for g in gens for e in g
        ):
            return "a record's ideal lies outside the search box"
        if not is_antichain(gens):
            return "a record's generators are not minimal"
        if rec["flag"] == "inconclusive" and rec["nodes"] <= job["budget"]:
            return "an inconclusive record stayed within its budget"
        if rec["status"] == "exhausted" and len(gens) <= MAX_ORACLE_GENS:
            if has_admissible_order(gens):
                return "an exhausted record has an admissible order"
    if (statuses["exhausted"], statuses["budget-exceeded"],
            statuses["componentwise-unknown"]) != (
            s["candidates"], s["budget_exceeded"], s["cw_unknown"]):
        return "record statuses differ from the summary"
    return None
