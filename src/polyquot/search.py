"""The conjecture search: do componentwise linear quotients imply linear
quotients?

:func:`question1_search` scans a box of ideals (every antichain of an
exponent box, or seeded random draws) and writes one JSON line per ideal
whose components all have linear quotients but whose layered search,
replayed from the same componentwise sweep, found no admissible order.
Records carry no timing data, so identical configurations write identical
bytes, and a run resumes from its checkpoint without writing a record twice.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, fields
from random import Random
from typing import Optional

from .families import iter_antichains, random_antichain
from .ideal import MonomialIdeal, _canonical_key
from .quotients import EXHAUSTED, FOUND, has_componentwise_linear_quotients

SCHEMA = 1

# hard guard for exhaustive search boxes: at most this many candidate
# monomials, and a bounded generator count
MAX_EXHAUSTIVE_BOX = 400
MAX_EXHAUSTIVE_GENS = 6


@dataclass(frozen=True)
class SearchConfig:
    nvars_lo: int
    nvars_hi: int
    max_exp: int
    max_gens: int
    exhaustive: bool
    seed: int
    count: int
    budget: int
    out_path: str
    checkpoint_path: Optional[str] = None
    limit: Optional[int] = None
    symmetry_reduce: bool = False


@dataclass
class SearchSummary:
    scanned: int = 0
    skipped_symmetry: int = 0
    cw_true: int = 0
    cw_false: int = 0
    cw_unknown: int = 0
    found: int = 0
    budget_exceeded: int = 0
    candidates: int = 0
    stopped_at: int = 0
    complete: bool = False
    symmetry_reduce: bool = False

    def as_dict(self):
        return dict(self.__dict__)


def _config_digest(cfg: SearchConfig) -> str:
    # every field but those that do not change which records a run writes
    unkeyed = ("out_path", "checkpoint_path", "limit")
    key = json.dumps([getattr(cfg, f.name) for f in fields(cfg) if f.name not in unkeyed])
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _is_orbit_representative(ideal: MonomialIdeal) -> bool:
    """Is this ideal the least of its variable permutations, in canonical form?"""
    base = ideal.gens
    for perm in itertools.permutations(range(ideal.nvars)):
        permuted = tuple(sorted((tuple(g[p] for p in perm) for g in base),
                                key=_canonical_key, reverse=True))
        if permuted < base:
            return False
    return True


def _iter_search_space(cfg: SearchConfig):
    if cfg.exhaustive:
        for n in range(cfg.nvars_lo, cfg.nvars_hi + 1):
            box = (cfg.max_exp + 1) ** n
            if box > MAX_EXHAUSTIVE_BOX or cfg.max_gens > MAX_EXHAUSTIVE_GENS:
                raise ValueError(
                    f"exhaustive box too large: {box} monomials / "
                    f"{cfg.max_gens} generators (guards: {MAX_EXHAUSTIVE_BOX}, "
                    f"{MAX_EXHAUSTIVE_GENS})"
                )
            yield from iter_antichains(n, cfg.max_exp, cfg.max_gens)
    else:
        rng = Random(cfg.seed)
        for _ in range(cfg.count):
            n = rng.randint(cfg.nvars_lo, cfg.nvars_hi)
            yield random_antichain(rng, n, cfg.max_exp, cfg.max_gens)


def _load_checkpoint(cfg: SearchConfig) -> int:
    """The index to resume from.  The output is cut back to the length it
    had when the checkpoint was written, so a record written after the
    last checkpoint is not written twice."""
    if not cfg.checkpoint_path or not os.path.exists(cfg.checkpoint_path):
        return 0
    with open(cfg.checkpoint_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("config") != _config_digest(cfg):
        raise ValueError(
            "checkpoint belongs to a different search configuration"
        )
    if "out_bytes" not in data:
        raise ValueError(
            "checkpoint was written by an older version that does not record "
            "the output length; start the run over with a fresh output file"
        )
    size = os.path.getsize(cfg.out_path) if os.path.exists(cfg.out_path) else 0
    if size < data["out_bytes"]:
        raise ValueError(
            f"output {cfg.out_path} has {size} bytes, fewer than the "
            f"{data['out_bytes']} the checkpoint records"
        )
    if size > data["out_bytes"]:
        os.truncate(cfg.out_path, data["out_bytes"])
    return int(data.get("next_index", 0))


def _save_checkpoint(cfg: SearchConfig, next_index: int, out) -> None:
    if not cfg.checkpoint_path:
        return
    tmp = cfg.checkpoint_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(
            {"schema": SCHEMA, "config": _config_digest(cfg),
             "next_index": next_index, "out_bytes": out.tell()},
            fh,
        )
    os.replace(tmp, cfg.checkpoint_path)


def _scan(ideal: MonomialIdeal, budget: int, summary: SearchSummary):
    """Count one ideal in the summary; its (flag, status, nodes) if recorded."""
    cw = has_componentwise_linear_quotients(ideal, budget)
    if cw.value is False:
        summary.cw_false += 1
        return None
    if cw.value is None:
        summary.cw_unknown += 1
        nodes = sum(o.nodes for o in cw.outcomes.values())
        return "inconclusive", "componentwise-unknown", nodes
    summary.cw_true += 1
    res = cw.layered
    if res.status == FOUND:
        summary.found += 1
        return None
    if res.status == EXHAUSTED:
        summary.candidates += 1
        return "candidate-counterexample", res.status, res.nodes
    summary.budget_exceeded += 1
    return "inconclusive", res.status, res.nodes


def question1_search(cfg: SearchConfig) -> SearchSummary:
    """Scan ideals with componentwise linear quotients for ones where the
    layered search (``ComponentwiseLQ.layered``) finds no order.

    Each such case is appended to the output file as one JSON line: an
    exhausted search is flagged ``candidate-counterexample`` (a proof that
    no admissible order exists, despite componentwise linear quotients),
    a budget-exceeded search or componentwise check ``inconclusive``.  The
    summary counts all cases.  A negative limit raises ValueError.
    """
    if cfg.limit is not None and cfg.limit < 0:
        raise ValueError(f"negative limit: {cfg.limit}")
    start = _load_checkpoint(cfg)
    summary = SearchSummary(symmetry_reduce=cfg.symmetry_reduce, stopped_at=start)
    space = enumerate(_iter_search_space(cfg))
    stop = None if cfg.limit is None else start + cfg.limit
    with open(cfg.out_path, "a", encoding="utf-8") as out:
        for index, ideal in itertools.islice(space, start, stop):
            if cfg.symmetry_reduce and not _is_orbit_representative(ideal):
                summary.skipped_symmetry += 1
            else:
                summary.scanned += 1
                record = _scan(ideal, cfg.budget, summary)
                if record is not None:
                    flag, status, nodes = record
                    out.write(json.dumps(
                        {"flag": flag, "status": status, "nodes": nodes,
                         "schema": SCHEMA, "index": index, "nvars": ideal.nvars,
                         "gens": [list(g) for g in ideal.gens]},
                        sort_keys=True,
                    ) + "\n")
                    out.flush()
            summary.stopped_at = index + 1
            _save_checkpoint(cfg, index + 1, out)
        # islice stops before drawing past ``stop``: the run is complete
        # when the space has nothing left there
        summary.complete = next(space, None) is None
    return summary
