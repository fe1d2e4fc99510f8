"""The four benchmark workloads.

Each workload builds its inputs from the seed (set-up), runs one
operation per input through the library's public entry points, and
checks each output with :mod:`oracles`, which shares no code with the
library.  Library functions are always looked up on their module at call
time (``Q.find_admissible_order``), so the traced run's wrappers see them.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from random import Random

import polyquot.bivariate as B
import polyquot.chains as C
import polyquot.cli as CLI
import polyquot.exchange as E
import polyquot.families as F
import polyquot.quotients as Q
import polyquot.textio as T

import oracles

DATA = Path(__file__).resolve().parent / "data"


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def frame_digest(frame) -> str:
    return digest([getattr(item, "gens", item) for item in frame])


def frame_keys(name, frame):
    """Stored (undecided ideals, operation time) of each input of a fixed
    frame (see make_frames.py).

    The keys rank the frame for :func:`systematic_sample`: undecided
    ideals first, so that every sample holds nearly the same number of
    them, then time.  They were measured when the benchmark was defined,
    and are stored so that every version of the library samples the same
    inputs for a seed.
    """
    meta = json.loads((DATA / f"{name}.json").read_text())
    if meta["digest"] != frame_digest(frame):
        raise RuntimeError(f"the {name} frame no longer matches its stored digest")
    return list(zip(meta["undecided"], meta["time_us"]))


def systematic_sample(frame, keys, size, rng):
    """One item from each of `size` equal slices of the frame sorted by key.

    The frame is fixed and only the pick inside each slice depends on the
    seed, so every seed's sample has nearly the same spread of work as the
    frame: a few very costly inputs no longer decide a run's throughput,
    and the median and tail latency come from nearly the same ranks.
    """
    ranked = sorted(range(len(frame)), key=lambda i: (keys[i], i))
    step = len(frame) / size
    picks = [ranked[int(k * step + rng.random() * step)] for k in range(size)]
    return [frame[i] for i in picks]


class Workload:
    """Interface shared by the workloads (see run.py for the loop)."""

    name = ""
    warmup = 0  # operations run untimed in set-up
    # Timed operations per window (see run.py); at least 200, so that at
    # least 10 latency samples of a window lie beyond its p95.
    window = 200

    def build(self, seed):
        """(inputs, warm-up inputs) for this seed; this is set-up work.

        The warm-up inputs do not depend on the seed, so that set-up time
        does not either.
        """
        raise NotImplementedError

    def run(self, item):
        """One operation: its output, made of plain values."""
        raise NotImplementedError

    def ideals(self, out) -> int:
        return 1

    def decided(self, out) -> int:
        """Ideals of this operation with a definite verdict."""
        return 1

    def summary(self, out):
        """Deterministic part of the output, compared between passes."""
        return out

    def check(self, item, out):
        """Why the output is wrong, or None."""
        raise NotImplementedError

    def check_pass(self, items, outs):
        """Why a whole pass is wrong, or None."""
        return None

    def counts(self, items, outs) -> dict:
        """Deterministic counts of one pass, for the fingerprint."""
        return {}


# ---------------------------------------------------------------------------


class BivariateClassify(Workload):
    """Every bivariate antichain with exponents <= 8 and <= 5 generators."""

    name = "bivariate-classify"
    warmup = 1000
    window = 5000  # any 5,000 consecutive ideals of the shuffled corpus
    MAX_EXP, MAX_GENS = 8, 5
    CORPUS, POSITIVES = 40185, 7747

    def build(self, seed):
        corpus = list(F.iter_bivariate_antichains(self.MAX_EXP, self.MAX_GENS))
        items = list(corpus)
        Random(seed).shuffle(items)
        return items, corpus[: self.warmup]

    def run(self, ideal):
        text = T.serialize_ideal(ideal)
        parsed = T.parse_ideal_details(text)
        J = parsed.ideal
        s, t, _core, cls = B.tight_factorization(J)
        structural = B.cwp_structural(J)
        order = B.valley_order(J).order if structural.ok else None
        return (
            text,
            parsed.was_minimal,
            J.gens,
            bool(E.satisfies_nonpure_exchange(J)),
            bool(E.satisfies_nonpure_dual_exchange(J)),
            bool(E.is_componentwise_polymatroidal(J)),
            bool(E.is_componentwise_sep(J)),
            cls.is_yx_tight,
            structural.ok,
            (s, t),
            order,
        )

    def check(self, ideal, out):
        text, was_minimal, gens_out, npe, npd, cwp, sep, tight, st, shift, order = out
        gens = ideal.gens
        nvars, rows = oracles.parse_text(text)
        if nvars != 2 or sorted(rows) != sorted(gens) or not was_minimal:
            return "serialized text does not hold the input generators"
        if sorted(gens_out) != sorted(gens):
            return "parsed ideal differs from the input"
        ref = oracles.bivariate_positive(gens)
        if not npe == npd == cwp == sep == tight == st == ref:
            return "bivariate characterizations disagree with the interval oracle"
        if shift != (min(a for a, _ in gens), min(b for _, b in gens)):
            return "tight factorization has the wrong common factor"
        if ref:
            return oracles.order_problem(gens, order)
        return None if order is None else "valley order on a negative ideal"

    def check_pass(self, items, outs):
        positives = sum(1 for out in outs if out[8])
        if (len(items), positives) != (self.CORPUS, self.POSITIVES):
            return f"{len(items)} ideals with {positives} positives"
        return None

    def counts(self, items, outs):
        return {
            "ideals": len(outs),
            "positives": sum(1 for out in outs if out[8]),
            "text_bytes": sum(len(out[0]) for out in outs),
            "order_gens": sum(len(out[10] or ()) for out in outs),
        }


# ---------------------------------------------------------------------------


class LQSearch(Workload):
    """Componentwise and global admissible-order search on 4-variable draws.

    The frame is the first 3,000 draws of ``random_antichain(rng, 4, 4,
    8)`` from a fixed seed; a seed takes a systematic sample of it, ranked
    by the stored operation times.  Budget-exceeded draws cost up to a
    thousand times a quick verdict, so a plain random sample of this size
    would let a handful of draws set the throughput.

    The cheaper half of the frame is decided in about 0.1 ms by trivial
    paths, and its costs end in a steep rise to the searched half.  A
    sample in the frame's proportions puts the median latency on that
    rise, where it moved by up to 40% between runs of the same
    inputs; so the sample takes one cheap draw for two costly ones, which
    puts the median among searched ideals.
    """

    name = "lq-search"
    warmup = 5
    window = 200  # one pass
    NVARS, MAX_EXP, MAX_GENS = 4, 4, 8
    BUDGET = 5_000  # not 20,000, so that a pass takes seconds (README.md)
    FRAME_SEED, FRAME_SIZE = 2, 3000
    CHEAP, COSTLY = 67, 133

    def frame(self):
        rng = Random(self.FRAME_SEED)
        return [
            F.random_antichain(rng, self.NVARS, self.MAX_EXP, self.MAX_GENS)
            for _ in range(self.FRAME_SIZE)
        ]

    def build(self, seed):
        frame = self.frame()
        keys = frame_keys("lq_frame", frame)
        ranked = sorted(range(len(frame)), key=lambda i: (keys[i], i))
        half = len(frame) // 2
        rng = Random(seed)
        items = []
        for part, size in ((ranked[:half], self.CHEAP), (ranked[half:], self.COSTLY)):
            items += systematic_sample([frame[i] for i in part], [keys[i] for i in part], size, rng)
        rng.shuffle(items)
        return items, frame[: self.warmup]

    def run(self, ideal):
        cw = Q.has_componentwise_linear_quotients(ideal, self.BUDGET)
        comps = tuple(
            (j, o.status, o.nodes, o.order) for j, o in sorted(cw.outcomes.items())
        )
        glob = None
        if cw.value is True:
            res = Q.find_admissible_order(ideal, self.BUDGET)
            glob = (res.status, res.nodes, res.order)
        return cw.value, comps, glob

    def decided(self, out):
        value, _, glob = out
        return int(value is False or (value is True and glob[0] != Q.BUDGET_EXCEEDED))

    def _outcome_problem(self, gens, status, nodes, order):
        if status == "found":
            return oracles.order_problem(gens, order)
        if status == "exhausted":
            if len(gens) <= oracles.MAX_ORACLE_GENS and oracles.has_admissible_order(gens):
                return "exhausted, but an admissible order exists"
            return None
        if status == "budget-exceeded":
            return None if nodes > self.BUDGET else "budget-exceeded within budget"
        return f"unknown status {status!r}"

    def check(self, ideal, out):
        value, comps, glob = out
        gens = ideal.gens
        degs = [sum(g) for g in gens]
        lo, hi = min(degs), max(degs)
        statuses = [c[1] for c in comps]
        if "exhausted" in statuses:
            if value is not False or statuses.index("exhausted") != len(comps) - 1:
                return "componentwise verdict does not stop at the exhausted degree"
        elif value is not (None if "budget-exceeded" in statuses else True):
            return "componentwise verdict does not match its outcomes"
        if [c[0] for c in comps] != list(range(lo, lo + len(comps))) or (
            value is not False and len(comps) != hi - lo + 1
        ):
            return "componentwise search skipped a degree"
        for j, status, nodes, order in comps:
            problem = self._outcome_problem(
                sorted(oracles.component(gens, j)), status, nodes, order
            )
            if problem:
                return f"degree {j}: {problem}"
        if (glob is None) != (value is not True):
            return "global search ran without a true componentwise verdict"
        if glob is not None:
            problem = self._outcome_problem(gens, *glob)
            if problem:
                return f"global: {problem}"
        return None

    def counts(self, items, outs):
        c = {"ideals": len(outs), "nodes": 0, "colon_pairs": 0,
             "cw_true": 0, "cw_false": 0, "cw_unknown": 0}
        key = {True: "cw_true", False: "cw_false", None: "cw_unknown"}
        for ideal, (value, comps, glob) in zip(items, outs):
            c[key[value]] += 1
            for j, status, nodes, _ in comps:
                size = len(oracles.component(ideal.gens, j))
                c["nodes"] += nodes
                c["colon_pairs"] += size * size
                c[f"component_{status}"] = c.get(f"component_{status}", 0) + 1
            if glob is not None:
                c["nodes"] += glob[1]
                c["colon_pairs"] += len(ideal.gens) ** 2
                c[f"global_{glob[0]}"] = c.get(f"global_{glob[0]}", 0) + 1
        return dict(sorted(c.items()))


# ---------------------------------------------------------------------------


class SepChains(Workload):
    """Strong-exchange chain orders on 3-variable componentwise SEP ideals.

    The frame is the first 160 draws of ``random_componentwise_sep(rng, 3,
    8)`` spanning two or more degrees and the first 160 spanning one, from
    a fixed seed; a seed takes 96 and 64 of them, systematically by the
    stored operation times.  Multi-degree ideals are about a tenth of the
    draws, so generating the frame is most of the set-up time.  An even
    split would put the median latency in the gap between the two kinds
    (single-degree ideals take 0.04-0.9 ms, multi-degree 0.7-42 ms), where
    it jumps between them.
    """

    name = "sep-chains"
    warmup = 20
    window = 320  # two passes
    NVARS, MAX_DEG = 3, 8
    FRAME_SEED = 8
    FRAME_EACH = 160
    MULTI, SINGLE = 96, 64

    def frame(self):
        """Multi-degree draws first, then single-degree ones."""
        rng = Random(self.FRAME_SEED)
        multi, single = [], []
        while len(multi) < self.FRAME_EACH:
            ideal = F.random_componentwise_sep(rng, self.NVARS, self.MAX_DEG)
            if ideal.maxdeg > ideal.mindeg:
                multi.append(ideal)
            elif len(single) < self.FRAME_EACH:
                single.append(ideal)
        return multi + single

    def build(self, seed):
        frame = self.frame()
        keys = frame_keys("sep_frame", frame)
        rng = Random(seed)
        each = self.FRAME_EACH
        items = systematic_sample(frame[:each], keys[:each], self.MULTI, rng)
        items += systematic_sample(frame[each:], keys[each:], self.SINGLE, rng)
        rng.shuffle(items)
        return items, frame[: self.warmup]

    def run(self, ideal):
        return C.sep_admissible_order(ideal).order

    def check(self, ideal, out):
        return oracles.order_problem(ideal.gens, out)

    def counts(self, items, outs):
        return {
            "ideals": len(outs),
            "multi_degree": sum(1 for I in items if I.maxdeg > I.mindeg),
            "order_gens": sum(len(o) for o in outs),
        }


# ---------------------------------------------------------------------------


class SearchJobs(Workload):
    """Batch ``polyquot search`` jobs, each in a fresh directory.

    A job is named by the seed of its random search.  The frame is 1,000
    job seeds drawn from a fixed seed; a seed takes a systematic sample of
    100, ranked by the stored undecided counts and job times.  A job's
    cost is set mostly by its few budget-exceeded ideals, so a plain
    random sample's total work moves by a few percent from seed to seed;
    ranked slices give every seed nearly the same mix.

    A job writes its JSONL records but no checkpoint.  The checkpoint is
    replaced after every ideal, and on the host the benchmark was defined
    on each replace waits on a disk whose speed swings by 2.5 times over
    tens of minutes: with checkpoints, two sets of ten runs half an hour
    apart read median throughputs of 1,208 and 669 ideals/s.
    """

    name = "search-jobs"
    warmup = 3
    window = 200  # two passes
    JOBS = 100
    JOB = {"nvars": (2, 3), "max_exp": 4, "max_gens": 6, "count": 50, "budget": 2000}
    FRAME_SEED, FRAME_SIZE = 5, 1000

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def frame(self):
        rng = Random(self.FRAME_SEED)
        return [rng.randrange(2**31) for _ in range(self.FRAME_SIZE)]

    def build(self, seed):
        frame = self.frame()
        rng = Random(seed)
        items = systematic_sample(frame, frame_keys("jobs_frame", frame), self.JOBS, rng)
        rng.shuffle(items)
        return items, list(range(self.warmup))

    def run(self, job_seed):
        self.scratch.mkdir(parents=True, exist_ok=True)
        work = tempfile.mkdtemp(dir=self.scratch)
        try:
            out_path = os.path.join(work, "search.jsonl")
            job = self.JOB
            summary = CLI.question1_search(CLI.SearchConfig(
                nvars_lo=job["nvars"][0], nvars_hi=job["nvars"][1],
                max_exp=job["max_exp"], max_gens=job["max_gens"],
                exhaustive=False, seed=job_seed, count=job["count"],
                budget=job["budget"], out_path=out_path, checkpoint_path=None,
            ))
            with open(out_path, encoding="utf-8") as fh:
                jsonl = fh.read()
        finally:
            shutil.rmtree(work)
        return summary.as_dict(), jsonl

    def ideals(self, out):
        return out[0]["scanned"]

    def decided(self, out):
        s = out[0]
        return s["scanned"] - s["budget_exceeded"] - s["cw_unknown"]

    def summary(self, out):
        s, jsonl = out
        return tuple(sorted(s.items())), digest(jsonl)

    def check(self, job_seed, out):
        return oracles.search_job_problem(self.JOB, *out)

    def counts(self, items, outs):
        c = {"jobs": len(outs), "jsonl_digest": digest([digest(o[1]) for o in outs]),
             "records": sum(len(o[1].splitlines()) for o in outs)}
        for key in ("scanned", "cw_true", "cw_false", "cw_unknown", "found",
                    "candidates", "budget_exceeded"):
            c[key] = sum(o[0][key] for o in outs)
        return c


def make(name: str, scratch: Path) -> Workload:
    if name == SearchJobs.name:
        return SearchJobs(scratch)
    for cls in (BivariateClassify, LQSearch, SepChains):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (BivariateClassify.name, LQSearch.name, SepChains.name, SearchJobs.name)
