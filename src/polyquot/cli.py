"""Batch front-end: classify ideals, build and verify orders, run searches.

Commands::

    polyquot classify     --input FILE [--json] [--out FILE]
    polyquot order        --input FILE [--budget N] ...
    polyquot verify-order --input FILE --order FILE ...
    polyquot product      --input FILE --input FILE ...
    polyquot component    --input FILE --degree J ...
    polyquot sep-order    --input FILE ...
    polyquot search       --nvars N [--exhaustive | --count N] --max-exp E
                          --max-gens M --out FILE [--seed S] [--budget N]
                          [--checkpoint FILE] [--limit N]

Exit status: 0 when the command succeeded and any checked predicate held;
1 when a predicate failed or no order was found; 3 when a search ran out
of budget or ``classify`` skipped its componentwise verdicts at the degree
guard (inconclusive); 2 on usage or input errors.

Reports are JSON with a ``schema`` field; witnesses carry full exponent
vectors and 0-based variable indices, so every verdict can be replayed
from the report alone.  The conjecture search writes line-delimited JSON
records (flushed per record) and is resumable through a checkpoint file;
records carry no timing data, so identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from random import Random
from typing import Optional

from .ideal import DegreeGuardError, MonomialIdeal, ZeroIdealError, graded_component, product
from .exchange import (
    _componentwise_verdicts,
    is_componentwise_polymatroidal,
    is_polymatroidal,
    satisfies_nonpure_dual_exchange,
    satisfies_nonpure_exchange,
    satisfies_strong_exchange,
)
from .quotients import (
    DEFAULT_BUDGET,
    EXHAUSTED,
    FOUND,
    GeneratorOrder,
    find_admissible_order,
    has_componentwise_linear_quotients,
    is_admissible_order,
    order_colon_variables,
)
from .bivariate import cwp_structural, tight_factorization, valley_order
from .chains import (
    ChainVerificationError,
    NotComponentwiseSEPError,
    sep_admissible_order,
)
from .families import iter_antichains, random_antichain
from .textio import parse_ideal_details, parse_rows, serialize_ideal

SCHEMA = 1

EXIT_OK = 0
EXIT_PREDICATE_FALSE = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3

# hard guard for exhaustive search boxes: at most this many candidate
# monomials, and a bounded generator count
MAX_EXHAUSTIVE_BOX = 400
MAX_EXHAUSTIVE_GENS = 6


def _default_budget() -> int:
    env = os.environ.get("POLYQUOT_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"POLYQUOT_BUDGET is not an integer: {env!r}")
    return DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# report helpers


def _gens_json(ideal: MonomialIdeal):
    return [list(g) for g in ideal.gens]


def _digest(ideal: MonomialIdeal):
    return {
        "nvars": ideal.nvars,
        "num_gens": len(ideal.gens),
        "gens": _gens_json(ideal),
    }


def _witness_json(w):
    if w is None:
        return None
    return {
        "u": list(w.u),
        "v": list(w.v),
        "var": w.index,
        "missing": list(w.missing) if w.missing is not None else None,
    }


def _check_json(chk, **extra):
    return {"ok": chk.ok, "witness": _witness_json(chk.witness), **extra}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_ideal(path: str):
    return parse_ideal_details(_read_text(path))


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if getattr(args, "json", False) or not getattr(args, "out", None):
        print(text)


def _emit_report_only_if_asked(report: dict, args) -> None:
    """For commands whose primary stdout artifact is an ideal in text form."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(args) -> int:
    parsed = _read_ideal(args.input)
    ideal = parsed.ideal
    if ideal.is_zero:
        raise ZeroIdealError("cannot classify the zero ideal")
    t0 = time.perf_counter()
    verdicts = {
        "nonpure_exchange": _check_json(satisfies_nonpure_exchange(ideal)),
        "nonpure_dual_exchange": _check_json(satisfies_nonpure_dual_exchange(ideal)),
    }
    code = EXIT_OK
    try:
        cw, sep = _componentwise_verdicts(ideal)
        verdicts["componentwise_polymatroidal"] = _check_json(cw, degree=cw.degree)
        verdicts["componentwise_sep"] = {"ok": sep}
    except DegreeGuardError as exc:
        # only the componentwise verdicts need the components
        code = EXIT_INCONCLUSIVE
        skipped = {"skipped": "degree-guard", "degree": exc.degree}
        verdicts["componentwise_polymatroidal"] = verdicts["componentwise_sep"] = skipped
    if ideal.is_equigenerated:
        poly = is_polymatroidal(ideal)
        verdicts["polymatroidal"] = _check_json(poly)
        if poly.ok:
            verdicts["strong_exchange"] = _check_json(satisfies_strong_exchange(ideal))
    report = {
        "schema": SCHEMA,
        "command": "classify",
        "input": _digest(ideal),
        "warnings": [] if parsed.was_minimal else ["input-not-minimal"],
        "verdicts": verdicts,
    }
    if ideal.nvars == 2:
        s, t, core, cls = tight_factorization(ideal)
        st = cwp_structural(ideal)
        report["bivariate"] = {
            "shift_monomial": [s, t],
            "kind": cls.kind,
            "join_indices": list(cls.join_indices),
            "interval": list(cls.interval),
            "structural_ok": st.ok,
            "valley": st.valley,
        }
    report["timing_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    _emit(report, args)
    return code


def _cmd_order(args) -> int:
    parsed = _read_ideal(args.input)
    ideal = parsed.ideal
    budget = args.budget
    t0 = time.perf_counter()
    outcome = find_admissible_order(ideal, budget)
    report = {
        "schema": SCHEMA,
        "command": "order",
        "input": _digest(ideal),
        "warnings": [] if parsed.was_minimal else ["input-not-minimal"],
        "status": outcome.status,
        "nodes": outcome.nodes,
        "order": [list(g) for g in outcome.order] if outcome.order else None,
    }
    if outcome.witness is not None:
        report["disconnected"] = [list(g) for g in outcome.witness]
    if outcome.status == FOUND:
        report["verified"] = bool(
            is_admissible_order(GeneratorOrder(ideal, outcome.order))
        )
    if ideal.nvars == 2:
        st = cwp_structural(ideal)
        if st.ok:
            vo = valley_order(ideal)
            report["pivot_order"] = [list(g) for g in vo.order]
            report["pivot_valley"] = st.valley
    report["timing_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    _emit(report, args)
    if outcome.status == FOUND:
        return EXIT_OK
    if outcome.status == EXHAUSTED:
        return EXIT_PREDICATE_FALSE
    return EXIT_INCONCLUSIVE


def _cmd_verify_order(args) -> int:
    parsed = _read_ideal(args.input)
    ideal = parsed.ideal
    # the order file is in the ideal text format, its rows in sequence
    _, order_rows = parse_rows(_read_text(args.order), ideal.nvars)
    order = GeneratorOrder(ideal, tuple(order_rows))
    chk = is_admissible_order(order)
    report = {
        "schema": SCHEMA,
        "command": "verify-order",
        "input": _digest(ideal),
        "order": [list(g) for g in order.order],
        "admissible": chk.ok,
        "fail_index": chk.fail_index,
    }
    _emit(report, args)
    return EXIT_OK if chk.ok else EXIT_PREDICATE_FALSE


def _cmd_product(args) -> int:
    if len(args.input) != 2:
        raise ValueError("product needs exactly two --input files")
    pa = _read_ideal(args.input[0])
    pb = _read_ideal(args.input[1])
    result = product(pa.ideal, pb.ideal)
    report = {
        "schema": SCHEMA,
        "command": "product",
        "inputs": [_digest(pa.ideal), _digest(pb.ideal)],
        "product": _digest(result),
    }
    if not result.is_zero:
        cw = is_componentwise_polymatroidal(result)
        report["componentwise_polymatroidal"] = _check_json(cw, degree=cw.degree)
        if result.nvars == 2:
            s, t, core, cls = tight_factorization(result)
            report["bivariate"] = {
                "shift_monomial": [s, t],
                "kind": cls.kind,
                "join_indices": list(cls.join_indices),
            }
    _emit_report_only_if_asked(report, args)
    print(serialize_ideal(result), end="")
    return EXIT_OK


def _cmd_component(args) -> int:
    parsed = _read_ideal(args.input)
    comp = graded_component(parsed.ideal, args.degree)
    report = {
        "schema": SCHEMA,
        "command": "component",
        "input": _digest(parsed.ideal),
        "degree": args.degree,
        "component": _digest(comp),
    }
    _emit_report_only_if_asked(report, args)
    print(serialize_ideal(comp), end="")
    return EXIT_OK


def _cmd_sep_order(args) -> int:
    parsed = _read_ideal(args.input)
    ideal = parsed.ideal
    try:
        order = sep_admissible_order(ideal)
    except ValueError as exc:
        report = {
            "schema": SCHEMA,
            "command": "sep-order",
            "input": _digest(ideal),
            "ok": False,
            "reason": str(exc),
        }
        if isinstance(exc, NotComponentwiseSEPError):
            report["degree"] = exc.degree
            report["witness"] = _witness_json(exc.witness)
        _emit(report, args)
        return EXIT_PREDICATE_FALSE
    chk = is_admissible_order(order)
    report = {
        "schema": SCHEMA,
        "command": "sep-order",
        "input": _digest(ideal),
        "ok": True,
        "order": [list(g) for g in order.order],
        "colon_variables": [list(vs) for vs in order_colon_variables(order)],
        "verified": chk.ok,
    }
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# conjecture search


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
    key = json.dumps(
        [
            cfg.nvars_lo,
            cfg.nvars_hi,
            cfg.max_exp,
            cfg.max_gens,
            cfg.exhaustive,
            cfg.seed,
            cfg.count,
            cfg.budget,
            cfg.symmetry_reduce,
        ]
    )
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _is_orbit_representative(ideal: MonomialIdeal) -> bool:
    """Is this ideal the least of its variable permutations, in canonical form?"""
    base = ideal.gens
    for perm in itertools.permutations(range(ideal.nvars)):
        permuted = tuple(
            sorted(
                (tuple(g[p] for p in perm) for g in base),
                key=lambda g: (sum(g), g),
                reverse=True,
            )
        )
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


def question1_search(cfg: SearchConfig) -> SearchSummary:
    """Scan ideals with componentwise linear quotients for ones where the
    global admissible-order search does not succeed.

    Every scanned case whose global search did not return ``found`` is
    appended to the output file as one JSON line: exhausted global
    searches are flagged ``candidate-counterexample`` (a verified proof
    that no admissible order exists, despite componentwise linear
    quotients), budget-exceeded searches and budget-limited componentwise
    checks are flagged ``inconclusive``.  The summary counts all cases.
    """
    start = _load_checkpoint(cfg)
    summary = SearchSummary(symmetry_reduce=cfg.symmetry_reduce)
    processed_here = 0
    index = -1
    ran_off_end = True
    with open(cfg.out_path, "a", encoding="utf-8") as out:
        for index, ideal in enumerate(_iter_search_space(cfg)):
            if index < start:
                continue
            if cfg.limit is not None and processed_here >= cfg.limit:
                ran_off_end = False
                break
            processed_here += 1
            if cfg.symmetry_reduce and not _is_orbit_representative(ideal):
                summary.skipped_symmetry += 1
                _save_checkpoint(cfg, index + 1, out)
                continue
            summary.scanned += 1
            record = None
            cw = has_componentwise_linear_quotients(ideal, cfg.budget)
            if cw.value is True:
                summary.cw_true += 1
                res = find_admissible_order(ideal, cfg.budget)
                if res.status == FOUND:
                    summary.found += 1
                elif res.status == EXHAUSTED:
                    summary.candidates += 1
                    record = {
                        "flag": "candidate-counterexample",
                        "status": res.status,
                        "nodes": res.nodes,
                    }
                else:
                    summary.budget_exceeded += 1
                    record = {
                        "flag": "inconclusive",
                        "status": res.status,
                        "nodes": res.nodes,
                    }
            elif cw.value is False:
                summary.cw_false += 1
            else:
                summary.cw_unknown += 1
                record = {
                    "flag": "inconclusive",
                    "status": "componentwise-unknown",
                    "nodes": sum(o.nodes for o in cw.outcomes.values()),
                }
            if record is not None:
                record.update(
                    {
                        "schema": SCHEMA,
                        "index": index,
                        "nvars": ideal.nvars,
                        "gens": _gens_json(ideal),
                    }
                )
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
            _save_checkpoint(cfg, index + 1, out)
    summary.stopped_at = index + 1 if ran_off_end else start + processed_here
    summary.complete = ran_off_end
    return summary


def _parse_nvars(spec: str):
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return int(lo), int(hi)
    n = int(spec)
    return n, n


def _cmd_search(args) -> int:
    lo, hi = _parse_nvars(args.nvars)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad --nvars range: {args.nvars}")
    cfg = SearchConfig(
        nvars_lo=lo,
        nvars_hi=hi,
        max_exp=args.max_exp,
        max_gens=args.max_gens,
        exhaustive=args.exhaustive,
        seed=args.seed,
        count=args.count,
        budget=args.budget,
        out_path=args.out,
        checkpoint_path=args.checkpoint,
        limit=args.limit,
        symmetry_reduce=args.symmetry_reduce,
    )
    summary = question1_search(cfg)
    report = {"schema": SCHEMA, "command": "search", "summary": summary.as_dict()}
    print(json.dumps(report, indent=2, sort_keys=True))
    if summary.candidates:
        return EXIT_PREDICATE_FALSE
    if summary.budget_exceeded or summary.cw_unknown:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyquot",
        description="Monomial ideal classification, admissible orders, and "
        "conjecture searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, inputs=1):
        if inputs == 1:
            p.add_argument("--input", required=True, help="ideal file ('-' for stdin)")
        else:
            p.add_argument(
                "--input",
                action="append",
                required=True,
                help="ideal file; repeat for multiple inputs",
            )
        p.add_argument("--json", action="store_true", help="print the JSON report")
        p.add_argument("--out", help="write the JSON report to this file")

    p = sub.add_parser("classify", help="run every exchange predicate")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("order", help="search for an admissible order")
    add_common(p)
    p.add_argument("--budget", type=int, default=_default_budget())
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("verify-order", help="check a supplied generator order")
    add_common(p)
    p.add_argument("--order", required=True, help="file with the ordered exponent rows")
    p.set_defaults(func=_cmd_verify_order)

    p = sub.add_parser("product", help="multiply two ideals and classify the result")
    add_common(p, inputs=2)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("component", help="extract a graded component")
    add_common(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_component)

    p = sub.add_parser("sep-order", help="admissible order via strong-exchange chains")
    add_common(p)
    p.set_defaults(func=_cmd_sep_order)

    p = sub.add_parser("search", help="scan for counterexample candidates")
    p.add_argument("--nvars", required=True, help="variable count or range (e.g. 2 or 2-3)")
    p.add_argument("--max-exp", type=int, required=True)
    p.add_argument("--max-gens", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="random draws (non-exhaustive)")
    p.add_argument("--budget", type=int, default=_default_budget())
    p.add_argument("--out", required=True, help="line-delimited JSON output")
    p.add_argument("--checkpoint", help="checkpoint file for resume")
    p.add_argument("--limit", type=int, help="process at most N ideals this run")
    p.add_argument(
        "--symmetry-reduce",
        action="store_true",
        help="scan only one representative per variable permutation orbit",
    )
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ChainVerificationError) as exc:
        print(f"polyquot: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
