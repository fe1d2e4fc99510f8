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
of budget or ``classify`` or ``product`` skipped a componentwise verdict at
the degree guard (inconclusive); 2 on usage or input errors.

This module parses arguments and writes reports; the conjecture search
itself is :mod:`polyquot.search`.  Every report is JSON with a ``schema``
field, built by one header function and written by one emit function;
witnesses carry full exponent vectors and 0-based variable indices, so
every verdict can be replayed from the report alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from typing import Optional

from .ideal import DegreeGuardError, MonomialIdeal, ZeroIdealError, graded_component, product
from .exchange import (
    _componentwise_verdicts,
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
    is_admissible_order,
)
from .bivariate import _pivot, cwp_structural, tight_factorization
from .chains import (
    ChainVerificationError,
    NotComponentwiseSEPError,
    _sep_order,
)
from .search import SCHEMA, SearchConfig, question1_search
from .textio import parse_ideal_details, parse_rows, serialize_ideal

EXIT_OK = 0
EXIT_PREDICATE_FALSE = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# report helpers


def _digest(ideal: MonomialIdeal):
    return {
        "nvars": ideal.nvars,
        "num_gens": len(ideal.gens),
        "gens": [list(g) for g in ideal.gens],
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


def _report(command: str, *parsed, warnings: bool = False, **entries) -> dict:
    """A report: the schema, the command, the digest of each parsed input
    (``input`` for one, ``inputs`` for several), the ``warnings`` of the
    first input when asked for, and ``entries``."""
    report = {"schema": SCHEMA, "command": command, **entries}
    if len(parsed) == 1:
        report["input"] = _digest(parsed[0].ideal)
    elif parsed:
        report["inputs"] = [_digest(p.ideal) for p in parsed]
    if warnings:
        report["warnings"] = [] if parsed[0].was_minimal else ["input-not-minimal"]
    return report


def _emit(report: dict, args, ideal: Optional[MonomialIdeal] = None) -> None:
    """Write the report to ``--out`` and print it.  A command that gives
    ``ideal`` prints that ideal in the text format, and its report only
    with ``--json``."""
    text = json.dumps(report, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if getattr(args, "json", False) or (ideal is None and not out):
        print(text)
    if ideal is not None:
        print(serialize_ideal(ideal), end="")


def _componentwise_entries(ideal: MonomialIdeal):
    """The ``componentwise_polymatroidal`` and ``componentwise_sep`` entries
    from one sweep and the exit code.  A sweep that reaches the degree
    guard skips both, inconclusively."""
    try:
        cw, strong = _componentwise_verdicts(ideal)
    except DegreeGuardError as exc:
        # only the componentwise verdicts need the components
        skipped = {"skipped": "degree-guard", "degree": exc.degree}
        return skipped, skipped, EXIT_INCONCLUSIVE
    return _check_json(cw, degree=cw.degree), {"ok": strong}, EXIT_OK


def _tight_entries(ideal: MonomialIdeal):
    """The tight class and the ``bivariate`` entries classify and product share."""
    s, t, _, cls = tight_factorization(ideal)
    return cls, {"shift_monomial": [s, t], "kind": cls.kind,
                 "join_indices": list(cls.join_indices)}


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(args) -> int:
    parsed = _read_ideal(args.input)
    ideal = parsed.ideal
    if ideal.is_zero:
        raise ZeroIdealError("cannot classify the zero ideal")
    t0 = time.perf_counter()
    cw, sep, code = _componentwise_entries(ideal)
    verdicts = {
        "nonpure_exchange": _check_json(satisfies_nonpure_exchange(ideal)),
        "nonpure_dual_exchange": _check_json(satisfies_nonpure_dual_exchange(ideal)),
        "componentwise_polymatroidal": cw,
        "componentwise_sep": sep,
    }
    if ideal.is_equigenerated:
        poly = is_polymatroidal(ideal)
        verdicts["polymatroidal"] = _check_json(poly)
        if poly.ok:
            verdicts["strong_exchange"] = _check_json(satisfies_strong_exchange(ideal))
    report = _report("classify", parsed, warnings=True, verdicts=verdicts)
    if ideal.nvars == 2:
        cls, report["bivariate"] = _tight_entries(ideal)
        st = cwp_structural(ideal)
        report["bivariate"].update(
            interval=list(cls.interval), structural_ok=st.ok, valley=st.valley
        )
    report["timing_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    _emit(report, args)
    return code


def _cmd_order(args) -> int:
    parsed = _read_ideal(args.input)
    ideal = parsed.ideal
    t0 = time.perf_counter()
    outcome = find_admissible_order(ideal, args.budget)
    report = _report(
        "order", parsed, warnings=True,
        status=outcome.status,
        nodes=outcome.nodes,
        order=[list(g) for g in outcome.order] if outcome.order else None,
    )
    if outcome.witness is not None:
        report["disconnected"] = [list(g) for g in outcome.witness]
    if outcome.status == FOUND:
        report["verified"] = bool(
            is_admissible_order(GeneratorOrder(ideal, outcome.order))
        )
    if ideal.nvars == 2:
        pivot = _pivot(ideal)
        if pivot is not None:
            report["pivot_order"] = [list(g) for g in pivot[1].order]
            report["pivot_valley"] = pivot[0]
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
    _emit(_report(
        "verify-order", parsed,
        order=[list(g) for g in order.order],
        admissible=chk.ok,
        fail_index=chk.fail_index,
    ), args)
    return EXIT_OK if chk.ok else EXIT_PREDICATE_FALSE


def _cmd_product(args) -> int:
    if len(args.input) != 2:
        raise ValueError("product needs exactly two --input files")
    pa = _read_ideal(args.input[0])
    pb = _read_ideal(args.input[1])
    result = product(pa.ideal, pb.ideal)
    report = _report("product", pa, pb, product=_digest(result))
    code = EXIT_OK
    if not result.is_zero:
        cw, _, code = _componentwise_entries(result)
        report["componentwise_polymatroidal"] = cw
        if result.nvars == 2:
            report["bivariate"] = _tight_entries(result)[1]
    _emit(report, args, result)
    return code


def _cmd_component(args) -> int:
    parsed = _read_ideal(args.input)
    comp = graded_component(parsed.ideal, args.degree)
    report = _report("component", parsed, degree=args.degree, component=_digest(comp))
    _emit(report, args, comp)
    return EXIT_OK


def _cmd_sep_order(args) -> int:
    parsed = _read_ideal(args.input)
    try:
        order, colons = _sep_order(parsed.ideal)
    except ValueError as exc:
        report = _report("sep-order", parsed, ok=False, reason=str(exc))
        if isinstance(exc, NotComponentwiseSEPError):
            report["degree"] = exc.degree
            report["witness"] = _witness_json(exc.witness)
        _emit(report, args)
        return EXIT_PREDICATE_FALSE
    # _sep_order walked every colon of the order and raises on one that is
    # not variable-generated: the order is verified
    _emit(_report(
        "sep-order", parsed,
        ok=True,
        order=[list(g) for g in order.order],
        colon_variables=[list(vs) for vs in colons],
        verified=True,
    ), args)
    return EXIT_OK


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
    # the search options are stored under the SearchConfig field names
    given = {f.name: getattr(args, f.name) for f in fields(SearchConfig) if f.name in args}
    cfg = SearchConfig(nvars_lo=lo, nvars_hi=hi, **given)
    summary = question1_search(cfg)
    # the search's --out is its JSONL (``out_path``): the report is printed
    _emit(_report("search", summary=summary.as_dict()), args)
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

    def add_command(name, func, help, inputs=1):
        # a command that reads ideals and writes a report
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
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
        return p

    add_command("classify", _cmd_classify, "run every exchange predicate")
    p = add_command("order", _cmd_order, "search for an admissible order")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p = add_command("verify-order", _cmd_verify_order, "check a supplied generator order")
    p.add_argument("--order", required=True, help="file with the ordered exponent rows")
    add_command("product", _cmd_product, "multiply two ideals and classify the result",
                inputs=2)
    p = add_command("component", _cmd_component, "extract a graded component")
    p.add_argument("--degree", type=int, required=True)
    add_command("sep-order", _cmd_sep_order, "admissible order via strong-exchange chains")

    p = sub.add_parser("search", help="scan for counterexample candidates")
    p.add_argument("--nvars", required=True, help="variable count or range (e.g. 2 or 2-3)")
    p.add_argument("--max-exp", type=int, required=True)
    p.add_argument("--max-gens", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100, help="random draws (non-exhaustive)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument(
        "--out", dest="out_path", metavar="OUT", required=True,
        help="line-delimited JSON output",
    )
    p.add_argument(
        "--checkpoint", dest="checkpoint_path", metavar="CHECKPOINT",
        help="checkpoint file for resume",
    )
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
