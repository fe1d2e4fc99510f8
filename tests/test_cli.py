"""Command-line front end: reports, exit codes, search determinism, resume."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyquot.ideal
import polyquot.search
from polyquot import (
    GeneratorOrder,
    graded_component,
    is_admissible_order,
    minimalize,
    order_colon_variables,
    satisfies_nonpure_dual_exchange,
    satisfies_nonpure_exchange,
    serialize_ideal,
)
from polyquot.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PREDICATE_FALSE,
    SearchConfig,
    main,
    question1_search,
)
from polyquot.search import _config_digest
from conftest import ideal, DUAL_ONLY, SEVEN_GENS, SEVEN_ORDER, SQUARE_REGRESSION
from oracles import naive_exchange_witness


def write_ideal(tmp_path, name, I):
    path = tmp_path / name
    path.write_text(serialize_ideal(I))
    return str(path)


def test_classify_report(tmp_path, capsys):
    I = ideal(4, *DUAL_ONLY)
    path = write_ideal(tmp_path, "i.txt", I)
    code = main(["classify", "--input", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["schema"] == 1
    v = report["verdicts"]
    assert v["nonpure_dual_exchange"]["ok"] is True
    assert v["nonpure_exchange"]["ok"] is False
    assert v["componentwise_polymatroidal"]["ok"] is False
    assert v["componentwise_polymatroidal"]["degree"] == 3


def test_classify_report_is_replayable(tmp_path, capsys):
    I = ideal(4, *DUAL_ONLY)
    path = write_ideal(tmp_path, "i.txt", I)
    main(["classify", "--input", path])
    report = json.loads(capsys.readouterr().out)
    embedded = minimalize(
        report["input"]["nvars"], [tuple(g) for g in report["input"]["gens"]]
    )
    assert embedded == I
    assert report["verdicts"]["nonpure_exchange"]["ok"] == bool(
        satisfies_nonpure_exchange(embedded)
    )
    assert report["verdicts"]["nonpure_dual_exchange"]["ok"] == bool(
        satisfies_nonpure_dual_exchange(embedded)
    )
    w = report["verdicts"]["nonpure_exchange"]["witness"]
    assert tuple(w["u"]) in embedded.gen_set and tuple(w["v"]) in embedded.gen_set


def test_classify_bivariate_block(tmp_path, capsys):
    I = ideal(2, *SEVEN_GENS)
    path = write_ideal(tmp_path, "i.txt", I)
    main(["classify", "--input", path])
    report = json.loads(capsys.readouterr().out)
    assert report["bivariate"]["shift_monomial"] == [3, 2]
    assert report["bivariate"]["kind"] == "strict-yx-tight"
    assert report["bivariate"]["valley"] == 4


def test_classify_warns_on_non_minimal(tmp_path, capsys):
    path = tmp_path / "i.txt"
    path.write_text("n=2\n2 0\n3 0\n")
    main(["classify", "--input", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert report["warnings"] == ["input-not-minimal"]


def test_classify_degree_guard_skips_componentwise(tmp_path, capsys):
    # the guard costs only the two componentwise verdicts: the report is
    # emitted with them skipped at the degree the sweep refused, the rest
    # equals their predicates' checks, and the exit is inconclusive
    path = tmp_path / "i.txt"
    for gens, degree in ((((70, 0), (0, 70)), 70), (((60, 0), (0, 70)), 65)):
        I = ideal(2, *gens)
        path.write_text(serialize_ideal(I))
        assert main(["classify", "--input", str(path)]) == EXIT_INCONCLUSIVE
        out = capsys.readouterr()
        assert out.err == ""
        report = json.loads(out.out)
        verdicts = report["verdicts"]
        skipped = {"skipped": "degree-guard", "degree": degree}
        assert verdicts["componentwise_polymatroidal"] == skipped
        assert verdicts["componentwise_sep"] == skipped
        assert verdicts["nonpure_exchange"]["ok"] is satisfies_nonpure_exchange(I).ok
        assert verdicts["nonpure_dual_exchange"]["ok"] is (
            satisfies_nonpure_dual_exchange(I).ok)
        assert report["bivariate"]["kind"] == "not-tight"


def test_classify_sweeps_components_once(capsys, monkeypatch):
    # both componentwise verdicts of a classify report come from one sweep
    # over the graded components
    sweeps = []
    orig = polyquot.ideal.graded_components

    def counted(*args):
        sweeps.append(args)
        return orig(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("polyquot") and vars(module).get("graded_components") is orig:
            monkeypatch.setattr(module, "graded_components", counted)
    main(["classify", "--input", str(DATA / "golden" / "seven.txt")])
    capsys.readouterr()
    assert len(sweeps) == 1


def test_order_command(tmp_path, capsys):
    I = ideal(2, *SEVEN_GENS)
    path = write_ideal(tmp_path, "i.txt", I)
    code = main(["order", "--input", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["status"] == "found" and report["verified"] is True
    assert "disconnected" not in report
    assert report["pivot_order"] == [list(g) for g in SEVEN_ORDER]


def test_order_exhausted_exit_code(tmp_path, capsys):
    # decided by the connectivity refuter: no exchange step joins the pair.
    # (x^2, y^3) is refuted on its degree-3 layer, which no colon of one
    # variable joins to x^2
    for gens, pair in ([(3, 0), (0, 3)], [[3, 0], [0, 3]]), (
            [(2, 0), (0, 3)], [[2, 0], [0, 3]]):
        path = write_ideal(tmp_path, "i.txt", ideal(2, *gens))
        code = main(["order", "--input", path])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PREDICATE_FALSE
        assert report["status"] == "exhausted"
        assert report["nodes"] == 0
        assert report["disconnected"] == pair


def test_verify_order_command(tmp_path, capsys):
    I = ideal(2, *SEVEN_GENS)
    ipath = write_ideal(tmp_path, "i.txt", I)
    good = tmp_path / "good.txt"
    good.write_text(
        "n=2\n" + "\n".join(" ".join(map(str, g)) for g in SEVEN_ORDER) + "\n"
    )
    code = main(["verify-order", "--input", ipath, "--order", str(good)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and report["admissible"] is True
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "n=2\n" + "\n".join(" ".join(map(str, g)) for g in sorted(I.gens, reverse=True)) + "\n"
    )
    code = main(["verify-order", "--input", ipath, "--order", str(bad)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PREDICATE_FALSE
    assert report["fail_index"] == 2


# SEVEN_ORDER in the order-file format
SEVEN_TEXT = "n=2\n" + "".join(f"{a} {b}\n" for a, b in SEVEN_ORDER)


@pytest.mark.parametrize(
    "text, message",
    [
        # header disagreeing with the ideal's variable count
        ("n=3\n5 6 0\n", "line 1, column 1: header declares 3 variables, expected 2"),
        # a header-like first line that is not 'n=<count>'
        ("nvars 2\n5 6\n", "line 1, column 1: expected header 'n=<count>'"),
        ("5 6\n4 12\n", "line 1, column 1: expected header 'n=<count>'"),
        # bad tokens carry their line and column
        ("n=2\n5 6\n# note\n4 x1\n", "line 4, column 3: exponent 'x1' is not an integer"),
        ("n=2\n5 6\n  -4 12\n", "line 3, column 3: exponent -4 is negative"),
        ("n=2\n5 6 0\n", "line 2, column 1: expected 2 exponents, got 3"),
        # well-formed rows that are not a permutation of G(I)
        (SEVEN_TEXT.replace("4 12", "4 11"),
         "order is not a permutation of the minimal generators: "
         "position 1 (4 11) is not a minimal generator"),
        (SEVEN_TEXT.replace("4 12", "5 6"),
         "order is not a permutation of the minimal generators: "
         "position 1 (5 6) repeats position 0"),
        (SEVEN_TEXT.replace("4 12\n", ""),
         "order is not a permutation of the minimal generators: "
         "minimal generator (4 12) is missing"),
    ],
    ids=["header-mismatch", "loose-header", "no-header", "bad-token",
         "negative", "row-length", "not-a-generator", "repeated-row",
         "missing-generator"],
)
def test_verify_order_rejects_malformed_order_file(tmp_path, capsys, text, message):
    ipath = write_ideal(tmp_path, "i.txt", ideal(2, *SEVEN_GENS))
    opath = tmp_path / "order.txt"
    opath.write_text(text)
    code = main(["verify-order", "--input", ipath, "--order", str(opath)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert f"polyquot: error: {message}" in captured.err


DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
GOLDEN_INPUTS = {p.stem: p for p in GOLDEN.glob("*.txt")}
GOLDEN_INPUTS["i3"] = DATA / "i3.txt"


@pytest.mark.parametrize("command", ["classify", "sep-order"])
@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_golden_reports(capsys, name, command):
    # `polyquot <command> --input <name>.txt --json` with the timing_ms line
    # dropped must reproduce tests/data/golden/<name>.<command>.json byte
    # for byte
    code = main([command, "--input", str(GOLDEN_INPUTS[name]), "--json"])
    out = capsys.readouterr().out
    text = "".join(
        line for line in out.splitlines(True)
        if not line.startswith('  "timing_ms": ')
    )
    assert text == (GOLDEN / f"{name}.{command}.json").read_text()
    ok = command == "classify" or json.loads(text)["ok"]
    assert code == (EXIT_OK if ok else EXIT_PREDICATE_FALSE)


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_sep_order_failure_replays(capsys, name):
    # a failed sep-order report names the lowest component failing strong
    # exchange and the oracle's first witness there
    main(["sep-order", "--input", str(GOLDEN_INPUTS[name]), "--json"])
    report = json.loads(capsys.readouterr().out)
    if report["ok"]:
        assert "degree" not in report and "witness" not in report
        return
    I = minimalize(report["input"]["nvars"],
                   [tuple(g) for g in report["input"]["gens"]])
    j = report["degree"]
    for lower in range(I.mindeg, j):
        assert naive_exchange_witness(graded_component(I, lower), "strong") is None
    w = report["witness"]
    u, v, index, missing = naive_exchange_witness(graded_component(I, j), "strong")
    assert (w["u"], w["v"], w["var"], w["missing"]) == (
        list(u), list(v), index, list(missing)
    )


def test_product_command(tmp_path, capsys):
    A = ideal(2, (2, 0), (1, 2), (0, 3))
    B = ideal(2, (3, 0), (1, 1), (0, 2))
    pa = write_ideal(tmp_path, "a.txt", A)
    pb = write_ideal(tmp_path, "b.txt", B)
    code = main(["product", "--input", pa, "--input", pb, "--json"])
    out = capsys.readouterr().out
    report = json.loads(out[: out.index("\nn=") + 1])
    assert code == EXIT_OK
    assert report["bivariate"]["kind"] in (
        "strict-yx-tight", "x-tight", "y-tight", "xy-tight"
    )
    assert report["componentwise_polymatroidal"]["ok"] is True


def test_product_degree_guard_skips_componentwise(tmp_path, capsys):
    # the product (x^35)(y^35) has its only generator in degree 70, past
    # the guard: the report skips the componentwise verdict, the product is
    # still printed, and the exit is inconclusive
    pa = write_ideal(tmp_path, "a.txt", ideal(2, (35, 0)))
    pb = write_ideal(tmp_path, "b.txt", ideal(2, (0, 35)))
    code = main(["product", "--input", pa, "--input", pb, "--json"])
    out = capsys.readouterr()
    assert code == EXIT_INCONCLUSIVE and out.err == ""
    cut = out.out.index("\nn=") + 1
    report = json.loads(out.out[:cut])
    assert report["componentwise_polymatroidal"] == {
        "skipped": "degree-guard", "degree": 70}
    assert report["product"]["gens"] == [[35, 35]]
    assert "bivariate" in report
    assert out.out[cut:] == serialize_ideal(ideal(2, (35, 35)))


def test_component_command(tmp_path, capsys):
    I = ideal(4, *DUAL_ONLY)
    path = write_ideal(tmp_path, "i.txt", I)
    code = main(["component", "--input", path, "--degree", "3", "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "1 0 1 1" not in out
    assert [2, 1, 0, 0] in json.loads(out[: out.index("\nn=") + 1])["component"]["gens"]


def test_sep_order_command(tmp_path, capsys):
    I = ideal(3, *SQUARE_REGRESSION)
    path = write_ideal(tmp_path, "i.txt", I)
    code = main(["sep-order", "--input", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and report["verified"] is True
    order = GeneratorOrder(I, tuple(tuple(g) for g in report["order"]))
    assert is_admissible_order(order)
    # the audit comes from the walk that checked the order
    assert report["colon_variables"] == [list(vs) for vs in order_colon_variables(order)]
    bad = write_ideal(tmp_path, "bad.txt", ideal(2, (3, 0), (0, 3)))
    assert main(["sep-order", "--input", bad]) == EXIT_PREDICATE_FALSE


def test_cli_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["classify", "--input", missing]) == EXIT_ERROR
    bad = tmp_path / "bad.txt"
    bad.write_text("n=2\n1 x\n")
    assert main(["classify", "--input", str(bad)]) == EXIT_ERROR
    capsys.readouterr()


def test_cli_runs_as_module(tmp_path):
    path = tmp_path / "i.txt"
    path.write_text("n=2\n1 0\n0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "polyquot", "classify", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdicts"]["componentwise_polymatroidal"]["ok"]


# ---------------------------------------------------------------------------
# the conjecture search


def search_config(tmp_path, **kw):
    defaults = dict(
        nvars_lo=2,
        nvars_hi=2,
        max_exp=3,
        max_gens=3,
        exhaustive=True,
        seed=0,
        count=50,
        budget=10**6,
        out_path=str(tmp_path / "out.jsonl"),
        checkpoint_path=None,
        limit=None,
    )
    defaults.update(kw)
    return SearchConfig(**defaults)


def test_search_scans_expected_family(tmp_path):
    cfg = search_config(tmp_path)
    summary = question1_search(cfg)
    # bivariate antichains, exponents <= 3, up to 3 generators
    assert summary.scanned == sum(
        __import__("math").comb(4, k) ** 2 for k in (1, 2, 3)
    )
    assert summary.candidates == 0
    assert summary.cw_true == summary.found


def test_search_random_mode_deterministic(tmp_path):
    cfg1 = search_config(
        tmp_path, exhaustive=False, seed=11, count=60,
        out_path=str(tmp_path / "r1.jsonl"),
    )
    cfg2 = search_config(
        tmp_path, exhaustive=False, seed=11, count=60,
        out_path=str(tmp_path / "r2.jsonl"),
    )
    s1 = question1_search(cfg1)
    s2 = question1_search(cfg2)
    assert s1 == s2
    assert (tmp_path / "r1.jsonl").read_bytes() == (tmp_path / "r2.jsonl").read_bytes()


def test_search_checkpoint_resume_identical(tmp_path):
    full = search_config(tmp_path, out_path=str(tmp_path / "full.jsonl"))
    question1_search(full)

    part = search_config(
        tmp_path,
        out_path=str(tmp_path / "part.jsonl"),
        checkpoint_path=str(tmp_path / "ck.json"),
        limit=25,
    )
    first = question1_search(part)
    assert not first.complete
    rest = search_config(
        tmp_path,
        out_path=str(tmp_path / "part.jsonl"),
        checkpoint_path=str(tmp_path / "ck.json"),
        limit=None,
    )
    second = question1_search(rest)
    assert second.complete
    assert (tmp_path / "part.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()


# writes 6 records, at indices 16, 34, 124, 148, 166 and 180
RANDOM_SEARCH = dict(exhaustive=False, nvars_hi=3, seed=5, count=200, budget=2)


def test_search_random_mode_resume(tmp_path):
    full = search_config(
        tmp_path, out_path=str(tmp_path / "rfull.jsonl"), **RANDOM_SEARCH
    )
    question1_search(full)
    part = search_config(
        tmp_path, out_path=str(tmp_path / "rpart.jsonl"),
        checkpoint_path=str(tmp_path / "rck.json"), limit=130, **RANDOM_SEARCH
    )
    question1_search(part)
    # the records straddle the stop, so the resume has records to reproduce
    # on both sides of it
    before = (tmp_path / "rpart.jsonl").read_bytes().count(b"\n")
    rest = search_config(
        tmp_path, out_path=str(tmp_path / "rpart.jsonl"),
        checkpoint_path=str(tmp_path / "rck.json"), **RANDOM_SEARCH
    )
    question1_search(rest)
    after = (tmp_path / "rpart.jsonl").read_bytes().count(b"\n")
    assert 0 < before < after
    assert (tmp_path / "rpart.jsonl").read_bytes() == (tmp_path / "rfull.jsonl").read_bytes()


def test_search_config_digest_pinned(tmp_path):
    # a checkpoint names its configuration by this digest, so a change to
    # it would refuse every existing checkpoint; output path, checkpoint
    # path and limit do not enter it
    cfg = search_config(
        tmp_path, exhaustive=False, nvars_hi=3, seed=5, count=200, budget=5
    )
    assert _config_digest(cfg) == "72b5ddedf40446f7"
    other = dataclasses.replace(
        cfg, nvars_hi=2, exhaustive=True, symmetry_reduce=True,
        out_path="other.jsonl", checkpoint_path="ck.json", limit=7,
    )
    assert _config_digest(other) == "74654f96b78851c8"


def test_search_summary_stopped_at_and_complete(tmp_path):
    # (stopped_at, complete, scanned) over the 68 ideals of search_config
    ck = str(tmp_path / "ck.json")

    def run(name, **kw):
        s = question1_search(search_config(tmp_path, out_path=str(tmp_path / name), **kw))
        return s.stopped_at, s.complete, s.scanned

    assert run("straight.jsonl") == (68, True, 68)
    assert run("limit.jsonl", limit=25) == (25, False, 25)
    assert run("zero.jsonl", limit=0) == (0, False, 0)
    assert run("last.jsonl", limit=68) == (68, True, 68)
    assert run("sym.jsonl", limit=40, symmetry_reduce=True) == (40, False, 25)
    assert run("resume.jsonl", limit=25, checkpoint_path=ck) == (25, False, 25)
    assert run("resume.jsonl", checkpoint_path=ck) == (68, True, 43)
    assert run("resume.jsonl", checkpoint_path=ck) == (68, True, 0)


def test_golden_search_jsonl(tmp_path, capsys):
    # `polyquot search` on RANDOM_SEARCH must reproduce
    # tests/data/golden/search.jsonl byte for byte
    out = tmp_path / "search.jsonl"
    code = main([
        "search", "--nvars", "2-3", "--max-exp", "3", "--max-gens", "3",
        "--seed", "5", "--count", "200", "--budget", "2", "--out", str(out),
    ])
    assert code == EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().out)["summary"]["cw_unknown"] == 2
    assert out.read_bytes() == (GOLDEN / "search.jsonl").read_bytes()


def test_search_resume_after_record_without_checkpoint(tmp_path, monkeypatch):
    # a run stopped after a record is flushed but before the checkpoint
    # that covers it is written: the resume must not write the record twice
    kw = RANDOM_SEARCH
    full = search_config(tmp_path, out_path=str(tmp_path / "full.jsonl"), **kw)
    question1_search(full)
    part = search_config(
        tmp_path, out_path=str(tmp_path / "part.jsonl"),
        checkpoint_path=str(tmp_path / "ck.json"), **kw,
    )
    save = polyquot.search._save_checkpoint
    saved_size = [0]
    grown = []

    def fail_on_second_record(cfg, *args):
        size = os.path.getsize(cfg.out_path)
        if size > saved_size[0]:
            grown.append(size)
            if len(grown) == 2:
                raise RuntimeError("stopped between record and checkpoint")
        save(cfg, *args)
        saved_size[0] = size

    monkeypatch.setattr(polyquot.search, "_save_checkpoint", fail_on_second_record)
    with pytest.raises(RuntimeError):
        question1_search(part)
    monkeypatch.undo()
    assert os.path.getsize(part.out_path) > saved_size[0] > 0
    assert question1_search(part).complete
    assert (tmp_path / "part.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()
    (tmp_path / "part.jsonl").write_text("")
    with pytest.raises(ValueError, match="fewer than"):
        question1_search(part)
    # a checkpoint of the earlier format, without the output length
    ck = json.loads((tmp_path / "ck.json").read_text())
    del ck["out_bytes"]
    (tmp_path / "ck.json").write_text(json.dumps(ck))
    with pytest.raises(ValueError, match="older version .* fresh output file"):
        question1_search(part)


def test_search_checkpoint_rejects_other_config(tmp_path):
    cfg = search_config(tmp_path, checkpoint_path=str(tmp_path / "ck.json"), limit=5)
    question1_search(cfg)
    other = search_config(
        tmp_path,
        max_exp=2,
        checkpoint_path=str(tmp_path / "ck.json"),
    )
    with pytest.raises(ValueError):
        question1_search(other)


def test_search_box_guard(tmp_path):
    cfg = search_config(tmp_path, max_exp=30)
    with pytest.raises(ValueError):
        list(question1_search(cfg))


def test_search_records_are_flagged(tmp_path):
    # a tiny budget forces inconclusive records
    cfg = search_config(tmp_path, budget=1, out_path=str(tmp_path / "tiny.jsonl"))
    summary = question1_search(cfg)
    lines = (tmp_path / "tiny.jsonl").read_text().splitlines()
    assert summary.cw_unknown > 0
    assert len(lines) == summary.cw_unknown + summary.budget_exceeded + summary.candidates
    from oracles import naive_has_admissible_order

    for line in lines:
        rec = json.loads(line)
        assert rec["flag"] in ("inconclusive", "candidate-counterexample")
        assert rec["schema"] == 1
        embedded = minimalize(rec["nvars"], [tuple(g) for g in rec["gens"]])
        assert len(embedded.gens) == len(rec["gens"])
        if rec["flag"] == "candidate-counterexample":
            # a candidate's exhausted verdict must survive the factorial oracle
            assert not naive_has_admissible_order(embedded, cap=7)


def test_budget_option(tmp_path, capsys):
    I = ideal(2, *SEVEN_GENS)
    path = write_ideal(tmp_path, "i.txt", I)
    code = main(["order", "--input", path, "--budget", "2"])
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "budget-exceeded"
    assert code == 3


def test_search_symmetry_reduction(tmp_path):
    base = question1_search(search_config(tmp_path, out_path=str(tmp_path / "all.jsonl")))
    reduced = question1_search(
        search_config(
            tmp_path,
            symmetry_reduce=True,
            out_path=str(tmp_path / "red.jsonl"),
        )
    )
    assert reduced.symmetry_reduce and reduced.skipped_symmetry > 0
    assert reduced.scanned + reduced.skipped_symmetry == base.scanned
    assert reduced.candidates == base.candidates == 0


def test_search_cli_entry(tmp_path, capsys):
    out = tmp_path / "cli.jsonl"
    code = main([
        "search", "--nvars", "2", "--max-exp", "2", "--max-gens", "2",
        "--exhaustive", "--out", str(out), "--seed", "0",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["summary"]["candidates"] == 0
    assert report["summary"]["complete"] is True
    # a bad --nvars range and a negative --limit are usage errors that
    # scan nothing
    bad = tmp_path / "bad.jsonl"
    for args in (["--nvars", "3-2"], ["--nvars", "2", "--limit", "-1"]):
        code = main(["search", *args, "--max-exp", "2", "--max-gens", "2",
                     "--exhaustive", "--out", str(bad)])
        assert code == EXIT_ERROR and not bad.exists()
    assert "negative limit: -1" in capsys.readouterr().err
