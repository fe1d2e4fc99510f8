"""Tests of the benchmark itself: its checks, tracing and result format.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import polyquot.quotients as Q  # noqa: E402
from polyquot import minimalize  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class _Corrupting(workloads.Workload):
    """A workload whose outputs pass through `corrupt` before checking."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt

    def run(self, item):
        return self.corrupt(self.inner.run(item))

    def summary(self, out):
        return self.inner.summary(out)

    def check(self, item, out):
        return self.inner.check(item, out)


def _failed_in_one_pass(wl, items):
    r = run._Run(wl, items, None)
    r.one_pass()
    return r.failed


SQUARE = minimalize(2, [(2, 0), (1, 1), (0, 2)])


def test_swapped_found_order_counts_as_failed():
    wl = workloads.LQSearch()
    out = wl.run(SQUARE)
    assert out[2][0] == "found" and wl.check(SQUARE, out) is None

    def swap(out):
        value, comps, (status, nodes, order) = out
        # x^2, y^2, xy: the colon (x^2) : y^2 = (x^2) is not linear
        order = (order[0],) + tuple(g for g in order[1:] if g != (1, 1)) + ((1, 1),)
        return value, comps, (status, nodes, order)

    assert swap(out)[2][2] != out[2][2]
    assert _failed_in_one_pass(workloads.LQSearch(), [SQUARE]) == 0
    assert _failed_in_one_pass(_Corrupting(wl, swap), [SQUARE]) == 1


def test_flipped_bivariate_verdict_counts_as_failed():
    wl = workloads.BivariateClassify()
    items = [SQUARE, minimalize(2, [(3, 0), (0, 3)])]  # one positive, one negative
    assert _failed_in_one_pass(wl, items) == 0

    def flip(out):
        return out[:3] + (not out[3],) + out[4:]

    assert _failed_in_one_pass(_Corrupting(wl, flip), items) == 2


def test_truncated_jsonl_record_counts_as_failed(tmp_path):
    wl = workloads.SearchJobs(tmp_path)
    # a job seed whose output holds at least one record
    seed = next(s for s in range(50) if wl.run(s)[1])
    assert _failed_in_one_pass(wl, [seed]) == 0

    def truncate(out):
        summary, jsonl = out
        return summary, jsonl[: len(jsonl) - 10] + "\n"

    assert _failed_in_one_pass(_Corrupting(wl, truncate), [seed]) == 1
    assert not any(tmp_path.iterdir())  # every job removed its directory


def test_output_that_changes_between_passes_counts_as_failed():
    wl = workloads.SepChains()
    ideal = minimalize(3, [(1, 0, 0), (0, 1, 0)])
    r = run._Run(wl, [ideal], None)
    r.one_pass()
    wl.run = lambda item: tuple(reversed(workloads.SepChains().run(item)))
    r.one_pass()
    assert r.failed == 1


def test_oracles_on_known_cases():
    # (xy, yz, zx): admissible in any order; (x^2, y^2): no order
    assert oracles.has_admissible_order([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert not oracles.has_admissible_order([(2, 0), (0, 2)])
    assert oracles.bivariate_positive([(2, 0), (1, 1), (0, 2)])
    assert not oracles.bivariate_positive([(3, 0), (0, 3)])
    assert oracles.component([(1, 0)], 2) == {(2, 0), (1, 1)}


def test_systematic_sample_takes_one_per_slice():
    import random

    frame = list(range(100))
    keys = [-x for x in frame]  # ranks the frame 99, 98, ..., 0
    picks = workloads.systematic_sample(frame, keys, 10, random.Random(1))
    assert sorted((99 - p) // 10 for p in picks) == list(range(10))


def test_tracer_install_and_uninstall_restore_every_binding():
    import polyquot
    import polyquot.cli as cli

    orig = Q.find_admissible_order
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert Q.find_admissible_order is not orig
        assert cli.find_admissible_order is Q.find_admissible_order
        assert polyquot.find_admissible_order is Q.find_admissible_order
        assert "quotients.find_admissible_order" in tracing.installed_wrappers()
        tracer.op_id = 0
        Q.has_componentwise_linear_quotients(SQUARE, 100)
    finally:
        tracer.uninstall()
    assert Q.find_admissible_order is orig and cli.find_admissible_order is orig
    assert tracing.installed_wrappers() == []
    m = tracer.layer_metrics()
    assert m["quotients.has_componentwise_linear_quotients.calls"] == 1
    assert m["quotients.find_admissible_order.calls"] == 1
    assert m["ideal.graded_component.calls"] == 1
    assert m["quotients.find_admissible_order.colon_pairs"] == 9
    outer = m["quotients.has_componentwise_linear_quotients.busy_s"]
    inner = (m["quotients.find_admissible_order.busy_s"]
             + m["ideal.graded_component.busy_s"])
    own = m["quotients.has_componentwise_linear_quotients.self_s"]
    assert own == pytest.approx(outer - inner)


def test_spans_round_trip(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op_id = 3
        Q.has_componentwise_linear_quotients(SQUARE, 100)
    finally:
        tracer.uninstall()
    tracer.dump(str(tmp_path / "spans.bin"))
    spans = tracing.load_spans(str(tmp_path / "spans.bin"))
    names = [s["name"] for s in spans]
    assert names == ["quotients.has_componentwise_linear_quotients",
                     "ideal.graded_component", "quotients.find_admissible_order"]
    assert [s["parent"] for s in spans] == [-1, 0, 0]
    assert all(s["op"] == 3 and s["end"] >= s["start"] for s in spans)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(x) for x in tracing.per_layer_spec()
    ]


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lq-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_fingerprint_disagreement_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    first = {"counts": {"nodes": 5}, "digest": "a"}
    assert run._fingerprint_check("lq-search", 7, first) == []
    assert run._fingerprint_check("lq-search", 7, {**first, "calls": {"f": 1}}) == []
    assert run._fingerprint_check("lq-search", 7, {**first, "counts": {"nodes": 6}}) == ["counts"]


def _main(capsys, *args):
    assert run.main(["--workload", "search-jobs", "--seed", "3", "--seconds", "0", *args]) == 0
    info, result = capsys.readouterr().out.strip().splitlines()[-2:]
    return json.loads(info)["info"], json.loads(result)


def test_runs_of_one_seed_agree_and_report_every_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads.SearchJobs, "window", 4)
    monkeypatch.setattr(workloads.SearchJobs, "JOBS", 4)
    info1, res1 = _main(capsys, "--trace", "0")
    info2, res2 = _main(capsys, "--trace", "0")
    assert res1["correct"] and res2["correct"], (info1["problems"], info2["problems"])
    assert info1["fingerprint"] == info2["fingerprint"]
    assert set(res1["metrics"]) == set(run.END_TO_END)
    info3, res3 = _main(capsys, "--trace", "1")
    assert res3["correct"], info3["problems"]
    assert info3["fingerprint"]["counts"] == info1["fingerprint"]["counts"]
    assert [k for k in res3["metrics"]] == [m[0] for m in tracing.per_layer_spec()]
    assert res3["metrics"]["cli.question1_search.calls"]["value"] == 4
    assert tracing.installed_wrappers() == []
