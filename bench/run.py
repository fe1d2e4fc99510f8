"""Benchmark runner for polyquot.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process with one closed-loop client: the next
operation starts when the previous one returns.  Set-up (import, input
generation, warm-up) is repeated and its median reported; the timed phase
then runs passes over the inputs for ``--seconds``: the first pass whole,
the last one cut off when the time is up.  Outputs are checked after each
pass, outside the timed phase, by :mod:`oracles`.

The timed operations are cut, in the order they ran, into windows of the
workload's ``window`` operations, each doing nearly the same work, and
each timing (throughput, median and p95 latency) is taken per window.
A run reports each timing at the quartile of its windows on the slow
side (the slowest of four or fewer windows): the host this runs on lends
its cores to other work and runs at up to 1.6 times its usual speed in
bursts of seconds that come and go, so its usual speed, which that
quartile reads, is the steady figure and the mean is not (README.md,
Noise).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
library's public functions for one pass and reports per-layer metrics
from it, then alternates untraced and traced passes over the same inputs
to give the tracing overhead.  The last line of standard output is the result as JSON; the
line before it carries the machine facts, sample counts and the
deterministic fingerprint.  Artifacts go to ``.bench_out/`` at the root of
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_SECONDS
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 15

END_TO_END = {
    "throughput_ideals_per_s": "ideals/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "decided_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _read(path):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_facts():
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    cpu_max = _read("/sys/fs/cgroup/cpu.max")
    if cpu_max is None:
        quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        if quota is not None and period is not None:
            cpu_max = "max " + period if quota == "-1" else f"{quota} {period}"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cgroup_cpu_max": cpu_max,
        "platform": platform.platform(),
    }


class _Failed:
    """Output of an operation that raised."""

    def __init__(self, exc):
        self.reason = f"raised {type(exc).__name__}: {exc}"


class _Run:
    """Timed passes of one workload, with their output checks."""

    def __init__(self, wl, items, tracer):
        self.wl, self.items, self.tracer = wl, items, tracer
        self.latencies = []
        self.op_ideals = []  # ideals of each timed operation, 0 if it raised
        self.pass_walls = []
        self.ideals = 0
        self.decided = 0
        self.failed = 0
        self.problems = []
        self.first = None  # summaries of the first pass
        self.pass_ok = False  # the first pass passed its whole-pass check
        self.counts = None
        self.digest = None

    def one_pass(self, deadline=None):
        """Run the inputs in order, stopping after the operation that passes
        `deadline` (a perf_counter time) if one is given."""
        wl, tracer = self.wl, self.tracer
        perf = time.perf_counter
        outs = []
        lat = self.latencies
        t_pass = perf()
        for i, item in enumerate(self.items):
            if tracer is not None:
                tracer.op_id = i
            t0 = perf()
            try:
                out = wl.run(item)
            except Exception as exc:  # counted as failed, the run goes on
                out = _Failed(exc)
            t1 = perf()
            lat.append(t1 - t0)
            outs.append(out)
            if deadline is not None and t1 >= deadline:
                break
        self.pass_walls.append(perf() - t_pass)
        self._check(outs)

    def _fail(self, index, reason):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"input {index}: {reason}")

    def _check(self, outs):
        wl = self.wl
        first = self.first is None
        summaries = []
        for i, (item, out) in enumerate(zip(self.items, outs)):
            if isinstance(out, _Failed):
                summaries.append(None)
                self.op_ideals.append(0)
                self._fail(i, out.reason)
                continue
            summary = wl.summary(out)
            summaries.append(summary)
            if first:
                try:
                    problem = wl.check(item, out)
                except Exception as exc:  # a malformed output can break a check
                    problem = f"check raised {type(exc).__name__}: {exc}"
            elif summary != self.first[i] or self.first[i] is None:
                problem = "output differs from the first pass"
            else:
                problem = None
            if problem:
                self._fail(i, problem)
            self.op_ideals.append(wl.ideals(out))
            self.ideals += self.op_ideals[-1]
            self.decided += wl.decided(out)
        if first:
            self.first = summaries
            ok = all(not isinstance(o, _Failed) for o in outs)
            problem = wl.check_pass(self.items, outs) if ok else "an operation raised"
            if problem:
                self.problems.append(f"pass: {problem}")
            self.pass_ok = problem is None
            if ok:
                self.counts = wl.counts(self.items, outs)
            self.digest = hashlib.sha256(repr(summaries).encode()).hexdigest()[:16]

    def windows(self):
        """(throughput, latencies) of each whole window, in run order."""
        size = self.wl.window
        out = []
        for start in range(0, len(self.latencies) - size + 1, size):
            lat = self.latencies[start:start + size]
            out.append((sum(self.op_ideals[start:start + size]) / sum(lat), lat))
        return out


def _source_digest():
    """Digest of the library and benchmark sources, naming the fingerprint."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "polyquot", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".json"):
                h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _fingerprint_check(name, seed, fingerprint):
    """Compare with an earlier run of the same sources and seed, then save."""
    path = OUT / "fingerprints" / f"{name}-{seed}-{_source_digest()}.json"
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        old = {}
    clash = sorted(k for k in fingerprint if k in old and old[k] != fingerprint[k])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**old, **fingerprint}, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return clash


def _window_timings(window):
    """(throughput in ideals/s, p50 ms, p95 ms) of one window."""
    throughput, lat = window
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[18]
    return throughput, 1e3 * statistics.median(lat), 1e3 * p95


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    t_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import polyquot.cli  # noqa: F401  (imports every library module)
    except ImportError as exc:
        print(f"bench: cannot import polyquot from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.make(args.workload, OUT / "tmp")
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    setup_times = []
    for _ in range(1 if tracer else SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        items, warm = wl.build(args.seed)
        for item in warm:
            wl.run(item)
        setup_times.append(time.perf_counter() - t0)
        if len(setup_times) >= SETUP_REPEATS and sum(setup_times) >= SETUP_SECONDS:
            break

    run = _Run(wl, items, tracer)
    if tracer is None:
        while True:
            remaining = args.seconds - sum(run.pass_walls)
            # the first pass is whole, for its whole-pass check, and there
            # is at least one whole window
            whole = run.first is None or len(run.latencies) < wl.window
            if remaining <= 0 and not whole:
                break
            run.one_pass(None if whole else time.perf_counter() + remaining)
        leaked = tracing.installed_wrappers()
        if leaked:
            run.problems.append(f"wrappers installed in the untraced run: {leaked}")
    else:
        # The first traced pass gives the per-layer metrics.  Untraced and
        # traced passes then alternate; the overhead is the median ratio of
        # a traced pass's wall time to the untraced pass after it.
        run.one_pass()
        tracer.uninstall()
        calls = tracer.call_counts()
        layer = tracer.layer_metrics()
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"spans-{args.workload}-{args.seed}.bin"))
        ratios = []
        while True:
            run.tracer = None
            run.one_pass()
            ratios.append(run.pass_walls[-2] / run.pass_walls[-1] - 1)
            # stop when another traced and untraced pair would overrun
            if sum(run.pass_walls) + sum(run.pass_walls[-2:]) > args.seconds:
                break
            run.tracer = tracing.Tracer()
            run.tracer.install()
            run.one_pass()
            run.tracer.uninstall()
        layer["trace.overhead_frac"] = statistics.median(ratios)

    fingerprint = {"counts": run.counts, "digest": run.digest}
    if tracer is not None:
        fingerprint["calls"] = calls
    clash = _fingerprint_check(args.workload, args.seed, fingerprint)
    if clash:
        run.problems.append(f"fingerprint differs from an earlier run: {clash}")

    attempted = len(run.latencies)
    timings = [_window_timings(w) for w in run.windows()]
    if tracer is None:
        # each timing at the quartile of its windows on the slow side
        slow = (len(timings) - 1) // 4
        values = {
            "throughput_ideals_per_s": sorted(t[0] for t in timings)[slow],
            "latency_p50_ms": sorted((t[1] for t in timings), reverse=True)[slow],
            "latency_p95_ms": sorted((t[2] for t in timings), reverse=True)[slow],
            "decided_frac": run.decided / run.ideals if run.ideals else 0.0,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: _metric(v, END_TO_END[k]) for k, v in values.items()}
    else:
        metrics = {k: _metric(layer.get(k, 0), unit) for k, unit, _ in tracing.per_layer_spec()}

    correct = run.failed == 0 and not run.problems and run.pass_ok
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "samples": attempted,
        "window_ops": wl.window,
        "windows": timings,
        "mean_throughput": run.ideals / sum(run.pass_walls),
        "passes": len(run.pass_walls),
        "pass_walls_s": run.pass_walls,
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "ideals": run.ideals,
        "failed_frac": run.failed / attempted,
        "problems": run.problems,
        "fingerprint": fingerprint,
    }
    result = {"correct": correct, "attempted": attempted, "failed": run.failed,
              "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1, sort_keys=True))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
