"""Write data/lq_frame.json, data/sep_frame.json and data/jobs_frame.json.

    python3 bench/make_frames.py [lq_frame|sep_frame|jobs_frame ...]

The lq-search, sep-chains and search-jobs workloads sample a fixed frame
of inputs.  This script regenerates each named frame (all three by
default) and stores, with a digest of the frame, each input's count of
undecided ideals and its operation time: the median over three rounds
through the whole frame, one after another, of the quickest of five
tries (one try above 5 ms), so that a burst of host speed during one
round does not rank an input.  They only rank the frame for
``workloads.systematic_sample``; they are stored, not measured at run
time, so that every version of the library samples the same inputs for a
seed.  Running it changes which inputs a seed selects, so
rerun it only together with a change that redefines the benchmark.  It
takes about six minutes.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


ROUNDS = 3


def _time(wl, item):
    """(seconds, output): the quickest of five tries, or one above 5 ms."""
    best = None
    for _ in range(5):
        t0 = time.perf_counter()
        out = wl.run(item)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        if dt > 0.005:
            break
    return best, out


def main(names):
    scratch = ROOT / ".bench_out" / "tmp"
    frames = {
        "lq_frame": workloads.LQSearch(),
        "sep_frame": workloads.SepChains(),
        "jobs_frame": workloads.SearchJobs(scratch),
    }
    for name in names or frames:
        wl = frames[name]
        frame = wl.frame()
        for item in frame[:20]:  # warm-up
            wl.run(item)
        rounds = [[_time(wl, item) for item in frame] for _ in range(ROUNDS)]
        meta = {
            "digest": workloads.frame_digest(frame),
            "undecided": [wl.ideals(out) - wl.decided(out) for _, out in rounds[0]],
            "time_us": [round(statistics.median(r[i][0] for r in rounds) * 1e6)
                        for i in range(len(frame))],
        }
        path = workloads.DATA / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(meta, separators=(",", ":")) + "\n")
        print(f"wrote {path}: {len(frame)} inputs, {sum(meta['time_us']) / 1e6:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
