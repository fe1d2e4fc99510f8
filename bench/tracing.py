"""Span tracing around the library's public functions, for the traced run.

:meth:`Tracer.install` replaces each listed function by a timing wrapper
under every name a ``polyquot`` module binds it to, so calls between
modules (``exchange`` calling ``graded_component``, ``quotients`` calling
``find_admissible_order``) are seen too.  :meth:`Tracer.uninstall` puts
the originals back.  Nothing is wrapped unless ``install`` is called, and
no file under ``src/`` is changed.

A span is (function, start, end, parent span, operation id).  Spans are
kept in flat arrays in memory and written out by :meth:`Tracer.dump`
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

# layer -> wrapped public functions (see README.md for what each should move)
TRACED = {
    "ideal": ("graded_component", "product", "minimalize"),
    "textio": ("parse_ideal_details", "serialize_ideal"),
    "exchange": (
        "satisfies_nonpure_exchange",
        "satisfies_nonpure_dual_exchange",
        "is_polymatroidal",
        "satisfies_strong_exchange",
        "is_componentwise_polymatroidal",
        "is_componentwise_sep",
    ),
    "quotients": (
        "find_admissible_order",
        "has_componentwise_linear_quotients",
        "is_admissible_order",
        "extends_by_linear_quotients",
    ),
    "bivariate": ("tight_factorization", "cwp_structural", "valley_order"),
    "chains": (
        "sep_admissible_order",
        "sep_factorization",
        "chain_absorb_maximal_ideal",
        "chain_absorb_monomial",
        "chain_raise_caps",
        "verify_chain",
    ),
    "cli": ("question1_search",),
    "families": (
        "iter_bivariate_antichains",
        "random_antichain",
        "random_componentwise_sep",
    ),
}

# counters beyond calls / busy_s / self_s: (metric, unit, better)
EXTRA_METRICS = (
    ("ideal.graded_component.gens_out", "count", "lower"),
    ("textio.serialize_ideal.bytes", "B", "lower"),
    ("quotients.find_admissible_order.nodes", "count", "lower"),
    ("quotients.find_admissible_order.nodes_per_s", "1/s", "higher"),
    ("quotients.find_admissible_order.found", "count", "higher"),
    ("quotients.find_admissible_order.exhausted", "count", "higher"),
    ("quotients.find_admissible_order.budget_exceeded", "count", "lower"),
    ("quotients.find_admissible_order.colon_pairs", "count", "lower"),
    ("cli.question1_search.records", "count", "lower"),
    ("cli.question1_search.write_syscalls", "count", "lower"),
    ("cli.question1_search.write_bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_spec():
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    spec = []
    for layer, funcs in TRACED.items():
        for fname in funcs:
            name = f"{layer}.{fname}"
            spec += [(f"{name}.calls", "count", "lower"),
                     (f"{name}.busy_s", "s", "lower"),
                     (f"{name}.self_s", "s", "lower")]
    return spec + list(EXTRA_METRICS)


#: Operation id of spans recorded outside the timed phase (set-up).
SETUP = -1


def _proc_io():
    """(write syscalls, bytes written) of this process, or (0, 0)."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            fields = dict(line.split(": ") for line in fh.read().splitlines())
        return int(fields["syscw"]), int(fields["wchar"])
    except (OSError, KeyError, ValueError):
        return 0, 0


def _add(counts, key, amount):
    counts[key] = counts.get(key, 0) + amount


def _count_graded_component(counts, args, result):
    _add(counts, "gens_out", len(result.gens))


def _count_serialize(counts, args, result):
    _add(counts, "bytes", len(result.encode()))


def _count_search(counts, args, result):
    _add(counts, "nodes", result.nodes)
    _add(counts, result.status.replace("-", "_"), 1)
    k = len(args[0].gens)
    _add(counts, "colon_pairs", k * k)  # |universe| * |candidates|


COUNTERS = {
    "ideal.graded_component": _count_graded_component,
    "textio.serialize_ideal": _count_serialize,
    "quotients.find_admissible_order": _count_search,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name_idx = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.extras: dict = {}  # (name, op >= 0) -> {counter: total}
        self.op_id = SETUP
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    # -- installation --------------------------------------------------

    def install(self):
        mods = [m for k, m in sys.modules.items()
                if k == "polyquot" or k.startswith("polyquot.")]
        for layer, funcs in TRACED.items():
            module = sys.modules[f"polyquot.{layer}"]
            for fname in funcs:
                orig = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        is_gen = inspect.isgeneratorfunction(fn)
        io = name == "cli.question1_search"
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            if io:
                io0 = _proc_io()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if is_gen:  # time the whole enumeration, not generator creation
                    result = iter(list(result))
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter or io:
                counts = self.extras.setdefault((name, self.op_id >= 0), {})
                if counter:
                    counter(counts, args, result)
                if io:
                    io1 = _proc_io()
                    _add(counts, "write_syscalls", io1[0] - io0[0])
                    _add(counts, "write_bytes", io1[1] - io0[1])
                    _add(counts, "records", _record_count(result))
            return result

        return wrapper

    # -- results -------------------------------------------------------

    def layer_metrics(self):
        """Per-function calls, busy and self time, plus the counters.

        Timed-phase spans count for every layer; ``families`` spans count
        in set-up as well, since generating inputs is set-up work.
        """
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        families = {i for i, nm in enumerate(self.names) if nm.startswith("families.")}
        for i in range(n):
            nid = self.name_idx[i]
            if self.op[i] < 0 and nid not in families:
                continue
            dur = end[i] - start[i]
            calls[nid] += 1
            busy[nid] += dur
            own[nid] += dur - child[i]
        out = {}
        for layer, funcs in TRACED.items():
            for fname in funcs:
                name = f"{layer}.{fname}"
                nid = self.name_ids[name]
                out[f"{name}.calls"] = calls[nid]
                out[f"{name}.busy_s"] = busy[nid]
                out[f"{name}.self_s"] = own[nid]
        for (name, timed), counts in self.extras.items():
            if timed or name.startswith("families."):
                for key, value in counts.items():
                    out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
        search = "quotients.find_admissible_order"
        busy_search = out[f"{search}.busy_s"]
        out[f"{search}.nodes_per_s"] = (
            out.get(f"{search}.nodes", 0) / busy_search if busy_search else 0.0
        )
        return out

    def call_counts(self):
        """Calls per function in the timed phase."""
        counts = {}
        for i in range(len(self.start)):
            if self.op[i] >= 0:
                name = self.names[self.name_idx[i]]
                counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", "H"], ["start", "d"], ["end", "d"],
                       ["parent", "l"], ["op", "l"]],
            "itemsize": {"H": array("H").itemsize, "d": array("d").itemsize,
                         "l": array("l").itemsize},
        }
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_idx, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)
        os.replace(tmp, path)


def _record_count(summary):
    return summary.candidates + summary.budget_exceeded + summary.cw_unknown


def load_spans(path):
    """Read a file written by :meth:`Tracer.dump` into a list of dicts."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            cols[field] = arr
    names = header["names"]
    return [
        {"name": names[cols["name"][i]], "start": cols["start"][i],
         "end": cols["end"][i], "parent": cols["parent"][i], "op": cols["op"][i]}
        for i in range(header["count"])
    ]


def installed_wrappers():
    """Names of traced functions currently replaced by a wrapper."""
    found = []
    for layer, funcs in TRACED.items():
        module = sys.modules.get(f"polyquot.{layer}")
        for fname in funcs:
            if module is not None and hasattr(getattr(module, fname), "__wrapped__"):
                found.append(f"{layer}.{fname}")
    return found
