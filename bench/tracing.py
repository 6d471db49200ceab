"""Span tracing of the library's layer functions, recorded from outside it.

The library's modules import their collaborators by name (``from
.subordinator import grid_increments``), so a layer function is traced by
rebinding that name in every module that calls it.  Each call becomes a span
(name, start, end, parent); the parent is the innermost open span of the
calling thread.  Monte Carlo blocks run on a thread pool whose threads start
with an empty stack, so a span opened there is adopted by the innermost open
``mc.run_mc`` span.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple


def _variates(args) -> int:
    """Subordinator variates drawn: paths x grid cells."""
    return int(args["n_paths"]) * (len(args["times"]) - 1)


def _stieltjes_bytes(args) -> int:
    """Bytes of increments the reduction reads, computed as 8 x paths x cells."""
    return 8 * int(args["increments"].size)


def _replica_steps(args) -> int:
    """Replica-steps advanced: replicas x grid cells."""
    return int(args["d_sub"].size)


# (consumer module, attribute, span name, work counter)
POINTS = (
    ("cli", "main", "cli.main", None),
    ("moments", "char_functional_mc", "moments.char_functional_mc", None),
    ("moments", "char_functional_exact", "moments.char_functional_exact", None),
    ("moments", "bound_scan", "moments.bound_scan", None),
    ("spde", "maximal_inequality_scan", "spde.maximal_inequality_scan", None),
    ("spde", "longrun_moment_scan", "spde.longrun_moment_scan", None),
    ("spde", "galerkin_error", "spde.galerkin_error", None),
    ("spde", "convolution_moment_scan", "spde.convolution_moment_scan", None),
    ("spde", "advance", "spde.advance", _replica_steps),
    ("mc", "run_mc", "mc.run_mc", None),
    ("cli", "run_mc", "mc.run_mc", None),
    ("moments", "grid_increments", "subordinator.grid_increments", _variates),
    ("spde", "grid_increments", "subordinator.grid_increments", _variates),
    ("cli", "grid_increments", "subordinator.grid_increments", _variates),
    ("subordinator", "cp_jump_batch", "subordinator.cp_jump_batch", None),
    ("moments", "stieltjes_increments", "integrate.stieltjes_increments",
     _stieltjes_bytes),
    ("cli", "stieltjes_increments", "integrate.stieltjes_increments",
     _stieltjes_bytes),
    ("moments", "finiteness_criterion", "integrate.finiteness_criterion", None),
    ("mc", "stream", "rng.stream", None),
    ("spde", "stream", "rng.stream", None),
    ("cli", "stream", "rng.stream", None),
    ("moments", "doubling_indices", "bernstein.doubling_indices", None),
    ("spde", "doubling_indices", "bernstein.doubling_indices", None),
    ("cli", "doubling_indices", "bernstein.doubling_indices", None),
    ("moments", "inverse", "bernstein.inverse", None),
    ("spde", "inverse", "bernstein.inverse", None),
    ("cli", "inverse", "bernstein.inverse", None),
)

# the span whose work is spread over a thread pool: pool threads report to it
POOL_OWNER = "mc.run_mc"


class Span(NamedTuple):
    id: int
    name: str
    site: str        # module whose binding was called
    start: float
    end: float
    parent: int      # 0 for a root span
    thread: int
    work: int        # count from the span's work counter, 0 without one


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owners: list[int] = []
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, site: str, work=None):
        signature = inspect.signature(fn) if work is not None else None
        owner = name == POOL_OWNER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = 0
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                amount = work(bound.arguments)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owners[-1] if self._owners else 0
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            if owner:
                self._owners.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if owner:
                    self._owners.pop()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(sid, name, site, start, end, parent,
                                           threading.get_ident(), amount))

        return traced

    def install(self):
        for mod, attr, name, work in POINTS:
            module = sys.modules[f"subsing.{mod}"]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, mod, work))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in self.spans:
                rec = s._asdict()
                rec["start"] = s.start - origin
                rec["end"] = s.end - origin
                fh.write(json.dumps(rec) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop", "bench")
    costs = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - plain) / calls)
    return max(statistics.median(costs), 0.0)


def _covered(children, lo: float, hi: float) -> float:
    """Length of the union of the children's intervals inside [lo, hi]."""
    total = 0.0
    reach = lo
    for c in sorted(children, key=lambda s: s.start):
        a, b = max(c.start, reach), min(c.end, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans: list, workers: int) -> dict:
    """Per-layer metrics of one round's spans."""
    children = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
        named[s.name].append(s)

    def seconds(name):
        return sum(s.end - s.start for s in named[name])

    def work(name):
        return sum(s.work for s in named[name])

    def self_s(layer):
        return sum(s.end - s.start - _covered(children[s.id], s.start, s.end)
                   for s in spans if s.name.startswith(layer + "."))

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    grid_s = seconds("subordinator.grid_increments")
    variates = work("subordinator.grid_increments")
    run_mc_s = seconds("mc.run_mc")
    mc_child_s = sum(c.end - c.start for s in named["mc.run_mc"]
                     for c in children[s.id])
    advance_s = seconds("spde.advance")
    steps = work("spde.advance")
    main_s = seconds("cli.main")
    return {
        "subordinator.grid_increments_s": grid_s,
        "subordinator.variates": variates,
        "subordinator.variates_per_s": rate(variates, grid_s),
        "subordinator.cp_batches": len(named["subordinator.cp_jump_batch"]),
        "subordinator.cp_batch_s": seconds("subordinator.cp_jump_batch"),
        "integrate.stieltjes_s": seconds("integrate.stieltjes_increments"),
        "integrate.stieltjes_bytes": work("integrate.stieltjes_increments"),
        "integrate.finiteness_s": seconds("integrate.finiteness_criterion"),
        "moments.self_s": self_s("moments"),
        "mc.estimates": len(named["mc.run_mc"]),
        "mc.blocks": sum(1 for s in named["rng.stream"] if s.site == "mc"),
        "mc.run_mc_s": run_mc_s,
        "mc.self_s": self_s("mc"),
        "mc.busy_ratio": rate(mc_child_s, workers * run_mc_s),
        "spde.advance_s": advance_s,
        "spde.advance_calls": len(named["spde.advance"]),
        "spde.replica_steps": steps,
        "spde.replica_steps_per_s": rate(steps, advance_s),
        "spde.self_s": self_s("spde"),
        "bernstein.doubling_s": seconds("bernstein.doubling_indices"),
        "bernstein.inverse_calls": len(named["bernstein.inverse"]),
        "bernstein.inverse_s": seconds("bernstein.inverse"),
        "rng.streams": len(named["rng.stream"]),
        "cli.main_s": main_s,
        "cli.self_s": self_s("cli"),
    }


UNITS = {
    "subordinator.variates": "count",
    "subordinator.variates_per_s": "1/s",
    "subordinator.cp_batches": "count",
    "integrate.stieltjes_bytes": "B",
    "mc.estimates": "count",
    "mc.blocks": "count",
    "mc.busy_ratio": "ratio",
    "spde.advance_calls": "count",
    "spde.replica_steps": "count",
    "spde.replica_steps_per_s": "1/s",
    "bernstein.inverse_calls": "count",
    "rng.streams": "count",
    "trace.spans": "count",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")
