"""Benchmark of the subsing Monte Carlo pipeline: one workload per run.

    python3 bench/run.py --workload laplace-grid --seed 1 --seconds 30 --trace 0

Runs the workload's operations in a fixed number of rounds sized to take
about ``--seconds`` seconds, in this one process, with ``SUBSING_WORKERS``
pinned to 2, checks every output, and prints each metric by name and unit.
The round count depends only on the workload and ``--seconds``, never on the
clock, so a seed always gives the same operations and the same failures.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (medians over rounds);
with ``--trace 1`` the library's layer functions are wrapped in spans and the
metrics are the per-layer ones.  Full results, provenance included, go to
``bench/results/``.  See ``bench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKERS = 2          # SUBSING_WORKERS for every run
SETUP_PROBES = 5     # fresh interpreters timed for setup_s
MIN_ROUNDS = 3
DEADLINE_S = 150     # rounds stop early past this, to exit within 180 s


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["laplace-grid", "laplace-cp", "spde-cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes, one set-up probe")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "SUBSING_WORKERS": os.environ["SUBSING_WORKERS"],
        "git_commit": _git_commit(),
    }


def _setup_seconds(args) -> float:
    """Spawn a fresh interpreter that imports the library and builds the
    workload's inputs; seconds from spawn until it reports ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    # perf_counter reads CLOCK_MONOTONIC, which is shared across processes
    return float(out.stdout.split()[-1]) - start


def _median(values):
    """Median over rounds; a value every round agrees on keeps its type."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def round_count(workload: str, seconds: float, tiny: bool) -> int:
    """Rounds that take about ``seconds`` at the workload's nominal round
    time (at least MIN_ROUNDS); fixed, so that reruns do the same work."""
    from workloads import ROUND_SECONDS
    if tiny:
        return MIN_ROUNDS
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def _rounds(ops: tuple, seed: int, count: int, tracer):
    """Run ``count`` rounds; returns each round's outcomes and spans."""
    from workloads import round_seeds
    rounds, spans = [], []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        while len(rounds) < count:
            if time.perf_counter() - start > DEADLINE_S:
                print(f"  WARNING: stopped after {len(rounds)} of {count} "
                      f"rounds, past {DEADLINE_S} s")
                break
            first_span = len(tracer.spans) if tracer else 0
            seeds = round_seeds(seed, len(rounds), len(ops))
            rounds.append([op.run(s, scratch) for op, s in zip(ops, seeds)])
            spans.append(tracer.spans[first_span:] if tracer else [])
    return rounds, spans


def _end_to_end(rounds, setup: list) -> dict:
    # medians per operation over rounds, so that one slow round of one
    # operation does not move the sum
    wall_s = time_to_accuracy_s = 0.0
    for i in range(len(rounds[0])):
        wall_s += statistics.median(r[i].wall for r in rounds)
        acc = [r[i].result.accuracy for r in rounds if r[i].result.accuracy]
        if acc:
            time_to_accuracy_s += (statistics.median(t for t, _ in acc)
                                   * statistics.median(k for _, k in acc))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "time_to_accuracy_s": {"value": time_to_accuracy_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def _per_layer(rounds, spans) -> tuple:
    """Per-layer metrics (medians over rounds) and the counts that differed
    between rounds, which should be none."""
    import tracing
    cost = tracing.span_cost()
    per_round = []
    for r, s in zip(rounds, spans):
        m = tracing.layer_metrics(s, WORKERS)
        m["trace.wall_s"] = sum(o.wall for o in r)
        m["trace.spans"] = len(s)
        m["trace.overhead_s"] = len(s) * cost
        per_round.append(m)
    metrics = {name: {"value": _median([m[name] for m in per_round]),
                      "unit": tracing.unit(name)} for name in per_round[0]}
    unsteady = [name for name, m in metrics.items() if m["unit"] == "count"
                and len({r[name] for r in per_round}) > 1]
    return metrics, unsteady


def run(args) -> int:
    import tracing
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.tiny)
    setup = [_setup_seconds(args) for _ in range(1 if args.tiny else SETUP_PROBES)]
    RESULTS.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        count = round_count(args.workload, args.seconds, args.tiny)
        rounds, spans = _rounds(ops, args.seed, count, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        metrics, unsteady = _per_layer(rounds, spans)
    else:
        metrics, unsteady = _end_to_end(rounds, setup), []

    attempted = sum(len(r) for r in rounds)
    failures = [{"round": i, "op": o.op.name, "seed": o.seed,
                 "errors": o.result.errors, "problems": o.result.problems}
                for i, r in enumerate(rounds) for o in r
                if o.result.errors or o.result.problems]
    failed = len(failures)
    correct = not any(f["errors"] for f in failures)
    digest = hashlib.sha256()
    for o in (o for r in rounds for o in r):
        digest.update(f"{o.op.name}\n{o.result.text}\n".encode())
    walls = [sum(o.wall for o in r) for r in rounds]
    prov = _provenance()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds of {len(ops)} operations")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ops = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for f in failures:
        print(f"  FAILED round {f['round']} {f['op']} (seed {f['seed']}): "
              + "; ".join(f["problems"] + [e.strip().splitlines()[-1]
                                           for e in f["errors"]]))
    for name in unsteady:
        print(f"  WARNING: count {name} differs between rounds")
    if tracer:
        for name in tracer.missing:
            print(f"  WARNING: {name} not found, left untraced")
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    print(f"  setup_s samples = {[round(s, 4) for s in setup]}")
    print(f"  round walls = {[round(w, 4) for w in walls]}")
    print(f"  output digest = {digest.hexdigest()}")
    print(f"  provenance = {json.dumps(prov)}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny, "provenance": prov,
              "digest": digest.hexdigest(), "rounds": len(rounds),
              "round_walls": walls, "setup_samples": setup,
              "ops": [[{"op": o.op.name, "seed": o.seed, "wall": o.wall,
                        "accuracy": o.result.accuracy} for o in r]
                      for r in rounds],
              "failed_ops": {"failed": failed, "attempted": attempted,
                             "value": failed / attempted, "unit": "ratio"},
              "failures": failures, "metrics": metrics}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "subsing" / "__init__.py").is_file():
        sys.stderr.write(f"no subsing sources under {ROOT / 'src'}\n")
        return 2
    os.environ["SUBSING_WORKERS"] = str(WORKERS)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        import workloads
        workloads.WORKLOADS[args.workload](args.tiny)
        print(time.perf_counter())
        return 0
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
