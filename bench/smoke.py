"""Smoke test of the benchmark at tiny sizes: every workload, both modes.

    python3 bench/smoke.py

Checks each result line against BENCHMARK.json, that a seed gives the same
attempted and failed counts traced as untraced, that the layer counts repeat
exactly between two seeds, the bypass predictions of NOTES.md, and that the
benchmark refuses to run, printing no result, where the library sources are
missing.  Prints what it checked and exits 1 at the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("subordinator.variates", "subordinator.cp_batches", "mc.blocks",
          "spde.advance_calls", "rng.streams")
# per-layer metrics that must read 0 because the workload bypasses the layer
BYPASSED = {
    "laplace-grid": ("subordinator.cp_batches", "spde.advance_calls"),
    "laplace-cp": ("spde.advance_calls",),
    "spde-cli": ("subordinator.cp_batches", "mc.blocks",
                 "integrate.stieltjes_bytes"),
}


def fail(message: str):
    print(f"FAIL: {message}")
    raise SystemExit(1)


def bench(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(workload: str, seed: int, trace: int) -> dict:
    out = bench(ROOT, workload, seed, trace)
    if out.returncode != 0:
        fail(f"{workload} trace {trace} exited {out.returncode}:\n{out.stderr}")
    res = json.loads(out.stdout.splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(res)}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: metrics {got} != {want}")
    if not res["correct"] or res["attempted"] < 1:
        fail(f"{workload} trace {trace}: {res}")
    print(f"ok {workload} trace {trace}: {res['attempted']} attempted, "
          f"{res['failed']} failed")
    return res["metrics"], (res["attempted"], res["failed"])


def main() -> int:
    for workload in BYPASSED:
        plain = result(workload, 1, 0)
        first = result(workload, 1, 1)
        if plain[1] != first[1]:
            fail(f"{workload}: seed 1 did (attempted, failed) {plain[1]} "
                 f"untraced but {first[1]} traced")
        second = result(workload, 2, 1)
        first, second = first[0], second[0]
        for name in COUNTS:
            if first[name]["value"] != second[name]["value"]:
                fail(f"{workload}: {name} {first[name]} != {second[name]}")
        for name in BYPASSED[workload]:
            if first[name]["value"] != 0:
                fail(f"{workload}: {name} = {first[name]['value']}, expected 0")
        print(f"ok {workload}: failures repeat per seed, counts repeat, "
              "bypassed layers read 0")

    (BENCH / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
        out = bench(bare, "laplace-grid", 1, 0)
        if out.returncode == 0 or out.stdout.strip():
            fail(f"ran without sources: exit {out.returncode}, {out.stdout!r}")
    print("ok: without the library sources the benchmark exits "
          f"{out.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
