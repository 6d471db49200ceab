"""The benchmark's workloads: inputs made from a seed, operations and checks.

A workload is a fixed list of operations on the library's public functions.
The benchmark runs the list in a fixed number of rounds; round ``r`` of seed
``s`` gives each operation a library seed drawn from ``SeedSequence([s, r])``,
so the same seed always gives the same inputs.  Sizes are fixed: only seeds vary.

Every operation is checked.  A failed check marks the operation failed and
never stops the run.  Checks come in two strengths: ``errors`` say the output
is wrong or malformed (and clear the run's ``correct`` flag); ``problems``
are statistical checks at the acceptance tolerance, which correct code also
misses now and then, so they only count the operation as failed.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from subsing import cli, moments
from subsing.bernstein import parse_phi
from subsing.integrate import parse_integrand

Z_TOL = 3.0             # acceptance tolerance of the test suite
Z_HARD = 6.0            # a miss this large is not chance: the output is wrong
TARGET_SE = 1e-3        # Laplace accuracy behind time_to_accuracy_s
TARGET_PATHS = 10_000   # SPDE paths behind time_to_accuracy_s


@dataclass
class Result:
    text: str                                      # output, hashed into the digest
    problems: list = field(default_factory=list)   # failed statistical checks
    errors: list = field(default_factory=list)     # wrong or malformed output
    # (seconds, factor): time_to_accuracy_s adds seconds x factor
    accuracy: Optional[tuple] = None


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable    # (library seed, scratch dir) -> raw output
    check: Callable   # raw output -> Result

    def run(self, seed: int, scratch: str) -> "Outcome":
        """Time the call and check its output; a failure never stops the run."""
        start = time.perf_counter()
        try:
            raw = self.call(seed, scratch)
            wall = time.perf_counter() - start
            result = self.check(raw)
        except Exception:
            wall = time.perf_counter() - start
            result = Result("", errors=[traceback.format_exc(limit=4)])
        return Outcome(self, seed, wall, result)


class Outcome(NamedTuple):
    op: Op
    seed: int
    wall: float
    result: Result


def round_seeds(seed: int, round_index: int, count: int) -> list:
    """Library seeds for the operations of one round."""
    state = np.random.SeedSequence([seed % 2**63, round_index])
    return [int(s) % 2**31 for s in state.generate_state(count)]


def _estimate_key(est) -> tuple:
    return (est.n_samples, est.mean, est.std_error, est.heavy_tail_flag,
            est.method)


def laplace_cell(phi_id: str, f_id: str, paths: int) -> Op:
    """Laplace functional of f under phi on (0, 1] against its exact value."""
    phi, f = parse_phi(phi_id), parse_integrand(f_id)

    def call(seed, _scratch):
        start = time.perf_counter()
        est = moments.char_functional_mc(phi, f, 1.0, paths, seed)
        mc_wall = time.perf_counter() - start
        return est, moments.char_functional_exact(phi, f, (0.0, 1.0)), mc_wall

    def check(raw):
        est, exact, mc_wall = raw
        res = Result(repr((_estimate_key(est), exact)))
        if not (math.isfinite(est.mean) and math.isfinite(est.std_error)
                and est.std_error > 0 and est.n_samples == paths):
            res.errors.append(f"estimate {est} is not finite with se > 0")
            return res
        z = (est.mean - exact) / est.std_error
        if abs(z) > Z_HARD:
            res.errors.append(f"|z| = {abs(z):.2f} > {Z_HARD}")
        elif abs(z) > Z_TOL:
            res.problems.append(f"|z| = {abs(z):.2f} > {Z_TOL}")
        res.accuracy = (mc_wall, (est.std_error / TARGET_SE) ** 2)
        return res

    return Op(f"laplace {f_id} {phi_id}", call, check)


def bound_op(phi_id: str, p: float, theta: float, T_grid: list, paths: int) -> Op:
    """Moment bound scan: Monte Carlo left sides against analytic right sides."""
    phi = parse_phi(phi_id)

    def call(seed, _scratch):
        return moments.bound_scan(phi, p, T_grid, paths, seed, theta=theta)

    def check(rep):
        res = Result(repr((rep.T_grid, [_estimate_key(e) for e in rep.estimates],
                           rep.bound_rhs, rep.clause)))
        if len(rep.ratios) != len(T_grid) or not all(
                math.isfinite(r) and r > 0 for r in rep.ratios):
            res.errors.append(f"bound ratios {rep.ratios} not all finite and > 0")
        return res

    return Op(f"bound_scan {phi_id} p={p} theta={theta}", call, check)


def _parse_csv(text: str, res: Result) -> tuple:
    """Column names and numeric rows of a CLI result file."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        res.errors.append("no CSV body")
        return [], []
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            res.errors.append(f"unparseable row {ln!r}")
            continue
        if len(row) != len(header) or not all(math.isfinite(v) for v in row):
            res.errors.append(f"row {ln!r} is not {len(header)} finite values")
            continue
        rows.append(dict(zip(header, row)))
    if not rows:
        res.errors.append("CSV has no rows")
    return header, rows


def cli_op(label: str, argv: list, check_rows: Callable) -> Op:
    """One in-process CLI run writing its CSV into the scratch directory."""

    def call(seed, scratch):
        out = Path(scratch) / f"{label}.csv"
        manifest = Path(f"{out}.manifest")
        start = time.perf_counter()
        try:
            code = cli.main([*argv, "--seed", str(seed), "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        wall = time.perf_counter() - start
        text = out.read_text() if code == 0 and out.is_file() else ""
        out.unlink(missing_ok=True)
        manifest.unlink(missing_ok=True)
        return code, text, wall

    def check(raw):
        code, text, wall = raw
        res = Result(text)
        if code != 0:
            res.errors.append(f"exit code {code}")
            return res
        header, rows = _parse_csv(text, res)
        if rows:
            check_rows(header, rows, wall, res)
        return res

    return Op(f"cli {label}", call, check)


def _integrate_rows(paths: int) -> Callable:
    def check(header, rows, wall, res):
        row = rows[0]
        if len(rows) != 1 or row.get("n") != paths:
            res.errors.append(f"expected one row over {paths} paths, got {rows}")
        elif row["finite_fraction"] != 1.0 or not row["median"] > 0:
            # t^-1/2 under stable(1/2) is a.s. finite and positive
            res.errors.append(f"finite_fraction {row['finite_fraction']}, "
                              f"median {row['median']}")
    return check


def spde_op(label: str, argv: list, paths: int) -> Op:
    """One SPDE experiment through the CLI.

    Every se of a continuous statistic must be > 0; Galerkin errors must
    decrease in n.  For time_to_accuracy_s the run is scaled to TARGET_PATHS
    paths: under the stable driver the statistics have infinite fourth
    moments, so their reported se is too unsteady to extrapolate from.
    """

    def check_rows(header, rows, wall, res):
        for row in rows:
            if not row["se"] > 0:
                res.problems.append(f"se = {row['se']} for {header[0]} = "
                                    f"{row[header[0]]:g}")
        if "mean_sq_sup" in header:
            errs = [r["mean_sq_sup"] for r in sorted(rows, key=lambda r: r["n"])]
            if any(b >= a for a, b in zip(errs, errs[1:])):
                res.errors.append(f"mean_sq_sup {errs} does not decrease in n")
        res.accuracy = (wall, TARGET_PATHS / paths)

    return cli_op(label, ["spde", label, *argv, "--paths", str(paths)], check_rows)


def laplace_grid(tiny: bool = False) -> tuple:
    """Exact-in-law grid route: Kanter and gamma variates, no CP table, no SPDE."""
    paths = 400 if tiny else 10_000
    ops = [laplace_cell(phi, "pow:0.5", paths)
           for phi in ("stable:0.3", "stable:0.5", "stable:0.7", "gamma")]
    ops.append(cli_op("integrate", ["integrate", "--f", "pow:0.5", "--phi",
                                    "stable:0.5", "--paths", str(paths)],
                      _integrate_rows(paths)))
    return tuple(ops)


def laplace_cp(tiny: bool = False) -> tuple:
    """Compound-Poisson route through the same moments/mc/integrate layers."""
    # each Monte Carlo block builds its own jump table, so tiny runs use
    # fewer paths than blocks to keep the smoke test short
    paths = 16 if tiny else 20_000
    phi = "tempered:0.5,1"
    ops = (laplace_cell(phi, "exp:1", paths),
           laplace_cell(phi, "pow:0.5", paths),
           bound_op(phi, 0.5, 0.0, [1.0, 2.0] if tiny else [1.0, 2.0, 4.0], paths))
    return ops


def spde_cli(tiny: bool = False) -> tuple:
    """The SPDE experiments as the CLI runs them: exponential-Euler stepping
    at n = 8 and n = 64; the mc engine and jump tables are bypassed."""
    scale = 20 if tiny else 1
    ops = (
        spde_op("maximal", ["--dt", "0.015625"], 4000 // scale),
        spde_op("longrun", ["--t-grid", "2,4,8", "--p", "0.5", "--theta", "0.25"],
                1000 // scale),
        spde_op("galerkin", ["--n", "64", "--phi", "gamma", "--dt", "0.00390625",
                             "--truncations", "4,8,16,32", "--delta", "0.05"],
                200 // scale),
        spde_op("convmom", ["--t-grid", "0.25,0.5,1", "--theta", "0.25"],
                4000 // scale),
    )
    return ops


WORKLOADS = {"laplace-grid": laplace_grid, "laplace-cp": laplace_cp,
             "spde-cli": spde_cli}
# nominal seconds of one untraced round on a 2-vCPU machine; a run makes
# --seconds / ROUND_SECONDS rounds, whatever the clock says during the run
ROUND_SECONDS = {"laplace-grid": 9.0, "laplace-cp": 9.0, "spde-cli": 4.8}
