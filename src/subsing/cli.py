"""Command line entry point: every experiment as a subcommand.

Outputs are CSV files (or stdout) with a ``#``-prefixed header echoing the
fully resolved configuration, so a result file is self-describing and two
runs with the same configuration and seed are byte-identical.  Wall time and
other non-reproducible facts go to a sidecar ``.manifest`` file.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__, mc, moments, spde
from .bernstein import doubling_indices, inverse, parse_phi
from .errors import (CapabilityError, DomainError, GateViolation, NumericError,
                     PreconditionError, RangeError)
from .integrate import (GAUSS_NODES, Verdict, finiteness_criterion,
                        parse_integrand)
from .rng import stream
from .subordinator import SAMPLERS, grid_increments, time_grid

USAGE_EXIT = 64
REFUSAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # a flag is taken only as spelt in full: no prefix stands for another flag
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


# attributes of the parsed arguments that are not configuration; ``manifest``
# collects how a command made its result, for the .manifest sidecar only
_NOT_CONFIG = ("func", "out", "manifest")


def _emit(args, lines, wall: float):
    text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".manifest", "w") as fh:
            fh.write(f"version={__version__}\nwall_seconds={wall:.3f}\n")
            for k, v in sorted(vars(args).items()):
                if k not in _NOT_CONFIG:
                    fh.write(f"{k}={v}\n")
            for k, v in args.manifest.items():
                fh.write(f"{k}={_fmt(v)}\n")
    else:
        sys.stdout.write(text)


def _header(args):
    items = sorted((k, v) for k, v in vars(args).items()
                   if k not in _NOT_CONFIG and v is not None)
    lines = [f"# subsing {__version__}"]
    lines += [f"# {k}={v}" for k, v in items]
    return lines


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _csv(columns: str, rows):
    """CSV body: the column line, then one line per row of values."""
    return [columns] + [",".join(_fmt(v) for v in row) for row in rows]


def _join(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _level_facts(levels) -> dict:
    """The .manifest record of a multilevel run's ``levels``: the method of
    :func:`mc.multilevel_estimates` ("multilevel" past one level, else
    "plain"), each level's step and paths, its mean and sample variance per
    horizon, and the finest level's correction per horizon, the estimate of
    the grid's resolution bias beside the SE."""
    facts = {"method": "multilevel" if len(levels) > 1 else "plain",
             "level_dt": _join(lv.dt for lv in levels),
             "level_paths": _join(lv.moments.count for lv in levels)}
    for i, lv in enumerate(levels):
        m = lv.moments
        var = m.m2 / (m.count - 1) if m.count > 1 else m.m2 * math.nan
        facts[f"level_{i}_mean"] = _join(np.ravel(m.mean))
        facts[f"level_{i}_var"] = _join(np.ravel(var))
    if len(levels) > 1:
        facts["finest_correction"] = facts[f"level_{len(levels) - 1}_mean"]
    return facts


def _quadrature_facts(res) -> dict:
    """The .manifest record of a criterion integral ``res``: the nodes of the
    rule on a piece, and the pieces and integrand evaluations it took (0 for
    a closed form)."""
    return {"quadrature_nodes_per_piece": GAUSS_NODES,
            "quadrature_pieces": res.pieces,
            "quadrature_evaluations": res.evaluations}


def _integral_times(args, phi, f):
    """The criterion and grid times of :func:`moments.integral_grid` at --T
    and --dt; the grid's nodes, bias and certificates go to the .manifest."""
    res, times, bias, certificates = moments.integral_grid(phi, f, args.T, args.dt)
    if times is not None:
        args.manifest.update(grid_nodes=len(times), grid_bias=bias,
                             grid_certificates=certificates)
    return res, times


def _zero_one(verdict: Verdict) -> str:
    """The almost-sure dichotomy that a criterion verdict gives, as the CLI
    spells it: AS_FINITE, AS_INFINITE or UNDETERMINED."""
    return verdict.name if verdict is Verdict.UNDETERMINED else "AS_" + verdict.name


def _bound_rows(rep, columns: str):
    """CSV body of a BoundReport: one row per horizon."""
    return _csv(columns, ((T, est.mean, est.std_error, rhs, r) for T, est, rhs, r
                          in zip(rep.T_grid, rep.estimates, rep.bound_rhs, rep.ratios)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bf(args):
    phi = parse_phi(args.phi)
    idx = doubling_indices(phi)
    lines = [f"name={phi.name}", f"simulable={phi.kind in SAMPLERS}"]
    for key in ("global_inf", "global_sup", "at_zero", "at_infinity"):
        val = getattr(idx, key)
        lines.append(f"{key}={'undetermined' if val is None else _fmt(val)}")
    for s in args.eval_at:
        lines.append(f"phi({_fmt(s)})={_fmt(phi(s))}")
    for y in args.invert_at:
        lines.append(f"inverse({_fmt(y)})={_fmt(inverse(phi, y))}")
    return lines


def cmd_sim(args):
    """Laplace certification of the replica ensemble, one row per r."""
    phi = parse_phi(args.phi)
    times = time_grid(args.T, args.dt)
    if not args.r:
        raise DomainError("--r needs at least one value")
    # phi(r) refuses a bad r before anything is drawn
    exacts = [float(np.exp(-args.T * phi(r))) for r in args.r]
    ests = moments.laplace_mc(phi, args.r, times, args.paths, args.seed)
    return _csv("r,mc_mean,mc_se,exact,z", (
        (r, est.mean, est.std_error, exact,
         (est.mean - exact) / est.std_error if est.std_error else 0.0)
        for r, exact, est in zip(args.r, exacts, ests)))


def cmd_path(args):
    """One path: the values t,S_t on the grid of step ``--dt``, drawn from
    stream (seed, 0) like the S_t of ``spde sim``."""
    phi = parse_phi(args.phi)
    times = time_grid(args.T, args.dt)
    inc = grid_increments(phi, times, stream(args.seed, 0))[0]
    values = np.concatenate(([0.0], np.cumsum(inc)))
    return _csv("t,S_t", zip(times, values))


def cmd_integrate(args):
    phi = parse_phi(args.phi)
    f = parse_integrand(args.f)
    res, times = _integral_times(args, phi, f)
    row = moments.integral_summary(phi, f, times, args.paths, args.seed)
    args.manifest["verdict"] = _zero_one(res.verdict)
    if times is None:
        # an a.s. infinite integral draws nothing: no grid or draw flag is echoed
        del args.dt, args.seed
    return _csv("n,finite_fraction,mean,se,median", [row])


def cmd_zeroone(args):
    phi = parse_phi(args.phi)
    f = parse_integrand(args.f)
    res = finiteness_criterion(f, phi, tuple(args.domain))
    args.manifest.update(_quadrature_facts(res))
    lines = [f"verdict={_zero_one(res.verdict)}",
             f"criterion={res.verdict.value}"]
    if res.value is not None:
        lines.append(f"criterion_value={_fmt(res.value)}")
    return lines


def cmd_moment(args):
    phi = parse_phi(args.phi)
    if args.mode == "exact":
        f = parse_integrand(args.f)
        val = moments.exact_stable_moment(phi, args.p, f, tuple(args.domain))
        return [f"value={_fmt(val)}"]
    if args.mode == "equiv":
        res = moments.exp_moment_equivalence(phi, args.p, args.lam)
        args.manifest.update(_quadrature_facts(res))
        lines = [f"verdict=BOTH_{res.verdict.name}"]
        if res.value is not None:
            lines.append(f"criterion_value={_fmt(res.value)}")
        return lines
    if args.mode == "mc":
        f = parse_integrand(args.f)
        times = _integral_times(args, phi, f)[1]
        est = moments.mc_integral_moment(phi, args.p, f, times, args.paths,
                                         args.seed, method=args.method)
        return _csv("n,mean,se,method,heavy_tail", [(
            est.n_samples, est.mean, est.std_error, est.method,
            est.heavy_tail_flag)])
    rep = moments.bound_scan(phi, args.p, args.T_grid, args.paths,   # bound
                             args.seed, theta=args.theta, lam=args.lam,
                             dt=args.dt, method=args.method)
    return [f"# clause={rep.clause}"] + _bound_rows(rep, "T,mc_mean,mc_se,rhs,ratio")


def _build_system(args, a4) -> spde.GalerkinSystem:
    """Standard parametric test system for the CLI experiments.

    Eigenvalues k^gamma_exp, initial state k^-x_decay, diagonal diffusion
    q_scale * k^-q_decay * (0.6 + 0.4 tanh(y_k)), drift f_scale * k^-1.5 *
    tanh(y_{k-1}) (zero when f_scale is 0); inverse-diffusion a4 = (C, delta).
    """
    n = args.n
    if n < 1:
        raise DomainError("--n must be positive")
    k = np.arange(1, n + 1, dtype=float)
    with np.errstate(over="ignore"):    # an overflow is refused as inf below
        gammas = args.gamma0 * k ** args.gamma_exp
        x0 = args.x_scale * k ** -args.x_decay
        scales = args.q_scale * k ** -args.q_decay
        w = args.f_scale * k ** -1.5
        x_norm, hs, fb = (float(np.linalg.norm(v)) for v in (x0, scales, w))
    if not np.all(np.isfinite([x_norm, hs, fb])):
        raise DomainError("the norms of x0 (--x-scale), of the diffusion "
                          "scales (--q-scale) and of the drift (--f-scale) "
                          "must be finite")

    if args.q_const:
        q = spde.constant_diagonal_q(scales)
    else:
        rows = spde.mode_rows(scales)

        def entries(y):
            out = np.tanh(y)
            out *= 0.4
            out += 0.6
            out *= rows(y.shape)
            return out

        q = spde.DiagonalQ(entries, hs)
    if args.f_scale == 0.0:
        drift = spde.zero_drift
    else:
        def drift(y, w=w):
            return w[: y.shape[-1]] * np.tanh(np.roll(y, 1, axis=-1))
    system = spde.GalerkinSystem(n, gammas, drift, fb, float(np.abs(w).max()),
                                 q, x0, a4_constants=a4)
    spde.validate_system(system)
    return system


def cmd_spde(args):
    phi = parse_phi(args.phi)
    c, delta = (args.a4_c, args.a4_delta) if args.mode == "control" else (0, 0)
    system = _build_system(args, (c, delta) if c else None)
    if args.mode == "galerkin" and args.truncations is None:
        args.truncations = [2 ** j for j in range((args.n - 1).bit_length())]
    if args.mode == "sim":
        path = spde.simulate(system, phi, args.T, args.dt, args.seed)
        with np.errstate(over="ignore"):    # an overflow is refused as inf below
            norms = [[float(np.linalg.norm(row)) for row in v]
                     for v in (path.state, path.convolution)]
        if not np.all(np.isfinite(norms)):
            raise NumericError("a path left the range of doubles: |X_t| or "
                               "|Z_t| is not finite")
        return _csv("t,S_t,|X_t|,|Z_t|",
                    zip(path.times, path.subordinator, *norms))
    if args.mode == "convmom":
        rep = spde.convolution_moment_scan(system, phi, args.p, args.theta,
                                           args.t_grid, args.paths, args.seed,
                                           dt=args.dt)
        args.manifest.update(_level_facts(rep.levels))
        return _bound_rows(rep, "t,statistic,se,rhs,ratio")
    if args.mode == "maximal":
        rep = spde.maximal_inequality_scan(system, phi, args.p, args.t_grid,
                                           args.paths, args.seed, dt=args.dt)
        args.manifest.update(_level_facts(rep.levels))
        return _bound_rows(rep, "t,statistic,se,rhs,ratio")
    if args.mode == "smallball":
        res = spde.small_ball(system, phi, args.delta, args.T, args.paths,
                              args.seed, dt=args.dt)
        return _csv("probability,wilson_low,wilson_high,analytic_lower_bound",
                    [(res.probability, res.wilson_low, res.wilson_high,
                      res.analytic_lower_bound)])
    if args.mode == "longrun":
        rep = spde.longrun_moment_scan(system, phi, args.p, args.theta,
                                       args.t_grid, args.paths, args.seed,
                                       dt=args.dt)
        args.manifest.update(_level_facts(rep.levels))
        rows = ((T, est.mean, est.std_error) for T, est in zip(rep.horizons, rep.averages))
        return _csv("T,average,se", rows)
    if args.mode == "control":
        times = time_grid(args.T, args.dt)
        inc = grid_increments(phi, times, stream(args.seed, 0), 1)[0]
        ell = np.concatenate(([0.0], np.cumsum(np.maximum(inc, 1e-12))))
        res = spde.synthesize_null_controller(system, times, ell,
                                              max_iter=args.max_iter,
                                              driver=phi)
        lines = [f"# converged={res.converged}",
                 f"# terminal_phi_norm={_fmt(float(np.linalg.norm(res.phi_terminal)))}",
                 f"# terminal_y_norm={_fmt(float(np.linalg.norm(res.y_terminal)))}",
                 f"# history={','.join(_fmt(h) for h in res.history)}"]
        rows = ((t, l, float(np.linalg.norm(u)))
                for t, l, u in zip(res.times, res.ell, res.control))
        return lines + _csv("t,ell,u_norm", rows)
    # galerkin
    if not args.truncations or any(not 0 < m < args.n for m in args.truncations):
        raise PreconditionError(
            f"--truncations {','.join(map(str, args.truncations))!r}: need "
            f"one or more, each in 1..{args.n - 1}")
    rep = spde.galerkin_error(system, args.truncations, phi, args.T,
                              args.dt, args.paths, args.seed,
                              delta=args.delta)
    args.manifest.update(
        projection_floor=_join(rep.projection_floor),
        floor_share=_join(rep.floor_share),
        truncations_stepped=rep.truncations_stepped)
    return _csv("n,mean_sq_sup,se,exceed_prob,wilson_low,wilson_high", (
        (m, est.mean, est.std_error, *pr)
        for m, est, pr in zip(rep.truncations, rep.sup_sq_error, rep.exceed_prob)))


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _float_list(text: str):
    return [float(x) for x in text.split(",") if x]


def _int_list(text: str):
    return [int(x) for x in text.split(",") if x]


def _domain(text: str):
    vals = _float_list(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected two values a,b, got {text!r}")
    return vals


# Every flag once: its argparse settings, with the default of the commands
# that set none of their own.  Every command once: its help, its handler and
# the flags that it reads, in order.  A flag entry is a flag, a (flag, default)
# pair where the command sets its own default (a required flag so becomes
# optional), or "--a|--b": exactly one of two flags, each defaulting to None.
# A command with modes maps each mode to its own flags, which follow the
# command's, and its one handler dispatches on ``args.mode``.
FLAGS = {
    "--config": dict(default=None, help="INI file with a [run] section"),
    "--phi": dict(required=True),
    "--p": dict(type=float, required=True),
    "--f": dict(required=True),
    "--eval-at": dict(type=_float_list, default=[]),
    "--invert-at": dict(type=_float_list, default=[]),
    "--T": dict(type=float, default=1.0),
    "--dt": dict(type=float, default=None),
    "--paths": dict(type=int, default=10000),
    "--r": dict(type=_float_list, default=[0.5, 1.0, 2.0]),
    "--domain": dict(type=_domain, default=[0.0, 1.0]),
    "--T-grid": dict(type=_float_list, default=[1, 2, 4, 8]),
    "--theta": dict(type=float, default=0.0),
    "--lam": dict(type=float, required=True),
    "--method": dict(default="auto", choices=["auto", "plain", "median_of_means"]),
    "--n": dict(type=int, default=8),
    "--gamma0": dict(type=float, default=1.0),
    "--gamma-exp": dict(type=float, default=1.4),
    "--x-scale": dict(type=float, default=1.0),
    "--x-decay": dict(type=float, default=1.5),
    "--q-scale": dict(type=float, default=0.5),
    "--q-decay": dict(type=float, default=1.2),
    "--q-const": dict(action="store_true"),
    "--f-scale": dict(type=float, default=0.0),
    "--a4-c": dict(type=float, default=None),
    "--a4-delta": dict(type=float, default=0.25),
    "--t-grid": dict(type=_float_list, default=[1, 2, 4, 8]),
    "--delta": dict(type=float, default=0.5),
    "--max-iter": dict(type=int, default=64),
    "--truncations": dict(type=_int_list, default=None,
                          help="galerkin truncation dimensions (default: the "
                               "powers of two below --n)"),
    "--seed": dict(type=int, default=0),
    "--out": dict(default=None),
}
_SPDE_P, _SPDE_PATHS = ("--p", 0.5), ("--paths", 2000)
COMMANDS = {
    "bf": ("exponent report: indices, evaluation, inverse", cmd_bf,
           ("--phi", "--eval-at", "--invert-at", "--out")),
    "sim": ("Laplace certification of sampled paths", cmd_sim,
            ("--phi", "--T", ("--dt", 1e-3), ("--paths", 1000), "--r", "--seed",
             "--out")),
    "path": ("export one sample path", cmd_path,
             ("--phi", "--T", ("--dt", 1e-3), "--seed", "--out")),
    "integrate": ("Monte Carlo of the pathwise integral", cmd_integrate,
                  ("--phi", "--f", "--T", "--dt", "--paths", "--seed", "--out")),
    "zeroone": ("almost-sure finiteness verdict", cmd_zeroone,
                ("--phi", "--f", "--domain", "--out")),
    "moment": ("moment formulas, MC, bounds, equivalence", cmd_moment,
               ("--phi", "--p"), {
        "exact": ("--f", "--domain", "--out"),
        "mc": ("--f", "--T", "--dt", "--paths", "--method", "--seed", "--out"),
        "bound": ("--T-grid", "--dt", "--paths", "--method", "--theta|--lam",
                  "--seed", "--out"),
        "equiv": ("--lam", "--out"),
    }),
    # every spde mode builds the system and steps it
    "spde": ("spectral SPDE experiments", cmd_spde,
             (("--phi", "stable:0.6"), "--n", "--gamma0", "--gamma-exp",
              "--x-scale", "--x-decay", "--q-scale", "--q-decay", "--q-const",
              "--f-scale", ("--dt", 1 / 128)), {
        "sim": ("--T", "--seed", "--out"),
        "convmom": ("--t-grid", _SPDE_P, "--theta", _SPDE_PATHS, "--seed", "--out"),
        "maximal": ("--t-grid", _SPDE_P, _SPDE_PATHS, "--seed", "--out"),
        "smallball": ("--T", "--delta", _SPDE_PATHS, "--seed", "--out"),
        "longrun": ("--t-grid", _SPDE_P, "--theta", _SPDE_PATHS, "--seed", "--out"),
        "control": ("--T", "--a4-c", "--a4-delta", "--max-iter", "--seed", "--out"),
        "galerkin": ("--T", "--truncations", "--delta", _SPDE_PATHS, "--seed",
                     "--out"),
    }),
}


def _add(parser, entry):
    """Add one flag entry of :data:`COMMANDS` to ``parser``."""
    flag, *own = (entry,) if isinstance(entry, str) else entry
    if "|" in flag:
        group = parser.add_mutually_exclusive_group(required=True)
        for one in flag.split("|"):
            _add(group, (one, None))
        return
    kwargs = dict(FLAGS[flag])
    if own:
        kwargs.pop("required", None)
        kwargs["default"] = own[0]
    parser.add_argument(flag, **kwargs)


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once per process: parsing neither
    changes it nor any default that it holds."""
    p = _Parser(prog="subsing", description=__doc__)
    _add(p, "--config")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, func, flags, *modes) in COMMANDS.items():
        q = sub.add_parser(name, help=text)
        leaves = [(q, flags)]
        if modes:
            sub_modes = q.add_subparsers(dest="mode", required=True)
            leaves = [(sub_modes.add_parser(mode), flags + own)
                      for mode, own in modes[0].items()]
        for leaf, entries in leaves:
            for entry in entries:
                _add(leaf, entry)
            leaf.set_defaults(func=func)
    return p


def _apply_config(parser: _Parser, argv):
    i = next((i for i, tok in enumerate(argv)
              if tok == "--config" or tok.startswith("--config=")), None)
    if i is None:
        return argv
    if argv[i] == "--config":
        if i + 1 == len(argv):
            parser.error("argument --config: expected a file name")
        path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    else:
        path, rest = argv[i].partition("=")[2], argv[:i] + argv[i + 1:]
    cp = configparser.ConfigParser()
    try:
        found = cp.read(path)
        items = cp.items("run") if cp.has_section("run") else []
    except (configparser.Error, UnicodeDecodeError) as exc:
        parser.error(f"config file {path!r}: {exc}")
    if not found:
        parser.error(f"config file {path!r} cannot be read")
    given = {tok.partition("=")[0] for tok in rest}
    pairs = []
    for key, val in items:
        flag = "--" + key.replace("_", "-")
        if flag not in given:   # explicit flags win, "--flag=value" included
            pairs += [flag, val]
    return rest + pairs


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    start = time.perf_counter()
    try:
        args.manifest = {"workers": mc._worker_count()}
        lines = args.func(args)
    except (GateViolation, PreconditionError, CapabilityError) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return REFUSAL_EXIT
    except (DomainError, RangeError, NumericError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    # a handler returns the body; the header reads the arguments as it left them
    _emit(args, _header(args) + lines, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
