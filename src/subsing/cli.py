"""Command line entry point: every experiment as a subcommand.

Outputs are CSV files (or stdout) with a ``#``-prefixed header echoing the
fully resolved configuration, so a result file is self-describing and two
runs with the same configuration and seed are byte-identical.  Wall time and
other non-reproducible facts go to a sidecar ``.manifest`` file.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__, moments, spde
from .bernstein import Catalog, doubling_indices, inverse, parse_phi
from .errors import (CapabilityError, DomainError, GateViolation, NumericError,
                     PreconditionError, RangeError)
from .integrate import (ZeroOne, as_zero_one, finiteness_criterion,
                        parse_integrand, zero_one_verdict)
from .mc import Moments, run_mc
from .rng import as_generator, stream
from .subordinator import (EXACT_GRID_KINDS, grid_increments, jump_sampler,
                           simulate_general, time_grid)

USAGE_EXIT = 64
REFUSAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
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


def _bound_rows(rep, columns: str):
    """CSV body of a BoundReport: one row per horizon."""
    rows = zip(rep.T_grid, rep.estimates, rep.bound_rhs, rep.ratios)
    return [columns] + [",".join(_fmt(v) for v in (T, est.mean, est.std_error, rhs, r))
                        for T, est, rhs, r in rows]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bf(args):
    phi = parse_phi(args.phi)
    idx = doubling_indices(phi)
    lines = _header(args)
    lines.append(f"name={phi.name}")
    lines.append(f"simulable={phi.simulable}")
    for key in ("global_inf", "global_sup", "at_zero", "at_infinity"):
        val = getattr(idx, key)
        lines.append(f"{key}={'undetermined' if val is None else _fmt(val)}")
    for s in args.eval_at:
        lines.append(f"phi({_fmt(s)})={_fmt(phi(s))}")
    for y in args.invert_at:
        lines.append(f"inverse({_fmt(y)})={_fmt(inverse(phi, y))}")
    return lines


def cmd_sim(args):
    phi = parse_phi(args.phi)
    times = time_grid(args.T, args.dt)
    lines = _header(args)
    if args.export_path:
        if phi.kind is Catalog.STABLE:
            inc = grid_increments(phi, times, as_generator(args.seed))[0]
            values = np.concatenate(([0.0], np.cumsum(inc)))
            lines.append("t,S_t")
            lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(times, values)]
            return lines
        path = simulate_general(phi, args.T, args.eps, seed=args.seed)
        lines.append(f"# drift={_fmt(path.drift)},T={_fmt(path.horizon)}")
        lines.append("time,size")
        lines += [f"{_fmt(t)},{_fmt(s)}"
                  for t, s in zip(path.jump_times, path.jump_sizes)]
        return lines
    # Laplace certification summary over the replica ensemble
    lines.append("r,mc_mean,mc_se,exact,z")
    for r in args.r:
        def sampler(rng, m, r=r):
            inc = grid_increments(phi, times, rng, m, eps=args.eps)
            return np.exp(-r * inc.sum(axis=1))

        est = run_mc(sampler, args.paths, args.seed)
        exact = float(np.exp(-args.T * phi(r)))
        z = (est.mean - exact) / est.std_error if est.std_error else 0.0
        lines.append(",".join(_fmt(v) for v in (r, est.mean, est.std_error, exact, z)))
    return lines


def cmd_integrate(args):
    phi = parse_phi(args.phi)
    f = parse_integrand(args.f)
    if args.paths < 1:
        raise DomainError("--paths must be positive")
    verdict = zero_one_verdict(f, phi, (0.0, args.T))
    args.manifest["verdict"] = verdict.name
    lines = _header(args)
    lines.append("n,finite_fraction,mean,se,median")
    if verdict is ZeroOne.AS_INFINITE:
        # every path is +inf almost surely; no finite grid sum can show it
        lines.append(",".join(_fmt(v) for v in (
            args.paths, 0.0, math.inf, math.inf, math.inf)))
        return lines
    times = moments._default_times(f, args.T, args.dt, phi)
    args.manifest["grid_nodes"] = len(times)
    args.manifest["grid_bias"] = moments.grid_bias(phi, f, times)
    sampler, chunk = moments._integral_sampler(phi, f, times, args.eps)
    rng = stream(args.seed, 0)
    vals = np.concatenate([sampler(rng, min(chunk, args.paths - i))
                           for i in range(0, args.paths, chunk)])
    if phi.kind not in EXACT_GRID_KINDS:
        args.manifest.update(jump_sampler(phi, args.eps).record())
    est = Moments.of(vals).estimates()[0]
    lines.append(",".join(_fmt(v) for v in (
        len(vals), float(np.isfinite(vals).mean()), est.mean, est.std_error,
        float(np.median(vals)))))
    return lines


def cmd_zeroone(args):
    phi = parse_phi(args.phi)
    f = parse_integrand(args.f)
    domain = (args.domain[0], args.domain[1])
    res = finiteness_criterion(f, phi, domain)
    verdict = as_zero_one(res)
    lines = _header(args)
    lines.append(f"verdict={verdict.name}")
    lines.append(f"criterion={res.verdict.value}")
    if res.value is not None:
        lines.append(f"criterion_value={_fmt(res.value)}")
    return lines


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise DomainError(f"moment {args.mode} requires --{name}")


def cmd_moment(args):
    lines = _header(args)
    if args.mode == "exact":
        _need(args, "alpha", "f")
        f = parse_integrand(args.f)
        val = moments.exact_stable_moment(args.alpha, args.p, f,
                                          (args.domain[0], args.domain[1]))
        lines.append(f"value={_fmt(val)}")
        return lines
    if args.mode == "mc":
        _need(args, "phi", "f")
        phi = parse_phi(args.phi)
        f = parse_integrand(args.f)
        est = moments.mc_moment(phi, args.p, f, args.T, args.paths, args.seed,
                                method=args.method, dt=args.dt, eps=args.eps)
        lines.append("n,mean,se,method,heavy_tail")
        lines.append(",".join(_fmt(v) for v in (
            est.n_samples, est.mean, est.std_error, est.method,
            est.heavy_tail_flag)))
        return lines
    if args.mode == "bound":
        _need(args, "phi")
        phi = parse_phi(args.phi)
        rep = moments.bound_scan(phi, args.p, args.T_grid, args.paths,
                                 args.seed, theta=args.theta, lam=args.lam,
                                 dt=args.dt, method=args.method, eps=args.eps)
        lines.append(f"# clause={rep.clause}")
        return lines + _bound_rows(rep, "T,mc_mean,mc_se,rhs,ratio")
    if args.mode == "equiv":
        _need(args, "phi", "lam")
        phi = parse_phi(args.phi)
        res = moments.exp_moment_equivalence(phi, args.p, args.lam)
        lines.append(f"verdict={res.verdict.name}")
        if res.criterion_value is not None:
            lines.append(f"criterion_value={_fmt(res.criterion_value)}")
        return lines
    raise DomainError(f"unknown moment mode {args.mode!r}")


def _build_system(args) -> spde.GalerkinSystem:
    """Standard parametric test system for the CLI experiments.

    Eigenvalues k^gamma_exp, initial state k^-x_decay, diagonal diffusion
    q_scale * k^-q_decay * (0.6 + 0.4 tanh(y_k)), drift f_scale * k^-1.5 *
    tanh(y_{k-1}) (zero when f_scale is 0).
    """
    n = args.n
    if n < 1:
        raise DomainError("--n must be positive")
    k = np.arange(1, n + 1, dtype=float)
    gammas = args.gamma0 * k ** args.gamma_exp
    x0 = args.x_scale * k ** -args.x_decay
    scales = args.q_scale * k ** -args.q_decay

    if args.q_const:
        q = spde.constant_diagonal_q(scales, invertible=True)
    else:
        def entries(y, s=scales):
            return s[: y.shape[-1]] * (0.6 + 0.4 * np.tanh(y))

        q = spde.DiagonalQ(entries, float(np.linalg.norm(scales)),
                           0.4 * float(scales.max()), invertible=True)
    if args.f_scale == 0.0:
        drift = spde.zero_drift
        fb = flip = 0.0
    else:
        w = args.f_scale * k ** -1.5

        def drift(y, w=w):
            return w[: y.shape[-1]] * np.tanh(np.roll(y, 1, axis=-1))

        fb = float(np.linalg.norm(w))
        flip = float(w.max())
    a4 = (args.a4_c, args.a4_delta) if args.a4_c else None
    system = spde.GalerkinSystem(n, gammas, drift, fb, flip, q, x0,
                                 a4_constants=a4)
    spde.validate_system(system, seed=0)
    return system


def cmd_spde(args):
    phi = parse_phi(args.phi)
    system = _build_system(args)
    if args.truncations is None and args.mode == "galerkin":
        args.truncations = [2 ** j for j in range((args.n - 1).bit_length())]
    lines = _header(args)
    if args.mode == "sim":
        path = spde.simulate(system, phi, args.T, args.dt, args.seed, eps=args.eps)
        lines.append("t,S_t,|X_t|,|Z_t|")
        for j, t in enumerate(path.times):
            lines.append(",".join(_fmt(v) for v in (
                t, path.subordinator[j],
                float(np.linalg.norm(path.state[j])),
                float(np.linalg.norm(path.convolution[j])))))
        return lines
    if args.mode == "convmom":
        rep = spde.convolution_moment_scan(system, phi, args.p, args.theta,
                                           args.t_grid, args.paths, args.seed,
                                           dt=args.dt, eps=args.eps)
        return lines + _bound_rows(rep, "t,statistic,se,rhs,ratio")
    if args.mode == "maximal":
        rep = spde.maximal_inequality_scan(system, phi, args.p, args.t_grid,
                                           args.paths, args.seed, dt=args.dt,
                                           eps=args.eps)
        return lines + _bound_rows(rep, "t,statistic,se,rhs,ratio")
    if args.mode == "smallball":
        res = spde.small_ball(system, phi, args.delta, args.T, args.paths,
                              args.seed, dt=args.dt, eps=args.eps)
        lines.append("probability,wilson_low,wilson_high,analytic_lower_bound")
        lines.append(",".join(_fmt(v) for v in (
            res.probability, res.wilson_low, res.wilson_high,
            res.analytic_lower_bound)))
        return lines
    if args.mode == "longrun":
        rep = spde.longrun_moment_scan(system, phi, args.p, args.theta,
                                       args.t_grid, args.paths, args.seed,
                                       dt=args.dt, eps=args.eps)
        lines.append("T,average,se")
        for T, est in zip(rep.horizons, rep.averages):
            lines.append(",".join(_fmt(v) for v in (T, est.mean, est.std_error)))
        return lines
    if args.mode == "control":
        times = time_grid(args.T, args.dt)
        inc = grid_increments(phi, times, stream(args.seed, 0), 1, eps=args.eps)[0]
        ell = np.concatenate(([0.0], np.cumsum(np.maximum(inc, 1e-12))))
        res = spde.synthesize_null_controller(system, times, ell,
                                              max_iter=args.max_iter,
                                              driver=phi)
        lines.append(f"# converged={res.converged}")
        lines.append(f"# terminal_phi_norm={_fmt(float(np.linalg.norm(res.phi_terminal)))}")
        lines.append(f"# terminal_y_norm={_fmt(float(np.linalg.norm(res.y_terminal)))}")
        lines.append(f"# history={','.join(_fmt(h) for h in res.history)}")
        lines.append("t,ell,u_norm")
        for t, l, u in zip(res.times, res.ell, res.control):
            lines.append(",".join(_fmt(v) for v in (t, l, float(np.linalg.norm(u)))))
        return lines
    if args.mode == "galerkin":
        if not args.truncations or any(m >= args.n for m in args.truncations):
            raise PreconditionError(
                "need one or more truncations, each < reference dimension")
        rep = spde.galerkin_error(system, args.truncations, phi, args.T,
                                  args.dt, args.paths, args.seed,
                                  delta=args.delta, eps=args.eps)
        lines.append("n,mean_sq_sup,se,exceed_prob,wilson_low,wilson_high")
        for m, est, pr in zip(rep.truncations, rep.sup_sq_error, rep.exceed_prob):
            lines.append(",".join(_fmt(v) for v in (
                m, est.mean, est.std_error, pr[0], pr[1], pr[2])))
        return lines
    raise DomainError(f"unknown spde mode {args.mode!r}")


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _float_list(text: str):
    return [float(x) for x in text.split(",") if x]


def _int_list(text: str):
    return [int(x) for x in text.split(",") if x]


def build_parser() -> _Parser:
    p = _Parser(prog="subsing", description=__doc__)
    p.add_argument("--config", default=None, help="INI file with a [run] section")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--eps", type=float, default=1e-4,
                        help="jump cutoff for compound Poisson drivers")

    q = sub.add_parser("bf", help="exponent report: indices, evaluation, inverse")
    q.add_argument("--phi", required=True)
    q.add_argument("--eval-at", type=_float_list, default=[])
    q.add_argument("--invert-at", type=_float_list, default=[])
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_bf)

    q = sub.add_parser("sim", help="sample paths and Laplace certification")
    q.add_argument("--phi", required=True)
    q.add_argument("--T", type=float, default=1.0)
    q.add_argument("--dt", type=float, default=1e-3)
    q.add_argument("--paths", type=int, default=1000)
    q.add_argument("--r", type=_float_list, default=[0.5, 1.0, 2.0])
    q.add_argument("--export-path", action="store_true")
    common(q)
    q.set_defaults(func=cmd_sim)

    q = sub.add_parser("integrate", help="Monte Carlo of the pathwise integral")
    q.add_argument("--phi", required=True)
    q.add_argument("--f", required=True)
    q.add_argument("--T", type=float, default=1.0)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--paths", type=int, default=10000)
    common(q)
    q.set_defaults(func=cmd_integrate)

    q = sub.add_parser("zeroone", help="almost-sure finiteness verdict")
    q.add_argument("--phi", required=True)
    q.add_argument("--f", required=True)
    q.add_argument("--domain", type=_float_list, default=[0.0, 1.0])
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_zeroone)

    q = sub.add_parser("moment", help="moment formulas, MC, bounds, equivalence")
    q.add_argument("mode", choices=["exact", "mc", "bound", "equiv"])
    q.add_argument("--phi", default=None)
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--f", default=None)
    q.add_argument("--T", type=float, default=1.0)
    q.add_argument("--domain", type=_float_list, default=[0.0, 1.0])
    q.add_argument("--T-grid", type=_float_list, default=[1, 2, 4, 8])
    q.add_argument("--theta", type=float, default=None)
    q.add_argument("--lam", type=float, default=None)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--paths", type=int, default=10000)
    q.add_argument("--method", default="auto",
                   choices=["auto", "plain", "median_of_means"])
    common(q)
    q.set_defaults(func=cmd_moment)

    q = sub.add_parser("spde", help="spectral SPDE experiments")
    q.add_argument("mode", choices=["sim", "convmom", "maximal", "smallball",
                                    "longrun", "control", "galerkin"])
    q.add_argument("--phi", default="stable:0.6")
    q.add_argument("--n", type=int, default=8)
    q.add_argument("--gamma0", type=float, default=1.0)
    q.add_argument("--gamma-exp", type=float, default=1.4)
    q.add_argument("--x-scale", type=float, default=1.0)
    q.add_argument("--x-decay", type=float, default=1.5)
    q.add_argument("--q-scale", type=float, default=0.5)
    q.add_argument("--q-decay", type=float, default=1.2)
    q.add_argument("--q-const", action="store_true")
    q.add_argument("--f-scale", type=float, default=0.0)
    q.add_argument("--a4-c", type=float, default=None)
    q.add_argument("--a4-delta", type=float, default=0.25)
    q.add_argument("--T", type=float, default=1.0)
    q.add_argument("--dt", type=float, default=1 / 128)
    q.add_argument("--t-grid", type=_float_list, default=[1, 2, 4, 8])
    q.add_argument("--p", type=float, default=0.5)
    q.add_argument("--theta", type=float, default=0.0)
    q.add_argument("--delta", type=float, default=0.5)
    q.add_argument("--paths", type=int, default=2000)
    q.add_argument("--max-iter", type=int, default=64)
    q.add_argument("--truncations", type=_int_list, default=None,
                   help="galerkin truncation dimensions (default: the powers "
                        "of two below --n)")
    common(q)
    q.set_defaults(func=cmd_spde)
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
    args.manifest = {}
    start = time.perf_counter()
    try:
        lines = args.func(args)
    except (GateViolation, PreconditionError, CapabilityError) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return REFUSAL_EXIT
    except (DomainError, RangeError, NumericError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(args, lines, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
