import argparse
import ast
import hashlib
import importlib.util
import math
import os
import shlex
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from subsing import __version__, cli, integrate, mc, moments, spde
from subsing.cli import main
from subsing.rng import stream


def run(argv):
    return main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_zeroone_verdicts(capsys):
    assert run(["zeroone", "--f", "pow:2", "--phi", "stable:0.5"]) == 0
    out = capsys.readouterr().out
    assert "verdict=AS_INFINITE" in out
    assert run(["zeroone", "--f", "pow:1", "--phi", "stable:0.5"]) == 0
    out = capsys.readouterr().out
    assert "verdict=AS_FINITE" in out
    assert "criterion_value=2.0" in out


def test_bf_report(capsys):
    assert run(["bf", "--phi", "ratio:0.5", "--eval-at", "3",
                "--invert-at", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "phi(3.0)=1.5" in out
    assert "at_zero=" in out and "simulable=False" in out


def test_moment_exact_and_mc(capsys):
    assert run(["moment", "exact", "--phi", "stable:0.5", "--p", "-1",
                "--f", "const:1"]) == 0
    assert "value=2.0" in capsys.readouterr().out
    assert run(["moment", "mc", "--phi", "stable:0.5", "--p", "0.25",
                "--f", "const:1", "--T", "1", "--paths", "8000",
                "--seed", "7"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1]
    mean = float(row.split(",")[1])
    assert abs(mean - 1.4464) < 0.08


@pytest.mark.parametrize("argv, seeds, method, flag", [
    (["--phi", "stable:0.5", "--p", "0.3", "--f", "pow:0.5", "--paths", "2000"],
     range(1, 9), "median_of_means", "True"),
    (["--phi", "gamma", "--p", "-0.5", "--f", "const:1", "--paths", "200000"],
     range(1, 4), "plain", "False")], ids=["stable-past-half-alpha", "gamma"])
def test_heavy_tail_flag_follows_the_method(argv, seeds, method, flag, capsys):
    # the flag is read off the method, so no seed changes it
    for seed in seeds:
        assert run(["moment", "mc", *argv, "--seed", str(seed)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert row[3:] == [method, flag], seed


def test_refusal_exit_code(capsys):
    code = run(["moment", "bound", "--phi", "stable:0.5", "--p", "0.7",
                "--theta", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "log2" in err and "phi(2s)/phi(s)" in err


def test_moment_exact_refuses_a_non_stable_exponent(capsys):
    # only a stable exponent has the closed form
    assert run(["moment", "exact", "--phi", "gamma", "--p", "0.25",
                "--f", "const:1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused: gamma:") and err.count("\n") == 1


def test_negative_theta_is_refused(capsys):
    code = run(["moment", "bound", "--phi", "stable:0.5", "--p", "0.25",
                "--theta", "-1", "--T-grid", "0.5,2"])
    assert code == 2
    assert "requires theta >= 0 (theta = -1.0)" in capsys.readouterr().err


def test_bound_at_a_horizon_near_the_double_range(capsys):
    # the right side inverts phi at 1/T = 1e-300, whose bracket's product
    # underflows
    assert run(["moment", "bound", "--phi", "gamma", "--p", "0.2", "--theta",
                "0", "--T-grid", "1e300", "--paths", "200"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert math.isfinite(float(row[3]))


@pytest.mark.parametrize("f_scale", ["10", "-10"])
def test_control_horizon_refusal_ignores_drift_sign(f_scale, capsys):
    # the drift's Lipschitz constant is max |w|, whatever the sign of w
    code = run(["spde", "control", "--n", "2", "--q-const", "--a4-c", "4",
                "--f-scale", f_scale, "--T", "0.5", "--dt", "0.125"])
    assert code == 2
    assert "horizon 0.5 is not below 1/drift_lip = 0.1" in capsys.readouterr().err


def test_usage_exit_code():
    assert run(["--definitely-not-a-flag"]) == 64
    assert run(["moment", "exact"]) == 64      # missing required --p


def test_galerkin_truncation_refused(capsys):
    code = run(["spde", "galerkin", "--n", "16", "--truncations", "4,16",
                "--paths", "2", "--T", "0.25", "--dt", "0.0625"])
    assert code == 2
    assert "truncation" in capsys.readouterr().err


def test_galerkin_default_truncations(tmp_path):
    # the default truncations are the powers of two below the default --n 8
    out = tmp_path / "g.csv"
    assert run(["spde", "galerkin", "--paths", "50", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# truncations=[1, 2, 4]\n" in text
    body = text.split("n,mean_sq_sup,se,exceed_prob,wilson_low,wilson_high\n")
    assert [row.split(",")[0] for row in body[1].splitlines()] == ["1", "2", "4"]


@pytest.mark.parametrize("truncations", ["8", "", "0", "-1"])
def test_galerkin_bad_truncations_refused(truncations, capsys):
    # every truncation outside 1..n-1 is refused by name, before any draw
    assert run(["spde", "galerkin", "--n", "8", "--truncations", truncations,
                "--paths", "2", "--T", "0.25", "--dt", "0.0625"]) == 2
    assert capsys.readouterr().err == (
        f"refused: --truncations {truncations!r}: need one or more, each in 1..7\n")


def test_spde_header_omits_unused_truncations(tmp_path):
    # only galerkin reads --truncations, so no other mode echoes it
    out = tmp_path / "m.csv"
    assert run(["spde", "maximal", "--n", "4", "--t-grid", "1", "--dt", "0.0625",
                "--paths", "20", "--out", str(out)]) == 0
    assert "truncations" not in out.read_text()


@pytest.mark.parametrize("mode", ["sim", "convmom", "maximal", "smallball",
                                  "longrun", "control", "galerkin"])
def test_spde_empty_phi_exit_code(mode, capsys):
    assert run(["spde", mode, "--phi=", "--n", "2"]) == 1
    assert "unknown exponent id" in capsys.readouterr().err


@pytest.mark.parametrize("max_iter, a4_c", [("0", "4"), ("-3", "4"), ("0", "0.01")])
def test_spde_control_without_sweeps_exit_code(max_iter, a4_c, capsys):
    # no sweep would leave a control built from the initial guess; the count
    # is refused before the inverse-diffusion probe, which C = 0.01 fails
    assert run(["spde", "control", "--n", "2", "--q-const", "--a4-c", a4_c,
                "--T", "0.5", "--dt", "0.125", "--max-iter", max_iter]) == 1
    assert capsys.readouterr().err == (
        f"error: need at least one sweep, got max_iter = {max_iter}\n")


@pytest.mark.parametrize("dt", ["0.3", "5"])
def test_spde_control_dt_must_divide_T(dt, capsys):
    assert run(["spde", "control", "--phi", "stable:0.6", "--n", "2",
                "--q-const", "--a4-c", "4.0", "--T", "0.5", "--dt", dt]) == 1
    assert "dt" in capsys.readouterr().err


def test_moment_bound_honours_method(capsys):
    argv = ["moment", "bound", "--phi", "stable:0.5", "--p", "0.3",
            "--theta", "0.5", "--T-grid", "1,2", "--paths", "2000", "--seed", "5"]
    bodies = {}
    for method in ("auto", "plain", "median_of_means"):
        assert run(argv + ["--method", method]) == 0
        bodies[method] = [line for line in capsys.readouterr().out.splitlines()
                          if not line.startswith("#")]
    # p = 0.3 >= alpha / 2, so auto takes the median of means
    assert bodies["auto"] == bodies["median_of_means"] != bodies["plain"]


# zeroone outputs of the version that evaluated the criterion twice; the
# last digits of the gamma value since the composite Gauss-Legendre rule
# (quad wrote 0.48381903702066104, and the exact value pi^2/12 + Li2(-1/e)
# is 0.483819037020661038...)
ZEROONE_OUTPUTS = {
    ("exp:1", "gamma"): "verdict=AS_FINITE\ncriterion=finite\n"
                        "criterion_value=0.48381903702066087\n",
    ("pow:2", "stable:0.5"): "verdict=AS_INFINITE\ncriterion=infinite\n",
    # the slice scan neither converges nor diverges
    ("pow:2", "stableloginv:0.5,0.5"): "verdict=UNDETERMINED\n"
                                       "criterion=undetermined\n",
}


@pytest.mark.parametrize("f,phi", list(ZEROONE_OUTPUTS))
def test_zeroone_evaluates_criterion_once(f, phi, tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return criterion(*args, **kwargs)

    criterion = integrate.finiteness_criterion
    monkeypatch.setattr(integrate, "finiteness_criterion", counted)
    monkeypatch.setattr(cli, "finiteness_criterion", counted)
    out = tmp_path / "z.csv"
    assert run(["zeroone", "--f", f, "--phi", phi, "--out", str(out)]) == 0
    assert len(calls) == 1
    header = (f"# subsing {__version__}\n# command=zeroone\n"
              f"# domain=[0.0, 1.0]\n# f={f}\n# phi={phi}\n")
    assert out.read_text() == header + ZEROONE_OUTPUTS[f, phi]


def test_byte_identity(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sim", "--phi", "stable:0.6", "--T", "1", "--dt", "0.01",
            "--paths", "2000", "--seed", "42"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    assert (tmp_path / "a.csv.manifest").exists()


@pytest.mark.parametrize("argv,chunks", [
    (["spde", "maximal", "--phi", "stable:0.6", "--n", "4", "--p", "0.5",
      "--t-grid", "0.5,1,2", "--dt", "0.0625", "--paths", "300"], 2),
    (["spde", "galerkin", "--phi", "gamma", "--n", "16", "--truncations",
      "2,4,8", "--T", "0.5", "--dt", "0.03125", "--paths", "300"], 2),
    (["spde", "longrun", "--phi", "stable:0.6", "--n", "4", "--p", "0.5",
      "--theta", "0.25", "--t-grid", "1,2", "--dt", "0.0625",
      "--paths", "600"], 3),
    (["spde", "convmom", "--phi", "stable:0.6", "--n", "4", "--p", "0.5",
      "--theta", "0.25", "--t-grid", "0.25,0.5", "--dt", "0.03125",
      "--paths", "600"], 3),
    (["spde", "smallball", "--phi", "stable:0.6", "--n", "4", "--T", "1",
      "--delta", "0.5", "--dt", "0.0625", "--paths", "600"], 3)],
    ids=["maximal", "galerkin", "longrun", "convmom", "smallball"])
def test_spde_output_ignores_worker_count(tmp_path, monkeypatch, argv, chunks):
    # with two workers, galerkin (a step of 256 replicas x 16 modes reaches
    # THREAD_DOUBLES) shares its chunks between the calling thread and a
    # helper; the n = 4 scans run on the calling thread
    indices = set()

    def recorded(seed, index):
        indices.add(index)
        return stream(seed, index)

    monkeypatch.setattr(spde, "stream", recorded)
    threads = threading.active_count()
    outs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SUBSING_WORKERS", workers)
        out = tmp_path / f"w{workers}.csv"
        assert run(argv + ["--seed", "5", "--out", str(out)]) == 0
        assert threading.active_count() == threads
        outs.append(read(out))
    assert outs[0] == outs[1]
    assert set(range(chunks)) <= indices


def test_spde_draw_error_surfaces_under_any_worker_count(monkeypatch, capsys):
    # ratio:0.5 has no exact grid sampler: one refusal at any worker count,
    # and no thread left
    errs = []
    threads = threading.active_count()
    for workers in ("1", "2"):
        monkeypatch.setenv("SUBSING_WORKERS", workers)
        assert run(["spde", "maximal", "--phi", "ratio:0.5", "--n", "2",
                    "--paths", "600"]) == 2
        assert threading.active_count() == threads
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "refused: ratio:0.5: no exact grid sampler\n"


@pytest.mark.parametrize("phi", ["ratio:0.5", "stablelog:0.5,0.2"])
def test_undrawable_driver_is_refused_before_the_grid_search(phi, monkeypatch,
                                                            capsys):
    # a finite integral under a driver with no exact grid sampler exits 2
    # without one grid bias evaluation; an a.s. infinite one draws nothing
    # and still runs
    def no_bias(*args, **kwargs):
        raise AssertionError("searched a grid for an undrawable driver")

    monkeypatch.setattr(moments, "grid_bias", no_bias)
    assert run(["integrate", "--phi", phi, "--f", "pow:0.5"]) == 2
    assert capsys.readouterr().err == f"refused: {phi}: no exact grid sampler\n"
    assert run(["integrate", "--phi", phi, "--f", "pow:3", "--paths", "100"]) == 0
    assert capsys.readouterr().err == ""


def test_longrun_horizon_on_the_start_column_exit_code(capsys):
    # T + 1 = 1 + 1e-12 falls on the column of t = 1: zero steps to average
    assert run(["spde", "longrun", "--n", "2", "--t-grid", "1e-12",
                "--paths", "4"]) == 1
    assert "T = 1e-12 is not a time of the grid" in capsys.readouterr().err


OFF_GRID = ["--phi", "stable:0.6", "--n", "4", "--p", "0.5", "--t-grid",
            "1.3,2", "--dt", "0.0625", "--paths", "10"]


@pytest.mark.parametrize("argv", [
    ["maximal", *OFF_GRID],
    ["longrun", "--theta", "0.25", *OFF_GRID],
    # 5e-10 and 3e-10 lie below the first grid time, 1e-9
    ["convmom", "--n", "2", "--t-grid", "5e-10,1e-9", "--dt", "1e-9",
     "--theta", "0", "--paths", "50"],
    ["maximal", "--n", "2", "--t-grid", "3e-10,1e-9", "--dt", "1e-9",
     "--paths", "50"],
], ids=["maximal", "longrun", "convmom-below-the-grid", "maximal-below-the-grid"])
def test_spde_off_grid_horizon_exit_code(argv, capsys):
    assert run(["spde", *argv]) == 1
    assert "not a time of the grid" in capsys.readouterr().err


PAST_DOUBLES = ["--n", "3", "--dt", "0.25", "--paths", "2000",
                "--q-scale", "1e153", "--phi", "stable:0.3"]
TINY_DELTA = ["--n", "2", "--T", "0.25", "--dt", "0.125", "--paths", "10",
              "--delta", "1e-100"]


@pytest.mark.parametrize("argv, bound", [
    (["maximal", "--t-grid", "1", *PAST_DOUBLES], None),
    (["convmom", "--t-grid", "1", *PAST_DOUBLES], None),
    (["longrun", "--t-grid", "1", "--theta", "0", *PAST_DOUBLES], None),
    (["galerkin", "--T", "1", "--truncations", "1,2", *PAST_DOUBLES], None),
    # an overflowed norm lies outside the ball; kappa = 0 at this scale
    (["smallball", "--T", "1", *PAST_DOUBLES], 0.0),
    # delta^4 underflows to 0: the analytic bound takes its limit, -inf, or
    # 0 where kappa = 0
    (["smallball", *TINY_DELTA], -math.inf),
    (["smallball", *TINY_DELTA, "--q-scale", "1e153"], 0.0),
], ids=["maximal", "convmom", "longrun", "galerkin", "smallball",
        "smallball-tiny-delta", "smallball-tiny-delta-kappa-0"])
def test_spde_past_the_double_range_exit_code(argv, bound, capsys):
    # a statistic past the double range is one error line, not an inf in the
    # output, and no RuntimeWarning, which the suite raises as an error
    code = run(["spde", *argv])
    out, err = capsys.readouterr()
    if bound is None:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0 and err == ""
        row = [float(v) for v in out.splitlines()[-1].split(",")]
        assert all(map(math.isfinite, row[:3])) and row[3] == bound


def test_spde_sim_past_the_double_range_exit_code(capsys):
    # a state whose norm overflows is one error line, not an inf in the output
    assert run(["spde", "sim", "--n", "3", "--T", "1", "--dt", "0.25",
                "--q-scale", "1e153", "--phi", "stable:0.3", "--seed", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once_per_process(capsys):
    # a parse leaves the shared parser and its defaults as they were: each
    # run writes what it writes from a freshly built parser
    assert cli.build_parser() is cli.build_parser()
    base = ["spde", "convmom", "--n", "2", "--dt", "0.0625", "--paths", "20"]
    argvs = [base + ["--t-grid", "0.5,1"], base, base + ["--t-grid", "0.25"], base]
    outs = []
    for argv in argvs:
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    for argv, out in zip(argvs, outs):
        cli.build_parser.cache_clear()
        assert run(argv) == 0
        assert capsys.readouterr().out == out
    assert outs[1] == outs[3] and outs[0] != outs[1]


@pytest.mark.parametrize("m", [8, 5, 1])
def test_cli_diffusion_entries_are_the_formula(m):
    # the scales multiply as one full array, value for value the (n,) row
    args = cli.build_parser().parse_args(["spde", "maximal", "--n", "8"])
    system = cli._build_system(args, None)
    s = args.q_scale * np.arange(1.0, 9.0) ** -args.q_decay
    y = stream(m, 0).normal(0.0, 3.0, (256, m))
    for rows in (y, y[:7]):
        want = (np.tanh(rows) * 0.4 + 0.6) * s[:m]
        assert np.array_equal(system.diffusion.entries(rows), want)


@pytest.mark.parametrize("argv, last", [
    (["zeroone", "--phi", "tempered:0.5,1", "--f", "pow:400"],
     "criterion=infinite"),
    (["integrate", "--phi", "gamma", "--f", "pow:1e300", "--paths", "100"],
     "100,0.0,inf,inf,inf"),
    (["moment", "mc", "--phi", "gamma", "--p", "1", "--f", "pow:1e300",
      "--paths", "100"], "100,inf,inf,plain,True"),
], ids=["zeroone", "integrate", "moment-mc"])
def test_steep_power_integrand_overflows_to_inf(argv, last, capsys):
    # past the double range t^-theta is +inf, without the RuntimeWarning
    # that the suite raises as an error
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[-1] == last


def test_seed_changes_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run(["sim", "--phi", "stable:0.6", "--paths", "500", "--seed", "1",
         "--out", str(out1)])
    run(["sim", "--phi", "stable:0.6", "--paths", "500", "--seed", "2",
         "--out", str(out2)])
    assert read(out1) != read(out2)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nf = pow:2\nphi = stable:0.5\n")
    assert run(["zeroone", "--config", str(cfg)]) == 0
    assert "AS_INFINITE" in capsys.readouterr().out
    # explicit flag wins over the config value
    assert run(["zeroone", "--config", str(cfg), "--f", "pow:1"]) == 0
    assert "AS_FINITE" in capsys.readouterr().out


def test_config_equals_form(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nf = pow:2\nphi = stable:0.5\n")
    assert run(["zeroone", f"--config={cfg}"]) == 0
    assert "AS_INFINITE" in capsys.readouterr().out
    assert run(["zeroone", "--config="]) == 64


def test_config_loses_to_explicit_equals_flag(tmp_path, capsys):
    # exp:1 under gamma is finite; pow:2 under stable(1/2) would not be
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nf = pow:2\nphi = stable:0.5\n")
    assert run(["zeroone", "--config", str(cfg), "--phi=gamma",
                "--f=exp:1"]) == 0
    out = capsys.readouterr().out
    assert "# phi=gamma" in out and "AS_FINITE" in out


def _manifest(path):
    with open(str(path) + ".manifest") as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines())


def test_integrate_manifest_records_grid(tmp_path):
    from subsing import bernstein as bf
    from subsing import integrate as itg
    out = tmp_path / "i.csv"
    assert run(["integrate", "--f", "pow:0.5", "--phi", "stable:0.5",
                "--paths", "200", "--out", str(out)]) == 0
    facts = _manifest(out)
    times = moments.integral_grid(bf.stable(0.5), itg.power_singular(0.5), 1.0,
                                  None)[1]
    assert int(facts["grid_nodes"]) == len(times)
    assert 0 < -float(facts["grid_bias"]) <= moments.GRID_BIAS_TOL
    assert "grid" not in out.read_text()


def test_integrate_row_pinned(capsys):
    # an even count of paths, whose median averages two values: the row is
    # the one that keeping three copies of the values gave
    assert run(["integrate", "--phi", "stable:0.5", "--f", "pow:0.5",
                "--paths", "2000", "--seed", "5"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    assert lines == ["n,finite_fraction,mean,se,median",
                     "2000,1.0,4993.560804075521,3714.0293357812266,"
                     "1.9312927729994274"]


@pytest.mark.parametrize("command", [["integrate"], ["moment", "mc", "--p", "0.25"]],
                         ids=["integrate", "moment-mc"])
def test_manifest_records_grid_certificates(command, tmp_path):
    from subsing import bernstein as bf
    from subsing import integrate as itg
    common = [*command, "--f", "pow:0.5", "--phi", "gamma", "--paths", "200"]
    _, times, bias, certificates = moments.integral_grid(
        bf.gamma_exponent(), itg.power_singular(0.5), 1.0, None)
    out = tmp_path / "default.csv"
    assert run([*common, "--out", str(out)]) == 0
    facts = _manifest(out)
    assert int(facts["grid_nodes"]) == len(times)
    assert float(facts["grid_bias"]) == bias
    assert 0 < -bias <= moments.GRID_BIAS_TOL
    assert int(facts["grid_certificates"]) == certificates > 0
    assert "grid" not in out.read_text()
    # an explicit grid is taken as given: no bias is evaluated to choose it
    out = tmp_path / "explicit.csv"
    assert run([*common, "--dt", "0.005", "--out", str(out)]) == 0
    facts = _manifest(out)
    assert (facts["grid_nodes"], facts["grid_certificates"]) == ("201", "0")
    assert -float(facts["grid_bias"]) > 0


@pytest.mark.parametrize("argv, pieces", [
    (["zeroone", "--phi", "gamma", "--f", "pow:0.5"], 57),
    (["zeroone", "--phi", "stable:0.5", "--f", "pow:0.5"], 0),   # closed form
    (["moment", "equiv", "--phi", "gamma", "--p", "0.5", "--lam", "1"], 25),
], ids=["zeroone", "zeroone-closed-form", "moment-equiv"])
def test_criterion_manifest_records_quadrature(argv, pieces, tmp_path, capsys):
    # the rule, its pieces and its evaluations go to the .manifest only
    out = tmp_path / "q.csv"
    assert run([*argv, "--out", str(out)]) == 0
    facts = _manifest(out)
    assert facts["quadrature_nodes_per_piece"] == str(integrate.GAUSS_NODES)
    assert int(facts["quadrature_pieces"]) == pieces
    assert (int(facts["quadrature_evaluations"])
            >= 3 * integrate.GAUSS_NODES * pieces)
    assert run(argv) == 0
    assert capsys.readouterr().out == out.read_text()
    assert "quadrature" not in out.read_text()


# the CSV column line of each multilevel spde mode
LEVEL_MODES = {"maximal": "t,statistic,se,rhs,ratio",
               "convmom": "t,statistic,se,rhs,ratio",
               "longrun": "T,average,se"}


@pytest.mark.parametrize("mode, t_grid, levels", [
    pytest.param(mode, t_grid, levels, id="-".join(
        ([] if mode == "maximal" else [mode]) + [t_grid, str(levels)]))
    for mode in LEVEL_MODES
    for t_grid, levels in (("1,2", 5), ("0.75", 3), ("0.6875", 1))])
def test_maximal_manifest_records_levels(mode, t_grid, levels, tmp_path):
    # 1 and 2 lie on the grid of step 1, four halvings above 1/16; 0.75 is
    # 3 cells of 1/4, and 0.6875 is 11 cells of 1/16, on no coarser grid;
    # longrun reads t = 1 and each T + 1, 16 cells of 1/16 and 32, 48; 28; 27
    out = tmp_path / "m.csv"
    assert run(["spde", mode, "--n", "2", "--t-grid", t_grid, "--dt", "0.0625",
                "--paths", "40", "--out", str(out)]) == 0
    facts = _manifest(out)
    body = out.read_text().split(LEVEL_MODES[mode] + "\n")[1]
    statistic = [float(row.split(",")[1]) for row in body.splitlines()]
    means = [[float(v) for v in facts[f"level_{i}_mean"].split(",")]
             for i in range(levels)]
    variances = [[float(v) for v in facts[f"level_{i}_var"].split(",")]
                 for i in range(levels)]
    assert facts["level_paths"] == ",".join(
        str(mc.level_paths(40, i)) for i in range(levels))
    assert [float(v) for v in facts["level_dt"].split(",")] == [
        0.0625 * 2 ** (levels - 1 - i) for i in range(levels)]
    assert [sum(col) for col in zip(*means)] == pytest.approx(statistic, rel=1e-14)
    assert all(v >= 0 for row in variances for v in row)
    if levels > 1:
        assert facts["method"] == "multilevel"
        assert facts["finest_correction"] == facts[f"level_{levels - 1}_mean"]
    else:
        assert facts["method"] == "plain" and "finest_correction" not in facts
        assert means[0] == statistic
    assert f"level_{levels}_mean" not in facts and "level" not in out.read_text()


def test_manifest_records_worker_count(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["moment", "mc", "--phi", "stable:0.5", "--p", "0.25",
                "--f", "pow:0.5", "--paths", "100", "--out", str(out)]) == 0
    assert int(_manifest(out)["workers"]) == mc._worker_count()
    assert "workers" not in out.read_text()


@pytest.mark.parametrize("workers", ["abc", "0", "-2", "1.5"])
def test_malformed_worker_count_exit_code(workers, monkeypatch, capsys):
    monkeypatch.setenv("SUBSING_WORKERS", workers)
    assert run(["moment", "mc", "--phi", "stable:0.5", "--p", "0.25",
                "--f", "pow:0.5", "--paths", "100"]) == 1
    assert capsys.readouterr().err == (
        f"error: SUBSING_WORKERS must be a positive integer, got '{workers}'\n")


@pytest.mark.parametrize("method", ["median_of_means", "auto"])
def test_median_of_means_of_one_path_exit_code(method, capsys):
    # p = 0.4 >= alpha / 2, so auto takes the median of means too; one block
    # has no spread of block means
    assert run(["moment", "mc", "--phi", "stable:0.5", "--p", "0.4",
                "--f", "pow:0.5", "--paths", "1", "--method", method]) == 1
    assert capsys.readouterr().err == "error: median of means needs two or more paths\n"


@pytest.mark.parametrize("method", ["median_of_means", "auto"])
def test_median_of_means_of_one_infinite_path_exit_code(method, capsys):
    # t^-2 gives an a.s. infinite integral, which runs through the same
    # engine: one path is refused as on a finite integral
    assert run(["moment", "mc", "--phi", "stable:0.5", "--p", "0.3",
                "--f", "pow:2", "--paths", "1", "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: median of means needs two or more paths\n"


@pytest.mark.parametrize("argv, columns", [
    (["sim", "--phi", "stable:0.5"], ("mc_se", "z")),
    (["moment", "mc", "--phi", "gamma", "--p", "0.5", "--f", "pow:0.5"], ("se",)),
    (["spde", "maximal", "--dt", "0.25"], ("se",)),
])
def test_one_path_standard_error_is_nan(argv, columns, capsys):
    # one path shows no spread: an se of 0 would read as an exact estimate
    assert run([*argv, "--paths", "1"]) == 0
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                     if not line.startswith("#")]
    assert rows
    for name in columns:
        assert all(math.isnan(float(row[header.index(name)])) for row in rows)


def test_integrate_reports_infinite_integral(tmp_path):
    # pow:2 under stable:0.7 diverges a.s. (alpha theta = 1.4 >= 1)
    out = tmp_path / "inf.csv"
    assert run(["integrate", "--f", "pow:2", "--phi", "stable:0.7",
                "--paths", "100", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "100,0.0,inf,inf,inf"
    facts = _manifest(out)
    assert facts["verdict"] == "AS_INFINITE"
    assert "grid_nodes" not in facts


@pytest.mark.parametrize("f, echoed", [
    ("pow:2", ["T", "command", "f", "paths", "phi"]),     # AS_INFINITE: no draws
    ("pow:0.5", ["T", "command", "dt", "f", "paths", "phi", "seed"]),
])
def test_integrate_header_echoes_what_shaped_the_result(f, echoed, capsys):
    assert run(["integrate", "--f", f, "--phi", "stable:0.7", "--paths", "10",
                "--dt", "0.125", "--seed", "3"]) == 0
    header = [line[2:].partition("=")[0]
              for line in capsys.readouterr().out.splitlines()[1:]
              if line.startswith("# ")]
    assert header == echoed


@pytest.mark.parametrize("argv", [
    ["spde", "maximal", "--paths", "0"],
    ["spde", "smallball", "--paths", "0"],
    ["moment", "bound", "--phi", "tempered:0.5,1", "--p", "0.5",
     "--theta", "0", "--paths", "0"],
    ["sim", "--phi", "tempered:0.5,1", "--paths", "0"],
    ["spde", "maximal", "--n", "0"],
])
def test_bad_size_exit_code(argv, capsys):
    assert run(argv) == 1
    assert "positive" in capsys.readouterr().err


def test_sim_certification_columns(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["sim", "--phi", "gamma", "--T", "1", "--dt", "0.05",
                "--paths", "4000", "--seed", "3", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "r,mc_mean,mc_se,exact,z"
    for row in lines[1:]:
        z = float(row.split(",")[-1])
        assert abs(z) < 4.0


@pytest.mark.parametrize("argv", [
    ["--phi", "stable:0.01", "--paths", "2000", "--seed", "3"],
    ["--phi", "tempered:0.02,1", "--paths", "2000", "--seed", "3"],
    ["--phi", "tempered:0.01,10", "--dt", "1", "--paths", "400000", "--seed", "2"],
], ids=["stable", "tempered", "tempered-lam-x-past-the-range"])
def test_sim_at_a_tiny_stable_index(argv, capsys):
    # a cell of width 1e-3 scales V by 1e-3^(1/alpha), 1e-300 at alpha = 0.01,
    # and one V in about a thousand is past the double range there; under
    # tempered:0.01,10 some pieces X are finite while 10 X is not: the rows
    # stay finite, with no RuntimeWarning, which the suite raises as an error
    assert run(["sim", *argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "r,mc_mean,mc_se,exact,z" and len(lines) == 4
    for line in lines[1:]:
        r, mean, se, exact, z = map(float, line.split(","))
        assert 0 < mean < 1 and 0 < se < 1 and math.isfinite(z)


def test_path_export(tmp_path):
    for phi in ("stable:0.5", "gamma", "tempered:0.5,1", "drift:1"):
        out = tmp_path / "p.csv"
        assert run(["path", "--phi", phi, "--T", "1", "--dt", "0.25",
                    "--seed", "5", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,S_t"
        rows = [[float(v) for v in r.split(",")] for r in lines[1:]]
        assert [t for t, _ in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        vals = [v for _, v in rows]
        assert vals[0] == 0.0 and all(b >= a for a, b in zip(vals, vals[1:])), phi


@pytest.mark.parametrize("argv", [
    ["--phi", "stable:0.5", "--dt", "0.25"],
    ["--phi", "gamma", "--dt", "0.25"],
], ids=["grid", "gamma-grid"])
def test_path_header_echoes_what_shaped_the_path(argv, capsys):
    assert run(["path", *argv]) == 0
    out = capsys.readouterr().out
    assert "# dt=0.25\n" in out and "# eps=" not in out


@pytest.mark.parametrize("phi", ["stable:0.6", "gamma", "tempered:0.5,1"])
def test_path_is_the_clock_of_spde_sim(phi, capsys):
    # both draw stream (seed, 0): the rows t,S_t match string for string
    grid = ["--phi", phi, "--T", "1", "--dt", "0.05", "--seed", "11"]

    def rows(argv, columns):
        assert run(argv) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        return [",".join(l.split(",")[:columns]) for l in lines]

    path = rows(["path", *grid], 2)
    assert len(path) == 22 and path[0] == "t,S_t"
    assert path == rows(["spde", "sim", "--n", "3", *grid], 2)


# sha256 of each output without its echoed flag lines, as written by the
# version whose `path` wrote the grid values of every simulable driver; the
# drawn rows since `path` draws stream (seed, 0), like `spde sim`, and the
# tempered:0.5,1 row since alpha = 1/2 increments are inverse Gaussian draws
PATH_RUNS = {
    "stable:0.6": (["--dt", "0.01", "--seed", "7"],
                   "4e034b8d0fdff70dae1e65fa595c4e562bf8e9f3a5a35ab00665c0e84fb88393"),
    "gamma": (["--seed", "5"],
              "a6f0e0568ef08060934ab5f59f463cabf90894d64673dc02b0dd7f67e4e0e3c5"),
    "tempered:0.5,1": (["--seed", "5"],
                       "26378a7e3d92ae0bfcee7b45391732a1d215b7d08e54bf30d0e0698709de8870"),
    "drift:1": (["--seed", "5"],
                "37c59eae0b6d8affbd8be072eb1cda27b88d092b0f5ddb6cfbc7d4fdecfb435f"),
}


def test_path_export_digest(capsys):
    for phi, (flags, digest) in PATH_RUNS.items():
        assert run(["path", "--phi", phi, *flags]) == 0
        text = _without_echoed_flags(capsys.readouterr().out)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, phi


@pytest.mark.parametrize("phi", ["stable:0.5", "gamma", "tempered:0.5,1",
                                 "drift:1"])
def test_path_bad_horizon_exit_code(phi, capsys):
    for T in ("0", "nan", "inf"):
        assert run(["path", "--phi", phi, "--T", T]) == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("r", ["", "-1"], ids=["empty", "negative"])
def test_sim_checks_r_before_drawing(r, monkeypatch, capsys):
    class Drew(Exception):
        pass

    def no_draw(*args, **kwargs):
        raise Drew

    monkeypatch.setattr(moments, "laplace_mc", no_draw)
    assert run(["sim", "--phi", "stable:0.5", f"--r={r}"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # positive control: a valid --r reaches the patched draw, so the patch
    # guards the function that sim draws through
    with pytest.raises(Drew):
        run(["sim", "--phi", "stable:0.5", "--r=1"])


def test_sim_draws_each_path_once(monkeypatch):
    variates = []

    def counted(phi, times):
        draw = sampler(phi, times)

        def counted_draw(rng, n_paths=1):
            variates.append(n_paths * (len(times) - 1))
            return draw(rng, n_paths)

        return counted_draw

    sampler = moments.grid_sampler
    monkeypatch.setattr(moments, "grid_sampler", counted)
    drawn = []
    for r in ("1", "0.5,1,2"):
        variates.clear()
        assert run(["sim", "--phi", "gamma", "--dt", "0.25", "--paths", "300",
                    "--r", r]) == 0
        drawn.append(sum(variates))
    assert drawn == [300 * 4, 300 * 4]


def test_smallball_draws_only_its_paths(monkeypatch):
    # the constant of the analytic lower bound comes from the same paths as
    # the probability, not from a sample of its own
    drawn = []

    def counted(phi, times, rng, n_paths=1):
        drawn.append(n_paths)
        return draw(phi, times, rng, n_paths)

    draw = spde.grid_increments
    monkeypatch.setattr(spde, "grid_increments", counted)
    assert run(["spde", "smallball", "--n", "2", "--T", "0.25", "--dt", "0.125",
                "--paths", "4"]) == 0
    assert drawn == [4]


@pytest.mark.parametrize("command", ["path", "sim"])
def test_tempered_pieces_beyond_the_grid_limit_exit_code(command, capsys):
    # lam = 1e300 gives h lam^alpha near 1e89 on every cell at alpha = 0.3:
    # the tilted pieces of one path would outnumber the addressable doubles
    argv = [command, "--phi", "tempered:0.3,1e300", "--dt", "0.25"]
    if command == "sim":
        argv += ["--paths", "10"]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: a grid of")


@pytest.mark.parametrize("lam", ["1e300", "1e-300"])
@pytest.mark.parametrize("command", ["path", "sim"])
def test_inverse_gaussian_at_extreme_rates(command, lam, capsys):
    # at alpha = 1/2 a cell is one inverse Gaussian variate whatever lam, of
    # mean h / (2 sqrt(lam)): 1.25e-151 or 1.25e149 at h = 0.25; the rows stay
    # finite, with no RuntimeWarning, which the suite raises as an error
    argv = [command, "--phi", f"tempered:0.5,{lam}", "--dt", "0.25"]
    if command == "sim":
        argv += ["--paths", "10"]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == (5 if command == "path" else 3)
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.parametrize("argv", [
    ["integrate", "--phi", "stable:0.5", "--f", "exp:1", "--dt", "0.3"],
    ["moment", "bound", "--phi", "stable:0.5", "--p", "0.2", "--theta", "0",
     "--T-grid", "1,2", "--dt", "0.7"],
    ["moment", "mc", "--phi", "gamma", "--p", "0.5", "--f", "pow:0.5",
     "--dt", "2"],
], ids=["integrate-not-dividing", "bound-not-dividing", "mc-above-T"])
def test_explicit_dt_follows_the_grid_rule_exit_code(argv, capsys):
    # as for `sim`: an explicit --dt needs 0 < dt <= T and must divide T
    assert run([*argv, "--paths", "10"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["sim", "path"])
def test_grid_too_large_exit_code(command, capsys):
    # 1e18 grid times need 8 EB, which no address space holds, so the
    # allocation fails at once
    assert run([command, "--phi", "stable:0.5", "--T", "1e9", "--dt", "1e-9"]) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


@pytest.mark.parametrize("argv", [
    ["integrate", "--f", "pow", "--phi", "stable:0.5"],
    ["zeroone", "--f", "pow:0.5,7", "--phi", "stable:0.5"],
    ["bf", "--phi", "stable:abc"],
    ["bf", "--phi", "stable:0.5:3"],
    ["integrate", "--f", "pow:abc", "--phi", "stable:0.5"],
    ["bf", "--phi", "gamma:2"],
])
def test_malformed_id_exit_code(argv, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad parameter list")
    assert "Traceback" not in err


GRID_COMMANDS = [
    ["sim", "--phi", "stable:0.5"],
    ["path", "--phi", "stable:0.5"],
    ["integrate", "--phi", "stable:0.5", "--f", "pow:0.5"],
    ["integrate", "--phi", "stable:0.5", "--f", "exp:1"],
    ["moment", "mc", "--phi", "stable:0.5", "--p", "0.25", "--f", "pow:0.5"],
    *(["spde", mode] for mode in ("sim", "convmom", "maximal", "smallball",
                                  "longrun", "galerkin")),
    ["spde", "control", "--q-const"],
    ["moment", "bound", "--phi", "stable:0.5", "--p", "0.2", "--theta", "0.3"],
]


@pytest.mark.parametrize("dt", ["1e-300", repr(2.0 ** -62), "5e-324"])
@pytest.mark.parametrize("argv", GRID_COMMANDS, ids=" ".join)
def test_grid_past_numpy_size_limit_exit_code(argv, dt, capsys):
    # numpy refuses arrays of more than intp-max bytes with ValueError or
    # IndexError, so the grid builders refuse them first
    assert run([*argv, "--dt", dt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a grid of") and err.count("\n") == 1


def test_equiv_and_spde_smoke(capsys):
    assert run(["moment", "equiv", "--phi", "stable:0.5", "--p", "0.25",
                "--lam", "1"]) == 0
    assert "BOTH_FINITE" in capsys.readouterr().out
    assert run(["spde", "smallball", "--phi", "stable:0.5", "--n", "4",
                "--T", "0.0625", "--dt", "0.00390625", "--delta", "0.5",
                "--paths", "400"]) == 0
    out = capsys.readouterr().out
    assert "probability" in out


def test_integrate_subcommand(capsys):
    assert run(["integrate", "--f", "pow:-0.5", "--phi", "stable:0.5",
                "--T", "1", "--paths", "2000", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "finite_fraction" in out


def test_spde_sim_and_scans(capsys):
    assert run(["spde", "sim", "--phi", "stable:0.6", "--n", "4",
                "--T", "0.5", "--dt", "0.125", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "t,S_t,|X_t|,|Z_t|" in out
    assert run(["spde", "convmom", "--phi", "stable:0.6", "--n", "4",
                "--p", "0.5", "--theta", "0", "--t-grid", "0.25,0.5,1",
                "--dt", "0.03125", "--paths", "200"]) == 0
    assert "ratio" in capsys.readouterr().out
    assert run(["spde", "maximal", "--phi", "stable:0.6", "--n", "4",
                "--p", "0.5", "--t-grid", "1,2", "--dt", "0.0625",
                "--paths", "200"]) == 0
    capsys.readouterr()
    assert run(["spde", "longrun", "--phi", "stable:0.6", "--n", "4",
                "--p", "0.5", "--theta", "0.25", "--t-grid", "2,4",
                "--dt", "0.0625", "--paths", "100"]) == 0
    assert "average" in capsys.readouterr().out


def test_spde_control_subcommand(capsys):
    assert run(["spde", "control", "--phi", "stable:0.6", "--n", "2",
                "--q-const", "--f-scale", "0", "--a4-c", "4.0",
                "--a4-delta", "0.25", "--T", "0.5", "--dt", "0.015625",
                "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "# converged=True" in out and "u_norm" in out
    term = [l for l in out.splitlines() if l.startswith("# terminal_phi_norm")]
    assert float(term[0].split("=")[1]) < 1e-8


def test_spde_galerkin_subcommand(capsys):
    assert run(["spde", "galerkin", "--phi", "gamma", "--n", "16",
                "--truncations", "2,4,8", "--T", "0.5", "--dt", "0.03125",
                "--paths", "20", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0].startswith("n,mean_sq_sup")
    means = [float(r.split(",")[1]) for r in rows[1:]]
    assert means[0] > means[-1]


def test_path_export_refuses_a_driver_without_jumps(capsys):
    # stablelog has no jump measure: it must not fall back to a stable path
    assert run(["path", "--phi", "stablelog:0.5,0.3"]) == 2
    assert "refused" in capsys.readouterr().err


def test_config_errors_are_usage_errors(tmp_path, capsys):
    assert run(["bf", "--phi", "stable:0.5", "--config"]) == 64
    missing = tmp_path / "absent.ini"
    assert run(["bf", "--phi", "stable:0.5", "--config", str(missing)]) == 64
    assert str(missing) in capsys.readouterr().err
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nphi = stable:0.5%\n")
    assert run(["bf", "--config", str(bad)]) == 64


def test_numeric_error_exit_code(monkeypatch, capsys):
    from subsing.errors import NumericError

    def fail(*args, **kwargs):
        raise NumericError("did not converge")

    monkeypatch.setattr(moments, "exact_stable_moment", fail)
    assert run(["moment", "exact", "--phi", "stable:0.5", "--p", "0.25",
                "--f", "const:1"]) == 1
    assert "did not converge" in capsys.readouterr().err


def test_integrate_draws_in_chunks(capsys):
    import tracemalloc
    tracemalloc.start()
    try:
        assert run(["integrate", "--f", "pow:0.5", "--phi", "stable:0.5",
                    "--paths", "4000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6
    assert capsys.readouterr().out.splitlines()[-1].startswith("4000,1.0,")
    assert run(["integrate", "--f", "pow:0.5", "--phi", "stable:0.5",
                "--paths", "0"]) == 1


@pytest.mark.parametrize("argv", [
    ["spde", "maximal", "--delta", "1"],
    ["spde", "sim", "--paths", "5"],
    ["moment", "exact", "--seed", "1", "--phi", "stable:0.5", "--p", "0.25",
     "--f", "const:1"],
    ["moment", "exact", "--p", "0.25", "--f", "const:1"],
    ["moment", "exact", "--phi", "stable:0.5", "--alpha", "0.5", "--p", "0.25",
     "--f", "const:1"],
    ["moment", "bound", "--phi", "stable:0.5", "--p", "0.2", "--theta", "0",
     "--lam", "1"],
    ["zeroone", "--f", "pow:1", "--phi", "gamma", "--domain", "1"],
    ["zeroone", "--f", "pow:1", "--phi", "gamma", "--domain", "0,1,2"],
], ids=["unread-delta", "unread-paths", "unread-seed", "missing-phi",
        "no-alpha", "theta-and-lam", "domain-one-value", "domain-three-values"])
def test_flag_outside_the_mode_is_a_usage_error(argv, capsys):
    assert run(argv) == 64
    assert "error: " in capsys.readouterr().err


def test_config_key_outside_the_mode_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nn = 2\npaths = 10\ndelta = 0.5\n")
    assert run(["spde", "maximal", "--config", str(cfg)]) == 64
    assert "--delta" in capsys.readouterr().err
    # smallball reads every key of the file
    assert run(["spde", "smallball", "--T", "0.0625", "--dt", "0.015625",
                "--config", str(cfg)]) == 0
    assert "# delta=0.5\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["spde", "maximal", "--t", "1", "--paths", "4"],
    ["spde", "maximal", "--path", "4"],
    ["integrate", "--f", "pow:0.5", "--phi", "gamma", "--pa", "4"],
], ids=["t-for-t-grid", "path-for-paths", "pa-for-paths"])
def test_flag_prefix_is_a_usage_error(argv, capsys):
    # flags must be spelt in full: a prefix does not stand for a longer flag
    assert run(argv) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_key_prefix_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nt = 1\npaths = 4\n")
    assert run(["spde", "maximal", "--config", str(cfg)]) == 64
    assert "--t 1" in capsys.readouterr().err


MC = ["moment", "mc", "--phi", "stable:0.5", "--p", "0.25", "--f", "pow:0.5",
      "--paths", "10"]
BOUND = ["moment", "bound", "--phi", "stable:0.5", "--p", "0.2", "--theta", "0",
         "--paths", "10"]


@pytest.mark.parametrize("argv", [
    ["zeroone", "--f", "exp:nan", "--phi", "gamma"],
    ["zeroone", "--f", "pow:0.5", "--phi", "tempered:0.5,nan"],
    ["zeroone", "--f", "pow:nan", "--phi", "gamma"],
    ["zeroone", "--f", "const:inf", "--phi", "gamma"],
    ["zeroone", "--f", "pow:0.5", "--phi", "drift:nan"],
    ["zeroone", "--f", "pow:0.5", "--phi", "gamma", "--domain", "0,nan"],
    ["integrate", "--f", "pow:0.5", "--phi", "stable:0.5", "--T", "nan",
     "--paths", "10"],
    ["path", "--phi", "tempered:0.5,1", "--dt", "nan"],
    ["spde", "sim", "--T", "nan"],
    ["spde", "sim", "--T", "inf"],
    ["spde", "maximal", "--dt", "nan", "--paths", "10"],
    MC + ["--dt", "nan"],
    MC + ["--T", "inf"],
    ["moment", "equiv", "--phi", "gamma", "--p", "0.5", "--lam", "nan"],
    BOUND + ["--T-grid", ","],
    BOUND + ["--T-grid", "0"],
    BOUND + ["--T-grid", "nan"],
    ["bf", "--phi", "stable:0.5", "--invert-at", "nan"],
    ["bf", "--phi", "stable:0.5", "--eval-at", "nan"],
    ["sim", "--phi", "stable:0.5", "--r", "nan"],
    *(["spde", "maximal", "--n", "2", "--t-grid", "1", "--dt", "0.25",
       "--paths", "4", flag, "nan"]
      for flag in ("--gamma0", "--x-scale", "--q-scale", "--f-scale", "--p")),
    ["spde", "longrun", "--n", "2", "--t-grid", "1", "--dt", "0.25",
     "--paths", "4", "--theta", "nan"],
    ["spde", "convmom", "--n", "2", "--t-grid", "0.5", "--dt", "0.25",
     "--paths", "4", "--theta", "nan"],
    ["spde", "galerkin", "--n", "4", "--T", "0.25", "--dt", "0.125",
     "--paths", "4", "--delta", "nan"],
    ["spde", "control", "--n", "2", "--q-const", "--a4-c", "nan", "--T", "0.5",
     "--dt", "0.125"],
    ["moment", "mc", "--phi", "stable:0.5", "--p", "nan", "--f", "const:1",
     "--paths", "8"],
    ["moment", "exact", "--phi", "stable:0.5", "--p", "nan", "--f", "const:1"],
])
def test_non_finite_input_exit_code(argv, capsys):
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, value", [
    ("--f-scale", "1e308"), ("--q-scale", "1e200"), ("--gamma0", "1e308"),
    ("--x-scale", "1e200")])
def test_overflowing_system_scale_exit_code(flag, value, capsys):
    # finite flags whose system overflows: one error line, and no
    # RuntimeWarning, which the suite raises as an error
    assert run(["spde", "sim", "--n", "3", "--T", "1", "--dt", "0.5",
                flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _subparsers(parser):
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _leaf(argv):
    """The parser that takes the flags of ``argv``."""
    parser = cli.build_parser()
    for token in argv:
        if token not in _subparsers(parser):
            break
        parser = _subparsers(parser)[token]
    return parser


def _leaf_paths(parser, path=()):
    subs = _subparsers(parser)
    if not subs:
        return [path]
    return [leaf for name, sp in subs.items()
            for leaf in _leaf_paths(sp, path + (name,))]


def _echoed_keys(parser):
    keys = {a.dest for a in parser._actions}
    for sp in _subparsers(parser).values():
        keys |= _echoed_keys(sp)
    return keys


def _without_echoed_flags(text):
    keys = _echoed_keys(cli.build_parser())
    return "".join(line + "\n" for line in text.splitlines()
                   if not (line.startswith("# ")
                           and line[2:].partition("=")[0] in keys))


# sha256 of each output without its echoed flag lines, as written by the
# version whose spde and moment modes shared one parser; `spde sim` since it
# draws from stream (seed, 0), and `spde smallball` since its lower bound
# reads the moment of S_T from the same paths as its probability; every
# row under a stable driver since stable variates are summed in logs, and
# drawn as 1/(2 N^2) at alpha = 1/2; `spde maximal` since its estimate is
# multilevel, five levels from step 1 down to 0.0625 here; `spde convmom`
# and `spde longrun` since theirs are: three levels from step 0.25 and five
# from step 1 (t = 1 and T + 1 = 3 are nodes of it) down to 0.0625 here;
# `spde galerkin` since it reads each truncation's squared error off one
# tail sum of the squared reference per step; `moment equiv` since its
# criterion integral is taken by the composite Gauss-Legendre rule, whose
# value 1.755298292526445 was 1.755298292526446 by quad
MODE_RUNS = {
    ("spde", "sim"): (["--n", "4", "--T", "0.5", "--dt", "0.125", "--seed", "3"],
                      "936f45544fac1caa57f7d8ff016b2f24a1ce8e87c816fe926e3ac5a6002b07c3"),
    ("spde", "convmom"): (
        ["--n", "4", "--p", "0.5", "--theta", "0", "--t-grid", "0.25,0.5",
         "--dt", "0.0625", "--paths", "50", "--seed", "1"],
        "53b01c9653824e6667f6c5b7298f25e201252f2c19142a2fc4ef562fea896477"),
    ("spde", "maximal"): (
        ["--n", "4", "--t-grid", "1,2", "--dt", "0.0625", "--paths", "50",
         "--seed", "1"],
        "827e97376097332036127f11a075e06816d801b5dcf74d175ed02c44b04f7f53"),
    ("spde", "smallball"): (
        ["--phi", "stable:0.5", "--n", "4", "--T", "0.0625", "--dt", "0.015625",
         "--delta", "0.5", "--paths", "100", "--seed", "1"],
        "d90096418fce22c45c66b9df36a52330eb131968fff520b716dc0dce21640258"),
    ("spde", "longrun"): (
        ["--n", "4", "--p", "0.5", "--theta", "0.25", "--t-grid", "2",
         "--dt", "0.0625", "--paths", "20", "--seed", "1"],
        "1f80fd9800615f661a524802bbdf15d70de14c2f60d88f168c137059f92aa143"),
    ("spde", "control"): (
        ["--n", "2", "--q-const", "--a4-c", "4.0", "--T", "0.5", "--dt", "0.0625",
         "--seed", "9"],
        "51a54795a2af4c8256a4a68c9e03d8ef35869a57163a13765a6949d99a245e4d"),
    ("spde", "galerkin"): (
        ["--phi", "gamma", "--n", "8", "--truncations", "2,4", "--T", "0.25",
         "--dt", "0.0625", "--paths", "20", "--seed", "4"],
        "3a5a281ef117c432bc736409136a7800ae24854916dbb3a1cff3829603164568"),
    ("moment", "exact"): (
        ["--phi", "stable:0.5", "--p", "0.25", "--f", "pow:0.5"],
        "e114ffb6ccce7560d7fe511c19de3565d7db80735789d1ce73eb4ef0e9973de2"),
    ("moment", "mc"): (
        ["--phi", "stable:0.5", "--p", "0.25", "--f", "const:1", "--paths", "200",
         "--seed", "3"],
        "0ba0244972c95daa1223288e2b594d40e915bb4b3da21622cecabf1dc65b0c07"),
    ("moment", "bound"): (
        ["--phi", "stable:0.5", "--p", "0.2", "--theta", "0", "--T-grid", "1,2",
         "--paths", "200", "--seed", "5"],
        "9c9c9d3635e1d7b3748ebe10a8c84937e7a0b5b46d7474286670f721afb78cf1"),
    ("moment", "equiv"): (
        ["--phi", "gamma", "--p", "0.5", "--lam", "1"],
        "eeaee0762d2fddb83ab7721a3a44c7cf7f443689863aac603ba28c58ccb0c3cb"),
}


@pytest.mark.parametrize("mode", list(MODE_RUNS), ids="-".join)
def test_mode_output_digest(mode, capsys):
    flags, digest = MODE_RUNS[mode]
    assert run([*mode, *flags]) == 0
    text = _without_echoed_flags(capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of `spde galerkin` outputs without their echoed flag lines, as
# written by the version whose truncations evaluated the reference's drift
# and diffusion on a zero-padded full-width state: a drift read through the
# padded projection P_m F(P_m y), and a constant Q at the truncation's width;
# every row since stable variates are summed in logs, and the tempered row
# since alpha = 1/2 increments are inverse Gaussian draws; every row again
# since each squared error is read off one tail sum of the squared reference
# per step, plus a stepped truncation's head sum, and is no longer a squared
# square root
_GALERKIN_BASE = ["--n", "16", "--truncations", "2,4,8", "--T", "1",
                  "--dt", "0.0625", "--x-scale", "0.1", "--q-scale", "2",
                  "--paths", "30", "--seed", "4"]
GALERKIN_RUNS = {
    "drift": (_GALERKIN_BASE + ["--f-scale", "2"],
              "0e1f02d19eaa414113c9b2f39be5c10968b11eac4c29339af35040c6766dc513"),
    "q-const": (_GALERKIN_BASE + ["--q-const", "--f-scale", "-3"],
                "163c5752e349517fed040aa343b808c8fa628ad516ab76d0c20e0d33cbca057d"),
    "tempered": (["--phi", "tempered:0.5,1", *_GALERKIN_BASE, "--f-scale", "2"],
                 "94871982422c48dfefefe47030ea579312eac8f66fdcdce996ea383d78a1fdb5"),
}


@pytest.mark.parametrize("name", list(GALERKIN_RUNS))
def test_galerkin_output_digest(name, capsys):
    flags, digest = GALERKIN_RUNS[name]
    assert run(["spde", "galerkin", *flags]) == 0
    text = _without_echoed_flags(capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of multilevel outputs without their echoed flag lines, at n = 3 (a
# SIMD tail) under the mode-coupling drift and under a constant Q, as written
# by the version that stepped each level's coarse paths in a second loop:
# maximal five levels from step 1, convmom three from step 0.25, longrun
# five from step 1, each down to 0.0625
_MULTILEVEL_BASE = {
    "maximal": ["--t-grid", "1,2", "--paths", "40"],
    "convmom": ["--p", "0.5", "--theta", "0.25", "--t-grid", "0.25,0.5",
                "--paths", "40"],
    "longrun": ["--p", "0.5", "--theta", "0.25", "--t-grid", "1,2",
                "--paths", "20"],
}
MULTILEVEL_RUNS = {
    ("maximal", "drift"):
        "8f3f2311a3a9d552186b38e69f2973688eb5fb09c55177fd5a21482c940c20a7",
    ("convmom", "drift"):
        "4b71027f5e4bde087d1739124bfd7748635573b3d361ccf2db1388ae5a5c4425",
    ("longrun", "drift"):
        "ed0e58be67e7ba64f7f9f9fd1cd506a1490206eadac146539c6d6835cc445b28",
    ("maximal", "q-const"):
        "8448599083d2a5ef6a3e2b76a0d269c8c0c65559a6a196bfc91a8cc6ad7c461b",
    ("convmom", "q-const"):
        "0c673da78b9e68c79ff981298a8f587b24290aaf9deb33df9d86b25b17078fa5",
    ("longrun", "q-const"):
        "75dc92749f9c3b35949849d22d9e1aff5c2085a6f53a6bef38098d09b9e97f92",
}


@pytest.mark.parametrize("mode, system", list(MULTILEVEL_RUNS))
def test_multilevel_output_digest(mode, system, capsys):
    extra = ["--f-scale", "2"] if system == "drift" else ["--q-const"]
    flags = ["--n", "3", "--dt", "0.0625", "--seed", "2",
             *_MULTILEVEL_BASE[mode], *extra]
    assert run(["spde", mode, *flags]) == 0
    text = _without_echoed_flags(capsys.readouterr().out)
    digest = MULTILEVEL_RUNS[mode, system]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the .manifest of each run of MULTILEVEL_RUNS without its
# wall_seconds= and workers= lines, as written by the version whose levels
# kept their estimates beside their merged partials
MULTILEVEL_MANIFESTS = {
    ("maximal", "drift"):
        "ac1b5a7c0dd1a55cbbab4083704ec552a9d3506f8c035da7ef1738b4632e7fa3",
    ("convmom", "drift"):
        "8bf67eb6c7bf57b67fa8b6d6aa590c90cc37b4dd0a8decf90c5217019d05429b",
    ("longrun", "drift"):
        "31a61f723c4881f7a9e5463522ec1260ff2208f3bedf4ceda88a03f0db4f74c8",
    ("maximal", "q-const"):
        "835b7b4785a032eb76701644ded4c9a9788cff60f633a8d23d198a8d6218b65e",
    ("convmom", "q-const"):
        "82b95d92c825eaeba32478d816face9b7147108e1cb360f20cfadb197e8abcfc",
    ("longrun", "q-const"):
        "b940ea0c6fd3bfdee661158eec78eeb2d4e4fd901546af0ed08435c21643d6d3",
}


@pytest.mark.parametrize("mode, system", list(MULTILEVEL_MANIFESTS))
def test_multilevel_manifest_digest(mode, system, tmp_path):
    # the level record: steps, paths, and each level's means and variances
    extra = ["--f-scale", "2"] if system == "drift" else ["--q-const"]
    out = tmp_path / "m.csv"
    assert run(["spde", mode, "--n", "3", "--dt", "0.0625", "--seed", "2",
                *_MULTILEVEL_BASE[mode], *extra, "--out", str(out)]) == 0
    with open(str(out) + ".manifest") as fh:
        text = "".join(line for line in fh
                       if not line.startswith(("wall_seconds=", "workers=")))
    digest = MULTILEVEL_MANIFESTS[mode, system]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_galerkin_manifest_records_projection_floor(tmp_path, capsys):
    flags = ["spde", "galerkin", "--n", "16", "--truncations", "2,4,8",
             "--T", "0.25", "--dt", "0.0625", "--paths", "30", "--seed", "4"]
    out = tmp_path / "g.csv"
    assert run([*flags, "--out", str(out)]) == 0
    floors = [float(v) for v in _manifest(out)["projection_floor"].split(",")]
    x0_sq = [k ** -3.0 for k in range(1, 17)]      # x0 = k^-1.5
    assert floors == pytest.approx([sum(x0_sq[m:]) for m in (2, 4, 8)],
                                   rel=1e-12)
    # a row with se = 0 is the error of the initial state on every path
    row = out.read_text().splitlines()[-1].split(",")
    assert row[0] == "8" and float(row[2]) == 0.0
    assert float(row[1]) == floors[-1]
    shares = [float(v) for v in _manifest(out)["floor_share"].split(",")]
    assert len(shares) == 3 and shares[-1] == 1.0
    # the record goes to the manifest only
    assert run(flags) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("f_scale, stepped", [("0", "0"), ("0.3", "2")])
def test_galerkin_manifest_records_truncations_stepped(f_scale, stepped,
                                                       tmp_path):
    # a zero drift reads every truncation's error off the reference's tail
    out = tmp_path / "g.csv"
    assert run(["spde", "galerkin", "--n", "8", "--truncations", "2,4",
                "--T", "0.25", "--dt", "0.0625", "--paths", "20",
                "--f-scale", f_scale, "--out", str(out)]) == 0
    assert _manifest(out)["truncations_stepped"] == stepped
    assert "truncations_stepped" not in out.read_text()


# sha256 of each bf output without its echoed flag lines, as written by the
# version whose bound scans re-ran the endpoint scan at infinity
BF_RUNS = {
    "stable:0.5": (["--eval-at", "0.5,2", "--invert-at", "1,3"],
                   "ea682cb47409b827843e33cf24217caba993eeb8f2bb7e5b13f1c12b180f6865"),
    "gamma": (["--eval-at", "1", "--invert-at", "0.5"],
              "119b7755e86a8577164c0b385e7c5f59e65db1931aaabf3a630df6d684170151"),
    "tempered:0.5,1": (["--eval-at", "1"],
                       "b1f1a6c0d0af93ae46a5880b8ba01ba5345a2325a452ac53915b2dd54c0efcd0"),
    "stablelog:0.5,0.3": (["--eval-at", "2"],
                          "dd5b0838d47781d0593d658dc4e06f4537cd30ed1867c5abee824b38cca5b87a"),
    "stableloginv:0.5,0.3": ([],
                             "d6734fb2d804c4ba583a3c5cc713b1e11b0741153a965334bc91f5ed77c283ed"),
    "ratio:0.5": (["--eval-at", "3", "--invert-at", "1.5"],
                  "f9456f4179400374a6a20dbeb1d266cb0ed8e2d21daa0415eaeb75097511560f"),
    "drift:2": (["--invert-at", "4"],
                "eeafb5c654248583f3ceef44a3363530337263ac1ae0c8f90123c895de43a91c"),
}


@pytest.mark.parametrize("phi", list(BF_RUNS))
def test_bf_output_digest(phi, capsys):
    flags, digest = BF_RUNS[phi]
    assert run(["bf", "--phi", phi, *flags]) == 0
    text = _without_echoed_flags(capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of each output without its echoed flag lines, as written by the
# version in which sim and integrate draw over the blocks of mc.run_mc; the
# stable rows since stable variates are summed in logs, and drawn as
# 1/(2 N^2) at alpha = 1/2; the tempered row since alpha = 1/2 increments
# are inverse Gaussian draws; the tilted row, at alpha = 0.3 with each cell
# split into three pieces, since before that route, which it does not take;
# the integrate rows since a default grid has the fewest cells that certify
# its bias, not the first power of two
DRAW_RUNS = {
    "sim-stable": (["sim", "--phi", "stable:0.6", "--dt", "0.01", "--paths", "500",
                    "--seed", "7"],
                   "e070983439353be3ab3735ae300723ae857dbf1b40f4694d4abdb33aa8a9831e"),
    "sim-tempered": (["sim", "--phi", "tempered:0.5,1", "--dt", "0.25",
                      "--paths", "300", "--seed", "5"],
                     "c301defe2aae751cd64814e6231b69a73b55dfa0f8408f52d0abe181f12f8f26"),
    "sim-tempered-tilted": (["sim", "--phi", "tempered:0.3,2", "--T", "4", "--dt", "0.5",
                             "--paths", "300", "--seed", "5"],
                            "672d76481d01ebeec2f6ea53eb3eef9851771c8a713b8d1dcf0b5c5ebb984e11"),
    "integrate-stable": (["integrate", "--phi", "stable:0.5", "--f", "pow:0.5",
                          "--paths", "500", "--seed", "3"],
                         "5d583f586483dbedf6a45dbf72a18579487f1640f70a7813f9b699f8da4625ed"),
    "integrate-gamma": (["integrate", "--phi", "gamma", "--f", "exp:1",
                         "--paths", "500", "--seed", "3"],
                        "328befb334d0cea7e227f005759e17d11f10fa73e1bd3c94760ea26fcb633dbb"),
}


@pytest.mark.parametrize("name", list(DRAW_RUNS))
def test_draw_output_digest(name, capsys):
    argv, digest = DRAW_RUNS[name]
    assert run(argv) == 0
    text = _without_echoed_flags(capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["integrate", "--phi", "tempered:0.5,1", "--f", "pow:0.5", "--paths", "200"],
    ["sim", "--phi", "stable:0.6", "--dt", "0.05", "--paths", "500"],
    ["sim", "--phi", "tempered:0.3,2", "--T", "4", "--dt", "2", "--paths", "500"],
    ["moment", "mc", "--phi", "stable:0.5", "--p", "0.3", "--f", "pow:0.5",
     "--paths", "500"],
    ["moment", "bound", "--phi", "gamma", "--p", "0.5", "--theta", "0",
     "--T-grid", "1,2", "--paths", "500"],
], ids=["integrate", "sim", "sim-tempered-split", "moment-mc", "moment-bound"])
def test_draw_output_ignores_worker_count(argv, monkeypatch, capsys):
    outs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SUBSING_WORKERS", workers)
        assert run(argv + ["--seed", "11"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_integrate_mean_is_the_first_moment(capsys):
    # integrate and `moment mc --p 1` draw the same paths through one route
    common = ["--phi", "stable:0.5", "--f", "pow:0.5", "--T", "2",
              "--paths", "400", "--seed", "8"]
    assert run(["integrate", *common]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert run(["moment", "mc", "--p", "1", "--method", "plain", *common]) == 0
    moment = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[2:4] == moment[1:3]


def test_moment_mc_of_an_infinite_integral(monkeypatch, capsys):
    # alpha theta = 1: the integral is a.s. infinite, as `moment exact`,
    # `integrate` and `zeroone` say; nothing is drawn to say so
    def no_draw(*args, **kwargs):
        raise AssertionError("made a sampler for an a.s. infinite integral")

    monkeypatch.setattr(moments, "grid_sampler", no_draw)
    rows = {}
    for p in ("0.25", "0", "-1"):
        assert run(["moment", "mc", "--phi", "stable:0.5", "--p", p,
                    "--f", "pow:2", "--paths", "50"]) == 0
        rows[p] = capsys.readouterr().out.splitlines()[-1]
    assert rows == {"0.25": "50,inf,inf,median_of_means,True",
                    "0": "50,1.0,0.0,plain,False",
                    "-1": "50,0.0,0.0,plain,False"}


# tiny inputs on which each handler takes its full path
AUDIT_RUNS = {
    ("bf",): ["--phi", "stable:0.5", "--eval-at", "1", "--invert-at", "1"],
    ("sim",): ["--phi", "gamma", "--T", "0.5", "--dt", "0.25", "--paths", "8",
               "--r", "1"],
    ("path",): ["--phi", "stable:0.5", "--T", "0.5", "--dt", "0.25"],
    ("integrate",): ["--phi", "gamma", "--f", "const:1", "--dt", "0.5",
                     "--paths", "8"],
    ("zeroone",): ["--phi", "gamma", "--f", "exp:1"],
    ("moment", "exact"): ["--phi", "stable:0.5", "--p", "0.25", "--f", "const:1"],
    ("moment", "mc"): ["--phi", "gamma", "--p", "0.5", "--f", "const:1",
                       "--paths", "8"],
    ("moment", "bound"): ["--phi", "stable:0.5", "--p", "0.2", "--theta", "0",
                          "--T-grid", "1", "--paths", "8"],
    ("moment", "equiv"): ["--phi", "gamma", "--p", "0.5", "--lam", "1"],
    ("spde", "sim"): ["--n", "2", "--T", "0.25", "--dt", "0.125"],
    ("spde", "convmom"): ["--n", "2", "--t-grid", "0.25", "--dt", "0.125",
                          "--paths", "4"],
    ("spde", "maximal"): ["--n", "2", "--t-grid", "1", "--dt", "0.25",
                          "--paths", "4"],
    ("spde", "smallball"): ["--n", "2", "--T", "0.25", "--dt", "0.125",
                            "--paths", "4"],
    ("spde", "longrun"): ["--n", "2", "--t-grid", "1", "--dt", "0.25",
                          "--paths", "4"],
    ("spde", "control"): ["--n", "2", "--q-const", "--a4-c", "4", "--T", "0.5",
                          "--dt", "0.125", "--max-iter", "4"],
    ("spde", "galerkin"): ["--n", "4", "--T", "0.25", "--dt", "0.125",
                           "--paths", "4"],
}


def _read_log():
    """A namespace and the set of the names of the attributes read from it."""
    reads = set()

    class ReadLog(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    return ReadLog(), reads


def test_reader_audit_covers_every_mode():
    assert sorted(_leaf_paths(cli.build_parser())) == sorted(AUDIT_RUNS)


@pytest.mark.parametrize("path", list(AUDIT_RUNS), ids="-".join)
def test_every_flag_has_a_reader(path):
    # --out is read by the writer of the result, not by the handler
    namespace, reads = _read_log()
    args = cli.build_parser().parse_args([*path, *AUDIT_RUNS[path]],
                                         namespace=namespace)
    args.manifest = {}
    reads.clear()     # parsing reads the namespace too
    args.func(args)
    flags = {a.dest for a in _leaf(path)._actions if a.option_strings}
    unread = flags - reads - {"help", "out"}
    assert not unread, f"{' '.join(path)} never reads {sorted(unread)}"


def _reads(tree):
    """The names that a module's syntax tree reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_reader():
    # a name the package exports must serve a module of the package or an
    # acceptance criterion, not only its own unit tests
    package = Path(cli.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    readers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    readers.append(Path(__file__).with_name("test_acceptance.py"))
    read = set().union(*(_reads(ast.parse(p.read_text())) for p in readers))
    assert not exported - read, f"unread exports {sorted(exported - read)}"


# tracer points that name a binding the package no longer has: a traced run
# warns that each is not found, and the tracer repair takes them
STALE_TRACE_POINTS = {("cli", "run_mc"), ("moments", "grid_increments"),
                      ("subordinator", "cp_jump_batch"),
                      ("cli", "stieltjes_increments")}


def test_tracer_points_resolve():
    # bench/tracing.py traces a layer by rebinding subsing.<module>.<attr>;
    # a point lost to a refactor would only print a warning in a traced run
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lost = {(mod, attr) for mod, attr, *_ in tracing.POINTS
            if getattr(importlib.import_module(f"subsing.{mod}"), attr,
                       None) is None}
    assert lost <= STALE_TRACE_POINTS, sorted(lost - STALE_TRACE_POINTS)


def test_package_runs_without_scipy(tmp_path):
    # the test modules load scipy into this process, so a fresh one runs the
    # import, parses the exponents and integrands of the Laplace benchmark
    # ops and lists the scipy and numpy.polynomial modules loaded so far,
    # then runs the spde modes, the criterion integrals and a Laplace cell
    # and lists the scipy modules again
    script = textwrap.dedent("""
        import sys
        import subsing, subsing.cli
        from subsing import moments
        from subsing.bernstein import parse_phi
        from subsing.integrate import parse_integrand
        imported = sorted(m for m in sys.modules
                          if m.startswith(("scipy", "numpy.polynomial")))
        for ident in ("stable:0.5", "gamma", "tempered:0.5,1"):
            parse_phi(ident)
        for ident in ("pow:0.5", "exp:1"):
            parse_integrand(ident)
        parsed = sorted(m for m in sys.modules if m.startswith("scipy"))
        small = ["--n", "4", "--T", "0.25", "--dt", "0.125", "--paths", "4"]
        runs = (
            ["spde", "maximal", "--n", "2", "--t-grid", "1", "--dt", "0.25",
             "--paths", "4"],
            ["spde", "longrun", "--n", "2", "--t-grid", "1", "--dt", "0.25",
             "--paths", "4"],
            ["spde", "galerkin", "--phi", "gamma", *small],
            ["spde", "galerkin", "--phi", "tempered:0.5,1", *small],
            ["path", "--phi", "tempered:0.5,1"],
            ["path", "--phi", "gamma"],
            ["zeroone", "--phi", "gamma", "--f", "pow:0.5"],
            ["moment", "equiv", "--phi", "gamma", "--p", "0.5", "--lam", "1"],
            ["integrate", "--phi", "gamma", "--f", "pow:0.5", "--paths", "4"],
        )
        codes = [subsing.cli.main([*argv, "--out", f"{sys.argv[1]}/{i}.csv"])
                 for i, argv in enumerate(runs)]
        phi, f = parse_phi("tempered:0.5,1"), parse_integrand("pow:0.5")
        moments.char_functional_mc(phi, f, 1.0, 16, 1)
        moments.char_functional_exact(phi, f, (0.0, 1.0))
        print(imported, parsed, codes,
              sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.stdout == "[] [] [0, 0, 0, 0, 0, 0, 0, 0, 0] []\n", done.stderr


def test_readme_command_lines_parse():
    # every `subsing ...` line in the README's code blocks is a valid call
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    lines = [line.strip() for block in blocks for line in block.splitlines()
             if line.strip().startswith("subsing ") and "..." not in line]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_layout_names_every_module():
    # the README's Layout block names every module of the package
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    layout = text.split("## Layout", 1)[1].split("```")[1].split()
    modules = sorted(m.name for m in Path(cli.__file__).parent.glob("*.py"))
    assert [m for m in modules if m not in layout] == []


def test_every_declared_flag_is_taken_by_a_parser():
    # with test_every_flag_has_a_reader: the flag table declares no flag
    # that no command reads
    def taken(parser):
        own = {flag for a in parser._actions for flag in a.option_strings}
        return own.union(*map(taken, _subparsers(parser).values()))

    assert set(cli.FLAGS) - taken(cli.build_parser()) == set()


# extreme inputs that once ended in a traceback, a warning, a nan or a wrong
# verdict or value (see their own tests), with the exit code that each must
# end in
EXTREME_RUNS = {
    "mom-inf-block-mean": (["moment", "mc", "--phi", "stable:0.01", "--p", "0.009",
                            "--f", "pow:0.5", "--paths", "2000", "--seed", "1"], 0),
    "mom-overflowing-weight": (["moment", "mc", "--phi", "stable:0.01", "--p", "0.5",
                                "--f", "pow:2", "--T", "1e-300", "--dt", "1e-300",
                                "--paths", "50"], 1),
    "exact-overflowing-closed-form": (["moment", "exact", "--phi", "stable:1e-12",
                                       "--p", "1e300", "--f", "pow:1e300",
                                       "--domain", "1e-300,1e300"], 0),
    "integrate-overflowing-weight": (["integrate", "--phi", "stable:0.01",
                                      "--f", "pow:2", "--T", "1e-300",
                                      "--dt", "1e-300", "--paths", "50"], 1),
    "integrate-overflowing-moment": (["integrate", "--phi", "stable:0.01",
                                      "--f", "pow:2", "--T", "1", "--paths", "50"], 0),
    "zeroone-tempered-at-tiny-rate": (["zeroone", "--phi", "tempered:0.3,1e-300",
                                       "--f", "pow:-1",
                                       "--domain", "1e-300,1e300"], 0),
    "zeroone-exp-at-huge-rate": (["zeroone", "--phi", "stablelog:0.5,0.2",
                                  "--f", "exp:1e300", "--domain", "1e-300,1e300"], 0),
    "integrate-ratio-at-inf": (["integrate", "--phi", "ratio:0.5", "--f", "pow:1e300",
                                "--T", "1e-300", "--paths", "50"], 0),
    "zeroone-core-past-the-range": (["zeroone", "--phi", "stablelog:0.5,0.2",
                                     "--f", "pow:-1", "--domain", "1,1e300"], 0),
    # t^-1000 is past the double range below t = 0.5, where phi(inf) is nan
    "zeroone-nan-past-the-range": (["zeroone", "--phi", "stableloginv:0.5,0.2",
                                    "--f", "pow:1000", "--domain", "0.1,1"], 0),
    "bf-tempered-past-the-range": (["bf", "--phi", "tempered:0.3,1e-300",
                                    "--eval-at", "1e10"], 0),
    # Gamma(201) past the double range, for a moment of about 7.9e-226
    "exact-overflowing-gamma-factor": (["moment", "exact", "--phi", "stable:0.005",
                                        "--f", "const:1", "--p", "-1",
                                        "--domain", "0,1000"], 0),
    # about 1000! e^(1/2): +inf
    "exact-moment-past-the-range": (["moment", "exact", "--phi", "stable:0.001",
                                     "--f", "exp:1", "--p", "-1",
                                     "--domain", "0,1"], 0),
    # a tilted piece count past the double range, refused as a grid
    "mom-tempered-piece-count-past-the-range": (
        ["moment", "mc", "--phi", "tempered:0.999,1e300", "--f", "const:1",
         "--p", "0.5", "--T", "1e300", "--paths", "40"], 1),
    # the replica's exponential-Euler steps overflow, refused as a path
    "sim-overflowing-driver": (["spde", "sim", "--n", "2", "--dt", "0.25", "--T", "1",
                                "--phi", "stable:1e-300"], 1),
    # a zero weight times an infinite increment is 0, not nan
    "integrate-zero-weight-inf-increment": (["integrate", "--phi", "stable:0.01",
                                             "--f", "exp:1000", "--paths", "2000"], 0),
    "integrate-zero-integrand-inf-increment": (["integrate", "--phi", "stable:0.01",
                                                "--f", "const:0", "--paths", "2000"], 0),
    # no positive doubling index: the small-ball bound is the trivial 0.0
    "smallball-no-doubling-index": (["spde", "smallball", "--n", "2", "--dt", "0.25",
                                     "--T", "1", "--phi", "stable:1e-300",
                                     "--paths", "20"], 0),
    # the probe bound C t^-delta past the double range is +inf, which no
    # probe exceeds
    "control-overflowing-a4-bound": (["spde", "control", "--a4-c", "1e308",
                                      "--T", "0.5", "--dt", "0.25", "--n", "1"], 0),
}


@pytest.mark.parametrize("argv, code", list(EXTREME_RUNS.values()),
                         ids=list(EXTREME_RUNS))
def test_extreme_input_exits_cleanly(argv, code, capsys):
    # an exception, a warning included, that escapes main fails the test
    assert run(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(("error: ", "refused: ")) and err.count("\n") == 1
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    if lines and "," in lines[0] and "=" not in lines[0]:
        # a CSV: every cell but the text columns is a float, and the SE of a
        # single path is its one nan
        columns = lines[0].split(",")
        for line in lines[1:]:
            cells = dict(zip(columns, line.split(",")))
            assert len(cells) == len(columns) == line.count(",") + 1
            for text in ("method", "heavy_tail"):
                cells.pop(text, None)
            if cells.get("n") == "1":
                del cells["se"]
            assert not any(math.isnan(float(v)) for v in cells.values())
    else:                           # key=value lines
        assert not any(line.endswith("=nan") for line in lines)
