import hashlib

import pytest

from subsing import __version__, cli, integrate
from subsing.cli import main


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
    assert run(["moment", "exact", "--alpha", "0.5", "--p", "-1",
                "--f", "const:1"]) == 0
    assert "value=2.0" in capsys.readouterr().out
    assert run(["moment", "mc", "--phi", "stable:0.5", "--p", "0.25",
                "--f", "const:1", "--T", "1", "--paths", "8000",
                "--seed", "7"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1]
    mean = float(row.split(",")[1])
    assert abs(mean - 1.4464) < 0.08


def test_refusal_exit_code(capsys):
    code = run(["moment", "bound", "--phi", "stable:0.5", "--p", "0.7",
                "--theta", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "log2" in err and "phi(2s)/phi(s)" in err


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


@pytest.mark.parametrize("truncations", ["8", ""])
def test_galerkin_bad_truncations_refused(truncations, capsys):
    assert run(["spde", "galerkin", "--n", "8", "--truncations", truncations,
                "--paths", "2", "--T", "0.25", "--dt", "0.0625"]) == 2
    assert "truncation" in capsys.readouterr().err


def test_spde_header_omits_unused_truncations(tmp_path):
    # only galerkin reads --truncations, so no other mode echoes it
    out = tmp_path / "m.csv"
    assert run(["spde", "maximal", "--n", "4", "--t-grid", "1", "--dt", "0.0625",
                "--paths", "20", "--out", str(out)]) == 0
    assert "truncations" not in out.read_text()


@pytest.mark.parametrize("mode", ["sim", "convmom", "maximal", "smallball",
                                  "longrun", "control", "galerkin"])
def test_spde_empty_phi_exit_code(mode, capsys):
    assert run(["spde", mode, "--phi=", "--n", "2", "--paths", "2"]) == 1
    assert "unknown exponent id" in capsys.readouterr().err


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


# zeroone outputs of the version that evaluated the criterion twice
ZEROONE_OUTPUTS = {
    ("exp:1", "gamma"): "verdict=AS_FINITE\ncriterion=finite\n"
                        "criterion_value=0.48381903702066104\n",
    ("pow:2", "stable:0.5"): "verdict=AS_INFINITE\ncriterion=infinite\n",
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


@pytest.mark.parametrize("argv", [
    ["spde", "maximal", "--phi", "stable:0.6", "--n", "4", "--p", "0.5",
     "--t-grid", "0.5,1,2", "--dt", "0.0625", "--paths", "300"],
    ["spde", "galerkin", "--phi", "gamma", "--n", "16", "--truncations",
     "2,4,8", "--T", "0.5", "--dt", "0.03125", "--paths", "300"]],
    ids=["maximal", "galerkin"])
def test_spde_output_ignores_worker_count(tmp_path, monkeypatch, argv):
    outs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SUBSING_WORKERS", workers)
        out = tmp_path / f"w{workers}.csv"
        assert run(argv + ["--seed", "5", "--out", str(out)]) == 0
        outs.append(read(out))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("mode", ["maximal", "longrun"])
def test_spde_off_grid_horizon_exit_code(mode, capsys):
    assert run(["spde", mode, "--phi", "stable:0.6", "--n", "4", "--p", "0.5",
                "--theta", "0.25", "--t-grid", "1.3,2", "--dt", "0.0625",
                "--paths", "10"]) == 1
    assert "not a time of the grid" in capsys.readouterr().err


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
    from subsing import moments
    out = tmp_path / "i.csv"
    assert run(["integrate", "--f", "pow:0.5", "--phi", "stable:0.5",
                "--paths", "200", "--out", str(out)]) == 0
    facts = _manifest(out)
    times = moments._default_times(itg.power_singular(0.5), 1.0, None,
                                   bf.stable(0.5))
    assert int(facts["grid_nodes"]) == len(times)
    assert 0 < -float(facts["grid_bias"]) <= moments.GRID_BIAS_TOL
    assert "grid" not in out.read_text()


def test_integrate_records_jump_table(tmp_path):
    from subsing import bernstein as bf
    from subsing.subordinator import jump_sampler
    out = tmp_path / "cp.csv"
    assert run(["integrate", "--f", "exp:1", "--phi", "tempered:0.5,1",
                "--paths", "300", "--seed", "4", "--out", str(out)]) == 0
    facts = _manifest(out)
    sampler = jump_sampler(bf.tempered_stable(0.5, 1.0), 1e-4)
    assert int(facts["inv_cdf_knots"]) == sampler._knots.size
    assert float(facts["inv_cdf_max_gap"]) == sampler.table_gap > 0
    # the record goes to the manifest only; the result row is unchanged
    assert out.read_text().splitlines()[-1] == \
        "300,1.0,0.2961171695052116,0.014387288484346259,0.21764001452588536"
    exact = tmp_path / "st.csv"
    assert run(["integrate", "--f", "exp:1", "--phi", "stable:0.5",
                "--paths", "100", "--out", str(exact)]) == 0
    assert "inv_cdf_knots" not in _manifest(exact)


def test_integrate_reports_infinite_integral(tmp_path):
    # pow:2 under stable:0.7 diverges a.s. (alpha theta = 1.4 >= 1)
    out = tmp_path / "inf.csv"
    assert run(["integrate", "--f", "pow:2", "--phi", "stable:0.7",
                "--paths", "100", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "100,0.0,inf,inf,inf"
    facts = _manifest(out)
    assert facts["verdict"] == "AS_INFINITE"
    assert "grid_nodes" not in facts


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


def test_path_export(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["sim", "--phi", "stable:0.5", "--T", "1", "--dt", "0.25",
                "--seed", "5", "--export-path", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,S_t"
    vals = [float(r.split(",")[1]) for r in lines[1:]]
    assert vals[0] == 0.0 and all(b >= a for a, b in zip(vals, vals[1:]))
    out2 = tmp_path / "j.csv"
    assert run(["sim", "--phi", "gamma", "--T", "1", "--dt", "0.25",
                "--seed", "5", "--export-path", "--out", str(out2)]) == 0
    text = out2.read_text()
    assert "time,size" in text and "drift=" in text


def test_path_export_digest(capsys):
    # digest of the output of the version that sampled stable paths with
    # simulate_stable
    assert run(["sim", "--export-path", "--phi", "stable:0.6", "--dt", "0.01",
                "--seed", "7"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ("3c563648cb288f8c460cd287473725b3"
                      "3ef03d2ac7c290a4f5b34f9cf53f459a")


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
    assert run(["sim", "--phi", "stablelog:0.5,0.3", "--export-path"]) == 2
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
    from subsing import moments
    from subsing.errors import NumericError

    def fail(*args, **kwargs):
        raise NumericError("did not converge")

    monkeypatch.setattr(moments, "exact_stable_moment", fail)
    assert run(["moment", "exact", "--alpha", "0.5", "--p", "0.25",
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
