import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicscatter as bs
from bicscatter import cli
from bicscatter.cli import main


def _read_csv(path):
    """Split a CLI CSV into (metadata dict, header list, column arrays)."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(x) for x in line.split(",")])
    data = np.asarray(rows)
    return meta, header, {name: data[:, i] for i, name in enumerate(header)}


def test_w1_run(tmp_path):
    out = tmp_path / "w1.csv"
    assert main(["w1", "--bic", "--r-max", "2", "--dr", "0.5",
                 "--out", str(out), "--reproducible"]) == 0
    meta, header, cols = _read_csv(out)
    assert header == ["r", "w1"]
    assert meta["command"] == "w1"
    assert meta["sign_changes"] == "0"
    assert cols["r"][0] == 0.0
    assert cols["w1"][0] == pytest.approx(4.32, abs=1e-10)
    assert np.all(cols["w1"] > 0)


def test_w1_beta_list(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["w1", "--alpha", "1", "--q", "1", "--beta-list=-1,3,5",
                 "--r-max", "30", "--dr", "0.01",
                 "--out", str(out), "--reproducible"]) == 0
    neg = tmp_path / "scan_beta-1.csv"
    mid = tmp_path / "scan_beta3.csv"
    pos = tmp_path / "scan_beta5.csv"
    assert neg.exists() and mid.exists() and pos.exists()
    meta_n, _, cols_n = _read_csv(neg)
    assert meta_n["diagnostic"] == "true"
    assert int(meta_n["sign_changes"]) >= 1
    assert np.min(cols_n["w1"]) < 0  # the invalid parameter choice dips negative
    meta_p, _, cols_p = _read_csv(pos)
    assert meta_p["diagnostic"] == "false"
    assert int(meta_p["sign_changes"]) == 0
    assert np.all(cols_p["w1"] > 0)


def test_w1_counts_sign_changes_on_its_own_rows(tmp_path):
    """sign_changes counts the sign changes between consecutive written
    rows. At beta = -1 W1 vanishes near r = 0.025 and 1.105: steps of 0.01
    and 0.5 see both, a step of 3 steps over the pair."""
    for i, (dr, want) in enumerate([("0.01", 2), ("0.5", 2), ("3", 0)]):
        assert main(["w1", "--alpha", "1", "--q", "1", "--beta-list=-1,3,5",
                     "--r-max", "30", "--dr", dr,
                     "--out", str(tmp_path / f"s{i}.csv"), "--reproducible"]) == 0
        for beta in ("-1", "3", "5"):
            meta, _, cols = _read_csv(tmp_path / f"s{i}_beta{beta}.csv")
            signs = np.sign(cols["w1"]).tolist()
            changes = sum(1 for lo, hi in zip(signs, signs[1:]) if lo * hi < 0)
            assert int(meta["sign_changes"]) == changes
            assert changes == (want if beta == "-1" else 0)


def test_w1_grid_bound_is_its_own_output_grid(tmp_path):
    # 20001 rows at dr = 10; no finer grid is laid over [0, r_max]
    out = tmp_path / "w1.csv"
    assert main(["w1", "--bic", "--r-max", "2e5", "--dr", "10",
                 "--out", str(out), "--reproducible"]) == 0
    meta, _, cols = _read_csv(out)
    assert cols["r"].size == 20001 and cols["r"][-1] == 2e5
    assert meta["sign_changes"] == "0"


@pytest.mark.parametrize("argv", [
    ["w1", "--alpha", "1", "--q", "1", "--beta-list=-1e300,3", "--r-max", "1"],
    ["potential", "--bic", "--alpha", "1e300", "--r-max", "1"],
    # W1's x^4 term overflows at x = q r ~ 1e98 (inf - inf wrote NaN rows)
    ["potential", "--bic", "--alpha", "1e-100", "--q", "1e100", "--r-max", "1"],
    # alpha**3 of the phase data, then q**5 of the u, v table
    ["potential", "--bic", "--alpha", "1e103", "--q", "1e-100", "--r-max", "1"],
    ["resonances", "--bic", "--alpha", "1e103", "--q", "1e-103"],
    ["resonances", "--bic", "--alpha", "1e-100", "--q", "1e100", "--cutoff", "1e-98"],
])
def test_overflowing_w1_coefficients_exit_2(tmp_path, capsys, argv):
    # every closed form past the float range: a ValidationError, no file
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "overflow" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_potential_run(tmp_path):
    out = tmp_path / "pot.csv"
    assert main(["potential", "--bic", "--r-max", "3", "--dr", "0.01",
                 "--out", str(out), "--reproducible"]) == 0
    meta, header, cols = _read_csv(out)
    assert header == ["r", "v4", "psi_b_sq"]
    assert float(meta["psi_b_norm"]) == pytest.approx(math.sqrt(10.0 / 3.0), rel=1e-8)
    assert cols["v4"][0] == pytest.approx(19.5556, abs=1e-3)
    assert abs(cols["psi_b_sq"][0]) < 1e-28
    interior = cols["v4"][cols["r"] >= 1.0]
    assert interior.max() == pytest.approx(4.43, abs=0.01)
    # the trapped state lives in the first well
    assert cols["r"][int(np.argmax(cols["psi_b_sq"]))] < 2.2


def test_potential_requires_constraint(tmp_path, capsys):
    rc = main(["potential", "--alpha", "1", "--beta", "5", "--q", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err


def test_resonances_default(tmp_path):
    out = tmp_path / "res.json"
    assert main(["resonances", "--bic", "--out", str(out), "--reproducible"]) == 0
    doc = json.loads(out.read_text())
    assert doc["winding_count"] == 2
    assert len(doc["roots"]) == 2
    r1, r2 = doc["roots"]
    assert r1["re"] == pytest.approx(0.9989844032, abs=1e-6)
    assert r1["half_width"] == pytest.approx(1.730066e-4, abs=1e-6)
    assert r2["re"] == pytest.approx(1.0010155757, abs=1e-6)
    assert r1["doublet"] and r2["doublet"]
    assert doc["box"]["im_max"] < 0
    assert doc["meta"]["cutoff"] == 5000.0


def test_resonances_wide_box(tmp_path):
    out = tmp_path / "wide.json"
    assert main(["resonances", "--bic", "--wide-box",
                 "--out", str(out), "--reproducible"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["roots"]) == 30
    assert doc["winding_count"] == 30
    assert sum(1 for r in doc["roots"] if r["doublet"]) == 2
    assert all(r["residual"] < 1e-8 for r in doc["roots"])


def _wide_box(config):
    return cli._resonance_box(argparse.Namespace(box=None, wide_box=True), config)


@pytest.mark.parametrize("q", [0.3, 1.0, 2.7])
def test_wide_box_preset_at_a_5000_is_the_k_box_it_replaces(q):
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(q=q), a=5000.0)
    assert _wide_box(config) == bs.ComplexRectangle(q - 0.01, q + 0.01, -0.001, -1e-5)


@pytest.mark.envelope
@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.3, 3.0), q=st.floats(0.3, 3.0), log_a=st.floats(2.0, 6.0))
def test_wide_box_preset_holds_the_30_members_over_the_envelope(alpha, q, log_a):
    """--wide-box is the window |Re x| <= 50, Im x in [-5, -0.05] of
    x = (k - q) a, which holds the 15 string members a side with
    |Re x_n| < 50, and reaches k <= 0, where it is refused, where q a <= 50.
    Nearer q a = 50 the outermost members leave the scaling limit: of 400
    draws with q a in [50, 60] the census held 30 roots in 175, 29 in 74
    and was refused with RootCountMismatch in 151, and of 2400 with q a in
    [60, 600] the only one without 30 roots was at q a = 61.2. A seed that
    fails there makes the census short, and that refusal is NoConvergence."""
    config = bs.TruncatedConfig(params=bs.PotentialParams.bic(alpha=alpha, q=q), a=10.0**log_a)
    box = _wide_box(config)
    if box.re_min <= 0.0:
        with pytest.raises(bs.ValidationError, match="Re k > 0"):
            bs.find_resonances(config, box)
        return
    try:
        found = bs.find_resonances(config, box)
    except (bs.RootCountMismatch, bs.NoConvergence):
        assert q * config.a < 70.0
        return
    assert len(found) == 30 or (q * config.a < 70.0 and len(found) == 29)


def test_resonances_custom_boxes(tmp_path):
    # a box missing both members comes back empty but valid
    out = tmp_path / "none.json"
    assert main(["resonances", "--bic", "--box", "0.999,1.0,-0.0005,-0.00001",
                 "--out", str(out), "--reproducible"]) == 0
    assert json.loads(out.read_text())["roots"] == []
    # one member inside: reported, but not flagged as a doublet
    out2 = tmp_path / "one.json"
    assert main(["resonances", "--bic", "--box", "0.9985,1.0,-0.0005,-0.00001",
                 "--out", str(out2), "--reproducible"]) == 0
    doc = json.loads(out2.read_text())
    assert len(doc["roots"]) == 1
    assert doc["roots"][0]["doublet"] is False


def test_gamow_run(tmp_path):
    out = tmp_path / "gamow.csv"
    assert main(["gamow", "--bic", "--root-index", "1", "--r-max", "3",
                 "--dr", "0.01", "--out", str(out), "--reproducible"]) == 0
    meta, header, cols = _read_csv(out)
    assert header == ["r", "psi_n_sq", "v4"]
    assert float(meta["k_re"]) == pytest.approx(1.0010155757, abs=1e-6)
    assert meta["sqrt_branch"] == "principal"
    assert cols["psi_n_sq"][0] == 0.0
    assert cols["r"][int(np.argmax(cols["psi_n_sq"]))] < 2.2


def test_gamow_bad_root_index(tmp_path, capsys, monkeypatch):
    # the index is checked before any resonance search runs
    def no_search(*args, **kwargs):
        raise AssertionError("resonance search ran before input validation")

    monkeypatch.setattr("bicscatter.cli.find_resonances", no_search)
    rc = main(["gamow", "--bic", "--root-index", "5",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_cutoff_is_an_option_of_the_commands_that_read_one(tmp_path, capsys):
    # the five commands that build the truncated problem take --cutoff and
    # write it into their metadata; the others refuse the flag
    takes = {name for name, command in cli._COMMANDS.items() if "cutoff" in command.options}
    assert takes == {"resonances", "gamow", "phase-shift", "cross-section", "fit-background"}
    assert "cutoff" not in cli._COMMON
    out = tmp_path / "w1.csv"
    with pytest.raises(SystemExit):
        main(["w1", "--bic", "--cutoff", "100", "--out", str(out)])
    assert "unrecognized arguments: --cutoff" in capsys.readouterr().err
    assert not out.exists()
    # gamow still checks the root index before the cutoff
    assert main(["gamow", "--bic", "--root-index", "2", "--cutoff", "-1",
                 "--out", str(tmp_path / "g.csv")]) == 2
    assert "root-index" in json.loads(capsys.readouterr().err)["message"]


def test_phase_shift_run(tmp_path):
    out = tmp_path / "ps.csv"
    assert main(["phase-shift", "--bic", "--k-min", "0.9995", "--k-max", "1.0005",
                 "--out", str(out), "--reproducible"]) == 0
    meta, header, cols = _read_csv(out)
    assert header == ["k", "delta_raw", "delta_unwrapped", "delta_ramp_removed"]
    assert float(meta["excluded_near_q"]) == 1e-5
    assert np.min(np.abs(cols["k"] - 1.0)) > 1e-5
    # the ramp-removed column is unwrapped + k*a
    assert np.max(np.abs(cols["delta_ramp_removed"]
                         - (cols["delta_unwrapped"] + cols["k"] * 5000.0))) < 1e-6
    assert np.max(np.abs(np.diff(cols["delta_unwrapped"]))) < 0.45 * math.pi


def test_cross_section_modes(tmp_path):
    exact = tmp_path / "exact.csv"
    assert main(["cross-section", "--bic", "--k-min", "0.9995", "--k-max", "1.0005",
                 "--mode", "exact", "--out", str(exact), "--reproducible"]) == 0
    _, header, cols = _read_csv(exact)
    assert header == ["k", "sigma_exact"]
    # window includes the first transmission zero
    k_at_min = cols["k"][int(np.argmin(cols["sigma_exact"]))]
    assert k_at_min == pytest.approx(0.9997210660, abs=1e-5)
    assert np.min(cols["sigma_exact"]) < 1e-4 * 4 * math.pi

    both = tmp_path / "both.csv"
    assert main(["cross-section", "--bic", "--k-min", "0.9995", "--k-max", "1.0005",
                 "--mode", "both", "--out", str(both), "--reproducible"]) == 0
    meta, header, cols = _read_csv(both)
    assert header == ["k", "sigma_exact", "sigma_model"]
    assert float(meta["lambda0"]) + float(meta["lambda1"]) == pytest.approx(-0.8236, rel=0.1)
    assert float(meta["max_deviation"]) < 0.15
    bound = 4 * math.pi / cols["k"] ** 2
    assert np.max(np.abs(cols["sigma_model"] - cols["sigma_exact"]) / bound) < 0.15


def test_fit_background_run(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit-background", "--bic", "--out", str(out), "--reproducible"]) == 0
    doc = json.loads(out.read_text())
    assert doc["lambda0"] + doc["lambda1"] == pytest.approx(-0.8236, rel=0.1)
    assert doc["minima"][0] == pytest.approx(0.9997210660, abs=1e-7)
    assert doc["minima"][1] == pytest.approx(1.0005261782, abs=1e-7)
    assert doc["condition_number"] > 0
    assert doc["max_deviation"] < 0.15
    assert doc["overlapping_resonances"] is False
    assert "mu_identifiability" in doc["meta"]


def test_fit_background_at_large_cutoff(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit-background", "--bic", "--cutoff", "1e6", "--out", str(out)]) == 0
    assert math.isfinite(json.loads(out.read_text())["max_deviation"])


def test_fit_background_barren_window(tmp_path, capsys):
    rc = main(["fit-background", "--bic", "--window", "0.9999,1.0004",
               "--out", str(tmp_path / "f.json")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "MinimaNotFound"


def test_sweep_run(tmp_path):
    out = tmp_path / "sweep.jsonl"
    assert main(["sweep-cutoff", "--bic", "--a-list", "2500,5000",
                 "--out", str(out), "--reproducible"]) == 0
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    assert lines[0]["meta"]["a_list"] == [2500.0, 5000.0]
    assert lines[1]["a"] == 2500.0
    assert lines[1]["k1"] == pytest.approx(0.9979690511, abs=1e-8)
    assert lines[2]["a"] == 5000.0
    assert lines[2]["half_width1"] < lines[1]["half_width1"]
    assert lines[3] == {"gamma_monotone": True}


def test_sweep_requires_a_list(tmp_path, capsys):
    # a list that does not parse is refused too, and "," parses to no
    # cutoff at all, which sweep_cutoff refuses
    for a_list, message in [([], "requires --a-list"),
                            (["--a-list=1,x"], "a-list: expected comma-separated numbers"),
                            (["--a-list=,"], "a_values must be non-empty")]:
        rc = main(["sweep-cutoff", "--bic", *a_list, "--out", str(tmp_path / "s.jsonl")])
        assert rc == 2
        assert message in json.loads(capsys.readouterr().err)["message"]


def test_sweep_far_apart_cutoffs(tmp_path):
    out = tmp_path / "sweep.jsonl"
    assert main(["sweep-cutoff", "--bic", "--a-list", "2500,20000",
                 "--out", str(out), "--reproducible"]) == 0
    rows = [json.loads(s) for s in out.read_text().splitlines()][1:3]
    params = bs.PotentialParams.bic()
    for row in rows:
        config = bs.TruncatedConfig(params=params, a=row["a"])
        r1, r2 = bs.doublet_of(bs.find_resonances(config), params.q)
        assert (row["k1"], row["half_width1"]) == (r1.k_re, r1.half_width)
        assert (row["k2"], row["half_width2"]) == (r2.k_re, r2.half_width)


def test_validation_exits(tmp_path, capsys):
    assert main(["w1", "--alpha", "1", "--beta", "0", "--q", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()
    assert main(["resonances", "--bic", "--box", "1,2",
                 "--out", str(tmp_path / "y.json")]) == 2
    capsys.readouterr()
    # --bic with a contradicting explicit beta
    assert main(["w1", "--bic", "--beta", "5",
                 "--out", str(tmp_path / "z.csv")]) == 2


@pytest.mark.parametrize("alpha", [np.nextafter(bs.scattering.S_MIN, 0.0),
                                   np.nextafter(bs.scattering.S_MAX, math.inf)])
def test_resonances_refuses_alpha_q_outside_the_proven_range(tmp_path, capsys, alpha):
    # one ulp past either end of the alpha*q range on which W1 > 0 is proven
    assert main(["resonances", "--alpha", repr(float(alpha)), "--q", "1", "--bic",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "W1 > 0 is proven" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [["w1", "--bic", "--beta-list=3,5"],
                                  ["resonances", "--bic", "--beta", "5"]])
def test_bic_contradicting_beta_exits_2(tmp_path, capsys, argv):
    # one check for every command: beta = 5 is refused with the same
    # message, before any file is written (w1 would write beta = 3 first)
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValidationError",
                   "message": "--bic contradicts --beta 5.0 (3*alpha*q = 3.0)"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("beta_list,message", [
    (",", "holds no beta"), ("", "holds no beta"),
    ("3,3", "names one file twice"), ("-1,3,3.0000000000001", "names one file twice")])
def test_w1_beta_list_without_distinct_files_exits_2(tmp_path, capsys, beta_list, message):
    # an empty list exited 0 writing nothing, and betas whose file names
    # coincide wrote one file twice, the last beta's rows over the first's
    assert main(["w1", f"--beta-list={beta_list}", "--r-max", "1",
                 "--out", str(tmp_path / "w.csv")]) == 2
    assert message in json.loads(capsys.readouterr().err)["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("box,code", [("0.9,inf,-0.01,-0.001", 2),
                                      ("0.99,1.01,-inf,-1e-5", 2),
                                      ("0.999,1.001,-1e300,-1e-5", 2)])
def test_census_box_without_finite_integrand_fails_fast(tmp_path, box, code):
    # a box with an infinite edge, or so deep that G overflows (refused by
    # root_function at the first such contour sample), would give the
    # winding count segments it can never accept; subdividing them would
    # exhaust memory, so the CLI runs in a child under a 1 GB address-space
    # cap and a timeout, where a regression fails fast
    src = os.path.dirname(os.path.dirname(os.path.abspath(bs.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from bicscatter.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    done = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-c", script, "resonances", "--bic",
         f"--box={box}", "--out", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert json.loads(done.stderr)["error"] == "ValidationError"
    assert not (tmp_path / "r.json").exists()


def test_overflowing_boundary_data_exit_2_under_warnings_as_errors(tmp_path):
    # u and v at r = a overflow: the config is refused with the JSON error,
    # where numpy's overflow warning used to end the run with a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(bs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "bicscatter.cli", "resonances",
         "--alpha", "1e10", "--q", "1e-12", "--cutoff", "1e89"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stderr)["error"] == "ValidationError"
    assert not (tmp_path / "resonances.json").exists()


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_import_loads_no_scipy_submodule():
    # a fresh interpreter: importing scipy.optimize or scipy.linalg costs
    # more than half a second of every CLI start
    src = os.path.dirname(os.path.dirname(os.path.abspath(bs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, bicscatter.cli; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "bicscatter.cli" in loaded
    assert "scipy.optimize" not in loaded and "scipy.linalg" not in loaded


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a run file\n"
        "bic = true\n"
        "k-min = 0.9996\n"
        "k-max = 1.0004\n"
        "cutoff = 5000\n"
    )
    out = tmp_path / "a.csv"
    assert main(["phase-shift", "--config", str(cfg),
                 "--out", str(out), "--reproducible"]) == 0
    _, _, cols = _read_csv(out)
    assert cols["k"][0] == pytest.approx(0.9996)
    assert cols["k"][-1] <= 1.0004

    # a flag beats the same key in the file
    out2 = tmp_path / "b.csv"
    assert main(["phase-shift", "--config", str(cfg), "--k-max", "1.0001",
                 "--out", str(out2), "--reproducible"]) == 0
    _, _, cols2 = _read_csv(out2)
    assert cols2["k"][-1] <= 1.0001


def test_config_file_rejects_garbage(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    rc = main(["phase-shift", "--config", str(cfg),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()
    # a path that cannot be read
    rc = main(["phase-shift", "--config", str(tmp_path / "missing.cfg"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "cannot read run file" in json.loads(capsys.readouterr().err)["message"]


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bic = true\ncutof = 100\n")
    assert main(["resonances", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "'cutof'" in err["message"]
    # a key of another command is accepted: one file serves several commands
    cfg.write_text("bic = true\nr-max = 2\ndr = 0.5\na-list = 2500,5000\n")
    assert main(["w1", "--config", str(cfg), "--out", str(tmp_path / "w1.csv")]) == 0


def test_run_file_values_are_converted_on_loading(tmp_path, capsys):
    # w1 reads no cutoff, but a value its option's type cannot parse is
    # refused when the file is loaded, for every command; a boolean key
    # takes only the spellings of true and false
    cfg = tmp_path / "run.cfg"
    for line, key in [("cutoff = abc", "'cutoff'"), ("reproducible = maybe", "'reproducible'")]:
        cfg.write_text(f"bic = true\n{line}\n")
        assert main(["w1", "--config", str(cfg), "--out", str(tmp_path / "w1.csv")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError" and key in err["message"]
    assert not (tmp_path / "w1.csv").exists()


def test_run_file_at_the_defaults_is_no_file(tmp_path):
    # every option of phase-shift that has a default, at that default
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("alpha = 1\nq = 1\nbic = false\ncutoff = 5000\nreproducible = false\n"
                   "k-min = 0.995\nk-max = 1.005\ndk = 1e-6\n")
    with_file, without = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["phase-shift", "--config", str(cfg), "--reproducible",
                 "--out", str(with_file)]) == 0
    assert main(["phase-shift", "--reproducible", "--out", str(without)]) == 0
    assert with_file.read_bytes() == without.read_bytes()


def test_invalid_mode_is_a_json_error(tmp_path, capsys):
    assert main(["cross-section", "--bic", "--mode", "bogus",
                 "--out", str(tmp_path / "s.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "'bogus'" in err["message"]


def test_default_k_window_is_centred_on_q(tmp_path):
    out = tmp_path / "s2.csv"
    assert main(["cross-section", "--bic", "--q", "2", "--out", str(out),
                 "--reproducible"]) == 0
    _, _, cols = _read_csv(out)
    k = cols["k"]
    assert k[0] == pytest.approx(1.99) and k[-1] == pytest.approx(2.01)
    params = bs.PotentialParams.bic(q=2.0)
    pair = bs.doublet_of(bs.find_resonances(bs.TruncatedConfig(params=params, a=5000.0)), 2.0)
    assert all(k[0] < r.k_re < k[-1] for r in pair)
    # at q = 1 the default window is the explicit [0.995, 1.005]
    default, explicit = tmp_path / "d.csv", tmp_path / "e.csv"
    assert main(["phase-shift", "--bic", "--out", str(default), "--reproducible"]) == 0
    assert main(["phase-shift", "--bic", "--k-min", "0.995", "--k-max", "1.005",
                 "--out", str(explicit), "--reproducible"]) == 0
    assert default.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("command", ["phase-shift", "cross-section"])
def test_k_window_inside_the_exclusion_exits_2(tmp_path, capsys, command):
    # every row of the window lies within Q_EXCLUSION of q
    assert main([command, "--bic", "--k-min", "0.999995", "--k-max", "1.000005",
                 "--dk", "1e-6", "--out", str(tmp_path / "out.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "excluded_near_q" in err["message"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [["potential", "--bic", "--r-max", "nan"],
                                  ["potential", "--bic", "--r-max", "inf"],
                                  ["phase-shift", "--bic", "--dk", "nan"],
                                  ["phase-shift", "--bic", "--k-max", "inf"],
                                  # a dk below the spacing of floats repeats k rows
                                  ["cross-section", "--bic", "--k-min", "0.999",
                                   "--k-max", "0.99900000000001", "--dk", "1e-19"]])
def test_non_finite_grid_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


@pytest.mark.parametrize("argv", [["potential", "--bic", "--dr", "1e-300"],
                                  ["w1", "--bic", "--dr", "1e-9"],
                                  ["phase-shift", "--bic", "--dk", "1e-12"],
                                  ["cross-section", "--bic", "--dk", "1e-300"]])
def test_oversized_grid_exits_2(tmp_path, capsys, argv):
    # refused by its point count before any array is allocated
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "more than" in err["message"]


@pytest.mark.parametrize("line", ["dr = nan", "k-min = -inf"])
def test_non_finite_grid_from_run_file_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"bic = true\n{line}\n")
    command = "potential" if line.startswith("dr") else "cross-section"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


def test_reproducible_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["w1", "--bic", "--r-max", "2", "--dr", "0.5", "--reproducible"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # without the flag a timestamp line appears
    c = tmp_path / "c.csv"
    assert main(["w1", "--bic", "--r-max", "2", "--dr", "0.5", "--out", str(c)]) == 0
    assert "timestamp" in c.read_text()


def test_values_survive_roundtrip_at_12_digits(tmp_path):
    out = tmp_path / "w1.csv"
    assert main(["w1", "--bic", "--r-max", "1", "--dr", "0.25",
                 "--out", str(out), "--reproducible"]) == 0
    import bicscatter as bs
    _, _, cols = _read_csv(out)
    p = bs.PotentialParams.bic()
    exact = bs.w1_bundle(p, cols["r"]).w1
    assert np.max(np.abs(cols["w1"] - exact) / exact) < 1e-11


def test_write_csv_matches_per_cell_format(tmp_path):
    awkward = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
               2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300, 3.0, 1e12,
               0.5000000000005, 0.5000000000015, 1.0000000000005, 123456789012.5,
               -2.5e-7, 0.1, 1.0 / 3.0]
    x64 = np.array(awkward)
    with np.errstate(over="ignore"):
        x32 = x64.astype(np.float32)
    ramp = np.linspace(-1.0, 1.0, x64.size)
    meta = {"command": "test", "flag": True, "np_flag": np.bool_(False), "count": 7,
            "np_count": np.int64(-3), "value": 0.1, "label": "a = b"}
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), meta, ["x64", "x32", "ramp"], [x64, x32, ramp])
    expected = ["# command = test", "# flag = true", "# np_flag = false", "# count = 7",
                "# np_count = -3", "# value = 0.1", "# label = a = b", "x64,x32,ramp"]
    expected += [",".join(format(float(col[i]), ".12g") for col in (x64, x32, ramp))
                 for i in range(x64.size)]
    assert path.read_text() == "\n".join(expected) + "\n"
    # the spellings the README promises
    assert expected[8:13] == ["0,0,-1", "-0,-0,-0.894736842105", "inf,inf,-0.789473684211",
                              "-inf,-inf,-0.684210526316", "nan,nan,-0.578947368421"]


def test_write_csv_spans_row_blocks(tmp_path):
    k = np.linspace(0.5, 1.5, 2 * cli._CSV_BLOCK_ROWS + 3)
    path = tmp_path / "b.csv"
    cli._write_csv(str(path), {}, ["k", "k2"], [k, k * k])
    rows = path.read_text().splitlines()[1:]
    assert rows == [f"{x:.12g},{x * x:.12g}" for x in k]


@pytest.mark.parametrize("column", [np.arange(3), np.array([True, False, True]),
                                    np.array([1 + 1j, 2, 3])])
def test_write_csv_rejects_non_float_columns(tmp_path, column):
    path = tmp_path / "bad.csv"
    with pytest.raises(TypeError, match="not floating point"):
        cli._write_csv(str(path), {}, ["k", "c"], [np.linspace(0, 1, 3), column])
    assert not path.exists()


def test_flags_do_not_leak_between_calls(tmp_path):
    window = ["--k-min", "0.9995", "--k-max", "1.0005"]
    runs = [
        (["resonances", "--bic", "--wide-box"], "wide.json"),
        (["resonances", "--bic"], "res.json"),
        (["cross-section", "--bic", *window, "--mode", "both"], "both.csv"),
        (["cross-section", "--bic", *window], "exact.csv"),
    ]
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    for argv, name in runs:
        assert main(argv + ["--reproducible", "--out", str(shared / name)]) == 0
    assert len(json.loads((shared / "wide.json").read_text())["roots"]) > 2
    doc = json.loads((shared / "res.json").read_text())
    assert doc["winding_count"] == 2 and len(doc["roots"]) == 2
    assert _read_csv(shared / "both.csv")[1] == ["k", "sigma_exact", "sigma_model"]
    meta, header, _ = _read_csv(shared / "exact.csv")
    assert header == ["k", "sigma_exact"] and meta["mode"] == "exact"
    # each argv again as the first call of a freshly built parser
    for argv, name in runs:
        cli._build_parser.cache_clear()
        assert main(argv + ["--reproducible", "--out", str(fresh / name)]) == 0
        assert (shared / name).read_bytes() == (fresh / name).read_bytes()
