import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

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
    rc = main(["sweep-cutoff", "--bic", "--out", str(tmp_path / "s.jsonl")])
    assert rc == 2
    assert "a-list" in json.loads(capsys.readouterr().err)["message"]


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
