import math
from pathlib import Path

import numpy as np

from proctensor.cli import main, resolve_config, build_parser
from proctensor.fileio import read_matrix


def run_cli(args):
    return main([str(a) for a in args])


def read_table_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# config=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


# ------------------------------------------------------------- config

def test_config_defaults():
    args = build_parser().parse_args(["nonmarkov"])
    cfg = resolve_config(args)
    assert cfg.process == "cnot-cz"
    assert cfg.shots is None
    assert cfg.noise is None
    assert cfg.seed == 0


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[run]\nprocess = cz-cnot\nseed = 5\nshots = 500\n\n[noise]\ngamma = 0.02\n"
    )
    args = build_parser().parse_args(
        ["nonmarkov", "--config", str(cfg_file), "--seed", "9"]
    )
    cfg = resolve_config(args)
    assert cfg.process == "cz-cnot"
    assert cfg.seed == 9  # flag wins
    assert cfg.shots == 500
    assert cfg.noise is not None
    assert cfg.noise.gamma_amp == 0.02
    assert cfg.noise.lambda_phase == 0.01  # defaulted


def test_bad_process_exits_2(tmp_path):
    assert run_cli(["tomo-predict", "--process", "cnot-cz", "--shots", "10",
                    "--out", tmp_path]) == 2


def test_missing_config_exits_2(tmp_path):
    assert run_cli(["tomo-predict", "--config", tmp_path / "nope.cfg"]) == 2


def test_config_without_section_header_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("process = cnot-cz\n")
    assert run_cli(["tomo-predict", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_bad_theta_grid_exits_2(tmp_path):
    for grid in ("a,b", "nan,0.5", "inf"):
        assert run_cli(["nonmarkov", "--theta-grid", grid, "--out", tmp_path]) == 2, grid


def test_volume_vanishing_branch_exits_2(tmp_path, capsys):
    out = tmp_path / "vol"
    assert run_cli(["volume", "--theta-grid", "3.14159265358979", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "3.14159265358979" in err and "vanishing-branch" in err
    assert not list(out.iterdir())


# --------------------------------------------------------- subcommands

def test_characterize_povm_exact(tmp_path):
    out = tmp_path / "povm"
    assert run_cli(["characterize-povm", "--out", out]) == 0
    header, rows = read_table_rows(out / "povm_fidelities.csv")
    assert header == ["povm", "rep", "fidelity"]
    assert len(rows) == 18
    for _, _, fid in rows:
        assert abs(float(fid) - 1.0) < 1e-9
    chi = read_matrix(out / "chi_povm_ym.txt")
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.25
    expected[0, 2] = -0.25
    expected[2, 0] = -0.25
    expected[2, 2] = 0.25
    assert np.abs(chi - expected).max() < 1e-10


def test_reduced_maps_outputs(tmp_path):
    out = tmp_path / "red"
    assert run_cli(["reduced-maps", "--out", out]) == 0
    chi_e0 = read_matrix(out / "chi_reduced_cz_e0.txt")
    ident = np.zeros((4, 4)); ident[0, 0] = 1.0
    assert np.abs(chi_e0 - ident).max() < 1e-9
    chi_e1 = read_matrix(out / "chi_reduced_cz_e1.txt")
    zchi = np.zeros((4, 4)); zchi[3, 3] = 1.0
    assert np.abs(chi_e1 - zchi).max() < 1e-9
    chi_ym = read_matrix(out / "chi_reduced_cz_eym.txt")
    mix = np.zeros((4, 4)); mix[0, 0] = 0.5; mix[3, 3] = 0.5
    assert np.abs(chi_ym - mix).max() < 1e-9
    cz = read_matrix(out / "chi_cz.txt")
    assert cz.shape == (16, 16)
    assert abs(abs(cz[0, 0]) - 0.25) < 1e-12


def test_reduced_maps_noisy_fidelities(tmp_path):
    out = tmp_path / "redn"
    assert run_cli(["reduced-maps", "--noise-gamma", "0.05",
                    "--noise-lambda", "0.05", "--out", out]) == 0
    header, rows = read_table_rows(out / "reduced_map_fidelities.csv")
    assert len(rows) == 3
    # the overlap Tr[chi_a chi_b] saturates at 1 only for rank-1 references;
    # the dephasing row tops out near 1/2
    for _, fid in rows:
        assert 0.3 < float(fid) <= 1.0


def test_tomo_predict_exact(tmp_path):
    out = tmp_path / "tp"
    assert run_cli(["tomo-predict", "--out", out]) == 0
    header, rows = read_table_rows(out / "predictions.csv")
    assert header == ["a0", "a1", "p_joint", "fidelity_tensor", "fidelity_markov"]
    pairs = {(r[0], r[1]) for r in rows}
    assert ("z+", "z-") not in pairs  # forbidden trajectory omitted
    assert ("z-", "z+") not in pairs  # first branch has zero probability
    for row in rows:
        assert float(row[3]) >= 1 - 1e-6
    fid_markov = {(r[0], r[1]): float(r[4]) for r in rows}
    assert abs(fid_markov[("y-", "x+")] - 0.5) < 1e-6
    header, rows = read_table_rows(out / "predictions_by_a0.csv")
    assert header == ["a0", "mean_fidelity_tensor", "mean_fidelity_markov", "pairs"]
    assert (out / "records.txt").exists()


def test_nonmarkov_grid(tmp_path):
    out = tmp_path / "nm"
    assert run_cli([
        "nonmarkov", "--process", "cz-cnot", "--out", out,
        "--theta-grid", "0.0,0.7853981633974483",
    ]) == 0
    header, rows = read_table_rows(out / "nonmarkovianity.csv")
    assert header == ["theta", "n_value", "converged", "iterations"]
    for row in rows:
        assert float(row[1]) <= 0.02
        assert row[2] == "true"


def test_nonmarkov_vanishing_point_marked_absent(tmp_path):
    out = tmp_path / "nmpi"
    code = run_cli([
        "nonmarkov", "--out", out, "--theta-grid", f"0.0,{math.pi}",
    ])
    assert code == 0
    _, rows = read_table_rows(out / "nonmarkovianity.csv")
    assert rows[1][1] == "absent"


def test_volume_files(tmp_path):
    out = tmp_path / "vol"
    assert run_cli(["volume", "--out", out, "--theta-grid", "0.0,1.5707963267948966"]) == 0
    for kind in ("process-tensor", "markov-map"):
        for idx in (0, 1):
            header, rows = read_table_rows(out / f"volume_{kind}_theta{idx}.csv")
            assert header == ["theta_a1", "phi_a1", "bx", "by", "bz"]
            assert len(rows) > 100


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run_cli([
            "tomo-predict", "--shots", "400", "--seed", "7", "--out", out,
        ]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_unwritable_output_exits_4():
    assert run_cli(["reduced-maps", "--out", "/dev/null/nested"]) == 4


def test_characterize_povm_sampled_band(tmp_path):
    out = tmp_path / "povm_shots"
    assert run_cli([
        "characterize-povm", "--shots", "3000", "--seed", "7", "--out", out,
    ]) == 0
    header, rows = read_table_rows(out / "povm_fidelity_summary.csv")
    assert header == ["povm", "mean_fidelity", "std_fidelity"]
    assert len(rows) == 18
    for povm, mean, std in rows:
        assert 0.95 <= float(mean) <= 1.0, povm
        assert float(std) < 0.02, povm
    _, rep_rows = read_table_rows(out / "povm_fidelities.csv")
    assert len(rep_rows) == 18 * 20
