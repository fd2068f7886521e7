import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import proctensor
from proctensor.cli import main, resolve_config, build_parser
from proctensor.fileio import read_matrix
from proctensor.nonmarkov import default_theta_grid


def run_cli(args):
    return main([str(a) for a in args])


def subprocess_env(**extra):
    """Environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(proctensor.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def read_tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


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


def test_bad_seed_exits_2(tmp_path):
    for seed in ("-1", "18446744073709551616"):
        assert run_cli(["tomo-predict", "--shots", "100", "--seed", seed,
                        "--out", tmp_path]) == 2, seed


def test_shots_above_bound_exits_2(tmp_path, capsys):
    for shots in ("1000001", "10000000000"):
        assert run_cli(["tomo-predict", "--shots", shots, "--out", tmp_path / "o"]) == 2, shots
        assert "config error: shots must be in [100, 1000000]" in capsys.readouterr().err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\nshots = 10000000000\n")
    assert run_cli(["tomo-predict", "--config", cfg_file, "--out", tmp_path / "o"]) == 2
    assert not (tmp_path / "o").exists()


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


NOISY = ("--noise-gamma", "0.05", "--noise-lambda", "0.05")


def run_cli_at_threads(tmp_path, threads, args):
    """Run the CLI in a fresh interpreter at a BLAS thread count; return its --out."""
    out = tmp_path / threads
    proc = subprocess.run(
        [sys.executable, "-m", "proctensor.cli", *args, "--out", str(out)],
        env=subprocess_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (threads, proc.stderr)
    return out


@pytest.mark.parametrize("records,tol", [
    (("--process", "cnot-cz"), None),
    (("--process", "cz-cnot"), None),
    (("--process", "cnot-cz", *NOISY), None),
    (("--process", "cnot-cz", "--shots", "3000"), 1e-9),
], ids=["exact", "exact-cz-cnot", "noisy", "shots"])
def test_nonmarkov_independent_of_blas_threads(tmp_path, records, tol):
    # exit 0 means every point converged; noisy points run Newton, whose
    # minimum is unique because the problem is convex. Exact and noisy
    # records give equal bytes; sampled records go through the PSD refit,
    # whose eigh and Newton solves round differently at each thread count.
    grid = list(default_theta_grid()) + [math.pi / 2]
    grid_arg = ",".join(format(float(t), ".17g") for t in grid)
    one, two = (run_cli_at_threads(tmp_path, threads,
                                   ["nonmarkov", *records, "--theta-grid", grid_arg])
                / "nonmarkovianity.csv" for threads in ("1", "2"))
    if tol is None:
        assert one.read_bytes() == two.read_bytes()
        return
    _, one = read_table_rows(one)
    _, two = read_table_rows(two)
    assert [r[2] for r in one] == [r[2] for r in two]
    for r1, r2 in zip(one, two):
        assert abs(float(r1[1]) - float(r2[1])) <= tol, (r1, r2)


@pytest.mark.parametrize("args", [
    ("tomo-predict",), ("tomo-predict", *NOISY), ("volume",), ("volume", *NOISY),
], ids=["tomo-predict", "tomo-predict-noisy", "volume", "volume-noisy"])
def test_linear_fit_outputs_independent_of_blas_threads(tmp_path, args):
    # exact and noisy records skip the PSD refit, and the closed-form linear
    # fit rounds alike at any BLAS thread count, so every output byte agrees
    one, two = (read_tree(run_cli_at_threads(tmp_path, threads, args)) for threads in ("1", "2"))
    assert one == two


_PREDICT_SCRIPT = """
import json, sys
import numpy as np
from proctensor import OVERCOMPLETE_LABELS, fit_restricted_tensor, named_projector, records_from_text
fit = fit_restricted_tensor(records_from_text(open(sys.argv[1]).read()), psd=True)
out = []
for l0 in OVERCOMPLETE_LABELS:
    for l1 in OVERCOMPLETE_LABELS:
        rho, p = fit.predict([named_projector(l0), named_projector(l1)])
        out.append([p] + ([] if rho is None else np.asarray(rho).view(float).ravel().tolist()))
print(json.dumps({"converged": fit.refit_info_.converged, "predictions": out}))
"""


def test_tomo_predict_shots_independent_of_blas_threads(tmp_path):
    # exit 0 at both thread counts means both PSD refits converged (an
    # unconverged refit exits 3)
    tables, fits = {}, {}
    for threads in ("1", "2"):
        out = run_cli_at_threads(tmp_path, threads, ["tomo-predict", "--shots", "3000"])
        _, tables[threads] = read_table_rows(out / "predictions.csv")
        proc = subprocess.run(
            [sys.executable, "-c", _PREDICT_SCRIPT, str(out / "records.txt")],
            env=subprocess_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
            timeout=600, check=True,
        )
        fits[threads] = json.loads(proc.stdout)
    assert (tmp_path / "1" / "records.txt").read_bytes() == (tmp_path / "2" / "records.txt").read_bytes()
    # the refit's predictions agree to 1e-9
    assert fits["1"]["converged"] and fits["2"]["converged"]
    for a, b in zip(fits["1"]["predictions"], fits["2"]["predictions"]):
        assert len(a) == len(b) and np.abs(np.subtract(a, b)).max() <= 1e-9, (a, b)
    # the closed-form qubit fidelity takes no eigenvalue, so the fidelities
    # move only as much as the predicted states do (an eigenvalue square root
    # resolved them only to about sqrt(machine epsilon) = 1.5e-8)
    one, two = tables["1"], tables["2"]
    assert [r[:2] for r in one] == [r[:2] for r in two]
    for r1, r2 in zip(one, two):
        assert abs(float(r1[2]) - float(r2[2])) <= 1e-12, (r1, r2)
        for col in (3, 4):
            assert abs(float(r1[col]) - float(r2[col])) <= 1e-9, (r1, r2)


def test_volume_files(tmp_path):
    out = tmp_path / "vol"
    assert run_cli(["volume", "--out", out, "--theta-grid", "0.0,1.5707963267948966"]) == 0
    for kind in ("process-tensor", "markov-map"):
        for idx in (0, 1):
            header, rows = read_table_rows(out / f"volume_{kind}_theta{idx}.csv")
            assert header == ["theta_a1", "phi_a1", "bx", "by", "bz"]
            assert len(rows) > 100


@pytest.mark.parametrize("command", ["tomo-predict", "characterize-povm"])
def test_byte_identical_reruns(tmp_path, command):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run_cli([
            command, "--shots", "400", "--seed", "7", "--out", out,
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


# ------------------------------------------------------------- no scipy

_SCIPY_FREE_CALLS = (
    ("tomo-predict",),
    ("tomo-predict", "--shots", "3000"),
    ("characterize-povm", "--shots", "3000"),
    ("nonmarkov",),
    ("nonmarkov", "--noise-gamma", "0.05", "--noise-lambda", "0.05"),
    ("nonmarkov", "--shots", "3000"),
    ("volume",),
    ("reduced-maps",),
)

_SCIPY_BLOCKED_SCRIPT = """
import json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked: " + name)


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the blocker let scipy through")
import proctensor.cli as cli

calls = json.loads(sys.argv[2])
print(json.dumps([cli.main(call + ["--out", f"{sys.argv[1]}/{i}"]) for i, call in enumerate(calls)]))
"""


def test_cli_runs_without_scipy(tmp_path):
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_SCRIPT, str(blocked), json.dumps(_SCIPY_FREE_CALLS)],
        env=subprocess_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(_SCIPY_FREE_CALLS)
    for i, call in enumerate(_SCIPY_FREE_CALLS):
        assert run_cli([*call, "--out", free / str(i)]) == 0
        files = read_tree(free / str(i))
        assert files and read_tree(blocked / str(i)) == files, call
