import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cli_calls
import proctensor
from cli_calls import NOISY
from proctensor.cli import CONFIG_KEYS, COMMANDS, SETTINGS, main, resolve_config, build_parser
from proctensor.fileio import read_matrix


def run_cli(args):
    return main([str(a) for a in args])


def subprocess_env(**extra):
    """Environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(proctensor.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def read_tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def table_calls(*names):
    """name -> (argv, expected exit) of the calls NAMES of tests/cli_calls.py;
    an unknown name is a KeyError at collection."""
    return {name: cli_calls.ROWS[name] for name in names}


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


def test_bad_process_exits_2(tmp_path, capsys):
    # a flag outside --process's choices is argparse's usage error; the same
    # name in a config file is a config error. Neither makes the output dir
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["tomo-predict", "--process", "bogus", "--out", out])
    assert exit_info.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nprocess = bogus\n")
    assert run_cli(["tomo-predict", "--config", cfg, "--out", out]) == 2
    assert "config error: unknown process 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path):
    assert run_cli(["tomo-predict", "--config", tmp_path / "nope.cfg"]) == 2


def test_config_without_section_header_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("process = cnot-cz\n")
    assert run_cli(["tomo-predict", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[run]\nshot = 3000\n",
    "[runn]\nshots = 3000\n",
    "[run]\nshots = 3000\n[noise]\ngama = 0.05\n",
    "[Run]\nshots = 3000\n",
    "[DEFAULT]\nshots = 3000\n[run]\nseed = 1\n",
    "[DEFAULT]\nseed = 1\n",
], ids=["unknown-run-key", "unknown-section", "unknown-noise-key", "section-case",
        "default-key", "default-key-alone"])
def test_config_unknown_section_or_key_exits_2(tmp_path, capsys, text):
    # a misspelt key or section is an error, not a silent exact run; a
    # [DEFAULT] key would be read as a key of every section, so it is one too.
    # No subcommand makes its output directory before the config is read.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    for command in COMMANDS:
        assert run_cli([command, "--config", cfg, "--out", out]) == 2, command
        assert capsys.readouterr().err.startswith("config error:"), command
        assert not out.exists(), command


def test_config_output_dir_with_null_byte_exits_2(tmp_path, monkeypatch, capsys):
    # no file system takes a NUL in a path: Path.mkdir would raise an
    # uncaught ValueError, so the path is a config error and nothing is made
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\noutput_dir = a\0b\n")
    monkeypatch.chdir(tmp_path)
    for command in COMMANDS:
        assert run_cli([command, "--config", cfg]) == 2, command
        assert capsys.readouterr().err.startswith("config error:"), command
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"], command


def test_config_keys_are_the_documented_ones(tmp_path):
    # every key CONFIG_KEYS lists is accepted, keys case-insensitively as
    # configparser reads them, and an empty [DEFAULT] header is harmless
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[DEFAULT]\n[run]\nprocess = cz-cnot\nSHOTS = 500\nseed = 2\n"
                        "theta_grid = 0.1,0.2\noutput_dir = elsewhere\n"
                        "[noise]\ngamma = 0.02\nlambda = 0.03\n")
    cfg = resolve_config(build_parser().parse_args(["nonmarkov", "--config", str(cfg_file)]))
    assert (cfg.process, cfg.shots, cfg.seed, cfg.theta_grid) == ("cz-cnot", 500, 2, (0.1, 0.2))
    assert cfg.output_dir == Path("elsewhere")
    assert (cfg.noise.gamma_amp, cfg.noise.lambda_phase) == (0.02, 0.03)


def test_config_values_are_read_as_written(tmp_path, capsys):
    # no %-interpolation: a '%' reference is text of the value, a config
    # error here, not configparser's uncaught InterpolationError
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nprocess = %(x)s\n")
    assert run_cli(["tomo-predict", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error: unknown process '%(x)s'" in capsys.readouterr().err


def test_settings_table_declares_every_flag_and_key(tmp_path):
    # one table declares each setting's flag and config key: every subcommand
    # takes exactly those flags besides --config, the config file exactly
    # those keys, and README's synopsis and config example name them all
    assert set(SETTINGS) == {"process", "shots", "seed", "theta_grid", "output_dir",
                             "noise_gamma", "noise_lambda"}
    flags = {s.flag for s in SETTINGS.values()}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(COMMANDS)
    for name, parser in subparsers.choices.items():
        options = {option for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)
                   for option in action.option_strings}
        assert options == {"--config", *flags}, name
    assert ({(section, key) for section, keys in CONFIG_KEYS.items() for key in keys}
            == {(s.section, s.key) for s in SETTINGS.values()})
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = readme.split("## Command line", 1)[1].split("```", 2)[1]
    assert all(flag in synopsis for flag in {"--config", *flags}), synopsis
    # the config example is a file the CLI reads: every key, no error
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg_file = tmp_path / "example.cfg"
    cfg_file.write_text(example)
    assert all(re.search(rf"^\[{section}\]$", example, re.M) for section in CONFIG_KEYS)
    assert all(re.search(rf"^{s.key} = ", example, re.M) for s in SETTINGS.values())
    cfg = resolve_config(build_parser().parse_args(["nonmarkov", "--config", str(cfg_file)]))
    assert cfg.noise is not None and cfg.theta_grid is not None and cfg.shots is not None


def test_one_noise_flag_defaults_the_other_rate():
    for flags, rates in ((["--noise-gamma", "0.2"], (0.2, 0.01)),
                         (["--noise-lambda", "0.3"], (0.01, 0.3))):
        cfg = resolve_config(build_parser().parse_args(["nonmarkov", *flags]))
        assert (cfg.noise.gamma_amp, cfg.noise.lambda_phase) == rates, flags


def test_bad_theta_grid_exits_2(tmp_path):
    for grid in ("a,b", "nan,0.5", "inf"):
        assert run_cli(["nonmarkov", "--theta-grid", grid, "--out", tmp_path]) == 2, grid


def test_bad_seed_exits_2(tmp_path):
    for seed in ("-1", "18446744073709551616"):
        assert run_cli(["tomo-predict", "--shots", "100", "--seed", seed,
                        "--out", tmp_path]) == 2, seed


def test_shots_above_bound_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\nshots = 10000000000\n")
    for command in COMMANDS:
        for flags in (["--shots", "10"], ["--shots", "99"], ["--shots", "1000001"],
                      ["--shots", "10000000000"], ["--config", cfg_file]):
            assert run_cli([command, *flags, "--out", tmp_path / "o"]) == 2, (command, flags)
            assert "config error: shots must be in [100, 1000000]" in capsys.readouterr().err
            assert not (tmp_path / "o").exists(), (command, flags)


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


@pytest.mark.parametrize("command, files", [
    ("tomo-predict", ["predictions.csv", "predictions_by_a0.csv", "records.txt"]),
    ("nonmarkov", ["nonmarkovianity.csv"]),
    ("volume", [f"volume_{kind}_theta{i}.csv"
                for kind in ("markov-map", "process-tensor") for i in range(3)]),
    # theta = pi is an absent angle: after an unconverged refit it takes the
    # refit's exit 3 and note, not a config error, and nothing is written
    pytest.param(f"volume --theta-grid 0,{math.pi!r}", [], id="volume-absent-angle-files3"),
])
def test_unconverged_refit_exits_3_and_writes(tmp_path, capsys, monkeypatch, command, files):
    # a refit stopped at its step cap is reported once on stderr and by exit
    # 3, and the subcommand still writes its files
    from proctensor import tomography

    monkeypatch.setattr(tomography, "NEWTON_MAX_STEPS", 3)
    out = tmp_path / "o"
    assert run_cli([*command.split(), "--shots", "400", "--seed", "2", "--out", out]) == 3
    assert capsys.readouterr().err.count("PSD refit not converged after 3 Newton steps") == 1
    assert sorted(p.name for p in out.iterdir()) == files


def test_nonmarkov_vanishing_point_marked_absent(tmp_path):
    out = tmp_path / "nmpi"
    code = run_cli([
        "nonmarkov", "--out", out, "--theta-grid", f"0.0,{math.pi}",
    ])
    assert code == 0
    _, rows = read_table_rows(out / "nonmarkovianity.csv")
    assert rows[1][1] == "absent"


def test_unconverged_sweep_point_exits_3_with_a_note(tmp_path, capsys):
    # the refit converges, but two points of the noisy 3000-shot sweep do
    # not; exit 3 used to come with an empty stderr
    out = tmp_path / "nm"
    assert run_cli(["nonmarkov", *NOISY, "--shots", "3000", "--seed", "7", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.count("memory measure not converged at theta 0, 2.8797932657906435\n") == 1
    assert "PSD refit" not in err
    _, rows = read_table_rows(out / "nonmarkovianity.csv")
    assert [row[0] for row in rows if row[2] == "false"] == ["0", "2.8797932657906435"]


# calls at 1 and at 2 BLAS threads: the linear fit of exact and noisy records
# (no PSD refit), sampled calls (refit and QPT on the CLI's pinned BLAS thread)
# and sweeps converged at every point; noisy sampled cz-cnot's 0.24 once flipped
@pytest.mark.parametrize("name", table_calls(
    "tomo-predict-cnot-cz", "tomo-predict-cnot-cz-noisy", "tomo-predict-cnot-cz-shots",
    "volume-cnot-cz", "volume-cnot-cz-noisy", "volume-cnot-cz-shots",
    "characterize-povm-cnot-cz-shots",
    "nonmarkov-grid-cnot-cz", "nonmarkov-grid-cz-cnot", "nonmarkov-grid-cnot-cz-noisy",
    "nonmarkov-grid-pi-shots", "nonmarkov-grid-cz-cnot-noisy-shots",
))
def test_call_independent_of_blas_threads(tmp_path, name):
    for out in (tmp_path / "1", tmp_path / "2"):
        out.mkdir()
        cli_calls.run_call(out, name, subprocess_env(OPENBLAS_NUM_THREADS=out.name))
        assert cli_calls.exit_rule_faults(out, name) == [], (out.name, (out / name / "stderr").read_text())
    assert read_tree(tmp_path / "1") == read_tree(tmp_path / "2")


_REFIT_SCRIPT = """
import json
from proctensor import (RestrictedProcessTensor, ShotConfig, cnot_cz_process, generate_records,
                        records_from_text, records_to_text)
text = records_to_text(generate_records(cnot_cz_process(), ShotConfig(3000, 0)))
fit = RestrictedProcessTensor(psd=True).fit(records_from_text(text))
print(json.dumps({"converged": fit.refit_info_.converged, "choi": fit.choi_.tobytes().hex(),
                  "refit_info": repr(fit.refit_info_)}))
"""


def test_tomo_predict_shots_independent_of_blas_threads():
    # a library fit outside the CLI of the records.txt text that
    # tomo-predict-cnot-cz-shots writes: the refit pins its own BLAS thread
    one, two = (json.loads(subprocess.run(
        [sys.executable, "-c", _REFIT_SCRIPT], env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
        capture_output=True, text=True, timeout=600, check=True).stdout) for threads in ("1", "2"))
    assert one["converged"] and one == two


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("## Library tour", 1)[1].split("```python\n")[1:3]
    tour, refit = (block.split("```", 1)[0] for block in blocks)
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, "README.md", "exec"), namespace)
    lines = out.getvalue().splitlines()
    fidelity, baseline, n_value, sweep_max = (float(line) for line in lines[:4])
    assert abs(fidelity - 1.0) <= 1e-9
    assert abs(baseline - 0.5) <= 1e-9
    assert abs(n_value - math.log(2)) <= 1e-9
    # the default grid steps over pi/2, so its largest N sits just below ln 2
    assert 0.68 < sweep_max < math.log(2)
    assert lines[4:] == ["(200, 5) (200, 5)"]
    # the refit example continues the tour; its comment shows what it prints
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(refit, "README.md", "exec"), namespace)
    printed, shown = out.getvalue(), re.search(r"# (RefitInfo\(.*\))", refit).group(1)

    def field(text, key):
        return re.search(rf"{key}=([^,)]*)", text).group(1)

    assert field(printed, "converged") == field(shown, "converged") == "True"
    assert field(printed, "objective").startswith(field(shown, "objective").rstrip("."))


def test_volume_files(tmp_path):
    out = tmp_path / "vol"
    assert run_cli(["volume", "--out", out, "--theta-grid", "0.0,1.5707963267948966"]) == 0
    for kind in ("process-tensor", "markov-map"):
        for idx in (0, 1):
            header, rows = read_table_rows(out / f"volume_{kind}_theta{idx}.csv")
            assert header == ["theta_a1", "phi_a1", "bx", "by", "bz"]
            assert len(rows) > 100


@pytest.mark.parametrize("process", ["cnot-cz", "cz-cnot"])
@pytest.mark.parametrize("noise", [(), NOISY], ids=["exact", "noisy"])
def test_volume_just_above_the_branch_cutoff(tmp_path, process, noise):
    # the fit's first-step branch at 3.1415 and 3.1417 lies just above the
    # cutoff (2.1e-9 at 3.1415 for exact cnot-cz): dividing by it lifted the
    # tensor cloud's rounding-level anti-Hermitian part past hermitian_part's
    # 1e-8, and the call ended in a traceback (exit 1)
    out = tmp_path / "vol"
    args = ["volume", "--process", process, *noise, "--theta-grid", "3.1415,3.1417,3.14"]
    assert run_cli([*args, "--out", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        f"volume_{kind}_theta{i}.csv" for kind in ("markov-map", "process-tensor") for i in range(3)]


@pytest.mark.parametrize("command", ["tomo-predict", "characterize-povm", "nonmarkov", "volume"])
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


def test_unwritable_output_exits_4(capsys):
    # the output directory is made before any subcommand computes anything
    for command in COMMANDS:
        assert run_cli([command, "--out", "/dev/null/nested"]) == 4, command
        assert capsys.readouterr().err.startswith("io-error:"), command


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


# ----------------------------------------------------- the call table

def test_call_table_parses_and_covers_every_subcommand():
    # cli_calls.CALLS are the calls whose outputs CI compares; the runner
    # gives each its --out, so a call of its own would be overridden unread
    assert len(cli_calls.ROWS) == len(cli_calls.CALLS)
    covered = set()
    for name, (argv, expected) in cli_calls.ROWS.items():
        assert expected in (0, 2, 3) and "--out" not in argv, name
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        covered.add((args.command, cfg.process, cfg.noise is not None, cfg.shots is not None))
    modes = [(False, False), (True, False), (False, True)]
    assert covered >= {(command, process, *mode) for command in COMMANDS
                       for process in ("cnot-cz", "cz-cnot") for mode in modes}


def test_call_exit_rules_on_made_up_trees(tmp_path):
    # made-up OUT/<name> directories of three calls, exits 0, 2 and 3 in the
    # table: files is the number of files written, None for no files/ at all
    done, refused, unconverged = table_calls(
        "tomo-predict-cnot-cz", "volume-absent-cnot-cz", "nonmarkov-grid-cnot-cz-noisy-shots")
    assert [cli_calls.ROWS[name][1] for name in (done, refused, unconverged)] == [0, 2, 3]
    for case, (name, code, files, faults) in enumerate((
            (done, 0, 1, []), (unconverged, 3, 2, []), (refused, 2, 0, []), (refused, 2, None, []),
            (refused, 2, 1, ["an exit-2 call wrote a file"]),
            (done, 0, 0, ["an exit-0 call wrote no file"]),
            (unconverged, 3, None, ["an exit-3 call wrote no file"]),
            (done, 1, 1, ["exit 1, the table says 0"]),
            (unconverged, 0, 1, ["exit 0, the table says 3"]),
            (refused, 1, 0, ["exit 1, the table says 2"]))):
        call = tmp_path / str(case) / name
        call.mkdir(parents=True)
        (call / "exit").write_text(f"{code}\n")
        if files is not None:
            (call / "files").mkdir()
            for file in range(files):
                (call / "files" / f"{file}.csv").write_text("0\n")
        assert cli_calls.exit_rule_faults(tmp_path / str(case), name) == faults, case


# ------------------------------------------------- no scipy, no numpy.ma

_SCIPY_FREE_CALLS = table_calls(
    "tomo-predict-cnot-cz", "tomo-predict-cnot-cz-shots", "characterize-povm-cnot-cz-shots",
    "nonmarkov-cnot-cz", "nonmarkov-cnot-cz-noisy", "nonmarkov-cnot-cz-shots",
    "volume-cnot-cz", "reduced-maps-cnot-cz",
)

_SCIPY_BLOCKED_SCRIPT = """
import json, sys

import numpy

# numpy 1.x imports numpy.ma with numpy itself; only a numpy that loads it
# lazily can show whether a subcommand imports it
blocked = ["scipy"] + (["numpy.ma"] if "numpy.ma" not in sys.modules else [])


class Block:
    def find_spec(self, name, path=None, target=None):
        if any(name == b or name.startswith(b + ".") for b in blocked):
            raise ImportError("blocked: " + name)


sys.meta_path.insert(0, Block())
for name in blocked:
    try:
        __import__(name)
    except ImportError:
        pass
    else:
        sys.exit("the blocker let " + name + " through")
import proctensor.cli as cli

calls = json.loads(sys.argv[2])
print(json.dumps({name: cli.main([*argv, "--out", f"{sys.argv[1]}/{name}"])
                  for name, (argv, _) in calls.items()}))
"""


def test_cli_start_up_does_not_import_configparser():
    # only a run with --config reads a file, so only it imports configparser
    script = ("import sys, proctensor.cli as cli; cli.build_parser(); "
              "print('configparser' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_start_up_does_not_look_up_blas():
    # the OpenBLAS thread controls are found on their first use, not at import
    script = ("import proctensor.cli as cli, proctensor.linalg as linalg; cli.build_parser(); "
              "lookups = linalg._openblas_thread_controls.cache_info; print(lookups().currsize)\n"
              "with linalg.one_blas_thread(): print(lookups().currsize)")
    proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_cli_runs_without_scipy(tmp_path):
    # scipy is optional; numpy.ma is never needed, and np.unique-based set
    # routines such as np.setdiff1d import it on first use
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_SCRIPT, str(blocked), json.dumps(_SCIPY_FREE_CALLS)],
        env=subprocess_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: code for name, (_, code) in _SCIPY_FREE_CALLS.items()}
    for name, (argv, code) in _SCIPY_FREE_CALLS.items():
        assert run_cli([*argv, "--out", free / name]) == code
        files = read_tree(free / name)
        assert files and read_tree(blocked / name) == files, name
