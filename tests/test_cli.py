import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roughwave import Boundary, FluxSpec, NumFluxKind, StudyResult, config_from_dict
from roughwave import cli, experiments, initial_data, sample_seed, solver
from roughwave.cli import ConfigError, parse_config, run, write_csv

MINIMAL = """\
equation = burgers
numflux = godunov
hurst = 0.5
resolutions = 4,5
reference_exponent = 7
samples = 2
base_seed = 2024
"""


def write(tmp_path, text, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.equation is FluxSpec.BURGERS
    assert cfg.numflux.kind is NumFluxKind.GODUNOV
    assert cfg.hurst_list == (0.5,)
    assert cfg.resolutions == (4, 5)
    assert cfg.cfl == 0.5
    assert cfg.boundary is Boundary.OUTFLOW
    assert cfg.t_final == 1.0
    assert cfg.snapshot_times == ()


def test_parse_config_full(tmp_path):
    text = MINIMAL + "cfl = 0.25\nboundary = periodic\nt_final = 2.0\nsnapshot_times = 0.5,1.0\n"
    cfg = parse_config(write(tmp_path, text))
    assert cfg.cfl == 0.25
    assert cfg.boundary is Boundary.PERIODIC
    assert cfg.t_final == 2.0
    assert cfg.snapshot_times == (0.5, 1.0)


def test_parse_config_allows_comments_and_blanks(tmp_path):
    text = "# a comment\n\n" + MINIMAL
    assert parse_config(write(tmp_path, text)).n_samples == 2


def test_parse_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match=r":8: unknown key 'frobnicate'"):
        parse_config(write(tmp_path, MINIMAL + "frobnicate = 1\n"))


def test_parse_config_rejects_duplicate_key_citing_both_lines(tmp_path):
    text = MINIMAL + "samples = 4\n"
    with pytest.raises(ConfigError, match=r":8: duplicate key 'samples'.*line 6"):
        parse_config(write(tmp_path, text))


def test_parse_config_reports_missing_keys(tmp_path):
    with pytest.raises(ConfigError, match="missing required keys.*base_seed"):
        parse_config(write(tmp_path, "equation = burgers\n"))


def test_parse_config_names_line_and_key_on_bad_value(tmp_path):
    text = MINIMAL.replace("samples = 2", "samples = two")
    with pytest.raises(ConfigError, match=r":6: bad value for 'samples'"):
        parse_config(write(tmp_path, text))


def test_parse_config_rejects_upwind_off_linear(tmp_path):
    text = MINIMAL.replace("numflux = godunov", "numflux = upwind")
    with pytest.raises(ConfigError, match="upwind.*linear"):
        parse_config(write(tmp_path, text))
    ok = text.replace("equation = burgers", "equation = linear")
    assert parse_config(write(tmp_path, ok)).numflux.kind is NumFluxKind.UPWIND


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.cfg")


def test_write_csv_header_only_for_empty_result(tmp_path):
    res = StudyResult(study="tvscale", columns=("a", "b"), rows=(), metadata={})
    path = tmp_path / "empty.csv"
    write_csv(res, path)
    assert path.read_text() == "a,b\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_write_csv_round_trip_floats(tmp_path):
    res = StudyResult(
        study="x",
        columns=("a", "b", "c"),
        rows=((0.5, 1, None), (2.0**-20, "MEAN", 0.1)),
        metadata={},
    )
    path = tmp_path / "vals.csv"
    write_csv(res, path)
    assert path.read_text() == "a,b,c\n0.5,1,\n9.5367431640625e-07,MEAN,0.1\n"


def test_selfcheck_passes(capsys):
    assert run(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "[ok] fbm seed=0" in out
    assert "FAIL" not in out
    assert "selfcheck passed" in out


def test_selfcheck_fails_when_the_draw_studies_run_is_wrong(march, capsys, monkeypatch):
    # level 0's midpoint of every fBm path drawn without its noise
    scale = initial_data._midpoint_scale
    monkeypatch.setattr(initial_data, "_midpoint_scale",
                        lambda hurst, level: scale(hurst, level) if level else 0.0)
    assert run(["selfcheck"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] fbm seed=0" in out
    assert "selfcheck: 1 failure(s)" in out


def test_selfcheck_fails_when_one_flux_pair_marches_one_ulp_off(capsys, monkeypatch):
    march = solver._compiled_march

    def nudged(cells, *args):
        taken = march(cells, *args)
        config = args[-2]
        if (config.numflux.kind, config.flux) == (NumFluxKind.RUSANOV, FluxSpec.CUBIC):
            cells[0, 1] = np.nextafter(cells[0, 1], np.inf)
        return taken

    monkeypatch.setattr(solver, "_compiled_march", nudged)
    assert run(["selfcheck"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] fbm seed=0" in out
    assert "selfcheck: 1 failure(s)" in out


def test_fbm_runs_are_byte_identical(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["fbm", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["fbm", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "fbm.csv").read_bytes() == (out2 / "fbm.csv").read_bytes()
    manifest = json.loads((out1 / "fbm_manifest.json").read_text())
    assert manifest["command"] == "fbm"
    assert manifest["config"]["base_seed"] == 2024
    assert manifest["sample_seeds"]
    assert manifest["outputs"] == ["fbm.csv"]


def test_solve_writes_expected_schema(tmp_path):
    cfg = write(tmp_path, MINIMAL + "t_final = 0.25\nsnapshot_times = 0.125\n")
    out = tmp_path / "solve_out"
    assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "solve.csv").read_text().splitlines()
    assert lines[0] == "study,hurst,sample,k,time,x,u"
    times = {line.split(",")[4] for line in lines[1:]}
    assert "0.0" in times and len(times) == 3


def test_converge_csv_and_manifest(tmp_path):
    cfg = write(tmp_path, MINIMAL + "t_final = 0.25\n")
    out = tmp_path / "conv"
    assert run(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[0] == "study,hurst,sample,k,dx,l1_error,rate_pairwise,rate_regression"
    rate_rows = [l for l in lines if ",RATE," in l]
    # one per sample plus MEAN and STD
    assert len(rate_rows) == 2 + 2
    manifest = json.loads((out / "converge_manifest.json").read_text())
    rebuilt = config_from_dict(manifest["config"])
    assert rebuilt.resolutions == (4, 5)
    assert manifest["version"]


def test_cli_overrides_seed(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "o"
    assert run(["tvscale", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
    manifest = json.loads((out / "tvscale_manifest.json").read_text())
    assert manifest["config"]["base_seed"] == 99
    assert manifest["sample_seeds"] == [sample_seed(99, s) for s in range(2)]


def test_cli_worker_count_does_not_change_output(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run(["tvscale", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
    assert run(["tvscale", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
    assert (out1 / "tvscale.csv").read_bytes() == (out2 / "tvscale.csv").read_bytes()


def test_cli_workers_default_to_1_whatever_the_environment(tmp_path, monkeypatch):
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "env"
    monkeypatch.setenv("ROUGHWAVE_WORKERS", "2")
    assert run(["tvscale", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "tvscale_manifest.json").read_text())
    assert manifest["workers"] == 1


@pytest.mark.parametrize("argv", [
    ["selfcheck", "--workers", "2"],
    ["selfcheck", "--out", "{out}"],
    ["tvscale", "--config", "{cfg}", "--out", "{out}", "--samples", "3"],
    ["tvscale", "--out", "{out}"],
    ["tvscale", "--config", "{cfg}", "--out", "{out}", "--workers", "x"],
    ["tvscale", "--config", "{cfg}", "--out", "{out}", "--workers", "0"],
    ["frobnicate"],
    [],
])
def test_usage_errors_exit_1_and_write_nothing(tmp_path, capsys, argv):
    cfg, out = write(tmp_path, MINIMAL), tmp_path / "usage"
    assert run([a.format(cfg=cfg, out=out) for a in argv]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["tvscale", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    assert run(argv) == 0
    assert "roughwave" in capsys.readouterr().out


def test_validation_failure_exits_1_and_writes_nothing(tmp_path, capsys):
    bad = write(tmp_path, MINIMAL + "frobnicate = 1\n")
    out = tmp_path / "should_not_exist"
    assert run(["converge", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()
    assert "unknown key" in capsys.readouterr().err


def test_sharpness_without_known_beta_exits_1(tmp_path, capsys):
    text = MINIMAL.replace("numflux = godunov", "numflux = rusanov")
    cfg = write(tmp_path, text)
    out = tmp_path / "sharp"
    assert run(["sharpness", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "beta" in capsys.readouterr().err


def test_tvdecay_without_snapshots_exits_1(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    assert run(["tvdecay", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1


def test_sharpness_at_zero_t_final_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL + "t_final = 0\n")
    out = tmp_path / "sharp0"
    assert run(["sharpness", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "t_final > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["converge", "solve"])
@pytest.mark.parametrize("t_final", ["nan", "inf"])
def test_non_finite_t_final_exits_1_and_writes_nothing(tmp_path, capsys, command, t_final):
    cfg = write(tmp_path, MINIMAL + f"t_final = {t_final}\n")
    out = tmp_path / "nonfinite"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "t_final" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["converge", "solve"])
def test_t_final_within_the_time_guard_exits_1_and_writes_nothing(tmp_path, capsys, command):
    cfg = write(tmp_path, MINIMAL + "t_final = 5e-13\nsnapshot_times = 5e-13\n")
    out = tmp_path / "tiny"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "t_final" in capsys.readouterr().err


@pytest.mark.parametrize("command, edit", [
    # 2 cells of data in [-1, 1]: at least 4e9 steps of cfl * dx = 0.25
    ("solve", ("resolutions = 4,5", "resolutions = 1\nt_final = 1e9")),
    # the 2^7-cell reference: at least 2.56e9 steps of 2^-8
    ("converge", ("samples = 2", "samples = 2\nt_final = 1e7")),
])
def test_a_march_of_more_than_2_28_steps_exits_1_and_writes_nothing(tmp_path, capsys,
                                                                     command, edit):
    cfg = write(tmp_path, MINIMAL.replace(*edit))
    out = tmp_path / "long"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "takes more than 2**28 steps" in capsys.readouterr().err


def test_duplicate_hurst_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL.replace("hurst = 0.5", "hurst = 0.5,0.5"))
    out = tmp_path / "dup"
    assert run(["tvscale", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "distinct" in capsys.readouterr().err


def test_reference_exponent_above_max_level_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL.replace("reference_exponent = 7", "reference_exponent = 27"))
    out = tmp_path / "deep"
    assert run(["tvscale", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "at most 26" in capsys.readouterr().err


def test_module_entry_point_writes_csv(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "module"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "roughwave.cli", "tvscale", "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "tvscale.csv").read_text().startswith("study,hurst,sample,k,dx,tv,slope\n")


@pytest.mark.parametrize("times", ["nan", "0.4,0.2", "0.75", "-0.1"])
@pytest.mark.parametrize("command", ["tvdecay", "solve"])
def test_bad_snapshot_times_exit_1_and_write_nothing(tmp_path, capsys, command, times):
    cfg = write(tmp_path, MINIMAL + f"t_final = 0.5\nsnapshot_times = {times}\n")
    out = tmp_path / "snap"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "snapshot_times" in capsys.readouterr().err


@pytest.mark.parametrize("under", ["", "sub"])
def test_out_that_cannot_be_a_directory_exits_1_before_any_sample(tmp_path, capsys,
                                                                   monkeypatch, under):
    def never(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_samples_parallel", never)
    cfg = write(tmp_path, MINIMAL)
    (tmp_path / "taken").write_bytes(b"a file\n")
    out = tmp_path / "taken" / under
    assert run(["tvscale", "--config", str(cfg), "--out", str(out)]) == 1
    assert "output directory" in capsys.readouterr().err
    assert (tmp_path / "taken").read_bytes() == b"a file\n"
    assert sorted(os.listdir(tmp_path)) == ["study.cfg", "taken"]


def test_runtime_failure_exits_2(tmp_path, capsys, monkeypatch):
    def failing_evolve(*args, **kwargs):
        raise FloatingPointError("non-finite value in cell 3")

    monkeypatch.setattr(experiments, "evolve", failing_evolve)
    cfg = write(tmp_path, MINIMAL + "t_final = 0.5\nsnapshot_times = 0.25\n")
    out = tmp_path / "r"
    assert run(["tvdecay", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sample 0" in err


def test_no_tmp_residue_after_runs(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "clean"
    assert run(["tvscale", "--config", str(cfg), "--out", str(out)]) == 0
    assert not [p for p in os.listdir(out) if p.endswith(".tmp")]
    # a manifest that cannot be renamed into place: exit 2, its temporary sibling is
    # gone, and so is the CSV no manifest describes
    (out / "tvscale_manifest.json").unlink()
    (out / "tvscale_manifest.json").mkdir()
    assert run(["tvscale", "--config", str(cfg), "--out", str(out)]) == 2
    assert sorted(os.listdir(out)) == ["tvscale_manifest.json"]


def test_unopenable_manifest_keeps_the_earlier_pair(tmp_path):
    # the manifest's temporary sibling cannot be opened: the rerun exits 2 before
    # its CSV is renamed, so the earlier CSV and manifest stay byte for byte
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "o"
    assert run(["tvscale", "--config", str(cfg), "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert sorted(before) == ["tvscale.csv", "tvscale_manifest.json"]
    (out / "tvscale_manifest.json.tmp").mkdir()
    assert run(["tvscale", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 2
    assert {name: (out / name).read_bytes() for name in before} == before
    assert not (out / "tvscale.csv.tmp").exists()
