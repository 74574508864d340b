import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gmchaos import cli, harness, rng, spectral


def test_verify_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) >= 8


def test_verify_refuses_a_negative_seed_before_any_check(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no check ran
    assert captured.err.splitlines()[-1] == "gmchaos: error: seed must be non-negative, got -1"


@pytest.mark.parametrize("defect, shown", [(1.0, "1.00e+00"), (math.nan, "nan")])
def test_verify_reports_a_failed_check_and_runs_the_rest(monkeypatch, capsys, defect, shown):
    monkeypatch.setattr(cli, "increment_defect", lambda **scale: defect)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert [line for line in lines if not line.startswith("PASS ")] == [
        f"FAIL increment_decomposition: max increment defect = {shown} exceeds 1e-10"
    ]


def test_identity_checks_keep_a_nan_defect(monkeypatch):
    """One NaN among finite defects is the check's result, not dropped by the fold."""
    expansion = spectral.product_difference_expansion
    calls = []

    def nan_on_first_call(a, b):
        calls.append(1)
        return math.nan if len(calls) == 1 else expansion(a, b)

    monkeypatch.setattr(spectral, "product_difference_expansion", nan_on_first_call)
    assert math.isnan(cli.product_defect(np.random.default_rng(7), 9))
    assert len(calls) == 100


def table_lines(path, end):
    """The lines of a table, once every line is checked to end with `end`
    and to hold no other line break."""
    lines = path.read_bytes().split(end.encode())
    assert lines[-1] == b"" and not any(b"\r" in line or b"\n" in line for line in lines)
    return [line.decode() for line in lines[:-1]]


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "run"
    code = cli.main(
        ["simulate", "--gamma", "0.5", "--m", "6", "--grid", "512", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    # simulate's two tables end their lines with \r\n, every other table with \n
    density = table_lines(out / "density.csv", "\r\n")
    assert density[0] == "i,t,value"
    assert len(density) == 513
    spectrum = table_lines(out / "spectrum.csv", "\r\n")
    assert spectrum[0] == "n,re,im,abs2,weighted_abs"
    assert len(spectrum) == 65  # 512 / 8 frequencies


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--gamma", "0.7", "--m", "5", "--grid", "256", "--seed", "9"]
    cli.main(args + ["--out", str(tmp_path / "a")])
    cli.main(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "density.csv").read_bytes() == (tmp_path / "b" / "density.csv").read_bytes()


def test_spectrum_csv_and_median_column(tmp_path):
    out = tmp_path / "ens.csv"
    code = cli.main(
        ["spectrum", "--gamma", "0.5", "--m", "9", "--grid", "2048", "--nmax", "128",
         "--reps", "32", "--seed", "2", "--stat", "median", "--out", str(out)]
    )
    assert code == 0
    lines = table_lines(out, "\n")
    assert lines[0] == "n,re,im,abs2,quantile_50"
    assert len(lines) == 129
    row = lines[1].split(",")
    assert int(row[0]) == 1
    assert float(row[3]) >= 0.0


def test_spectrum_mean_stat_drops_quantile(tmp_path):
    out = tmp_path / "ens.csv"
    cli.main(
        ["spectrum", "--gamma", "0.5", "--m", "8", "--grid", "1024", "--nmax", "64",
         "--reps", "8", "--seed", "2", "--stat", "mean", "--out", str(out)]
    )
    assert out.read_text().splitlines()[0] == "n,re,im,abs2"


CONFIG = (
    "gamma = 0.5\nm = 8\ngrid = 1024\nnmax = 64\nreps = 8\nseed = 4\n"
    "stat = mean\nout = ignored.csv\n# comment line\n"
)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "ens.json"
    code = cli.main(["spectrum", "--config", str(cfg), "--format", "json", "--out", str(out),
                     "--reps", "5"])
    assert code == 0
    result = harness.load_result(out)
    assert result.count == 5
    assert (result.config.seed, result.config.statistic) == (4, "mean")


@pytest.mark.parametrize(
    "line", ["sead = 3", "format = xml", "stat = mode", "reps = many", "reps 8", "config = /nonexistent.cfg"]
)
def test_config_file_values_are_checked_like_flags(tmp_path, monkeypatch, line):
    ran = []
    monkeypatch.setattr(harness, "run_ensemble", lambda *args, **kwargs: ran.append(args))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG + line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "ens.csv")])
    assert exc.value.code == 2
    assert ran == []


def test_config_file_keys_take_either_spelling(tmp_path, monkeypatch, capsys):
    seen = []
    run_ensemble = harness.run_ensemble

    def recording_run(config, workers=1):
        seen.append(workers)
        return run_ensemble(config, workers=workers)

    monkeypatch.setattr(harness, "run_ensemble", recording_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "gamma = 0.5\nm = 10\ngrid = 2048\nnmax = 256\nreps = 8\nseed = 6\n"
        "fit-lo = 16\nlevel_hi = 6\nworkers = 2\n"
    )
    assert cli.main(["dims", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decay"]["lo"] == 16
    assert payload["l2"]["hi"] == 6
    assert seen == [2]


def test_missing_required_flag_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--gamma", "0.5", "--m", "8", "--grid", "1024",
                  "--nmax", "64", "--reps", "8"])  # no --out
    assert exc.value.code == 2


def test_dims_json_output(tmp_path, capsys):
    code = cli.main(
        ["dims", "--gamma", "0.5", "--m", "9", "--grid", "2048", "--nmax", "128",
         "--reps", "40", "--seed", "6", "--stat", "median",
         "--level-lo", "2", "--level-hi", "6"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fourier_dimension"] == pytest.approx(0.75)
    assert payload["correlation_dimension"] == pytest.approx(0.75)
    assert -1.5 < payload["decay"]["slope"] < 0.0
    assert 0.0 < payload["l2"]["slope"] < 1.5
    assert payload["config"]["replicas"] == 40


def test_clt_profile_csv(tmp_path):
    out = tmp_path / "clt.csv"
    code = cli.main(
        ["clt", "--gamma", "0.4", "--m", "8", "--grid", "1024", "--nmax", "64",
         "--reps", "120", "--seed", "5", "--out", str(out),
         "--block-lo", "3", "--block-hi", "6"]
    )
    assert code == 0
    lines = table_lines(out, "\n")
    assert lines[0] == "block_lo,block_hi,variance"
    assert len(lines) == 4
    lo, hi, var = lines[1].split(",")
    assert (int(lo), int(hi)) == (8, 16)
    assert float(var) > 0


def test_report_from_archive(tmp_path):
    archive = tmp_path / "ens.json"
    cli.main(
        ["spectrum", "--gamma", "0.5", "--m", "9", "--grid", "2048", "--nmax", "128",
         "--reps", "32", "--seed", "2", "--stat", "median", "--out", str(archive),
         "--format", "json"]
    )
    out = tmp_path / "report"
    code = cli.main(["report", "--in", str(archive), "--out", str(out)])
    assert code == 0
    blocks = table_lines(out / "blocks.csv", "\n")
    assert blocks[0] == "block_lo,block_hi,stat"
    slopes = table_lines(out / "slopes.csv", "\n")
    assert slopes[0] == "block_lo,block_hi,stat"
    assert len(slopes) > 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["count"] == 32
    assert "decay" in summary
    assert summary["config"]["n_max"] == 128
    assert abs(summary["unit_mass_z"]) < 5.0
    assert "uniform_bound" not in summary


def test_report_reads_uniform_bound_depths(tmp_path, capsys):
    config = harness.ExperimentConfig(
        gamma=0.5, depth=7, grid_size=256, n_max=32, tau=0.5, replicas=4, seed=41,
        norm_depths=(5, 7),
    )
    result = harness.run_ensemble(config)
    archive = tmp_path / "ens.json"
    harness.export_result(result, "json", archive)
    # the default window [8, 32] holds two complete blocks: refused before any file is written
    error = usage_error(capsys, ["report", "--in", str(archive), "--out", str(tmp_path / "r")])
    assert error == "gmchaos: error: need at least 4 complete dyadic blocks in [8, 32]"
    assert not (tmp_path / "r").exists()
    assert cli.main(["report", "--in", str(archive), "--out", str(tmp_path / "r"),
                     "--fit-lo", "1"]) == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["uniform_bound"] == dict(zip(["5", "7"], (result.norm_sum / 4).tolist()))


def usage_error(capsys, argv) -> str:
    """The one-line error `gmchaos argv` prints to stderr as it exits 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith("gmchaos: error: ")
    return lines[-1]


@pytest.mark.parametrize("key, values, message", [
    ("norm_depths", [5, 5, 7], r"norm depths must not repeat, got \(5, 5, 7\)"),
    ("mass_levels", [2, 2, 3], r"mass levels must not repeat, got \(2, 2, 3\)"),
])
def test_report_refuses_repeated_depths_and_levels(tmp_path, capsys, key, values, message):
    config = harness.ExperimentConfig(gamma=0.5, depth=7, grid_size=256, n_max=32, tau=0.5,
                                      replicas=2, seed=41)
    archive = tmp_path / "ens.json"
    harness.export_result(harness.run_ensemble(config), "json", archive)
    payload = json.loads(archive.read_text())
    payload["config"][key] = values
    archive.write_text(json.dumps(payload))
    error = usage_error(capsys, ["report", "--in", str(archive), "--out", str(tmp_path / "r")])
    assert re.search(message, error)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("key, value", [("gamma", "0.5"), ("depth", "7")])
def test_report_refuses_config_values_of_the_wrong_type(tmp_path, capsys, key, value):
    config = harness.ExperimentConfig(gamma=0.5, depth=7, grid_size=256, n_max=32, replicas=2, seed=1)
    archive = tmp_path / "ens.json"
    harness.export_result(harness.run_ensemble(config), "json", archive)
    payload = json.loads(archive.read_text())
    payload["config"][key] = value
    archive.write_text(json.dumps(payload))
    error = usage_error(capsys, ["report", "--in", str(archive), "--out", str(tmp_path / "r")])
    assert error.startswith(f"gmchaos: error: archive field 'config' is malformed: {key} must be")
    assert not (tmp_path / "r").exists()


def test_clt_rejects_large_gamma(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(harness, "run_ensemble", lambda *args, **kwargs: ran.append(args))
    message = usage_error(
        capsys,
        ["clt", "--gamma", "0.9", "--m", "8", "--grid", "1024", "--nmax", "64",
         "--reps", "120", "--seed", "5", "--out", str(tmp_path / "x.csv")],
    )
    assert "rescaling regime needs gamma in [0, sqrt(2)/2), got 0.9" in message
    assert ran == []


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--reps", "60", "--block-hi", "6"], "at least 100 replicas, got 60"),
        (["--block-hi", "8"], "n_hi = 255 beyond the available 64 frequencies"),
        (["--block-lo", "-1", "--block-hi", "6"], "block exponents must be non-negative, got -1..6"),
        (["--block-lo", "5", "--block-hi", "5"], "need at least 1 complete dyadic blocks in [32, 31]"),
        (["--block-lo", "6", "--block-hi", "3"], "need at least 1 complete dyadic blocks in [64, 7]"),
    ],
    ids=["reps-60", "block-hi-beyond-nmax", "block-lo-negative", "empty-range", "reversed-range"],
)
def test_clt_validates_before_sampling(tmp_path, monkeypatch, capsys, flags, message):
    ran = []
    monkeypatch.setattr(harness, "run_ensemble", lambda *args, **kwargs: ran.append(args))
    out = tmp_path / "x.csv"
    argv = ["clt", "--gamma", "0.4", "--m", "8", "--grid", "1024", "--nmax", "64",
            "--reps", "120", "--seed", "5", "--out", str(out)] + flags
    assert message in usage_error(capsys, argv)
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--gamma", "1.5"], "gamma must lie in [0, sqrt(2)), got 1.5"),
        (["--grid", "4"], "grid size must be at least 8, got 4"),
        (["--grid", "12"], "grid size must be a power of two >= 2, got 12"),
        (["--m", "-1"], "depth must be non-negative, got -1"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
    ],
    ids=["gamma-supercritical", "grid-below-nyquist", "grid-not-power-of-two", "m-negative", "seed-negative"],
)
def test_simulate_validates_before_sampling(tmp_path, monkeypatch, capsys, flags, message):
    ran = []
    monkeypatch.setattr(rng, "field_stream", lambda *key: ran.append(key))
    out = tmp_path / "out"
    argv = ["simulate", "--gamma", "0.5", "--m", "6", "--grid", "256", "--seed", "3",
            "--out", str(out)] + flags
    assert message in usage_error(capsys, argv)
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--nmax", "64"], r"4 complete dyadic blocks in \[8, 64\]"),
        (["--nmax", "128", "--fit-hi", "256"], "n_hi = 256 beyond the available 128"),
        (["--nmax", "128", "--level-lo", "5", "--level-hi", "4"], r"two levels, got \[\]"),
        (["--nmax", "128", "--level-lo", "4", "--level-hi", "4"], r"two levels, got \[4\]"),
    ],
    ids=["three-blocks", "fit-hi-beyond-nmax", "no-levels", "one-level"],
)
def test_dims_validates_before_sampling(monkeypatch, capsys, flags, message):
    ran = []
    monkeypatch.setattr(harness, "run_ensemble", lambda *args, **kwargs: ran.append(args))
    argv = ["dims", "--gamma", "0.5", "--m", "9", "--grid", "2048", "--reps", "400"] + flags
    assert re.search(message, usage_error(capsys, argv))
    assert ran == []


@pytest.mark.parametrize("how", ["flag", "config"])
def test_simulate_refuses_workers(tmp_path, capsys, how):
    argv = ["simulate", "--gamma", "0.5", "--m", "6", "--grid", "256", "--out", str(tmp_path)]
    if how == "flag":
        argv += ["--workers", "2"]
    else:
        (tmp_path / "run.cfg").write_text("workers = 2\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert "unrecognized arguments: --workers" in usage_error(capsys, argv)
    assert not (tmp_path / "density.csv").exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--workers", "0"], "workers must be at least 1, got 0"),
        (["--workers", "-3"], "workers must be at least 1, got -3"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
    ],
    ids=["workers-0", "workers-negative", "seed-negative"],
)
def test_spectrum_refuses_before_any_replica(tmp_path, monkeypatch, capsys, flags, message):
    ran = []
    monkeypatch.setattr(harness, "run_replica", lambda *args: ran.append(args))
    out = tmp_path / "ens.csv"
    argv = ["spectrum", "--gamma", "0.5", "--m", "7", "--grid", "256", "--nmax", "32",
            "--reps", "4", "--out", str(out)] + flags
    assert usage_error(capsys, argv) == f"gmchaos: error: {message}"
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "spectrum", "clt", "simulate"])
def test_an_unusable_path_is_a_usage_error_naming_it(tmp_path, monkeypatch, capsys, command):
    # refused before any level of any replica is drawn
    drawn, field_stream = [], rng.field_stream
    monkeypatch.setattr(rng, "field_stream", lambda *key: drawn.append(key) or field_stream(*key))
    small = ["--gamma", "0.5", "--m", "7", "--grid", "256"]
    if command == "report":  # an archive that is not there
        path = tmp_path / "missing.json"
        argv = ["report", "--in", str(path), "--out", str(tmp_path / "r")]
    elif command == "spectrum":  # an output directory that is not there
        path = tmp_path / "missing_dir" / "x.csv"
        argv = ["spectrum", *small, "--nmax", "32", "--reps", "2", "--out", str(path)]
    elif command == "clt":  # an output file that is a directory
        path = tmp_path
        argv = ["clt", *small, "--nmax", "32", "--reps", "100", "--block-lo", "2", "--block-hi", "4",
                "--out", str(path)]
    else:  # an output directory that is a file
        path = tmp_path / "taken"
        path.write_text("")
        argv = ["simulate", *small, "--out", str(path)]
    assert usage_error(capsys, argv).endswith(f": {str(path)!r}")
    assert drawn == []


def test_every_readme_cli_line_parses():
    # the README's CLI block: continuation lines joined, comments dropped,
    # the elided `gmchaos spectrum ...` line skipped
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["gmchaos"] and "..." not in words]
    assert len(commands) == 6
    parser = cli.build_parser()
    for words in commands:
        parser.parse_args(words)


def refuse_constant(token):
    raise ValueError(f"not JSON: {token}")


def test_a_two_level_l2_fit_is_strict_json(tmp_path, capsys):
    # two mass levels leave the L2 line no residual, so its stderr is null, not NaN
    assert cli.main(["dims", "--gamma", "0.5", "--m", "6", "--grid", "256", "--nmax", "16", "--reps", "4",
                     "--fit-lo", "1", "--level-lo", "2", "--level-hi", "3"]) == 0
    assert json.loads(capsys.readouterr().out, parse_constant=refuse_constant)["l2"]["stderr"] is None
    config = harness.ExperimentConfig(gamma=0.5, depth=7, grid_size=256, n_max=32, replicas=2, mass_levels=(2, 3))
    harness.export_result(harness.run_ensemble(config), "json", tmp_path / "ens.json")
    assert cli.main(["report", "--in", str(tmp_path / "ens.json"), "--out", str(tmp_path / "r"),
                     "--fit-lo", "1"]) == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text(), parse_constant=refuse_constant)
    assert summary["l2"]["stderr"] is None
