"""Golden digests: the sha256 of every file and stdout the CLI writes for a
few tiny runs, against a committed table.

A refactor that claims "every stream and archive byte unchanged" is checked
here.  The table changes only with a version bump, which names the change.
numpy's FFT may give other last bits on another numpy version or CPU, so a
mismatch reports both.
"""

import hashlib
import platform

import numpy as np

from gmchaos import cli, harness

SPECTRUM_MEDIAN = ["spectrum", "--gamma", "0.5", "--m", "9", "--grid", "1024", "--nmax", "64",
                   "--reps", "64", "--seed", "7"]
SPECTRUM_MEAN = ["spectrum", "--gamma", "1.0", "--m", "8", "--grid", "512", "--nmax", "32",
                 "--reps", "32", "--seed", "11", "--stat", "mean", "--tau", "0.4"]
CLT = ["clt", "--gamma", "0.4", "--m", "8", "--grid", "512", "--nmax", "32", "--reps", "100",
       "--seed", "5", "--block-lo", "2", "--block-hi", "5"]
SIMULATE = ["simulate", "--gamma", "0.7", "--m", "6", "--grid", "512", "--seed", "3"]
# report's input carries norm depths and mass levels, which no CLI flag sets
REPORT_INPUT = harness.ExperimentConfig(
    gamma=0.5, depth=8, grid_size=512, n_max=32, replicas=32, seed=13,
    norm_depths=(4, 6, 8), mass_levels=(2, 3, 4, 5),
)

GOLDEN = {
    "spectrum_median.json": "de7f404745e5a8fd815534157d3fe9d59d0cbf39a2f2e5e846925145e159d017",
    "spectrum_mean_tau.json": "41adaa27b2b25cd02b4ccf222a18112ae71ca3bf8978403e375c7bfd685af9c3",
    "spectrum_median.csv": "4235d19c48777d8d70891efbe96fd2aa44504873634e0e8c71b1a4b84d4b0069",
    "clt.csv": "301b2c25296601e95737785a2533c50cfec7731e33fb86974401a1eea6d43c84",
    "report_input.json": "696d9c8f087fd3498a1a610ad68deb7d34c929fee0f3f2b71201788e6c2b9071",
    "report/blocks.csv": "10bbac1e57ed7621a209c19048d161fb603f0e4acc28dead569ca58ea482f7c3",
    "report/slopes.csv": "c14b46a6e0558e4a4eb94bf2fe56dd4e62c001f5120b0740d6d27198249dd54d",
    "report/summary.json": "19fa99511a716a56c6dc2b923e014150f078e09025e4613057dd88eb9aa6cccb",
    "simulate/density.csv": "cd11cf7fd08e120774219359457a085f4686758ee109d7d841a27aa862fe1b11",
    "simulate/spectrum.csv": "10816275d926711cce0dd9aae79c42928c9fa00bb6471da9f280127adccad9bb",
    "verify_seed_20240.txt": "361897865a477e809cffc40431dc2524ef8eef0165cf8f523507e00ccf505f68",
    "verify_seed_7.txt": "62bbb97ee876ad4771fb61100708c6a67f765dfb3d4b297482dafe18fbb86c7d",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    got = {}

    def digest(name):
        return sha256((tmp_path / name).read_bytes())

    def run(argv, *files):
        assert cli.main(argv) == 0
        capsys.readouterr()
        got.update({name: digest(name) for name in files})

    # Each archive is written at --workers 1 and 3 and must not depend on the count.
    for workers in ("3", "1"):
        run(SPECTRUM_MEDIAN + ["--format", "json", "--workers", workers,
                               "--out", str(tmp_path / "spectrum_median.json")], "spectrum_median.json")
        run(SPECTRUM_MEAN + ["--format", "json", "--workers", workers,
                             "--out", str(tmp_path / "spectrum_mean_tau.json")], "spectrum_mean_tau.json")
        result = harness.run_ensemble(REPORT_INPUT, workers=int(workers))
        harness.export_result(result, "json", tmp_path / "report_input.json")
        got["report_input.json"] = digest("report_input.json")
        if workers == "3":
            at_three = dict(got)
    run(SPECTRUM_MEDIAN + ["--out", str(tmp_path / "spectrum_median.csv")], "spectrum_median.csv")
    run(CLT + ["--out", str(tmp_path / "clt.csv")], "clt.csv")
    run(["report", "--in", str(tmp_path / "report_input.json"), "--out", str(tmp_path / "report"),
         "--fit-lo", "2"], "report/blocks.csv", "report/slopes.csv", "report/summary.json")
    run(SIMULATE + ["--out", str(tmp_path / "simulate")], "simulate/density.csv", "simulate/spectrum.csv")
    for seed in ("20240", "7"):
        assert cli.main(["verify", "--seed", seed]) == 0
        got[f"verify_seed_{seed}.txt"] = sha256(capsys.readouterr().out.encode())

    wrong = [f"  {name} at --workers 3: got {at_three[name]}, at 1 {got[name]}"
             for name in at_three if at_three[name] != got[name]]
    wrong += [f"  {name}: got {got[name]}, want {want}" for name, want in GOLDEN.items() if got[name] != want]
    assert not wrong, (
        f"output digests differ (numpy {np.__version__} on {platform.platform()}):\n" + "\n".join(wrong)
    )
