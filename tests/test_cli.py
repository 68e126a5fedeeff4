import json
import warnings

import numpy as np
import pytest

from eltsim.cli import main

CONFIG_TEXT = """\
mass_kg = 1.44e-25
sigma0_m = 10e-9
beta_m = 10e-9
d_m = 180e-9
t_s = 20e-6
tau_s = 20e-6
amp_nonexotic_re = 1.0
amp_exotic_re = 0.05
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, body


def test_intensity_csv_contract(config_path, tmp_path):
    out = tmp_path / "elt.csv"
    code = main(["intensity", "--config", config_path, "--branch", "elt", "--out", str(out), "--grid-points", "201"])
    assert code == 0
    header, body = _read_csv(out)
    assert header == ["x_m", "intensity", "visibility_pointwise"]
    assert body.shape == (201, 3)
    assert np.all(np.diff(body[:, 0]) > 0)
    assert np.max(body[:, 1]) == pytest.approx(1.0)


def test_intensity_mirror_symmetry_in_emitted_file(config_path, tmp_path):
    out = tmp_path / "elt.csv"
    main(["intensity", "--config", config_path, "--out", str(out), "--grid-points", "401"])
    _, body = _read_csv(out)
    assert np.max(np.abs(body[:, 1] - body[::-1, 1])) < 1e-12


def test_intensity_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        main(["intensity", "--config", config_path, "--out", str(out), "--grid-points", "101"])
    assert out1.read_bytes() == out2.read_bytes()


def test_manifest_written(config_path, tmp_path):
    out = tmp_path / "elt.csv"
    main(["intensity", "--config", config_path, "--out", str(out), "--grid-points", "51"])
    manifest = json.loads((tmp_path / "elt.csv.manifest.json").read_text())
    assert manifest["command"] == "intensity"
    assert manifest["config"]["d"] == 180e-9
    assert manifest["derived"]["epsilon_s"] == pytest.approx(3.5e-6, rel=0.03)
    assert "z5" in manifest["ztable"]
    assert manifest["coefficients"]["c1"] > 0
    assert "version" in manifest and "timestamp" in manifest


def test_ground_branch_profile(config_path, tmp_path):
    out = tmp_path / "ground.csv"
    code = main(
        ["intensity", "--config", config_path, "--branch", "ground", "--out", str(out), "--grid-points", "101"]
    )
    assert code == 0
    _, body = _read_csv(out)
    # marked straight paths: no pointwise fringe visibility anywhere
    assert np.max(body[:, 2]) < 1e-12


def test_fringes_and_antifringes_sum(config_path, tmp_path):
    outs = {}
    for branch in ("fringes", "antifringes"):
        out = tmp_path / f"{branch}.csv"
        code = main(
            ["intensity", "--config", config_path, "--branch", branch, "--out", str(out), "--raw", "--grid-points", "101"]
        )
        assert code == 0
        outs[branch] = _read_csv(out)[1]
    total = outs["fringes"][:, 1] + outs["antifringes"][:, 1]
    # cross terms cancel: the sum is smooth and strictly positive in the window
    assert np.all(total > 0)


def test_custom_grid_flags(config_path, tmp_path, capsys):
    code = main(
        ["intensity", "--config", config_path, "--grid-min=-1e-6", "--grid-max=1e-6", "--grid-points", "5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert float(lines[1].split(",")[0]) == -1e-6


def test_grid_flags_must_pair(config_path):
    assert main(["intensity", "--config", config_path, "--grid-min=-1e-6"]) == 2


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG_TEXT + "unknown_key = 1\n")
    assert main(["intensity", "--config", str(bad)]) == 2


def test_missing_config_exit_code(tmp_path):
    assert main(["intensity", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_unwritable_output_exit_code(config_path, tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["intensity", "--config", config_path, "--out", str(out)]) == 4


def test_verify_passes(config_path, capsys):
    code = main(["verify", "--config", config_path, "--points", "21", "--skip-quadrature"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verification PASSED" in out
    assert "closed-vs-chain/loop12" in out


def test_verify_single_point(config_path):
    assert main(["verify", "--config", config_path, "--points", "1", "--skip-quadrature"]) == 0


def test_verify_fault_injection_names_term(config_path, capsys):
    code = main(["verify", "--config", config_path, "--points", "5", "--skip-quadrature", "--corrupt-z", "z5R"])
    assert code == 3
    out = capsys.readouterr().out
    assert "verification FAILED" in out
    assert "worst offender: ztable/z5" in out


def test_verify_rejects_unknown_corrupt_target(config_path):
    assert main(["verify", "--config", config_path, "--skip-quadrature", "--corrupt-z", "z99"]) == 2


def test_states_internal(config_path, capsys):
    code = main(["states", "--config", config_path, "--measurement", "internal"])
    assert code == 0
    out = capsys.readouterr().out
    assert "branch g" in out and "branch e" in out
    assert "reduced center-of-mass weight matrix" in out


def test_states_bell_probabilities_sum(config_path, capsys):
    code = main(["states", "--config", config_path, "--measurement", "bell"])
    assert code == 0
    out = capsys.readouterr().out
    probs = [float(line.split("probability")[1]) for line in out.splitlines() if "probability" in line]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_sweep_epsilon_linear_in_d(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--config", config_path, "--parameter", "d", "--range", "90e-9", "360e-9", "--steps", "4", "--out", str(out)]
    )
    assert code == 0
    header, body = _read_csv(out)
    assert header == ["param_value", "epsilon_s", "gamma_et", "fringe_spacing_m", "aggregate_visibility", "mu_et_rad"]
    ratio = body[:, 1] / body[:, 0]
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-12 * ratio[0]


def test_sweep_degenerate_range(config_path, capsys):
    code = main(["sweep", "--config", config_path, "--parameter", "t", "--range", "20e-6", "20e-6", "--steps", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_sweep_gouy_continuity(config_path, capsys):
    code = main(["sweep", "--config", config_path, "--parameter", "t", "--range", "10e-6", "30e-6", "--steps", "40"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    mu = np.array([float(line.split(",")[5]) for line in lines])
    assert np.max(np.abs(np.diff(mu))) < 0.1


def test_sweep_invalid_range(config_path):
    assert main(["sweep", "--config", config_path, "--parameter", "d", "--range", "2e-7", "1e-7"]) == 2


@pytest.mark.parametrize("end", ["inf", "nan"])
def test_sweep_rejects_non_finite_range_end(config_path, tmp_path, capsys, end):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", config_path, "--parameter", "d", "--range", "1e-7", end, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--range" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, named",
    [
        (["intensity"], "epsilon = 3.475952509425978e-298 s is out of range: "),
        (["sweep", "--parameter", "sigma0", "--range", "1e-300", "1e-299"], "is out of range at sigma0 = 1e-300: "),
    ],
    ids=["intensity", "sweep"],
)
def test_epsilon_out_of_range_is_named(tmp_path, capsys, command, named):
    # at sigma0 = 1e-300 epsilon is 3.5e-298 s and 2 hbar epsilon underflows to 0
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT.replace("sigma0_m = 10e-9", "sigma0_m = 1e-300"))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command[0], "--config", str(config), *command[1:], "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "slit-to-slit time" in err and named in err and "Warning" not in err
    assert list(tmp_path.iterdir()) == [config]
