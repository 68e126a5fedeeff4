"""Divisors that under- or overflow are named before any arithmetic; sweep warns on its swept values."""

import json
import warnings

import pytest

from eltsim.cli import main

RUBIDIUM = {
    "mass_kg": "1.44e-25",
    "sigma0_m": "10e-9",
    "beta_m": "10e-9",
    "d_m": "180e-9",
    "t_s": "20e-6",
    "tau_s": "20e-6",
}

COMMANDS = {
    "elt": ["intensity", "--grid-points", "5"],
    "full": ["intensity", "--branch", "full", "--grid-points", "5"],
    "sweep": ["sweep", "--parameter", "sigma0", "--range", "1e-8", "2e-8", "--steps", "3"],
}


def _config(tmp_path, **overrides):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**RUBIDIUM, **overrides}.items()))
    return path


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize(
    "key, value, named",
    [
        ("beta_m", "1e-170", "slit width beta = 1e-170 m is out of range"),
        ("beta_m", "1e-300", "slit width beta = 1e-300 m is out of range"),
        ("beta_m", "1e300", "slit width beta = 1e+300 m is out of range"),
        ("t_s", "1e-300", "flight time t = 1e-300 s is out of range"),
        ("tau_s", "1e-300", "flight time tau = 1e-300 s is out of range"),
        ("d_m", "1e-170", "slit separation d = 1e-170 m is out of range"),
    ],
)
def test_out_of_range_divisor_is_named(tmp_path, capsys, command, key, value, named):
    config = _config(tmp_path, **{key: value})
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([COMMANDS[command][0], "--config", str(config), *COMMANDS[command][1:], "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {named}" in err and "Traceback" not in err and "Warning" not in err
    if command == "sweep":
        assert "at sigma0 = 1e-08" in err  # the first swept configuration is the first that fails
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("argv", [["intensity"], ["states"], ["verify"]], ids=["intensity", "states", "verify"])
@pytest.mark.parametrize("key", ["mass_kg", "hbar_Js"])
def test_huge_mass_or_hbar_is_named_by_the_closed_form(tmp_path, capsys, argv, key):
    # m^3 or hbar^3 past the float range makes a closed-form coefficient non-finite or zero, named by its check
    config = _config(tmp_path, **{key: "1e200"})
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: non-normalizable closed form: amplitude=" in err and "Traceback" not in err and "Warning" not in err
    assert list(tmp_path.iterdir()) == [config]


def test_sweep_warns_once_naming_the_first_long_flight(tmp_path, capsys):
    # flight t + 2 epsilon + tau passes 1% of the 30 ms lifetime between t = 2e-4 and 3e-4 s
    config = _config(tmp_path)
    argv = ["sweep", "--config", str(config), "--parameter", "t", "--range", "1e-4", "5e-4", "--steps", "5"]
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: total flight time 3.270e-04 s exceeds 1% of the excited-state lifetime")
    assert "at t = 0.00030000000000000003, the first of 3 of 5 swept values that do" in err[0]


def test_sweep_below_the_lifetime_limit_prints_nothing(tmp_path, capsys):
    config = _config(tmp_path)
    argv = ["sweep", "--config", str(config), "--parameter", "t", "--range", "1e-5", "2e-4", "--steps", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "overrides, argv, clamped",
    [
        ({}, ["--branch", "elt"], 0),
        # the antifringe zero at x = 0 comes out as a round-off negative, clipped to 0
        (
            {"t_s": "1e-6", "amp_nonexotic_re": "0.6", "amp_nonexotic_im": "-0.8"},
            ["--branch", "antifringes", "--raw", "--grid-min=-3e-6", "--grid-max=3e-6", "--grid-points", "101"],
            1,
        ),
    ],
    ids=["none", "antifringe-zero"],
)
def test_intensity_manifest_records_clamped_points(tmp_path, overrides, argv, clamped):
    out = tmp_path / "profile.csv"
    assert main(["intensity", "--config", str(_config(tmp_path, **overrides)), *argv, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
    assert manifest["clamped_points"] == clamped
    if clamped:
        assert min(float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]) == 0.0
