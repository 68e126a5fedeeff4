"""Divisors that under- or overflow are named before any arithmetic; sweep warns on its swept values;
verify gives a verdict, and every command the same one, at the edges of the float range."""

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


@pytest.mark.parametrize("raw", [["--raw"], []], ids=["raw", "peak"])
def test_an_antifringe_node_is_written_as_an_exact_zero(tmp_path, raw):
    # sin^2(gamma x) at x = 0: no round-off negative to clamp, and no manifest count of clamped points
    overrides = {"t_s": "1e-6", "amp_nonexotic_re": "0.6", "amp_nonexotic_im": "-0.8"}
    argv = ["--branch", "antifringes", *raw, "--grid-points", "101"]  # the default grid: its centre is 0
    out = tmp_path / "profile.csv"
    assert main(["intensity", "--config", str(_config(tmp_path, **overrides)), *argv, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
    assert "clamped_points" not in manifest
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert rows[50][:2] == [0.0, 0.0]
    assert min(row[1] for row in rows[:50] + rows[51:]) > 0.0


# the decades (every 4th) at which the expanded coefficient terms raised from a Python float ** or /, and
# beta's, at which verify's wavefunction evaluation warned
_FORMERLY_RAISING = {
    "beta_m": list(range(72, 149, 4)),
    "mass_kg": [*range(-104, -59, 4), *range(60, 97, 4)],
    "hbar_Js": [*range(-104, -75, 4), *range(44, 101, 4)],
    "sigma0_m": list(range(76, 149, 4)),
    "d_m": list(range(76, 137, 4)),
}


@pytest.mark.parametrize("key", sorted(_FORMERLY_RAISING))
def test_verify_gives_a_verdict_where_a_term_leaves_the_float_range(tmp_path, capsys, key):
    for decade in _FORMERLY_RAISING[key]:
        config = _config(tmp_path, **{key: f"1e{decade}"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--config", str(config), "--skip-quadrature"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 0:
            assert "verification PASSED\n" in captured.out
        else:
            assert code == 3, (key, decade, captured.err)
            assert "verification FAILED\nworst offender: " in captured.out


@pytest.mark.parametrize(
    "key, value, worst",
    [
        ("mass_kg", "1e-80", "term/const_z5 (deviation nan)"),
        ("mass_kg", "1e80", "term/linear_z6 (deviation nan)"),
        ("hbar_Js", "1e-80", "term/const_z5 (deviation inf)"),
        ("hbar_Js", "1e60", "term/const_z5 (deviation inf)"),
        ("d_m", "1e100", "closed-vs-chain/loop12 (deviation nan)"),
        ("sigma0_m", "1e100", None),
    ],
)
def test_a_term_out_of_the_float_range_fails_by_name(tmp_path, capsys, key, value, worst):
    code = main(["verify", "--config", str(_config(tmp_path, **{key: value})), "--skip-quadrature"])
    out = capsys.readouterr().out
    if worst is None:
        assert code == 0 and out.endswith("verification PASSED\n")
    else:
        assert code == 3 and f"\nworst offender: {worst}" in out


@pytest.mark.parametrize("t", ["1e170", "1e250"])
def test_a_long_first_flight_gets_one_verdict_from_every_command(tmp_path, capsys, t):
    # Re a of the packet underflows to 0 in flight and the slit restores it: every command takes the chain's result
    config = str(_config(tmp_path, t_s=t))
    commands = [
        ["intensity", "--grid-points", "11"],
        ["intensity", "--branch", "full", "--grid-points", "11"],
        ["verify"],
        ["sweep", "--parameter", "t", "--range", t, t, "--steps", "1"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [main([argv[0], "--config", config, *argv[1:]]) for argv in commands]
    captured = capsys.readouterr()
    assert codes == [0, 0, 0, 0], captured.err
    assert "verification PASSED\n" in captured.out


def test_verify_at_a_huge_slit_width_fails_by_name_without_a_warning(tmp_path, capsys):
    # at beta = 1e100 m psi12's exponent and the quadrature's integrands leave the float range: nan, named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--config", str(_config(tmp_path, beta_m="1e100"))])
    captured = capsys.readouterr()
    assert code == 3 and "Warning" not in captured.err
    for record in ("closed-vs-chain/loop12", "closed-vs-chain/loop21", "chain-vs-quadrature/loop12"):
        assert f"[FAIL] {record}: deviation nan " in captured.out


@pytest.mark.parametrize("command", [["verify", "--skip-quadrature"], ["intensity", "--grid-points", "3"]])
def test_a_grid_wider_than_the_float_range_is_named(tmp_path, capsys, command):
    # at beta = 1e152 m gamma is subnormal, about -1e-314 1/m, and 5 pi/|gamma| is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command[0], "--config", str(_config(tmp_path, beta_m="1e152")), *command[1:]])
    assert code == 2
    assert "the grid half-width 5 pi/|gamma| leaves the float range" in capsys.readouterr().err


def test_a_sweep_whose_fringe_spacing_overflows_is_named_without_a_warning(tmp_path, capsys):
    # at beta = 1e140 m gamma is so small that pi/|gamma| overflows: the spacing is inf, and the row is
    # named by its visibility window, with nothing on stdout and no RuntimeWarning on the way
    config = _config(tmp_path)
    argv = ["sweep", "--config", str(config), "--parameter", "beta", "--range", "1e140", "1e150", "--steps", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: no finite peak shift of the visibility window at beta = 1e+140: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "overrides, parameter, bounds, named",
    [
        # the chain overflows before d enters it: its result is checked once, and the row is named
        ({"mass_kg": "1e116"}, "d", ("1e-7", "2e-7"), "non-normalizable Gaussian form at d = 1e-07: "),
        ({"sigma0_m": "1e300"}, "d", ("1e-7", "2e-7"),
         "sigma0 = 1e+300 m is out of range at mass = 1.44e-25 kg at d = 1e-07: Delta v_x underflows to 0"),
        # derive's arithmetic on a batch under- or overflows on the way to its named check
        ({}, "d", ("1e304", "1e308"), "slit-to-slit time epsilon = inf s is out of range at d = 5.0005e+307: "),
        ({}, "sigma0", ("1e-320", "1e-304"), "slit-to-slit time epsilon = 0.0 s is out of range at sigma0 = 1e-320: "),
        ({"hbar_Js": "1e304"}, "sigma0", ("1e-7", "2e-7"),
         "slit-to-slit time epsilon = 0.0 s is out of range at sigma0 = 1e-07: "),
    ],
    ids=["mass-1e116", "sigma0-1e300", "d-1e308", "sigma0-1e-320", "hbar-1e304"],
)
def test_a_sweep_that_degenerates_names_its_row_without_a_warning(tmp_path, capsys, overrides, parameter, bounds,
                                                                    named):
    config = _config(tmp_path, **overrides)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--parameter", parameter, "--range", *bounds, "--steps", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {named}" in err and "Traceback" not in err and "Warning" not in err
    assert list(tmp_path.iterdir()) == [config]


def test_a_sweep_whose_flight_overflows_warns_once_without_a_numpy_warning(tmp_path, capsys):
    # 2 (epsilon + eta) overflows: the flight is inf, past the lifetime limit, and the rows are still written
    config = _config(tmp_path, eta_s="1e308")
    argv = ["sweep", "--config", str(config), "--parameter", "d", "--range", "1e-7", "2e-7", "--steps", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and len(captured.out.splitlines()) == 4
    err = captured.err.splitlines()
    assert len(err) == 1 and "Traceback" not in captured.err and "Warning" not in captured.err
    assert err[0].startswith("warning: total flight time inf s exceeds 1% of the excited-state lifetime")
    assert "at d = 1e-07, the first of 3 of 3 swept values that do" in err[0]
    assert list(tmp_path.iterdir()) == [config]


def test_a_profile_whose_amplitude_underflows_is_refused_without_a_warning(tmp_path, capsys):
    # at mass 1e-100 kg and t = 1e264 s the loop chain's amplitude underflows to 0: ln 0 = -inf, a profile of 0
    config = _config(tmp_path, mass_kg="1e-100", t_s="1e264")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["intensity", "--config", str(config), "--grid-points", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: cannot normalize the elt profile: its peak on this grid is 0" in captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err
