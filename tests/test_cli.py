import contextlib
import io
import itertools
import json
import math
import platform
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from eltsim import cli, closedform, intensity, params, verification
from eltsim.cli import BRANCHES, PROFILE_BLOCK, SWEEP_CHUNK, branch_profile, main, profile_csv

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


@pytest.mark.parametrize(
    "command",
    [
        ["intensity", "--grid-points", "11"],
        ["verify", "--skip-quadrature"],
        ["states"],
        ["sweep", "--parameter", "d", "--range", "90e-9", "360e-9", "--steps", "3"],
    ],
)
def test_manifest_records_the_environment(config_path, tmp_path, command):
    out = tmp_path / "run.out"
    assert main([*command, "--config", config_path, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "run.out.manifest.json").read_text())
    assert manifest["environment"] == {"python": platform.python_version(), "numpy": np.__version__}


def test_source_date_epoch_fixes_the_manifest_timestamp(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    manifests = []
    for name in ("a.csv", "b.csv"):
        assert main(["intensity", "--config", config_path, "--grid-points", "11", "--out", str(tmp_path / name)]) == 0
        manifests.append((tmp_path / f"{name}.manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["timestamp"] == "2023-11-14T22:13:20+00:00"


@pytest.mark.parametrize("epoch", ["1.5", "-1", "soon", "9" * 30])
def test_malformed_source_date_epoch_is_named(config_path, tmp_path, capsys, monkeypatch, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    assert main(["intensity", "--config", config_path, "--grid-points", "11", "--out", str(tmp_path / "p.csv")]) == 2
    assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


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


@pytest.mark.parametrize(
    "overrides",
    [{}, {"amp_nonexotic": complex(0.6, -0.8)}, {"t": 1e-7, "tau": 1e-7}],
    ids=["rubidium", "complex-amplitude", "short-legs"],
)
def test_erasure_recovers_twice_the_ground_branch(overrides):
    # |b1 psi1 + b2 psi2|^2 + |b1 psi1 - b2 psi2|^2 = 2 (|b1 psi1|^2 + |b2 psi2|^2): the cross terms cancel
    config = params.rubidium_config(**overrides)
    coeffs = intensity.loop_coefficients(config)
    grid = intensity.default_grid(coeffs, points=401)
    raw = {b: branch_profile(b, grid, config, coeffs, "raw").values for b in ("ground", "fringes", "antifringes")}
    assert np.all(raw["ground"] > 0)
    np.testing.assert_allclose(raw["fringes"] + raw["antifringes"], 2.0 * raw["ground"], rtol=1e-12, atol=0)


def test_branch_profile_refuses_an_unknown_branch():
    # a library call takes any string; the command line refuses it before, by its choices
    config = params.rubidium_config()
    with pytest.raises(params.ConfigError, match="unknown branch 'bogus'"):
        branch_profile("bogus", np.zeros(1), config, closedform.solve(config).coeffs, "raw")


def test_csv_numbers_are_exact_scientific_text():
    values = np.array([-0.0, 5e-324, 1e300])
    profile = intensity.IntensityProfile(np.array([-1.0, 0.0, 1e-7]), values, visibility=values)
    assert b"".join(profile_csv(profile)).decode("ascii") == (
        "x_m,intensity,visibility_pointwise\n"
        "-1.0000000000000000e+00,-0.0000000000000000e+00,-0.0000000000000000e+00\n"
        "0.0000000000000000e+00,4.9406564584124654e-324,4.9406564584124654e-324\n"
        "9.9999999999999995e-08,1.0000000000000001e+300,1.0000000000000001e+300\n"
    )
    profile.visibility = None
    assert [line.split(",")[2] for line in b"".join(profile_csv(profile)).decode("ascii").splitlines()[1:]] == ["0.0000000000000000e+00"] * 3


def test_sweep_rows_repeat_a_scalar_epsilon(config_path, capsys):
    # epsilon depends on d and sigma0 only, so a sweep of t solves one epsilon for every row
    code = main(["sweep", "--config", config_path, "--parameter", "t", "--range", "10e-6", "30e-6", "--steps", "5"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    epsilon = params.derive(params.load_config(config_path)).epsilon
    assert [row.split(",")[1] for row in rows] == ["%.16e" % epsilon] * 5


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


@pytest.mark.parametrize(
    "edges",
    [
        ["--grid-min=-inf", "--grid-max=inf"],
        ["--grid-min=0", "--grid-max=inf"],
        ["--grid-min=-1e308", "--grid-max=1e308"],
    ],
    ids=["both-infinite", "max-infinite", "span-overflows"],
)
def test_non_finite_grid_edges_are_named(config_path, tmp_path, capsys, edges):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["intensity", "--config", config_path, *edges, "--grid-points", "5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--grid-min and --grid-max must be finite numbers with a finite span" in err and "Warning" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("points", ["0", "-1"])
@pytest.mark.parametrize("edges", [[], ["--grid-min=-1e-6", "--grid-max=1e-6"]], ids=["default-grid", "custom-grid"])
def test_grid_points_below_one_are_named(config_path, tmp_path, capsys, edges, points):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["intensity", "--config", config_path, *edges, "--grid-points", points, "--out", str(out)])
    assert code == 2
    assert f"--grid-points must be at least 1, got {points}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("edges", [["1e-6", "1e-6"], ["1e-6", "-1e-6"]], ids=["equal", "reversed"])
def test_grid_edges_out_of_order_are_refused(config_path, tmp_path, capsys, edges, out):
    target = ["--out", str(tmp_path / "out.csv")] if out else []
    argv = ["intensity", "--config", config_path, "--grid-min", edges[0], "--grid-max", edges[1], *target]
    assert main([*argv, "--grid-points", "5"]) == 2
    captured = capsys.readouterr()
    assert "--grid-max must exceed --grid-min" in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


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


@pytest.mark.parametrize(
    "flags, quadrature, corrupt_z, passed",
    [([], True, None, True), (["--skip-quadrature", "--corrupt-z", "z5R"], False, "z5R", False)],
    ids=["plain", "fault-injected"],
)
def test_verify_manifest_records_how_the_check_ran(config_path, tmp_path, flags, quadrature, corrupt_z, passed):
    # a fault-injected failure is told apart from a genuine one by the manifest alone
    out = tmp_path / "v.txt"
    assert main(["verify", "--config", config_path, "--points", "21", *flags, "--out", str(out)]) == (0 if passed else 3)
    manifest = json.loads((tmp_path / "v.txt.manifest.json").read_text())
    assert (manifest["quadrature"], manifest["corrupt_z"], manifest["passed"]) == (quadrature, corrupt_z, passed)


def test_verify_rejects_zero_points(config_path, capsys):
    assert main(["verify", "--config", config_path, "--points", "0", "--skip-quadrature"]) == 2
    assert "at least one point" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "-5"])
def test_verify_points_below_one_are_named(config_path, capsys, points):
    assert main(["verify", "--config", config_path, "--points", points, "--skip-quadrature"]) == 2
    assert f"--points needs at least one point, got {points}" in capsys.readouterr().err


def test_negative_grid_edges_after_a_space(config_path, capsys):
    # argparse's own negative-number pattern has no exponent: "--grid-min -1e-6" used to exit 2 before any check
    edges = ["--grid-points", "5"]
    assert main(["intensity", "--config", config_path, "--grid-min=-1e-6", "--grid-max=1e-6", *edges]) == 0
    joined = capsys.readouterr().out
    assert main(["intensity", "--config", config_path, "--grid-min", "-1e-6", "--grid-max", "1e-6", *edges]) == 0
    assert capsys.readouterr().out == joined
    assert main(["intensity", "--config", config_path, "--grid-min", "-.5E-6", "--grid-max", "1e-6", *edges]) == 0
    assert float(capsys.readouterr().out.splitlines()[1].split(",")[0]) == -0.5e-6


def test_negative_grid_edges_with_digit_group_underscores(config_path, capsys):
    # float reads "-1_0e-7" as -1e-6: one underscore between two digits, in the mantissa or the exponent, is a
    # value after a space too; "-1__0", which float refuses, is still taken for a flag
    edges = ["--grid-max", "1e-6", "--grid-points", "5"]
    assert main(["intensity", "--config", config_path, "--grid-min=-1e-6", *edges]) == 0
    joined = capsys.readouterr().out
    for value in ("-1_0e-7", "-0.000_001", "-1e-0_6", "-1_0.0_0e-0_7"):
        assert main(["intensity", "--config", config_path, "--grid-min", value, *edges]) == 0, value
        assert capsys.readouterr().out == joined, value
    with pytest.raises(SystemExit) as stop:
        main(["intensity", "--config", config_path, "--grid-min", "-1__0", *edges])
    assert stop.value.code == 2
    assert "argument --grid-min: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["intensity", "--grid-min", "-inf", "--grid-max", "inf"], "must be finite numbers with a finite span"),
        (["verify", "--points", "-1e3"], "invalid int value: '-1e3'"),
        (["sweep", "--parameter", "d", "--range", "-1e-6", "1e-6"], "sweep range must satisfy 0 < min <= max"),
    ],
    ids=["intensity", "verify", "sweep"],
)
def test_every_subcommand_reads_a_negative_number_as_a_value(config_path, capsys, argv, named):
    try:
        code = main([argv[0], "--config", config_path, *argv[1:]])
    except SystemExit as exc:  # argparse's own error, on a value it did not take for a flag
        code = exc.code
    assert code == 2
    assert named in capsys.readouterr().err


def test_states_reads_a_negative_number_as_a_config_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["states", "--config", "-1e-6"]) == 2
    assert "cannot read config file -1e-6" in capsys.readouterr().err


def test_verify_rejects_unknown_corrupt_target(config_path):
    assert main(["verify", "--config", config_path, "--skip-quadrature", "--corrupt-z", "z99"]) == 2


def test_verify_refuses_an_empty_corrupt_target_by_name(config_path, capsys):
    assert main(["verify", "--config", config_path, "--skip-quadrature", "--corrupt-z", ""]) == 2
    assert "unknown z-table entry ''" in capsys.readouterr().err


def test_verify_names_a_reference_that_underflows(tmp_path, capsys):
    # the chain underflows to 0 at every grid point: each wavefunction record fails with a NaN deviation
    config = tmp_path / "run.cfg"
    config.write_text(
        CONFIG_TEXT.replace("sigma0_m = 10e-9", "sigma0_m = 1.3155344041531356e-09")
        .replace("beta_m = 10e-9", "beta_m = 2.4011347088261125e-09")
        .replace("d_m = 180e-9", "d_m = 2.0513276664902824e-07")
        .replace("t_s = 20e-6", "t_s = 1.2660727631801749e-08")
        .replace("tau_s = 20e-6", "tau_s = 1.273518208061645e-09")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--config", str(config)])
    assert code == 3
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    underflow = "reference underflows to 0 at every grid point"
    for name in ("closed-vs-chain/loop12", "closed-vs-chain/loop21", "chain-vs-quadrature/loop12"):
        assert f"[FAIL] {name}: deviation nan (tol " in captured.out
    assert captured.out.count(underflow) == 4
    assert f"worst offender: closed-vs-chain/loop12 (deviation nan), {underflow}\n" in captured.out


def test_verify_names_a_loop_quadrature_that_never_converges(tmp_path, capsys):
    # the loop oracle's refinements never agree at some check point: a failing record, not a traceback
    config = tmp_path / "run.cfg"
    config.write_text(
        CONFIG_TEXT.replace("sigma0_m = 10e-9", "sigma0_m = 8.412977388142095e-08")
        .replace("beta_m = 10e-9", "beta_m = 9.429782880893043e-07")
        .replace("d_m = 180e-9", "d_m = 2.508631488938636e-08")
        .replace("t_s = 20e-6", "t_s = 8.853693299065657e-09")
        .replace("tau_s = 20e-6", "tau_s = 2.183480150617253e-09")
    )
    code = main(["verify", "--config", str(config)])
    assert code == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    detail = "looped-path quadrature did not converge by order 380"
    assert f"[FAIL] chain-vs-quadrature/loop12: deviation inf (tol 1.0e-05)  {detail}\n" in captured.out
    assert f"worst offender: chain-vs-quadrature/loop12 (deviation inf), {detail}\n" in captured.out


def test_worst_offender_ranks_a_nan_deviation_above_every_ratio():
    nan = verification.CheckRecord("closed-vs-chain/loop12", math.nan, verification.DEFAULT_CHAIN_TOL)
    finite = verification.CheckRecord("ztable/z5", 7.651e-4, verification.ZTABLE_TOL)
    for records in ([nan, finite], [finite, nan]):
        assert verification.VerificationReport(records).worst() is nan


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


# config #5 of the 400-config verify-box sample: |ψ|^2 of every straight path underflows on the default grid
UNDERFLOWING_CONFIG_TEXT = """\
mass_kg = 1.44e-25
sigma0_m = 2.623691479952065e-09
beta_m = 2.6975054975252737e-09
d_m = 9.95593367071614e-07
t_s = 7.707164487265234e-09
tau_s = 1.0290205204153978e-09
amp_nonexotic_re = 1.0
amp_exotic_re = 0.05
"""


@pytest.mark.parametrize("branch", ["ground", "full", "fringes", "antifringes"])
def test_a_profile_that_underflows_everywhere_is_written_peak_normalized(tmp_path, branch):
    config = tmp_path / "run.cfg"
    config.write_text(UNDERFLOWING_CONFIG_TEXT)
    out = tmp_path / "profile.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["intensity", "--config", str(config), "--branch", branch, "--out", str(out)]) == 0
    _, body = _read_csv(out)
    assert np.all(np.isfinite(body)) and body[:, 1].min() >= 0.0 and body[:, 1].max() == 1.0
    # the raw profile is written: its absolute values are all 0 there
    assert main(["intensity", "--config", str(config), "--branch", branch, "--raw", "--out", str(out)]) == 0
    _, body = _read_csv(out)
    assert np.all(body[:, 1] == 0.0)


def test_the_elt_pattern_needs_no_loop_weight(tmp_path):
    # elt is both loops with unit weights, not the collapsed excited branch, which has no state at amp_exotic = 0
    outs = []
    for weight in ("0.05", "0"):
        config = tmp_path / f"loops-{weight}.cfg"
        config.write_text(CONFIG_TEXT.replace("amp_exotic_re = 0.05", f"amp_exotic_re = {weight}"))
        outs.append(tmp_path / f"elt-{weight}.csv")
        assert main(["intensity", "--config", str(config), "--branch", "elt", "--grid-points", "101", "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_a_ground_branch_of_tiny_probability_is_still_a_branch(tmp_path, capsys):
    # at an amplitude ratio of 1e13 the ground branch has probability 1e-26: small, but a nonzero vector
    path = tmp_path / "loops.cfg"
    path.write_text(CONFIG_TEXT.replace("amp_exotic_re = 0.05", "amp_exotic_re = 1e13"))
    assert main(["intensity", "--config", str(path), "--branch", "ground", "--grid-points", "11"]) == 0
    capsys.readouterr()
    assert main(["states", "--config", str(path), "--measurement", "internal"]) == 0
    ground = next(line for line in capsys.readouterr().out.splitlines() if line.startswith(" branch g:"))
    assert float(ground.split("probability")[1]) == pytest.approx(1e-26, rel=1e-9)


@pytest.mark.parametrize("power", [600, -600])
def test_path_amplitudes_scaled_by_a_power_of_two_change_no_output(tmp_path, capsys, power):
    # only the amplitudes' ratio is physical: at 2**600 their squares overflowed, at 2**-600 their norm underflowed
    amplitudes = {"amp_nonexotic_re": 0.6, "amp_nonexotic_im": -0.8, "amp_exotic_re": 0.03, "amp_exotic_im": 0.04}
    geometry = "".join(line + "\n" for line in CONFIG_TEXT.splitlines() if not line.startswith("amp_"))
    commands = [["states", "--measurement", "bell"]]
    commands += [["intensity", "--branch", branch, "--grid-points", "101"] for branch in BRANCHES]
    outputs = []
    for scale in (0, power):
        path = tmp_path / f"scaled{scale}.cfg"
        path.write_text(geometry + "".join(f"{key} = {math.ldexp(value, scale)!r}\n" for key, value in amplitudes.items()))
        texts = []
        for command in commands:
            assert main(command + ["--config", str(path)]) == 0
            texts.append(capsys.readouterr().out)
        outputs.append(texts)
    assert outputs[0] == outputs[1]


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


def test_one_step_sweep_is_the_low_end(config_path, capsys):
    base = ["sweep", "--config", config_path, "--parameter", "t", "--steps", "1"]
    assert main(base + ["--range", "20e-6", "30e-6"]) == 0
    one_step = capsys.readouterr().out
    assert main(base + ["--range", "20e-6", "20e-6"]) == 0
    degenerate = capsys.readouterr().out
    assert len(one_step.splitlines()) == 2
    assert one_step == degenerate


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


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("steps", ["0", "-3"])
def test_sweep_steps_below_one_are_named(config_path, tmp_path, capsys, steps, out):
    target = ["--out", str(tmp_path / "sweep.csv")] if out else []
    argv = ["sweep", "--config", config_path, "--parameter", "d", "--range", "1e-7", "2e-7", "--steps", steps]
    assert main([*argv, *target]) == 2
    captured = capsys.readouterr()
    assert f"--steps must be at least 1, got {steps}" in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


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


@pytest.mark.parametrize(
    "sigma0, named",
    [
        ("1e-170", "packet width sigma0 = 1e-170 m is out of range: 2 sigma0^2 = 0.0 m^2"),
        ("1e300", "sigma0 = 1e+300 m is out of range at mass = 1.44e-25 kg: Delta v_x"),
    ],
    ids=["width-underflows", "velocity-underflows"],
)
def test_sigma0_out_of_range_is_named(tmp_path, capsys, sigma0, named):
    # 1e-170: z0 = 1/(2 sigma0^2) divides by an underflowed 0; 1e300: epsilon = d / Delta v_x does
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT.replace("sigma0_m = 10e-9", f"sigma0_m = {sigma0}"))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["intensity", "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Warning" not in err
    assert list(tmp_path.iterdir()) == [config]


def test_profile_csv_blocks_match_the_row_wise_text():
    # 2 blocks + 1 row, with -0.0 and a subnormal on either side of the first block boundary
    rng = np.random.default_rng(11)
    n = 2 * PROFILE_BLOCK + 1
    grid = np.cumsum(rng.uniform(0.5, 1.5, n)) * 1e-9 - 1e-5
    values, vis = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    values[PROFILE_BLOCK - 1 : PROFILE_BLOCK + 1] = -0.0, 5e-324
    blocks = list(profile_csv(intensity.IntensityProfile(grid, values, visibility=vis)))
    assert [bytes(block).count(b"\n") for block in blocks] == [1, PROFILE_BLOCK, PROFILE_BLOCK, 1]
    rows = ["%.16e,%.16e,%.16e" % row for row in zip(grid.tolist(), values.tolist(), vis.tolist())]
    assert b"".join(blocks).decode("ascii") == "\n".join(["x_m,intensity,visibility_pointwise", *rows]) + "\n"


def test_one_point_default_grid_is_the_centre(config_path, capsys):
    assert main(["intensity", "--config", config_path, "--grid-points", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "0.0000000000000000e+00"


def test_out_at_a_directory_leaves_no_file(config_path, tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    before = sorted(tmp_path.iterdir())
    assert main(["intensity", "--config", config_path, "--grid-points", "11", "--out", str(out)]) == 4
    assert "i/o error" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_sweep_failing_in_a_later_chunk(config_path, tmp_path, capsys, monkeypatch, to_file):
    aggregate_visibility, calls = intensity.aggregate_visibility, []

    def fail_second_chunk(coeffs, config):
        calls.append(coeffs.gamma.size)
        if len(calls) == 2:
            raise intensity.ProfileError("injected failure in the second chunk")
        return aggregate_visibility(coeffs, config)

    monkeypatch.setattr(intensity, "aggregate_visibility", fail_second_chunk)
    out = tmp_path / "sweep.csv"
    out.write_text("an earlier result\n")
    before = sorted(tmp_path.iterdir())
    argv = ["sweep", "--config", config_path, "--parameter", "d", "--range", "90e-9", "360e-9"]
    argv += ["--steps", str(2 * SWEEP_CHUNK + 1)] + (["--out", str(out)] if to_file else [])
    assert main(argv) == 2
    assert calls == [SWEEP_CHUNK, SWEEP_CHUNK]
    captured = capsys.readouterr()
    assert "injected failure in the second chunk" in captured.err
    assert sorted(tmp_path.iterdir()) == before
    assert out.read_text() == "an earlier result\n"
    # every row is scored before the first byte: nothing is written, with --out or on stdout
    assert len(captured.out.splitlines()) == 0


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_sweep_with_a_failing_row_writes_no_byte(config_path, tmp_path, capsys, to_file):
    # C1 h^2 overflows at beta = 5e+79: the visibility window has no finite peak shift, named before the header
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", config_path, "--parameter", "beta", "--range", "1e60", "1e80", "--steps", "3"]
    assert main(argv + (["--out", str(out)] if to_file else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no finite peak shift of the visibility window at beta = 5e+79: " in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_sweep_memory_does_not_hold_the_csv(config_path, tmp_path):
    # a writer that held every row string and their joined text peaked at 11.8 MB on this sweep; block by block, 5.2 MB
    argv = ["sweep", "--config", config_path, "--parameter", "d", "--range", "90e-9", "360e-9"]
    argv += ["--steps", "20000", "--out", str(tmp_path / "sweep.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 20001


def test_sweep_block_memory_budget(config_path, tmp_path):
    # every row is scored before the first byte, into a column of 8 B per row; the peak is one SWEEP_CHUNK
    # visibility block or one SWEEP_BLOCK CSV block: 1.13 MB at 256 and 1024 rows with the lattice scored in place
    # (1.49 MB with a fresh temporary per step, 1.51 MB at 384 visibility rows, 1.70 MB at 2048 CSV rows), so a
    # larger block fails here rather than in peak RSS
    argv = ["sweep", "--config", config_path, "--parameter", "d", "--range", "90e-9", "360e-9"]
    argv += ["--steps", "2000", "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 0  # warm: a first run in a fresh process also traces about 0.16 MB of one-time allocations
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.42e6


def test_full_profile_memory_budget():
    # the two-pass profile engine holds one log-value per term and one term's temporaries: 7.2 MB for the three
    # terms of full on the 100001 evaluated points of a 200001-point default grid (grid excluded; elt 5.0 MB,
    # ground 6.4 MB), where holding E, bracket and q of every term until the sum peaked at 12.2 MB
    config = params.rubidium_config()
    coeffs = intensity.loop_coefficients(config)
    grid = intensity.default_grid(coeffs, 200001)
    branch_profile("full", grid, config, coeffs, "peak")
    tracemalloc.start()
    try:
        branch_profile("full", grid, config, coeffs, "peak")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


def test_sweep_memory_is_the_csv_columns_at_200000_steps(config_path, tmp_path):
    # one loop-12 chain per SWEEP_CHAIN rows: 11.0 MB at 200000 steps against 1.17 MB at 2000, where one chain
    # over every row peaked at 51.2 MB. Of the difference, 9.6 MB are the six CSV columns held for the rows
    # (48 B per row) and up to 1 MB one chain block's temporaries; the range check's derive and regime warnings
    # over every d value peak at 8.2 MB beside the swept values, below that
    argv = ["sweep", "--config", config_path, "--parameter", "d", "--range", "90e-9", "360e-9"]
    peaks = []
    for steps in (2000, 200000):
        run = argv + ["--steps", str(steps), "--out", str(tmp_path / "sweep.csv")]
        assert main(run) == 0
        tracemalloc.start()
        try:
            assert main(run) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 48 * 198000 + 1.5e6


def test_manifest_path_at_a_directory_leaves_the_earlier_csv(config_path, tmp_path, capsys):
    # the second of the two moves would fail here, after the first had replaced <out>: refused before staging
    out = tmp_path / "p.csv"
    out.write_text("an earlier result\n")
    (tmp_path / "p.csv.manifest.json").mkdir()
    before = sorted(tmp_path.iterdir())
    assert main(["intensity", "--config", config_path, "--grid-points", "11", "--out", str(out)]) == 4
    assert "is a directory" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    assert out.read_text() == "an earlier result\n"


@pytest.mark.parametrize("raises", ["second-call", "worker", "caller"])
def test_a_layout_error_reaches_main_by_name_and_leaves_no_file_or_thread(config_path, tmp_path, capsys, monkeypatch,
                                                                           raises):
    # a default grid with eight x < 0 blocks: the odd ones are laid out on a worker thread, whose error is raised
    # at its block in the thread that writes; an error of either thread stops the worker, joined before main returns
    class InjectedError(params.ConfigError):
        pass

    layout, calls, main_calls = cli._layout, itertools.count(1), itertools.count(1)

    def failing(x):
        worker = threading.current_thread() is not threading.main_thread()
        if worker:
            time.sleep(0.05)  # so the worker is still busy when the calling thread fails
        if {"second-call": next(calls) == 2, "worker": worker, "caller": not worker and next(main_calls) == 2}[raises]:
            raise InjectedError(f"injected layout failure ({raises})")
        return layout(x)

    monkeypatch.setattr(cli, "_layout", failing)
    before = threading.active_count()
    out = tmp_path / "p.csv"
    argv = ["intensity", "--config", config_path, "--grid-points", str(8 * PROFILE_BLOCK + 1), "--out", str(out)]
    assert main(argv) == 2
    assert f"error: injected layout failure ({raises})" in capsys.readouterr().err
    assert threading.active_count() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "argv",
    [
        ["intensity", "--grid-points", str(4 * PROFILE_BLOCK + 1)],
        ["sweep", "--parameter", "d", "--range", "90e-9", "360e-9", "--steps", "2000"],
        ["states", "--measurement", "bell"],
    ],
    ids=["intensity", "sweep", "states"],
)
def test_stdout_without_a_buffer_gets_the_text_of_out(config_path, tmp_path, argv):
    # perfbench's worker runs main under redirect_stdout(io.StringIO()), which has no binary buffer
    out = tmp_path / "run.out"
    argv = [argv[0], "--config", config_path, *argv[1:]]
    assert main(argv + ["--out", str(out)]) == 0
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert text.getvalue() == out.read_bytes().decode("ascii")


def test_stdout_gets_the_bytes_of_out_after_its_pending_text(config_path, tmp_path):
    # a text stream that writes "\r\n" for "\n", as Windows' stdout does: the blocks go to its binary buffer, after
    # the text it still holds, so stdout carries the bytes --out writes on every platform
    out = tmp_path / "p.csv"
    argv = ["intensity", "--config", config_path, "--grid-points", str(2 * PROFILE_BLOCK + 1)]
    assert main(argv + ["--out", str(out)]) == 0
    stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\r\n")
    stream.write("pending\n")
    with contextlib.redirect_stdout(stream):
        assert main(argv) == 0
    stream.flush()
    assert stream.buffer.getvalue() == b"pending\r\n" + out.read_bytes()
