"""The batched sweep: every row equals the one-configuration path."""

import dataclasses
import itertools
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from eltsim import cli, closedform, gaussians, intensity, params
from eltsim.cli import SWEEP_BLOCK, SWEEP_CHUNK, SWEEP_PARAMETERS, build_parser, cmd_sweep, main
from eltsim.closedform import DegenerateConfigError
from eltsim.params import rubidium_config, swept_rows

RUBIDIUM = rubidium_config()
CONFIG_TEXT = "mass_kg = 1.44e-25\nsigma0_m = 10e-9\nbeta_m = 10e-9\nd_m = 180e-9\nt_s = 20e-6\ntau_s = 20e-6\n"


def _sweep_rows(config, parameter, lo, hi, steps):
    args = build_parser().parse_args(
        ["sweep", "--config", "unused.cfg", "--parameter", parameter, "--range", repr(lo), repr(hi), "--steps", str(steps)]
    )
    code, text, _, _ = cmd_sweep(args, config)
    assert code == 0
    return np.array([[float(v) for v in line.split(",")] for line in "".join(text).splitlines()[1:]])


def _one_configuration(config, parameter, value):
    """The sweep row of one configuration, solved and scored on its own."""
    solution = closedform.solve(dataclasses.replace(config, **{parameter: value}))
    coeffs = solution.coeffs
    spacing = intensity.fringe_spacing(coeffs)
    profile = intensity.elt_intensity(intensity.default_grid(coeffs, points=801), coeffs, "peak")
    agg = references.aggregate_visibility(profile, spacing)
    return [value, solution.derived.epsilon, coeffs.gamma, spacing, agg, coeffs.mu]


def _assert_rows_match(config, parameter, rows):
    assert rows.shape[1] == 6
    for row in rows:
        want = _one_configuration(config, parameter, float(row[0]))
        assert row.tolist() == pytest.approx(want, rel=1e-12, abs=0)


decade = st.floats(-0.5, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    parameter=st.sampled_from(SWEEP_PARAMETERS),
    exponents=st.fixed_dictionaries({name: decade for name in SWEEP_PARAMETERS}),
    lo=st.floats(-0.5, 0.0),
    hi=st.floats(0.0, 0.5),
    steps=st.integers(1, 40),
)
def test_each_row_equals_the_one_configuration_path(parameter, exponents, lo, hi, steps):
    config = dataclasses.replace(
        RUBIDIUM, **{name: getattr(RUBIDIUM, name) * 10.0**u for name, u in exponents.items()}
    )
    base = getattr(config, parameter)
    rows = _sweep_rows(config, parameter, base * 10.0**lo, base * 10.0**hi, steps)
    assert len(rows) == steps
    _assert_rows_match(config, parameter, rows)


@pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
def test_rows_match_across_a_chunk_boundary(parameter):
    rows = _sweep_rows(RUBIDIUM, parameter, 1e-8, 1e-5, SWEEP_CHUNK + 1)
    assert len(rows) == SWEEP_CHUNK + 1
    _assert_rows_match(RUBIDIUM, parameter, rows[SWEEP_CHUNK - 1 :])


@pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
def test_block_size_is_a_pure_performance_setting(tmp_path, monkeypatch, capsys, parameter):
    # the ufuncs and their operands do not depend on the block: every row and every CSV byte stays the same
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT)
    base = getattr(RUBIDIUM, parameter)
    argv = ["sweep", "--config", str(config), "--parameter", parameter, "--range", repr(base / 3), repr(base * 3)]
    argv += ["--steps", "600"]
    texts = set()
    for chunk, block in itertools.product((1, 7, 32, SWEEP_CHUNK), (1, 7, SWEEP_CHUNK, SWEEP_BLOCK)):
        monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
        monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
        out = tmp_path / f"sweep{chunk}-{block}.csv"
        assert main(argv) == 0
        assert main(argv + ["--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert out.read_bytes() == stdout.encode("ascii")
        texts.add(stdout)
    assert len(texts) == 1 and len(stdout.splitlines()) == 601

    swept = dataclasses.replace(RUBIDIUM, **{parameter: np.linspace(base / 3, base * 3, 600)})
    coeffs = intensity.loop_coefficients(swept)
    rows = [
        intensity.aggregate_visibility(
            closedform.EltCoefficients(*(field[i] for field in vars(coeffs).values())), swept_rows(swept, i)
        )
        for i in range(600)
    ]
    assert intensity.aggregate_visibility(coeffs, swept).tolist() == rows


def test_swept_value_that_trips_a_guard_is_named(tmp_path, capsys):
    # at tau = 5e299 the envelope curvature C1 underflows to 0
    with pytest.raises(DegenerateConfigError, match=r"non-normalizable closed form at tau = 5e\+299"):
        closedform.solve(dataclasses.replace(RUBIDIUM, tau=np.array([1e-5, 5e299, 1e300])))
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--parameter", "tau", "--range", "1e-5", "1e300", "--steps", "3"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "non-normalizable Gaussian form at tau = 5e+299: a=" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_sweep_evaluates_only_the_central_window(monkeypatch):
    # the work contract: no grid and no profile, one visibility block on the shared lattice per chunk
    profiles = _count_calls(monkeypatch, intensity, "elt_intensity")
    grids = _count_calls(monkeypatch, intensity, "default_grid")
    sizes, original = [], intensity.aggregate_visibility

    def recording(coeffs, config):
        sizes.append(coeffs.gamma.size)
        return original(coeffs, config)

    monkeypatch.setattr(intensity, "aggregate_visibility", recording)
    rows = _sweep_rows(RUBIDIUM, "d", 90e-9, 360e-9, SWEEP_CHUNK + 1)
    assert len(rows) == SWEEP_CHUNK + 1
    assert len(profiles) == 0 and len(grids) == 0
    assert sizes == [SWEEP_CHUNK, 1]


def _count_calls(monkeypatch, module, name):
    """Record the positional arguments of every call of ``module.name``, through each eltsim namespace that
    imported it."""
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for namespace in [m for key, m in sys.modules.items() if key == "eltsim" or key.startswith("eltsim.")]:
        if getattr(namespace, name, None) is original:
            monkeypatch.setattr(namespace, name, counting)
    return calls


def test_sweep_builds_one_chain_and_derives_independently_of_steps(monkeypatch):
    # the loop-12 chain runs once over the whole swept range; only the profile block is chunked
    chains = _count_calls(monkeypatch, gaussians, "chain")
    derives = _count_calls(monkeypatch, params, "derive")
    counts = []
    for steps in (1, 3 * SWEEP_CHUNK + 1):
        chains.clear()
        derives.clear()
        assert len(_sweep_rows(RUBIDIUM, "d", 90e-9, 360e-9, steps)) == steps
        counts.append(([len(centres) for centres, _ in chains], len(derives)))
    (chains_one, derives_one), (chains_many, derives_many) = counts
    assert chains_one == chains_many == [3]
    assert derives_one == derives_many


def _mpmath_aggregate_visibility(coeffs, grid):
    """aggregate_visibility of the looped-path profile on ``grid``, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a, c1, c2, c3, gamma = map(mpmath.mpf, (coeffs.amplitude, coeffs.c1, coeffs.c2, coeffs.c3, coeffs.gamma))
        values = []
        for x in map(mpmath.mpf, grid.tolist()):
            u, v = 2 * (c3 - c1 * x * x), 2 * c2 * x
            diag = mpmath.exp(u + v) + mpmath.exp(u - v)
            values.append(a * a * (diag + 2 * mpmath.exp(u) * mpmath.cos(2 * gamma * x)))
        hi, lo = max(values), min(values)
        return float((hi - lo) / (hi + lo))


def test_aggregate_visibility_where_the_window_is_subnormal():
    # at t = tau = 1e-7 s and d near 5.1e-7 m the raw window values are subnormal doubles
    config = dataclasses.replace(RUBIDIUM, t=1e-7, tau=1e-7)
    rows = _sweep_rows(config, "d", 5.05e-7, 5.15e-7, 3)
    for row in rows:
        coeffs = closedform.solve(dataclasses.replace(config, d=float(row[0]))).coeffs
        window = intensity.default_grid(coeffs, points=801)[280:521]
        assert row[4] == pytest.approx(_mpmath_aggregate_visibility(coeffs, window), rel=1e-12, abs=0)


def _lattice_vertex(coeffs):
    """The lattice index b/2a of the window exponent's vertex, before rounding and clipping."""
    h = np.pi / abs(coeffs.gamma) / 80.0
    return abs(2.0 * coeffs.c2 * h) / (2.0 * (2.0 * coeffs.c1 * h * h))


# the vertex inside the window, and beyond its edge where the raw window values are subnormal
SHORT_FLIGHT = dataclasses.replace(RUBIDIUM, t=1e-7, tau=1e-7)
LATTICE_CASES = [(RUBIDIUM, True)] + [(dataclasses.replace(SHORT_FLIGHT, d=d), False) for d in (5.05e-7, 5.1e-7, 5.15e-7)]


@pytest.mark.parametrize(("config", "inside"), LATTICE_CASES)
def test_lattice_visibility_matches_mpmath(config, inside):
    coeffs = closedform.solve(config).coeffs
    assert (_lattice_vertex(coeffs) < 120) == inside
    window = intensity.default_grid(coeffs, points=801)[280:521]
    want = _mpmath_aggregate_visibility(coeffs, window)
    assert intensity.aggregate_visibility(coeffs, config) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    ("config", "lo", "hi"),
    [(RUBIDIUM, 90e-9, 360e-9), (SHORT_FLIGHT, 5.05e-7, 5.15e-7)],
    ids=["vertex-inside", "vertex-clipped"],
)
def test_half_lattice_equals_the_full_window(monkeypatch, config, lo, hi):
    # the profile is even in k, so k >= 0 holds the extremes of k = -120 .. 120 to the last bit
    config = dataclasses.replace(config, d=np.linspace(lo, hi, 50))
    coeffs = intensity.loop_coefficients(config)
    half = intensity.aggregate_visibility(coeffs, config)
    k = np.arange(-120.0, 121.0)
    monkeypatch.setattr(intensity, "_LATTICE_K", k)
    monkeypatch.setattr(intensity, "_LATTICE_COS", np.cos(np.pi / 40.0 * k))
    assert half.tolist() == intensity.aggregate_visibility(coeffs, config).tolist()


def test_degenerate_lattice_row_is_named():
    # C1 h^2 underflows to 0 while C2 h is 0: the vertex b/2a is 0/0
    values = np.array([1e-7, 2e-7, 3e-7])
    config = dataclasses.replace(RUBIDIUM, d=values)
    coeffs = intensity.loop_coefficients(config)
    c1, c2 = coeffs.c1.copy(), coeffs.c2.copy()
    c1[1], c2[1] = 1e-322 * coeffs.gamma[1] ** 2, 0.0
    assert 2.0 * c1[1] * (np.pi / abs(coeffs.gamma[1]) / 80.0) ** 2 == 0.0
    block = dataclasses.replace(coeffs, c1=c1, c2=c2)
    with pytest.raises(intensity.ProfileError, match=r"no finite peak shift of the visibility window at d = 2e-07"):
        intensity.aggregate_visibility(block, config)
    gamma = coeffs.gamma.copy()
    gamma[2] = 0.0
    with pytest.raises(intensity.ProfileError, match=r"gamma vanishes at d = 3e-07"):
        intensity.aggregate_visibility(dataclasses.replace(coeffs, gamma=gamma), config)


def test_degenerate_row_in_a_later_chunk_writes_no_row(tmp_path, monkeypatch, capsys):
    # never a NaN row: the chunk that holds the degenerate value fails by name, and --out leaves no file
    original = intensity.loop_coefficients

    def degenerate(config):
        coeffs = original(config)
        c1, c2 = coeffs.c1.copy(), coeffs.c2.copy()
        c1[SWEEP_CHUNK + 3], c2[SWEEP_CHUNK + 3] = 0.0, 0.0
        return dataclasses.replace(coeffs, c1=c1, c2=c2)

    monkeypatch.setattr(intensity, "loop_coefficients", degenerate)
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT)
    steps = 2 * SWEEP_CHUNK + 1
    argv = ["sweep", "--config", str(config), "--parameter", "d", "--range", "90e-9", "360e-9", "--steps", str(steps)]
    assert main(argv + ["--out", str(tmp_path / "sweep.csv")]) == 2
    value = np.linspace(90e-9, 360e-9, steps)[SWEEP_CHUNK + 3].item()
    assert f"no finite peak shift of the visibility window at d = {value!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_a_row_whose_gamma_vanishes_in_a_later_chunk_is_named(tmp_path, monkeypatch, capsys, out):
    # the fringe spacing pi/|gamma| is taken after the visibility, which names the row by its swept value
    original = intensity.loop_coefficients
    row = SWEEP_CHUNK + 3

    def vanishing(config):
        coeffs = original(config)
        gamma = coeffs.gamma.copy()
        gamma[row] = 0.0
        return dataclasses.replace(coeffs, gamma=gamma)

    monkeypatch.setattr(intensity, "loop_coefficients", vanishing)
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT)
    steps = 2 * SWEEP_CHUNK + 1
    argv = ["sweep", "--config", str(config), "--parameter", "d", "--range", "90e-9", "360e-9", "--steps", str(steps)]
    assert main(argv + (["--out", str(tmp_path / "sweep.csv")] if out else [])) == 2
    captured = capsys.readouterr()
    value = np.linspace(90e-9, 360e-9, steps)[row].item()
    assert f"error: gamma vanishes at d = {value!r}" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [config]


# the verify box of perfbench's in_verify_box: t and tau log-uniform in [1e-9, 1e-2] s, d, sigma0 and beta over
# one decade either side of Rubidium
VERIFY_BOX = {"t": (1e-9, 1e-2), "tau": (1e-9, 1e-2)} | {
    name: (getattr(RUBIDIUM, name) / 10.0, getattr(RUBIDIUM, name) * 10.0) for name in ("d", "sigma0", "beta")
}


def _in_verify_box(name, u):
    """The value a fraction ``u`` of the way across the box's ``name`` range, log-uniformly."""
    lo, hi = VERIFY_BOX[name]
    return lo * (hi / lo) ** u


def _mpmath_lattice_visibility(c1, c2, gamma):
    """aggregate_visibility of |ψ12 + ψ21|^2 on the lattice x = k pi/|gamma|/80, k = 0 .. 120, from ψ12's
    c1, c2 and gamma in 50-digit arithmetic; its amplitude and c3 scale every value alike."""
    with mpmath.workdps(50):
        c1, c2, gamma = map(mpmath.mpf, (c1, c2, gamma))
        values = []
        for k in range(121):
            x = k * mpmath.pi / abs(gamma) / 80
            diag = mpmath.exp(2 * c2 * x) + mpmath.exp(-2 * c2 * x)
            values.append(mpmath.exp(-2 * c1 * x * x) * (diag + 2 * mpmath.cos(2 * gamma * x)))
        hi, lo = max(values), min(values)
        return float((hi - lo) / (hi + lo))


@settings(max_examples=40, deadline=None)
@given(
    parameter=st.sampled_from(SWEEP_PARAMETERS),
    place=st.fixed_dictionaries({name: st.floats(0.0, 1.0) for name in VERIFY_BOX}),
    swept=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_every_swept_row_of_the_verify_box_matches_mpmath(parameter, place, swept):
    # each row in [0, 1] and within 1e-13 of the 50-digit lattice, or the block refused by a swept value's name
    values = [_in_verify_box(parameter, u) for u in swept]
    place = {name: _in_verify_box(name, u) for name, u in place.items()}
    config = dataclasses.replace(RUBIDIUM, **place | {parameter: np.array(values)})
    coeffs = intensity.loop_coefficients(config)
    try:
        rows = intensity.aggregate_visibility(coeffs, config)
    except intensity.ProfileError as exc:
        assert any(f" at {parameter} = {value!r}" in str(exc) for value in values), exc
        return
    assert np.all((0.0 <= rows) & (rows <= 1.0))
    for row, c1, c2, gamma in zip(rows.tolist(), coeffs.c1, coeffs.c2, coeffs.gamma):
        assert row == pytest.approx(_mpmath_lattice_visibility(c1, c2, gamma), rel=1e-13, abs=0)


@pytest.mark.parametrize("parameter", ["d", "t"])
def test_rows_at_chain_block_boundaries_are_one_step_sweeps(tmp_path, capsys, parameter):
    # SWEEP_CHAIN rows per loop-12 chain: two boundaries, each row beside them the row a one-step sweep writes
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT)
    base = getattr(RUBIDIUM, parameter)
    argv = ["sweep", "--config", str(config), "--parameter", parameter]
    assert main(argv + ["--range", repr(base / 3), repr(base * 3), "--steps", str(2 * cli.SWEEP_CHAIN + 1)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * cli.SWEEP_CHAIN + 2
    boundaries = (cli.SWEEP_CHAIN, 2 * cli.SWEEP_CHAIN)  # the first row of each later block; the second is the last row
    for row in sorted({0, 1} | {b + j for b in boundaries for j in (-2, -1, 0, 1) if b + j < len(lines) - 1}):
        value = lines[1 + row].split(",")[0]
        assert main(argv + ["--range", value, value, "--steps", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == lines[1 + row]


def test_a_window_failure_in_an_earlier_chain_block_is_named_before_a_later_chain_failure(tmp_path, capsys):
    # at beta = 1e75 m the window has no finite peak shift at d = 1e-8 m, the first row, and the chain degenerates
    # at the last, 2.682e154 m, alone in the second chain block: the first block's error is the one named
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT.replace("beta_m = 10e-9", "beta_m = 1e75"))
    steps = cli.SWEEP_CHAIN + 1
    values = np.linspace(1e-8, 2.682e154, steps)
    wide = dataclasses.replace(RUBIDIUM, beta=1e75)
    intensity.loop_coefficients(dataclasses.replace(wide, d=values[:-1]))  # the first block's chain holds
    with pytest.raises(gaussians.DegenerateChainError, match=r"non-normalizable Gaussian form at d = 2\.682e\+154"):
        intensity.loop_coefficients(dataclasses.replace(wide, d=values[-1:]))
    argv = ["sweep", "--config", str(config), "--parameter", "d", "--range", "1e-8", "2.682e154", "--steps", str(steps)]
    for out in ([], ["--out", str(tmp_path / "sweep.csv")]):
        assert main(argv + out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: no finite peak shift of the visibility window at d = 1e-08: " in captured.err
        assert "non-normalizable" not in captured.err
        assert list(tmp_path.iterdir()) == [config]


def test_a_sweep_derives_its_swept_values_once(monkeypatch):
    # the regime warnings and the epsilon_s column read one derive of the whole swept range; every other
    # derive is the loop-12 chain's own, one per chain
    chains = _count_calls(monkeypatch, gaussians, "chain")
    derives = _count_calls(monkeypatch, params, "derive")
    steps = 2 * cli.SWEEP_CHAIN + 1
    assert len(_sweep_rows(RUBIDIUM, "t", 2e-6, 2e-4, steps)) == steps
    assert [len(centres) for centres, _ in chains] == [3, 3, 3]
    assert len(derives) == 1 + len(chains)
