"""The batched sweep: every row equals the one-configuration path."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eltsim import closedform, intensity
from eltsim.cli import SWEEP_CHUNK, SWEEP_PARAMETERS, build_parser, cmd_sweep, main
from eltsim.closedform import DegenerateConfigError
from eltsim.params import rubidium_config

RUBIDIUM = rubidium_config()


def _sweep_rows(config, parameter, lo, hi, steps):
    args = build_parser().parse_args(
        ["sweep", "--config", "unused.cfg", "--parameter", parameter, "--range", repr(lo), repr(hi), "--steps", str(steps)]
    )
    code, text, _, _ = cmd_sweep(args, config)
    assert code == 0
    return np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])


def _one_configuration(config, parameter, value):
    """The sweep row of one configuration, solved and scored on its own."""
    solution = closedform.solve(dataclasses.replace(config, **{parameter: value}))
    coeffs = solution.coeffs
    spacing = intensity.fringe_spacing(coeffs)
    profile = intensity.elt_intensity(intensity.default_grid(coeffs, points=801), coeffs, "peak")
    agg = intensity.aggregate_visibility(profile, spacing)
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


def test_swept_value_that_trips_a_guard_is_named(tmp_path, capsys):
    # at tau = 5e299 the envelope curvature C1 underflows to 0
    with pytest.raises(DegenerateConfigError, match=r"non-normalizable closed form at tau = 5e\+299"):
        closedform.solve(dataclasses.replace(RUBIDIUM, tau=np.array([1e-5, 5e299, 1e300])))
    config = tmp_path / "run.cfg"
    config.write_text("mass_kg = 1.44e-25\nsigma0_m = 10e-9\nbeta_m = 10e-9\nd_m = 180e-9\nt_s = 20e-6\ntau_s = 20e-6\n")
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--parameter", "tau", "--range", "1e-5", "1e300", "--steps", "3"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "non-normalizable Gaussian form at tau = 5e+299: a=" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_sweep_evaluates_only_the_central_window(monkeypatch):
    # the work contract: 241 points per row, the positions of points 280-520 of the 801-point
    # default grid, which is every point aggregate_visibility reads there
    calls = []
    original = intensity.elt_intensity

    def recording(grid, coeffs, *args, **kwargs):
        calls.append((grid, coeffs))
        return original(grid, coeffs, *args, **kwargs)

    monkeypatch.setattr(intensity, "elt_intensity", recording)
    rows = _sweep_rows(RUBIDIUM, "d", 90e-9, 360e-9, SWEEP_CHUNK + 1)
    assert len(calls) == 2 and sum(len(grid) for grid, _ in calls) == len(rows)
    for grid, coeffs in calls:
        assert grid.shape[-1] == 241
        full = intensity.default_grid(coeffs, points=801)[:, 280:521]
        scale = np.max(np.abs(full), axis=-1)
        assert np.all(np.max(np.abs(grid - full), axis=-1) <= 1e-15 * scale)


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
