"""A profile even bit for bit, on a symmetric grid of a slit-exchange invariant density, is evaluated on its
x >= 0 half and written from the text of its x < 0 half: the same values and bytes as every point alone."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eltsim import cli, intensity, marking
from eltsim.cli import BRANCHES, PROFILE_BLOCK, branch_profile, profile_csv
from eltsim.params import rubidium_config


def _halves(grid):
    m = grid.size // 2
    return grid[:m], grid[m:]


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(-9.0, -2.0),
    tau=st.floats(-9.0, -2.0),
    d=st.floats(-1.0, 1.0),
    sigma0=st.floats(-1.0, 1.0),
    beta=st.floats(-1.0, 1.0),
)
def test_a_mirrored_profile_is_its_points_evaluated_alone(t, tau, d, sigma0, beta):
    # the verify box; x < 0 alone is not a symmetric grid, so every one of its points is evaluated
    config = rubidium_config(
        t=10.0**t, tau=10.0**tau, d=180e-9 * 10.0**d, sigma0=10e-9 * 10.0**sigma0, beta=10e-9 * 10.0**beta,
    )
    coeffs = intensity.loop_coefficients(config)
    for points in (201, 200):
        grid = intensity.default_grid(coeffs, points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for branch in BRANCHES:
                whole = branch_profile(branch, grid, config, coeffs, "raw")
                alone = [branch_profile(branch, half, config, coeffs, "raw") for half in _halves(grid)]
                assert np.array_equal(whole.values, np.concatenate([p.values for p in alone])), (branch, points)
                assert np.array_equal(whole.visibility, np.concatenate([p.visibility for p in alone])), (branch, points)


def test_a_density_with_unequal_path_weights_is_not_mirrored(config):
    density = marking.CenterOfMassDensity({("1", "1"): 1.0, ("2", "2"): 0.25})
    grid = intensity.default_grid(intensity.loop_coefficients(config), 201)
    whole = intensity.branch_intensity(density, grid, config, "raw")
    assert not np.array_equal(whole.values, whole.values[::-1])
    alone = [intensity.branch_intensity(density, half, config, "raw") for half in _halves(grid)]
    assert np.array_equal(whole.values, np.concatenate([p.values for p in alone]))
    assert np.array_equal(whole.visibility, np.concatenate([p.visibility for p in alone]))


@pytest.mark.parametrize("points", [2001, 2000])
def test_an_area_normalized_mirrored_profile_integrates_to_one(config, points):
    grid = intensity.default_grid(intensity.loop_coefficients(config), points)
    profile = branch_profile("full", grid, config, intensity.loop_coefficients(config), "area")
    assert np.array_equal(profile.values, profile.values[::-1])
    assert np.trapezoid(profile.values, grid) == pytest.approx(1.0, rel=1e-14)


def _even_profile(n: int, seed: int, visibility=True) -> intensity.IntensityProfile:
    """A hand-built profile even bit for bit on n points, x = 0 at the centre of an odd n."""
    rng = np.random.default_rng(seed)
    m = n // 2
    x = np.cumsum(rng.uniform(0.5, 1.5, n - m)) * 1e-9
    if n % 2:
        x -= x[0]
    values, vis = rng.uniform(0.0, 1.0, (2, n - m))
    grid, values, vis = (np.concatenate([sign * half[::-1][:m], half]) for sign, half in ((-1.0, x), (1.0, values), (1.0, vis)))
    return intensity.IntensityProfile(grid, values, "hand", "raw", visibility=vis if visibility else None)


def _rowwise(profile: intensity.IntensityProfile) -> str:
    vis = np.broadcast_to(0.0 if profile.visibility is None else profile.visibility, profile.grid.shape)
    rows = ["%.16e,%.16e,%.16e" % row for row in zip(profile.grid.tolist(), profile.values.tolist(), vis.tolist())]
    return "\n".join(["x_m,intensity,visibility_pointwise", *rows]) + "\n"


class _CountingFormat(str):
    """``cli._FMT`` that counts the numbers formatted by Python's ``%``."""

    calls = 0

    def __mod__(self, value):
        self.calls += 1
        return str.__mod__(self, value)


@pytest.fixture()
def percent(monkeypatch):
    fmt = _CountingFormat(cli._FMT)
    monkeypatch.setattr(cli, "_FMT", fmt)
    return fmt


@pytest.mark.parametrize("visibility", [True, False], ids=["visibility", "none"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_short_even_profile_is_the_row_wise_text(n, visibility):
    profile = _even_profile(n, n, visibility)
    assert "".join(profile_csv(profile)) == _rowwise(profile)


@pytest.mark.parametrize("n", [2 * (2 * PROFILE_BLOCK + 5) + 1, 2 * (2 * PROFILE_BLOCK + 5)], ids=["odd", "even"])
def test_an_even_profile_of_several_blocks_is_the_row_wise_text(n, percent):
    # x < 0 is three blocks, the last of 5 rows; x > 0 is their mirrors in reverse, after an odd n's centre row
    blocks = list(profile_csv(_even_profile(n, 7)))
    centre = [1] if n % 2 else []
    assert [b.count("\n") for b in blocks] == [1, PROFILE_BLOCK, PROFILE_BLOCK, 5, *centre, 5, PROFILE_BLOCK, PROFILE_BLOCK]
    assert "".join(blocks) == _rowwise(_even_profile(n, 7))
    assert percent.calls == 0


def test_a_tie_sends_a_block_and_its_mirror_to_percent(percent):
    profile = _even_profile(2 * (2 * PROFILE_BLOCK + 5) + 1, 8)
    n = profile.grid.size
    j = PROFILE_BLOCK + 17  # in the second block of x < 0
    profile.values[[j, n - 1 - j]] = 1000000000000000.25  # 18 significant digits, the last a 5: an exact tie
    assert "".join(profile_csv(profile)) == _rowwise(profile)
    assert percent.calls == 2 * PROFILE_BLOCK * 3  # that block and its mirror, whole


def test_a_three_digit_exponent_compacts_a_block_and_its_mirror(monkeypatch, percent):
    compacted = []
    text = cli._text
    monkeypatch.setattr(cli, "_text", lambda buf, compact: compacted.append(compact) or text(buf, compact))
    profile = _even_profile(2 * (2 * PROFILE_BLOCK + 5) + 1, 9)
    n = profile.grid.size
    profile.values[[3, n - 4]] = 1.5e-120  # two- and three-digit exponents in the first block's intensity column
    assert "".join(profile_csv(profile)) == _rowwise(profile)
    assert compacted == [True, False, False, False, False, False, True]
    assert percent.calls == 0


def test_an_uneven_profile_keeps_its_blocks():
    profile = _even_profile(2 * (2 * PROFILE_BLOCK + 5) + 1, 10)
    profile.values[-1] = np.nextafter(profile.values[-1], 2.0)
    blocks = list(profile_csv(profile))
    assert [b.count("\n") for b in blocks] == [1, PROFILE_BLOCK, PROFILE_BLOCK, PROFILE_BLOCK, PROFILE_BLOCK, 11]
    assert "".join(blocks) == _rowwise(profile)


def test_an_even_profile_with_a_signed_zero_is_not_mirrored():
    # -0.0 == 0.0, but its text has a sign: the halves are compared bit for bit
    profile = _even_profile(2 * PROFILE_BLOCK + 1, 11)
    profile.values[[5, -6]] = -0.0, 0.0
    assert "".join(profile_csv(profile)) == _rowwise(profile)
