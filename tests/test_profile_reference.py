"""Every branch profile against a 50-digit transcription of the path-1 and loop-12 chains."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eltsim import intensity
from eltsim.cli import BRANCHES, branch_profile
from eltsim.params import rubidium_config
from references import mp_branch_profiles

POINTS = 201  # an odd default grid: its centre point is x = 0

# configs of the 400-config verify-box sample, random.Random(5) drawn through perfbench's in_verify_box
SAMPLE = {
    # |ψ|^2 of every path underflows on the default grid
    5: dict(sigma0=2.623691479952065e-09, beta=2.6975054975252737e-09, d=9.95593367071614e-07,
            t=7.707164487265234e-09, tau=1.0290205204153978e-09),
    # the antifringe node at x = 0, the next point of the default grid e^74 lower
    118: dict(sigma0=5.1796064698065504e-09, beta=5.243198507275481e-08, d=3.277245039683321e-08,
              t=1.5570622158464736e-09, tau=2.2615905698957725e-09),
    # the envelope's maximum on that node, the next point e^5171 lower: shifted by the envelope, all is 0
    166: dict(sigma0=9.018081945866331e-09, beta=9.317145936834427e-08, d=2.800995847836067e-08,
              t=3.2630945670446314e-09, tau=7.893715299633308e-08),
    # the antifringes lay 3.6e-10 of their peak off with a complex exp per path
    195: dict(sigma0=3.560297389550022e-09, beta=3.69303146890411e-08, d=6.051689445169448e-08,
              t=1.0151174590854649e-08, tau=0.005925038419400073),
}


def _profiles_match_the_reference(config):
    """Every peak-normalized branch profile is finite, >= 0, peaks at exactly 1 and lies within 1e-10
    of its peak from the 50-digit chains; returns the profiles."""
    coeffs = intensity.loop_coefficients(config)
    grid = intensity.default_grid(coeffs, POINTS)
    reference = mp_branch_profiles(config, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profiles = {branch: branch_profile(branch, grid, config, coeffs, "peak").values for branch in BRANCHES}
    for branch, values in profiles.items():
        assert np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() == 1.0, branch
        assert np.max(np.abs(values - reference[branch])) <= 1e-10, branch
    assert grid[POINTS // 2] == 0.0  # the default grid is symmetric bit for bit
    return profiles


@pytest.mark.parametrize("number", sorted(SAMPLE))
def test_a_sample_config_matches_the_reference(number):
    profiles = _profiles_match_the_reference(rubidium_config(**SAMPLE[number]))
    if number in (118, 166):
        assert profiles["antifringes"][POINTS // 2] == 0.0


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(-9.0, -2.0),
    tau=st.floats(-9.0, -2.0),
    d=st.floats(-1.0, 1.0),
    sigma0=st.floats(-1.0, 1.0),
    beta=st.floats(-1.0, 1.0),
)
def test_every_branch_in_the_verify_box_matches_the_reference(t, tau, d, sigma0, beta):
    # the verify box: t and tau in [1e-9, 1e-2] s, d, sigma0 and beta two decades around Rubidium's
    _profiles_match_the_reference(rubidium_config(
        t=10.0**t, tau=10.0**tau, d=180e-9 * 10.0**d, sigma0=10e-9 * 10.0**sigma0, beta=10e-9 * 10.0**beta,
    ))
