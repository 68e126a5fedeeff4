"""Branch profiles take all four path amplitudes from the propagator chain."""

import dataclasses

import numpy as np
import pytest

from eltsim import closedform, gaussians, intensity, marking
from eltsim.cli import BRANCHES, branch_profile
from eltsim.params import rubidium_config

CONFIGS = {
    "rubidium": rubidium_config(),
    "short flights": rubidium_config(t=1e-7, tau=1e-7),
    "complex amplitudes": rubidium_config(amp_nonexotic=0.6 - 0.8j, amp_exotic=0.03 + 0.04j),
}


def _profiles(config, normalization):
    solution = closedform.solve(config)
    grid = intensity.default_grid(solution.coeffs, points=401)
    return {
        branch: branch_profile(branch, grid, config, solution, normalization)
        for branch in BRANCHES
        if branch != "elt"
    }


def test_path_evaluators_solve_nothing(monkeypatch, config):
    calls = []
    real = closedform.build_coefficients
    monkeypatch.setattr(closedform, "build_coefficients", lambda *a: calls.append(a) or real(*a))
    evaluators = intensity.path_evaluators(config)
    assert sorted(evaluators) == ["1", "12", "2", "21"]
    assert calls == []


@pytest.mark.parametrize("normalization", ["raw", "peak"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_profiles_do_not_see_the_sign_of_the_loop_weight(name, normalization):
    config = CONFIGS[name]
    negated = dataclasses.replace(config, amp_exotic=-config.amp_exotic)
    flipped = _profiles(negated, normalization)
    for branch, profile in _profiles(config, normalization).items():
        assert np.array_equal(profile.grid, flipped[branch].grid), branch
        assert np.array_equal(profile.values, flipped[branch].values), branch
        assert np.array_equal(profile.visibility, flipped[branch].visibility), branch


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_full_profile_matches_the_closed_form_loops(name):
    config = CONFIGS[name]
    solution = closedform.solve(config)
    coeffs = solution.coeffs
    grid = intensity.default_grid(coeffs, points=2001)
    closed = {
        "1": gaussians.chain_nonexotic(1, config).evaluate,
        "2": gaussians.chain_nonexotic(2, config).evaluate,
        "12": lambda x: closedform.CHAIN_SIGN * closedform.psi12(x, coeffs),
        "21": lambda x: closedform.CHAIN_SIGN * closedform.psi21(x, coeffs),
    }
    state = marking.post_slit_state(config)
    chain = branch_profile("full", grid, config, solution, "raw")
    reference = intensity.branch_intensity(state, grid, config, "raw", closed, label="full")
    scale = np.max(reference.values)
    assert np.max(np.abs(chain.values - reference.values)) <= 1e-12 * scale
