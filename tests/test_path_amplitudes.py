"""Branch profiles take all four path amplitudes from the propagator chain: path 1, loop 12 and their mirrors."""

import dataclasses

import numpy as np
import pytest

from eltsim import closedform, gaussians, intensity
from eltsim.cli import BRANCHES, branch_profile, main
from eltsim.params import rubidium_config
from references import born_double_slit
from test_sweep import _count_calls

CONFIGS = {
    "rubidium": rubidium_config(),
    "short flights": rubidium_config(t=1e-7, tau=1e-7),
    "complex amplitudes": rubidium_config(amp_nonexotic=0.6 - 0.8j, amp_exotic=0.03 + 0.04j),
}


def _profiles(config, normalization):
    coeffs = intensity.loop_coefficients(config)
    grid = intensity.default_grid(coeffs, points=401)
    return {
        branch: branch_profile(branch, grid, config, coeffs, normalization)
        for branch in BRANCHES
        if branch != "elt"
    }


@pytest.mark.parametrize("branch", BRANCHES)
def test_an_intensity_command_builds_each_chain_once_and_solves_nothing(tmp_path, monkeypatch, branch):
    # the loop chain once, for the grid and the loop block; the path-1 chain only for a straight block
    path = tmp_path / "run.cfg"
    path.write_text("mass_kg = 1.44e-25\nsigma0_m = 10e-9\nbeta_m = 10e-9\nd_m = 180e-9\nt_s = 20e-6\ntau_s = 20e-6\n"
                    "eta_s = 3e-7\namp_nonexotic_re = 1.0\namp_exotic_re = 0.05\n")
    straight = _count_calls(monkeypatch, gaussians, "chain_nonexotic")
    looped = _count_calls(monkeypatch, gaussians, "chain_exotic")
    solves = _count_calls(monkeypatch, closedform, "build_coefficients")
    assert main(["intensity", "--config", str(path), "--branch", branch, "--grid-points", "11"]) == 0
    assert (len(looped), len(straight), len(solves)) == (1, 0 if branch == "elt" else 1, 0)


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
    # |a|^2 (|ψ1|^2 + |ψ2|^2) + |a_loop|^2 |ψ12 + ψ21|^2 over the state's norm, with the closed-form loops
    config = CONFIGS[name]
    coeffs = closedform.solve(config).coeffs
    grid = intensity.default_grid(coeffs, points=2001)
    straight = abs(config.amp_nonexotic) ** 2
    looped = abs(config.amp_exotic) ** 2
    reference = (
        straight * born_double_slit(gaussians.chain_nonexotic(1, config).evaluate(grid), 0.0)
        + straight * born_double_slit(gaussians.chain_nonexotic(2, config).evaluate(grid), 0.0)
        + looped * born_double_slit(closedform.psi12(grid, coeffs), closedform.psi21(grid, coeffs))
    ) / (2.0 * (straight + looped))
    chain = branch_profile("full", grid, config, intensity.loop_coefficients(config), "raw")
    scale = np.max(reference)
    assert np.max(np.abs(chain.values - reference)) <= 1e-12 * scale
