"""intensity and sweep read the looped paths off the propagator chain, which carries eta."""

import dataclasses

import numpy as np
import pytest

from eltsim import closedform, gaussians, intensity, verification
from eltsim.cli import main
from eltsim.params import rubidium_config

CONFIG_TEXT = """\
mass_kg = 1.44e-25
sigma0_m = 10e-9
beta_m = 10e-9
d_m = 180e-9
t_s = 20e-6
tau_s = 20e-6
eta_s = 1e-9
"""
ETA = rubidium_config(eta=1e-9)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "eta.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def _body(path):
    return np.array([[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]])


def test_elt_profile_is_the_peak_normalized_chain_sum(config_path, tmp_path):
    out = tmp_path / "elt.csv"
    assert main(["intensity", "--config", config_path, "--branch", "elt", "--grid-points", "801", "--out", str(out)]) == 0
    body = _body(out)
    x = body[:, 0]
    chain = np.abs(gaussians.chain_exotic("12", ETA).evaluate(x) + gaussians.chain_exotic("21", ETA).evaluate(x)) ** 2
    assert np.max(np.abs(body[:, 1] - chain / chain.max())) <= 1e-12
    # eta moves the pattern: the eta = 0 profile on the same grid is not the same
    still = rubidium_config()
    plain = np.abs(gaussians.chain_exotic("12", still).evaluate(x) + gaussians.chain_exotic("21", still).evaluate(x)) ** 2
    assert np.max(np.abs(body[:, 1] - plain / plain.max())) > 1e-6


def test_sweep_gamma_is_im_b_of_the_eta_chain(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", config_path, "--parameter", "d", "--range", "90e-9", "360e-9", "--steps", "40"]
    assert main(argv + ["--out", str(out)]) == 0
    for d, gamma in _body(out)[:, [0, 2]]:
        want = gaussians.chain_exotic("12", dataclasses.replace(ETA, d=float(d))).b.imag
        assert gamma == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("eta", [1e-9, 1e-7, 1e-6])
def test_chain_matches_quadrature_at_nonzero_eta(eta):
    config = rubidium_config(eta=eta)
    report = verification.chain_vs_quadrature(closedform.solve(config))
    assert report.passed, report.render()
    # the loop coefficients the hot path reads come off that same chain
    assert intensity.loop_coefficients(config).gamma == gaussians.chain_exotic("12", config).b.imag
