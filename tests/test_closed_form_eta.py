"""The closed form at eta != 0: each loop segment spans epsilon + eta, as in the chain and the oracle."""

import dataclasses
import json

import pytest

from eltsim import closedform, intensity
from eltsim.cli import main
from eltsim.params import derive, rubidium_config

ETAS = [1e-9, 3e-6, 1e-4]
CONFIG_TEXT = """\
mass_kg = 1.44e-25
sigma0_m = 10e-9
beta_m = 10e-9
d_m = 180e-9
t_s = 20e-6
tau_s = 20e-6
"""


@pytest.mark.parametrize("eta", ETAS)
def test_every_closed_form_coefficient_is_the_chains(eta):
    # C3 is the worst, from 8.4e-14 relative at 1e-9 s to 2.8e-12 at 1e-4 s; at epsilon alone A, C3, theta and mu
    # were off the chain by far more than that
    config = rubidium_config(eta=eta)
    solution = closedform.solve(config)
    chain = intensity.loop_coefficients(config)
    for name, value in vars(chain).items():
        assert getattr(solution.coeffs, name) == pytest.approx(value, rel=1e-11, abs=0), name
    assert solution.derived == derive(config)  # the manifest's epsilon_s is epsilon itself
    still = closedform.solve(dataclasses.replace(config, eta=0.0)).coeffs
    assert abs(still.c3 - chain.c3) > 1e-9 * abs(chain.c3)


@pytest.mark.parametrize("eta", ETAS)
def test_verify_with_quadrature_passes_at_nonzero_eta(eta, tmp_path, capsys):
    cfg = tmp_path / "eta.cfg"
    cfg.write_text(CONFIG_TEXT + f"eta_s = {eta!r}\n")
    out = tmp_path / "verify.txt"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = out.read_text()
    assert "[ok  ] closed-vs-chain/loop12" in report and "[ok  ] chain-vs-quadrature/loop12" in report
    assert "verification PASSED" in report
    manifest = json.loads((tmp_path / "verify.txt.manifest.json").read_text())
    config = rubidium_config(eta=eta)
    assert manifest["derived"]["epsilon_s"] == derive(config).epsilon
    assert manifest["coefficients"]["c3"] == pytest.approx(intensity.loop_coefficients(config).c3, rel=1e-11, abs=0)
