"""verify checks the record every command writes from: ψ12's coefficients off the loop-12 chain,
``intensity.loop_coefficients``, evaluated by the closed form's own ``psi12``/``psi21``."""

import dataclasses
import warnings

import pytest

from eltsim import closedform, gaussians, intensity, verification
from eltsim.cli import main
from eltsim.params import rubidium_config

WAVEFUNCTION_RECORDS = ["closed-vs-chain/loop12", "closed-vs-chain/loop21", "chain-vs-quadrature/loop12"]


def test_a_wrong_loop_record_fails_every_wavefunction_check(config, monkeypatch):
    # a μ off by 1e-3 rad in the record the profiles and sweeps are written from; the closed form is right
    read = intensity.loop_coefficients

    def shifted(cfg):
        coeffs = read(cfg)
        return dataclasses.replace(coeffs, mu=coeffs.mu + 1e-3)

    monkeypatch.setattr(intensity, "loop_coefficients", shifted)
    report = verification.full_verification(closedform.solve(config))
    assert [record.name for record in report.records if not record.passed] == WAVEFUNCTION_RECORDS, report.render()
    for record in report.records[-3:]:
        assert record.deviation == pytest.approx(1e-3, rel=1e-3)


def test_a_long_second_flight_passes_where_the_two_records_agree(tmp_path, capsys):
    # at tau = 1e4 s, alpha x^2 reaches 3.5e10 rad at the grid edge: two evaluators of one Gaussian round
    # that phase apart by some 1e-6, but the closed form and the chain's record agree coefficient by coefficient
    config = rubidium_config(tau=1e4)
    closed, chain = closedform.solve(config).coeffs, intensity.loop_coefficients(config)
    for name, value in vars(chain).items():
        assert getattr(closed, name) == pytest.approx(value, rel=1e-12, abs=0), name
    path = tmp_path / "tau.cfg"
    path.write_text("mass_kg = 1.44e-25\nsigma0_m = 10e-9\nbeta_m = 10e-9\nd_m = 180e-9\nt_s = 20e-6\ntau_s = 1e4\n")
    assert main(["verify", "--config", str(path)]) == 0, capsys.readouterr().out



def _count_chains(monkeypatch):
    """Record the number of slits of every path ``gaussians.chain`` builds from here on: 3 for a loop."""
    built, chain = [], gaussians.chain

    def counting(centres, cfg):
        built.append(len(centres))
        return chain(centres, cfg)

    monkeypatch.setattr(gaussians, "chain", counting)
    return built


@pytest.mark.parametrize("quadrature", [True, False], ids=["quadrature", "skip-quadrature"])
def test_full_verification_builds_the_loop_chain_once(config, monkeypatch, quadrature):
    solution = closedform.solve(config)
    built = _count_chains(monkeypatch)
    report = verification.full_verification(solution, quadrature=quadrature)
    assert report.passed, report.render()
    assert built == [3]
    names = [record.name for record in report.records]
    assert names[-3:] == WAVEFUNCTION_RECORDS if quadrature else names[-2:] == WAVEFUNCTION_RECORDS[:2]


def test_each_wavefunction_check_called_alone_builds_its_own_record(config, monkeypatch):
    solution = closedform.solve(config)
    built = _count_chains(monkeypatch)
    assert verification.closed_vs_chain(solution).passed
    assert verification.chain_vs_quadrature(solution).passed
    assert built == [3, 3]


def test_chain_vs_quadrature_alone_names_a_fringe_spacing_past_the_float_range_without_a_warning():
    # at beta = 1e152, pi/|gamma| overflows: the quadrature grid is refused by gamma, as closed_vs_chain refuses its own
    solution = closedform.solve(rubidium_config(beta=1e152))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(intensity.ProfileError, match=r"^gamma = .* is too small: .* leaves the float range$"):
            verification.closed_vs_chain(solution)
        with pytest.raises(intensity.ProfileError, match=rf"^gamma = {solution.coeffs.gamma!r} is too small: "):
            verification.chain_vs_quadrature(solution)
