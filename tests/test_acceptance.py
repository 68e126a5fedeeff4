"""Acceptance gate: the eight headline requirements, one printed line each.

Each test prints exactly one `ACCEPTANCE n <name>: PASS` line after all of
its assertions hold; a failure surfaces as a normal pytest failure instead.
"""

import math
import sys

import numpy as np
import pytest

import references
from eltsim import closedform, gaussians, intensity, marking, verification
from eltsim.marking import BasisLabel, CompositeState, bell_project
from eltsim.params import derive, rubidium_config


def _report(number: int, name: str):
    print(f"ACCEPTANCE {number} {name}: PASS", file=sys.stderr)


@pytest.fixture(scope="module")
def config():
    return rubidium_config()


@pytest.fixture(scope="module")
def coeffs(config):
    derived = derive(config)
    zt = closedform.build_ztable(config, derived)
    return closedform.build_coefficients(zt, config, derived)


def test_acceptance_1_interslit_time(config):
    derived = derive(config)
    assert derived.epsilon == pytest.approx(3.5e-6, rel=0.03)
    _report(1, "inter-slit traversal time 3.5 us within 3%")


def test_acceptance_2_oracle_equivalence(config):
    solution = closedform.solve(config)
    report = verification.closed_vs_chain(solution, points=101)
    assert report.passed, report.render()
    assert {r.name for r in report.records} == {"closed-vs-chain/loop12", "closed-vs-chain/loop21"}
    assert {r.tolerance for r in report.records} == {1e-6}
    quad = verification.chain_vs_quadrature(solution)
    assert quad.passed, quad.render()
    assert {r.tolerance for r in quad.records} == {1e-5}
    terms = verification.coefficient_terms(solution)
    assert terms.passed, terms.render()
    _report(2, "closed form vs chain (1e-6) and chain vs quadrature (1e-5)")


def test_acceptance_3_looped_trajectory_pattern(config, coeffs):
    grid = intensity.default_grid(coeffs)
    profile = intensity.elt_intensity(grid, coeffs, "peak")
    values = profile.values
    center = np.argmin(np.abs(grid))
    assert grid[center] == 0.0
    assert values[center] == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(values)) == center
    assert np.max(np.abs(values - values[::-1])) < 1e-12
    interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    maxima = grid[1:-1][interior]
    spacing = math.pi / abs(coeffs.gamma)
    assert np.count_nonzero(maxima > spacing / 2) >= 3
    assert np.count_nonzero(maxima < -spacing / 2) >= 3
    central = np.sort(maxima[np.abs(maxima) < 2.5 * spacing])
    assert np.all(np.abs(np.diff(central) - spacing) < 0.02 * spacing)
    _report(3, "symmetric looped-path pattern, peak 1 at x=0, fringe spacing pi/|gamma|")


def test_acceptance_4_measurement_algebra():
    equal = marking.post_slit_state(rubidium_config(amp_exotic=1.0, amp_nonexotic=1.0))
    phi_plus, phi_minus, rest = marking.measure_bell_cavities(equal)
    assert phi_plus.probability + phi_minus.probability + rest.probability == pytest.approx(1.0, abs=1e-12)
    ground, excited = marking.measure_internal(equal)
    assert ground.probability + excited.probability == pytest.approx(1.0, abs=1e-12)

    straight_only = marking.post_slit_state(rubidium_config(amp_exotic=0.0))
    p_plus, p_minus, q = marking.measure_bell_cavities(straight_only)
    assert p_plus.probability == pytest.approx(0.5, abs=1e-12)
    assert p_minus.probability == pytest.approx(0.5, abs=1e-12)
    assert q.probability == pytest.approx(0.0, abs=1e-12)

    two_detector = CompositeState.from_unnormalized(
        {BasisLabel("1", "g", "10"): 1.0, BasisLabel("2", "g", "01"): 1.0}
    )
    assert bell_project(two_detector, "psi+").probability == 0.0
    assert bell_project(two_detector, "psi-").probability == 0.0
    assert bell_project(two_detector, "phi+").probability == pytest.approx(0.5, abs=1e-15)
    assert bell_project(two_detector, "phi-").probability == pytest.approx(0.5, abs=1e-15)
    _report(4, "Bell/internal branch probabilities")


def test_acceptance_5_decoherence_and_duality(config):
    # marked symmetric state: zero cross term and balanced intensities
    marked = references.visibility_predictability(1.0, 1.0, 0.0)
    assert marked.visibility == pytest.approx(0.0, abs=1e-12)
    assert marked.predictability == pytest.approx(0.0, abs=1e-12)

    # erased branches are pure two-path states: the duality identity saturates
    rng = np.random.default_rng(11)
    for _ in range(10):
        a1, a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi1, psi2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        point = references.visibility_predictability(
            abs(a1 * psi1) ** 2, abs(a2 * psi2) ** 2, abs(a1 * a2 * psi1 * psi2)
        )
        assert point.visibility**2 + point.predictability**2 == pytest.approx(1.0, abs=1e-12)

    state = marking.post_slit_state(config)
    ground, _ = marking.measure_internal(state)
    derived = derive(config)
    zt = closedform.build_ztable(config, derived)
    coeffs = closedform.build_coefficients(zt, config, derived)
    grid = intensity.default_grid(coeffs, points=501)
    profile = intensity.branch_intensity(ground, grid, config, "raw")
    collapsed = ground.collapsed()
    a1 = collapsed.amplitude(BasisLabel("1", "g", "10"))
    a2 = collapsed.amplitude(BasisLabel("2", "g", "01"))
    incoherent = (
        abs(a1) ** 2 * np.abs(gaussians.chain(references.slits("1", config), config).evaluate(grid)) ** 2
        + abs(a2) ** 2 * np.abs(gaussians.chain(references.slits("2", config), config).evaluate(grid)) ** 2
    )
    assert np.max(np.abs(profile.values - incoherent)) <= 1e-12 * np.max(incoherent)
    _report(5, "marked state V=P=0, erased duality identity, cross-term-free ground branch")


def test_acceptance_6_branch_consistency(config, coeffs):
    grid = intensity.default_grid(coeffs, points=1001)
    state = marking.post_slit_state(config)
    full = intensity.branch_intensity(state, grid, config, "raw", label="full")
    ground, excited = marking.measure_internal(state)
    g = intensity.branch_intensity(ground, grid, config, "raw")
    e = intensity.branch_intensity(excited, grid, config, "raw")
    mixed = ground.probability * g.values + excited.probability * e.values
    assert np.max(np.abs(mixed - full.values)) <= 1e-10 * np.max(full.values)
    _report(6, "probability-weighted branch profiles reproduce the unmeasured density")


def test_acceptance_7_product_table_self_consistency():
    rng = np.random.default_rng(20240817)
    base = rubidium_config()
    for _ in range(10):
        f = rng.uniform(0.5, 1.5, size=5)
        cfg = rubidium_config(
            sigma0=base.sigma0 * f[0],
            beta=base.beta * f[1],
            d=base.d * f[2],
            t=base.t * f[3],
            tau=base.tau * f[4],
        )
        report = verification.ztable_consistency(closedform.solve(cfg))
        assert report.passed, report.render()
    _report(7, "expanded z-products match complex multiplication for 10 random configs")


def test_acceptance_8_unitarity_and_symmetry(config, coeffs):
    for t in (1e-9, 1e-6, 20e-6, 1e-3, 1.0):
        form = gaussians.propagate(gaussians.initial_packet(config), t, config)
        assert abs(references.norm_squared(form) - 1.0) < 1e-10
    grid = intensity.default_grid(coeffs)
    profile = intensity.elt_intensity(grid, coeffs, "peak")
    assert np.max(np.abs(profile.values - profile.values[::-1])) < 1e-12
    _report(8, "free-propagation unitarity and mirror symmetry of the looped pattern")
