import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from eltsim import closedform, gaussians, oracle, verification
from eltsim.gaussians import (
    DegenerateChainError,
    EvaluationError,
    GaussianForm,
    apply_slit,
    chain,
    initial_packet,
    propagate,
)


def test_initial_packet_coefficients(config):
    form = initial_packet(config)
    assert form.a == pytest.approx(5e15)
    assert form.b == 0
    assert form.c == 0
    assert form.prefactor == pytest.approx((config.sigma0 * math.sqrt(math.pi)) ** -0.5)


def test_initial_packet_normalized(config):
    assert references.norm_squared(initial_packet(config)) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_at_origin(config):
    form = GaussianForm(a=1.0 + 0j, b=2.0 + 0j, c=0.5 + 0j, prefactor=3.0 + 0j)
    assert form.evaluate(0.0) == pytest.approx(3.0 * math.exp(0.5))


def test_evaluate_packet_at_one_width(config):
    form = initial_packet(config)
    expected = math.exp(-0.5) * (config.sigma0 * math.sqrt(math.pi)) ** -0.5
    assert abs(form.evaluate(config.sigma0)) == pytest.approx(expected)


def test_evaluate_parity_under_b_flip():
    form = GaussianForm(a=1.5 + 0.3j, b=0.7 - 0.2j, c=0.1 + 0.4j, prefactor=1.1 + 0j)
    flipped = GaussianForm(a=form.a, b=-form.b, c=form.c, prefactor=form.prefactor)
    assert flipped.evaluate(0.3) == pytest.approx(form.evaluate(-0.3))


def test_evaluate_overflow_guarded():
    form = GaussianForm(a=1e-30 + 0j, b=1e3 + 0j)
    with pytest.raises(EvaluationError):
        form.evaluate(10.0)


def test_centered_slit_changes_only_curvature(config):
    form = initial_packet(config)
    out = apply_slit(form, 0.0, config.beta)
    assert out.a == form.a + 1.0 / (2.0 * config.beta**2)
    assert out.b == form.b
    assert out.c == form.c
    assert out.prefactor == form.prefactor


def test_slit_transmission_is_unity_at_its_center(config):
    form = GaussianForm(a=1e10 + 0j, prefactor=1.0 + 0j)
    center = config.d / 2.0
    out = apply_slit(form, center, config.beta)
    assert out.evaluate(center) == pytest.approx(form.evaluate(center))


def test_slit_increases_real_curvature(config):
    form = initial_packet(config)
    assert apply_slit(form, 1e-9, config.beta).a.real > form.a.real


def test_propagation_matches_quadrature(config):
    form = propagate(initial_packet(config), config.t, config)
    for x in (0.0, 1e-7):
        reference = references.free_propagated_value(config, config.t, x)
        assert form.evaluate(x) == pytest.approx(reference, rel=1e-8)


def test_propagation_preserves_norm(config):
    for t in (1e-9, 1e-6, 20e-6, 1e-3, 1.0):
        form = propagate(initial_packet(config), t, config)
        assert references.norm_squared(form) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False, allow_infinity=False))
def test_propagation_unitary_over_wide_durations(t):
    from eltsim.params import rubidium_config

    config = rubidium_config()
    form = propagate(initial_packet(config), t, config)
    assert abs(references.norm_squared(form) - 1.0) < 1e-10


def test_packet_width_grows_with_time(config):
    # spatial variance of |psi|^2 is 1/(4 Re(a)) for a normalized Gaussian form
    widths = [
        1.0 / (4.0 * propagate(initial_packet(config), t, config).a.real)
        for t in (1e-6, 5e-6, 20e-6, 80e-6)
    ]
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_propagate_rejects_nonpositive_duration(config):
    with pytest.raises(ValueError):
        propagate(initial_packet(config), 0.0, config)


def test_degenerate_form_rejected():
    with pytest.raises(DegenerateChainError):
        GaussianForm(a=-1.0 + 0j).normalizable()


def test_a_step_may_carry_a_vanishing_real_part_but_a_result_may_not():
    form = GaussianForm(a=0.0 - 1e-30j)  # a packet whose Re a underflowed in flight
    with pytest.raises(DegenerateChainError):
        form.normalizable()


def test_nonexotic_mirror_symmetry(config):
    grid = np.linspace(-2e-6, 2e-6, 41)
    psi1 = chain(references.slits("1", config), config).evaluate(grid)
    psi2 = chain(references.slits("2", config), config).evaluate(grid)
    scale = np.max(np.abs(psi1))
    assert np.max(np.abs(psi2 - psi1[::-1])) / scale < 1e-12


def test_nonexotic_envelope_peaks_on_slit_side(config):
    grid = np.linspace(-2e-6, 2e-6, 2001)
    psi1 = np.abs(chain(references.slits("1", config), config).evaluate(grid))
    assert grid[int(np.argmax(psi1))] > 0


def test_exotic_mirror_symmetry(config):
    grid = np.linspace(-2e-6, 2e-6, 41)
    p12 = chain(references.slits("12", config), config).evaluate(grid)
    p21 = chain(references.slits("21", config), config).evaluate(grid)
    scale = np.max(np.abs(p12))
    assert np.max(np.abs(p21 - p12[::-1])) / scale < 1e-12


def test_looped_amplitude_suppressed(config):
    grid = np.linspace(-2e-6, 2e-6, 101)
    p12 = np.abs(chain(references.slits("12", config), config).evaluate(grid))
    p1 = np.abs(chain(references.slits("1", config), config).evaluate(grid))
    assert np.all(p12 < p1)


def test_chain_validity(config):
    assert chain(references.slits("12", config), config).a.real > 0
    assert chain(references.slits("1", config), config).a.real > 0


def test_two_path_sum_reproduces_born_combination(config):
    from references import born_double_slit

    grid = np.linspace(-2e-6, 2e-6, 81)
    psi1 = chain(references.slits("1", config), config).evaluate(grid)
    psi2 = chain(references.slits("2", config), config).evaluate(grid)
    direct = np.abs(psi1 + psi2) ** 2
    assembled = born_double_slit(psi1, psi2)
    assert np.max(np.abs(assembled - direct)) <= 1e-12 * np.max(direct)


def test_loop_chain_matches_direct_2d_quadrature(config):
    form = chain(references.slits("12", config), config)
    xs = (0.0, 3e-7, -5e-7)
    chain_vals = [form.evaluate(x) for x in xs]
    scale = max(abs(v) for v in chain_vals)
    for x, val in zip(xs, chain_vals):
        reference = oracle.looped_path_value(config, x)
        assert abs(val - reference) / scale < 1e-5


def test_loop_quadrature_across_perturbed_configs():
    # ten random parameter sets within +/-50 percent of the defaults
    from eltsim.params import rubidium_config

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
        form = chain(references.slits("12", cfg), cfg)
        xs = np.linspace(-5e-7, 5e-7, 5)
        chain_vals = form.evaluate(xs)
        scale = np.max(np.abs(chain_vals))
        for x, val in zip(xs, chain_vals):
            reference = oracle.looped_path_value(cfg, float(x))
            assert abs(val - reference) / scale < 1e-5


def _perturbed_rubidium_configs():
    from eltsim.params import rubidium_config

    rng = np.random.default_rng(20240817)
    base = rubidium_config()
    for _ in range(10):
        f = rng.uniform(0.5, 1.5, size=5)
        yield rubidium_config(
            sigma0=base.sigma0 * f[0],
            beta=base.beta * f[1],
            d=base.d * f[2],
            t=base.t * f[3],
            tau=base.tau * f[4],
        )


def test_loop_quadrature_on_an_array_matches_scalar_calls():
    xs = np.linspace(-5e-7, 5e-7, 5)
    for cfg in _perturbed_rubidium_configs():
        batched = oracle.looped_path_value(cfg, xs)
        single = np.array([oracle.looped_path_value(cfg, float(x)) for x in xs])
        assert batched.shape == xs.shape
        assert np.max(np.abs(batched - single)) <= 1e-12 * np.max(np.abs(single))


def test_loop_quadrature_that_never_agrees_raises(config, monkeypatch):
    monkeypatch.setattr(oracle, "LOOP_REL_TOL", -1.0)
    monkeypatch.setattr(oracle, "QUAD_ABS_TOL", -1.0)
    for x in (0.0, np.linspace(-5e-7, 5e-7, 5)):
        with pytest.raises(RuntimeError, match="did not converge"):
            oracle.looped_path_value(config, x)


def test_loop_quadrature_builds_each_rule_once(config, monkeypatch):
    from eltsim.params import rubidium_config

    built = collections.Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counting(order):
        built[order] += 1
        return leggauss(order)

    oracle._gauss_legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    for cfg in (config, rubidium_config(d=1.2 * config.d)):
        verification.chain_vs_quadrature(closedform.solve(cfg))
    assert built and max(built.values()) == 1
