import math

import numpy as np
import pytest

from eltsim import closedform, gaussians
from eltsim.closedform import (
    CHAIN_SIGN,
    DegenerateConfigError,
    ZTable,
    build_coefficients,
    build_ztable,
    expanded_products,
    gouy_phase,
    psi12,
    psi21,
)
from eltsim.params import derive, rubidium_config
from references import slits


@pytest.fixture(scope="module")
def ztable(config, derived):
    return build_ztable(config, derived)


@pytest.fixture(scope="module")
def coeffs(config, derived, ztable):
    return build_coefficients(ztable, config, derived)


def _random_configs(n=10, seed=20240817):
    rng = np.random.default_rng(seed)
    base = rubidium_config()
    out = []
    for _ in range(n):
        f = rng.uniform(0.5, 1.5, size=5)
        out.append(
            rubidium_config(
                sigma0=base.sigma0 * f[0],
                beta=base.beta * f[1],
                d=base.d * f[2],
                t=base.t * f[3],
                tau=base.tau * f[4],
            )
        )
    return out


def test_z0_real_part(config, ztable):
    assert ztable.z0.real == pytest.approx(5e15)
    assert ztable.z0.imag == pytest.approx(-config.mass / (2.0 * config.hbar * config.t))


def test_stage_curvatures_positive(ztable):
    for z in (ztable.z1, ztable.z2, ztable.z3):
        assert z.real > 0


def test_z0_imaginary_part_vanishes_for_long_flight():
    cfg = rubidium_config(t=1.0)
    zt = build_ztable(cfg, derive(cfg))
    # -m/(2 hbar t) shrinks as 1/t while the real part stays fixed
    assert abs(zt.z0.imag) < 1e-6 * zt.z0.real
    assert zt.z0.real == pytest.approx(5e15)


def test_product_expansions_match_complex_products(ztable):
    direct = {
        "z4": ztable.z4, "z5": ztable.z5, "z6": ztable.z6, "z7": ztable.z7,
        "z8": ztable.z8, "z9": ztable.z9, "z10": ztable.z10,
        "gouy_zr": complex(ztable.gouy_zr, 0.0), "gouy_zi": complex(ztable.gouy_zi, 0.0),
    }
    for name, value in expanded_products(ztable).items():
        assert abs(value - direct[name]) <= 1e-12 * abs(direct[name]), name


def test_product_expansions_across_random_configs():
    for cfg in _random_configs():
        zt = build_ztable(cfg, derive(cfg))
        direct = {
            "z4": zt.z4, "z5": zt.z5, "z6": zt.z6, "z7": zt.z7,
            "z8": zt.z8, "z9": zt.z9, "z10": zt.z10,
            "gouy_zr": complex(zt.gouy_zr, 0.0), "gouy_zi": complex(zt.gouy_zi, 0.0),
        }
        for name, value in expanded_products(zt).items():
            assert abs(value - direct[name]) <= 1e-12 * abs(direct[name]), name


def test_coefficient_positivity(coeffs):
    assert coeffs.amplitude > 0
    assert coeffs.c1 > 0


def test_gouy_phase_range(coeffs):
    assert -math.pi / 2 < coeffs.mu <= math.pi / 2


def test_d_parity(config, derived, coeffs):
    flipped_cfg = rubidium_config(d=config.d)  # same magnitudes; parity enters via the formulas
    zt = build_ztable(flipped_cfg, derive(flipped_cfg))
    # C2 and gamma are odd in d: the mirrored loop flips exactly those two signs
    mirrored = psi21(0.3e-6, coeffs)
    assert mirrored == pytest.approx(psi12(-0.3e-6, coeffs), rel=1e-12)
    # even coefficients are reproducible from the rebuilt table
    rebuilt = build_coefficients(zt, flipped_cfg, derive(flipped_cfg))
    for name in ("amplitude", "c1", "c3", "alpha", "theta", "mu"):
        assert getattr(rebuilt, name) == getattr(coeffs, name)


def test_psi21_is_mirror_of_psi12(coeffs):
    grid = np.linspace(-2e-6, 2e-6, 41)
    assert np.allclose(psi21(grid, coeffs), psi12(-grid, coeffs), rtol=1e-12, atol=0.0)


def test_modulus_discards_phase(coeffs):
    x = 0.7e-6
    expected = coeffs.amplitude * math.exp(-coeffs.c1 * x * x + coeffs.c2 * x + coeffs.c3)
    assert abs(psi12(x, coeffs)) == pytest.approx(expected, rel=1e-12)


def test_phase_at_origin(coeffs):
    phase = math.remainder(np.angle(psi12(0.0, coeffs)) - (coeffs.theta + coeffs.mu), 2.0 * math.pi)
    assert phase == pytest.approx(0.0, abs=1e-9)


def test_phase_difference_is_linear(coeffs):
    for x in (0.1e-6, -0.35e-6, 0.8e-6):
        diff = np.angle(psi12(x, coeffs)) - np.angle(psi21(x, coeffs))
        assert math.remainder(diff - 2.0 * coeffs.gamma * x, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)


def _closed_vs_chain_max_dev(cfg, points=101):
    derived = derive(cfg)
    zt = build_ztable(cfg, derived)
    co = build_coefficients(zt, cfg, derived)
    half = 5.0 * math.pi / abs(co.gamma)
    grid = np.linspace(-half, half, points)
    worst = 0.0
    for loop, fn in (("12", psi12), ("21", psi21)):
        chain = gaussians.chain(slits(loop, cfg), cfg).evaluate(grid)
        closed = CHAIN_SIGN * fn(grid, co)
        worst = max(worst, float(np.max(np.abs(closed - chain)) / np.max(np.abs(chain))))
    return worst


def test_closed_form_matches_chain(config):
    assert _closed_vs_chain_max_dev(config) < 1e-6


def test_closed_form_matches_chain_across_perturbed_configs():
    for cfg in _random_configs():
        assert _closed_vs_chain_max_dev(cfg, points=21) < 1e-6


def test_gouy_phase_continuity_in_flight_time():
    values = []
    for t in np.linspace(10e-6, 30e-6, 200):
        cfg = rubidium_config(t=float(t))
        values.append(gouy_phase(build_ztable(cfg, derive(cfg))))
    jumps = np.abs(np.diff(values))
    assert np.max(jumps) < 0.05


def test_gouy_phase_quadrant_identities(ztable):
    pure_real = ZTable(**{**_as_kwargs(ztable), "gouy_zr": 1.0, "gouy_zi": 0.0})
    assert gouy_phase(pure_real) == 0.0
    diagonal = ZTable(**{**_as_kwargs(ztable), "gouy_zr": 1.0, "gouy_zi": 1.0})
    assert gouy_phase(diagonal) == pytest.approx(math.pi / 8)


def _as_kwargs(zt: ZTable) -> dict:
    return {f: getattr(zt, f) for f in zt.__dataclass_fields__}


def test_gouy_phase_degenerate(ztable):
    degenerate = ZTable(**{**_as_kwargs(ztable), "gouy_zr": 0.0, "gouy_zi": 0.0})
    with pytest.raises(DegenerateConfigError):
        gouy_phase(degenerate)


def test_coefficient_magnitudes_in_double_range(coeffs):
    # the default regime sits comfortably inside double precision
    for name in ("amplitude", "c1", "c2", "c3", "alpha", "gamma", "theta", "mu"):
        value = getattr(coeffs, name)
        assert math.isfinite(value)
    assert 1e10 < coeffs.c1 < 1e14
    assert 1e5 < abs(coeffs.gamma) < 1e8
