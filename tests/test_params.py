import math

import pytest

from eltsim import oracle
from eltsim.params import (
    ConfigError,
    PhysicsConfig,
    derive,
    parse_config_text,
    rubidium_config,
    validate_regime,
)


def test_epsilon_near_three_and_a_half_microseconds(config, derived):
    assert derived.epsilon == pytest.approx(3.5e-6, rel=0.03)


def test_delta_p_matches_momentum_quadrature(config, derived):
    numeric = oracle.momentum_sigma(config)
    assert derived.delta_p == pytest.approx(numeric, rel=1e-8)


def test_delta_p_analytic_form(config, derived):
    assert derived.delta_p == pytest.approx(config.hbar / (math.sqrt(2.0) * config.sigma0))


def test_epsilon_linear_in_d(config, derived):
    doubled = derive(rubidium_config(d=2.0 * config.d))
    assert doubled.epsilon == 2.0 * derived.epsilon
    assert doubled.delta_p == derived.delta_p


def test_epsilon_exact_ratio(config, derived):
    assert derived.epsilon == config.d / derived.delta_v
    assert derived.delta_v == derived.delta_p / config.mass


def test_regime_clean_for_default_parameters(config):
    assert validate_regime(config) == []


def test_regime_warns_on_long_flight():
    warnings = validate_regime(rubidium_config(t=10e-3))
    assert len(warnings) == 1
    assert "lifetime" in warnings[0]


@pytest.mark.parametrize("name", ["mass", "sigma0", "beta", "d", "t", "tau"])
def test_nonpositive_parameter_rejected_naming_field(name):
    with pytest.raises(ConfigError, match=name):
        rubidium_config(**{name: -1.0})
    with pytest.raises(ConfigError, match=name):
        rubidium_config(**{name: 0.0})


def test_negative_eta_rejected():
    with pytest.raises(ConfigError, match="eta"):
        rubidium_config(eta=-1e-9)


_MINIMAL = """
mass_kg = 1.44e-25
sigma0_m = 10e-9
beta_m = 10e-9
d_m = 180e-9
t_s = 20e-6
tau_s = 20e-6
"""


def test_parse_minimal_config():
    cfg = parse_config_text(_MINIMAL)
    assert cfg.mass == 1.44e-25
    assert cfg.eta == 0.0
    assert cfg.amp_exotic == 0.05 + 0.0j


def test_parse_complex_weights():
    cfg = parse_config_text(_MINIMAL + "amp_exotic_re = 0.1\namp_exotic_im = -0.2\n")
    assert cfg.amp_exotic == 0.1 - 0.2j


def test_parse_comments_and_blank_lines():
    cfg = parse_config_text("# comment\n\n" + _MINIMAL)
    assert cfg.d == 180e-9


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(_MINIMAL + "slit_width_m = 1e-9\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(_MINIMAL + "d_m = 90e-9\n")


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError, match="missing"):
        parse_config_text("mass_kg = 1.44e-25\n")


def test_unparseable_value_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text(_MINIMAL + "eta_s = fast\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("mass_kg 1.44e-25\n")


def test_config_is_immutable(config):
    with pytest.raises(Exception):
        config.mass = 1.0
