import dataclasses
import itertools
import math

import numpy as np
import pytest

import references
from eltsim.params import (
    ConfigError,
    PhysicsConfig,
    check,
    derive,
    parse_config_text,
    rubidium_config,
    swept,
    swept_rows,
    validate_regime,
)


def test_epsilon_near_three_and_a_half_microseconds(config, derived):
    assert derived.epsilon == pytest.approx(3.5e-6, rel=0.03)


def test_delta_p_matches_momentum_quadrature(config, derived):
    numeric = references.momentum_sigma(config)
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


def test_regime_counts_eta_in_the_looped_flight():
    # t + 2 (epsilon + eta) + tau: 2.5e-4 + 2 (3.48e-6 + 2e-5) + 2e-5 = 3.170e-4 s passes 1% of the 30 ms lifetime,
    # and without eta 2.770e-4 s does not
    warnings = validate_regime(rubidium_config(t=2.5e-4, eta=2e-5))
    assert len(warnings) == 1 and "total flight time 3.170e-04 s" in warnings[0]
    assert validate_regime(rubidium_config(t=2.5e-4)) == []


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


def test_swept_rows_is_the_configuration_of_those_rows():
    config = dataclasses.replace(rubidium_config(), tau=np.linspace(1e-6, 3e-5, 70))
    part = swept_rows(config, slice(32, 64))
    want = dataclasses.replace(config, tau=config.tau[32:64])
    assert type(part) is PhysicsConfig and list(vars(part)) == list(vars(want))
    for name, value in vars(want).items():
        assert np.array_equal(getattr(part, name), value)
    assert swept(part)[0] == "tau" and swept(config)[1].size == 70


SWEPT_D = np.array([1e-7, 2e-7, 3e-7, 4e-7])


def _check_cases():
    """(ok, config) pairs: bools, numpy bools and 0-d arrays for one configuration, 1-D arrays for a swept one."""
    one, many = rubidium_config(), rubidium_config(d=SWEPT_D)
    for value in (True, False):
        for ok in (value, np.bool_(value), np.array(value)):
            yield ok, one
            yield ok, many
    for bits in itertools.product((True, False), repeat=SWEPT_D.size):
        yield np.array(bits), many


@pytest.mark.parametrize("ok, config", list(_check_cases()))
def test_check_raises_exactly_where_np_all_fails_and_names_the_first_failing_value(ok, config):
    def describe(at, where):
        return f"d = {at(config.d)!r} fails{where}"

    if np.all(ok):
        check(ok, config, describe)
        return
    with pytest.raises(ConfigError) as failed:
        check(ok, config, describe)
    if swept(config) is None:
        assert str(failed.value) == f"d = {config.d!r} fails"
    else:
        first = SWEPT_D.tolist()[np.ravel(ok).tolist().index(False)]
        assert str(failed.value) == f"d = {first!r} fails at d = {first!r}"


class _NamedError(ValueError):
    pass


def test_check_raises_the_error_it_is_given():
    with pytest.raises(_NamedError, match="^named$"):
        check(np.bool_(False), None, lambda at, where: "named", _NamedError)
