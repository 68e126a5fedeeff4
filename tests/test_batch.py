"""A batch of configurations in several fields at once: t and tau vary together, one value of each per row."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from eltsim import closedform, gaussians, intensity
from eltsim.params import ConfigError, batch, check, derive, rubidium_config, swept, swept_rows, validate_regime

T = np.geomspace(2e-6, 2e-4, 300)
TAU = np.geomspace(1e-4, 1e-6, 300)
BATCH = dataclasses.replace(rubidium_config(), t=T, tau=TAU)


def test_batch_is_every_array_field_in_declaration_order():
    config = dataclasses.replace(rubidium_config(), tau=TAU, sigma0=T * 1e-3, t=T)
    assert list(batch(config)) == ["sigma0", "t", "tau"]
    assert swept(config) == next(iter(batch(config).items()))
    assert batch(rubidium_config()) == {} and swept(rubidium_config()) is None


def test_swept_rows_cuts_every_field_of_the_batch():
    part = swept_rows(BATCH, slice(0, 256))
    assert part.t.tolist() == T[:256].tolist() and part.tau.tolist() == TAU[:256].tolist()
    assert intensity.loop_coefficients(part).gamma.shape == (256,)
    row = swept_rows(BATCH, 7)
    assert (row.t, row.tau) == (T[7], TAU[7]) and batch(row) == {}
    assert (BATCH.t.size, BATCH.tau.size) == (300, 300)


def test_array_fields_of_different_lengths_are_refused_by_name():
    with pytest.raises(ConfigError, match=r"^array fields must have one length, got t of length 3, tau of length 5$"):
        dataclasses.replace(rubidium_config(), t=T[:3], tau=TAU[:5])


def test_check_names_every_field_of_the_failing_row():
    with pytest.raises(ConfigError, match=re.escape(f"fails at t = {T.tolist()[4]!r}, tau = {TAU.tolist()[4]!r}")):
        check(np.arange(300) != 4, BATCH, lambda at, where: f"t = {at(BATCH.t)!r} fails{where}")


# the flight time tau = 5e299 s makes the looped chain and the closed form degenerate, but passes derive
DEGENERATE = dataclasses.replace(rubidium_config(), t=np.array([2e-5, 3e-5]), tau=np.array([2e-5, 5e299]))
DEGENERATE_ROW = re.escape("at t = 3e-05, tau = 5e+299")


def test_both_routes_name_the_degenerate_row_by_every_field():
    derive(DEGENERATE)
    with pytest.raises(gaussians.DegenerateChainError, match=DEGENERATE_ROW):
        intensity.loop_coefficients(DEGENERATE)
    with pytest.raises(closedform.DegenerateConfigError, match=DEGENERATE_ROW):
        closedform.solve(DEGENERATE)


def test_aggregate_visibility_names_the_failing_row_by_every_field():
    coeffs = intensity.loop_coefficients(BATCH)
    gamma = coeffs.gamma.copy()
    gamma[5] = 0.0
    row = f"at t = {T.tolist()[5]!r}, tau = {TAU.tolist()[5]!r}"
    with pytest.raises(intensity.ProfileError, match=re.escape(f"gamma vanishes {row};")):
        intensity.aggregate_visibility(dataclasses.replace(coeffs, gamma=gamma), BATCH)


def test_the_one_regime_warning_names_the_first_long_row_by_every_field_and_counts_the_rows():
    # t + 2 epsilon + tau passes 1% of the 30 ms lifetime from t = 3e-4 s on
    config = dataclasses.replace(rubidium_config(), t=np.array([1e-5, 3e-4, 5e-4]), tau=np.array([2e-5, 3e-5, 4e-5]))
    [warning] = validate_regime(config)
    assert "at t = 0.0003, tau = 3e-05, the first of 2 of 3 swept values that do" in warning


def test_each_row_of_a_batch_chain_is_its_one_row_batch_bit_for_bit():
    # one-row batches, not scalar configurations: a scalar chain takes its square roots with cmath
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = intensity.loop_coefficients(BATCH)
        for i in range(T.size):
            one = intensity.loop_coefficients(swept_rows(BATCH, slice(i, i + 1)))
            for name, values in vars(coeffs).items():
                assert np.broadcast_to(values, T.shape)[i].tobytes() == np.ravel(getattr(one, name)).tobytes(), (i, name)
