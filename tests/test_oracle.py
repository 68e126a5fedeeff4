"""The loop oracle's segment kernel is half computed and half copied: the copy is exact to the bit."""

import collections
import math
import random

import numpy as np
import pytest

from eltsim import closedform, oracle, verification
from eltsim.params import rubidium_config

RUBIDIUM = rubidium_config()


def _verify_box_sample(count, seed=5):
    """Configs drawn as perfbench's in_verify_box draws them: t and tau log-uniform in [1e-9, 1e-2] s,
    d, sigma0 and beta log-uniform over one decade either side of Rubidium."""
    rng = random.Random(seed)
    sample = []
    for _ in range(count):
        cfg = {key: math.exp(rng.uniform(math.log(1e-9), math.log(1e-2))) for key in ("t", "tau")}
        cfg |= {key: getattr(RUBIDIUM, key) * 10.0 ** rng.uniform(-1.0, 1.0) for key in ("d", "sigma0", "beta")}
        sample.append(rubidium_config(**cfg))
    return sample


@pytest.mark.parametrize("order", oracle._ORDERS)
def test_gauss_legendre_nodes_are_odd_to_the_bit(order):
    nodes, _ = oracle._gauss_legendre(order)
    assert nodes.tobytes() == (-nodes[::-1]).tobytes()


@pytest.mark.parametrize("order", oracle._ORDERS)
def test_the_anti_triangle_spreads_each_value_to_an_entry_and_its_mirror(order):
    rows, cols, spread = oracle._anti_triangle(order)
    assert np.all(rows + cols <= order - 1)
    assert rows.size == order * (order + 1) // 2
    assert np.array_equal(spread[rows, cols], np.arange(rows.size))
    assert np.array_equal(spread, spread[::-1, ::-1].T)


def test_the_half_kernel_is_the_full_kernel_to_the_bit(monkeypatch):
    # every kernel the oracle builds for the chain-vs-quadrature check of a verify-box sample
    sample = [RUBIDIUM, rubidium_config(eta=3e-6)] + _verify_box_sample(40)
    orders, half_kernel = collections.Counter(), oracle._segment

    def checked(x1, x2, lam_half):
        segment = half_kernel(x1, x2, lam_half)
        full = np.exp(1j * lam_half * (x2[None, :] - x1[:, None]) ** 2)
        assert segment.dtype == full.dtype and segment.tobytes() == full.tobytes()
        orders[len(x1)] += 1
        return segment

    monkeypatch.setattr(oracle, "_segment", checked)
    for config in sample:
        verification.chain_vs_quadrature(closedform.solve(config))
    assert orders[80] == orders[120] == len(sample)
