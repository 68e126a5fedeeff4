"""Path 2 and loop 21 are the mirrors of path 1 and loop 12: ψ2(x) = ψ1(-x), ψ21(x) = ψ12(-x)."""

import dataclasses

import numpy as np
import pytest

from eltsim import closedform, gaussians, verification
from eltsim.params import rubidium_config
from references import slits
from test_sweep import _count_calls

CONFIGS = {
    "rubidium": rubidium_config(),
    "eta": dataclasses.replace(rubidium_config(), eta=3e-7),
    "swept-d": dataclasses.replace(rubidium_config(), d=np.linspace(90e-9, 360e-9, 300)),
}


def _bits(form):
    return [np.asarray(value, dtype=complex).tobytes() for value in vars(form).values()]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_mirrored_chains_equal_the_chains_built_with_d_reversed_bit_for_bit(name):
    config = CONFIGS[name]
    for path, mirror in (("1", "2"), ("12", "21")):
        form = gaussians.chain(slits(path, config), config)
        assert _bits(dataclasses.replace(form, b=-form.b)) == _bits(gaussians.chain(slits(mirror, config), config))


def test_mirrored_evaluates_the_form_at_minus_x():
    config = rubidium_config()
    form = gaussians.chain(slits("12", config), config)
    grid = np.linspace(-1e-6, 1e-6, 41)
    assert np.array_equal(dataclasses.replace(form, b=-form.b).evaluate(grid), form.evaluate(-grid))


def test_closed_vs_chain_builds_the_loop_chain_once(monkeypatch):
    solution = closedform.solve(rubidium_config())
    chains = _count_calls(monkeypatch, gaussians, "chain")
    report = verification.closed_vs_chain(solution)
    assert [len(centres) for centres, _ in chains] == [3]
    assert [record.name for record in report.records] == ["closed-vs-chain/loop12", "closed-vs-chain/loop21"]
