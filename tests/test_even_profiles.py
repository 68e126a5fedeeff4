"""A profile even bit for bit, on a symmetric grid of a slit-exchange invariant density, is evaluated on its
x >= 0 half and written from the text of its x < 0 half: the same values and bytes as every point alone."""

import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eltsim import cli, intensity, marking
from eltsim.cli import BRANCHES, PROFILE_BLOCK, branch_profile, profile_csv
from eltsim.params import rubidium_config


def _halves(grid):
    m = grid.size // 2
    return grid[:m], grid[m:]


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(-9.0, -2.0),
    tau=st.floats(-9.0, -2.0),
    d=st.floats(-1.0, 1.0),
    sigma0=st.floats(-1.0, 1.0),
    beta=st.floats(-1.0, 1.0),
)
def test_a_mirrored_profile_is_its_points_evaluated_alone(t, tau, d, sigma0, beta):
    # the verify box; x < 0 alone is not a symmetric grid, so every one of its points is evaluated
    config = rubidium_config(
        t=10.0**t, tau=10.0**tau, d=180e-9 * 10.0**d, sigma0=10e-9 * 10.0**sigma0, beta=10e-9 * 10.0**beta,
    )
    coeffs = intensity.loop_coefficients(config)
    for points in (201, 200):
        grid = intensity.default_grid(coeffs, points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for branch in BRANCHES:
                whole = branch_profile(branch, grid, config, coeffs, "raw")
                alone = [branch_profile(branch, half, config, coeffs, "raw") for half in _halves(grid)]
                assert np.array_equal(whole.values, np.concatenate([p.values for p in alone])), (branch, points)
                assert np.array_equal(whole.visibility, np.concatenate([p.visibility for p in alone])), (branch, points)


def test_a_density_with_unequal_path_weights_is_not_mirrored(config):
    density = marking.CenterOfMassDensity({("1", "1"): 1.0, ("2", "2"): 0.25})
    grid = intensity.default_grid(intensity.loop_coefficients(config), 201)
    whole = intensity.branch_intensity(density, grid, config, "raw")
    assert not np.array_equal(whole.values, whole.values[::-1])
    alone = [intensity.branch_intensity(density, half, config, "raw") for half in _halves(grid)]
    assert np.array_equal(whole.values, np.concatenate([p.values for p in alone]))
    assert np.array_equal(whole.visibility, np.concatenate([p.visibility for p in alone]))


def _even_profile(n: int, seed: int, visibility=True) -> intensity.IntensityProfile:
    """A hand-built profile even bit for bit on n points, x = 0 at the centre of an odd n."""
    rng = np.random.default_rng(seed)
    m = n // 2
    x = np.cumsum(rng.uniform(0.5, 1.5, n - m)) * 1e-9
    if n % 2:
        x -= x[0]
    values, vis = rng.uniform(0.0, 1.0, (2, n - m))
    grid, values, vis = (np.concatenate([sign * half[::-1][:m], half]) for sign, half in ((-1.0, x), (1.0, values), (1.0, vis)))
    return intensity.IntensityProfile(grid, values, visibility=vis if visibility else None)


def _rowwise(profile: intensity.IntensityProfile) -> str:
    vis = np.broadcast_to(0.0 if profile.visibility is None else profile.visibility, profile.grid.shape)
    rows = ["%.16e,%.16e,%.16e" % row for row in zip(profile.grid.tolist(), profile.values.tolist(), vis.tolist())]
    return "\n".join(["x_m,intensity,visibility_pointwise", *rows]) + "\n"


class _CountingFormat(str):
    """``cli._FMT`` that counts the numbers formatted by Python's ``%``."""

    calls = 0

    def __mod__(self, value):
        self.calls += 1
        return str.__mod__(self, value)


@pytest.fixture()
def percent(monkeypatch):
    fmt = _CountingFormat(cli._FMT)
    monkeypatch.setattr(cli, "_FMT", fmt)
    return fmt


@pytest.mark.parametrize("visibility", [True, False], ids=["visibility", "none"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_short_even_profile_is_the_row_wise_text(n, visibility):
    profile = _even_profile(n, n, visibility)
    assert b"".join(profile_csv(profile)).decode("ascii") == _rowwise(profile)


@pytest.mark.parametrize("n", [2 * (2 * PROFILE_BLOCK + 5) + 1, 2 * (2 * PROFILE_BLOCK + 5)], ids=["odd", "even"])
def test_an_even_profile_of_several_blocks_is_the_row_wise_text(n, percent):
    # x < 0 is three blocks, the last of 5 rows; x > 0 is their mirrors in reverse, after an odd n's centre row
    blocks = list(profile_csv(_even_profile(n, 7)))
    centre = [1] if n % 2 else []
    assert [bytes(b).count(b"\n") for b in blocks] == [1, PROFILE_BLOCK, PROFILE_BLOCK, 5, *centre, 5, PROFILE_BLOCK, PROFILE_BLOCK]
    assert b"".join(blocks).decode("ascii") == _rowwise(_even_profile(n, 7))
    assert percent.calls == 0


def test_a_tie_sends_a_block_and_its_mirror_to_percent(percent):
    profile = _even_profile(2 * (2 * PROFILE_BLOCK + 5) + 1, 8)
    n = profile.grid.size
    j = PROFILE_BLOCK + 17  # in the second block of x < 0
    profile.values[[j, n - 1 - j]] = 1000000000000000.25  # 18 significant digits, the last a 5: an exact tie
    assert b"".join(profile_csv(profile)).decode("ascii") == _rowwise(profile)
    assert percent.calls == 2 * PROFILE_BLOCK * 3  # that block and its mirror, whole


def test_a_three_digit_exponent_compacts_a_block_and_its_mirror(monkeypatch, percent):
    compacted = []
    text = cli._text
    monkeypatch.setattr(cli, "_text", lambda buf, compact: compacted.append(compact) or text(buf, compact))
    profile = _even_profile(2 * (2 * PROFILE_BLOCK + 5) + 1, 9)
    n = profile.grid.size
    profile.values[[3, n - 4]] = 1.5e-120  # two- and three-digit exponents in the first block's intensity column
    assert b"".join(profile_csv(profile)).decode("ascii") == _rowwise(profile)
    assert compacted == [True, False, False, False, False, False, True]
    assert percent.calls == 0


def test_an_uneven_profile_keeps_its_blocks():
    profile = _even_profile(2 * (2 * PROFILE_BLOCK + 5) + 1, 10)
    profile.values[-1] = np.nextafter(profile.values[-1], 2.0)
    blocks = list(profile_csv(profile))
    assert [bytes(b).count(b"\n") for b in blocks] == [1, PROFILE_BLOCK, PROFILE_BLOCK, PROFILE_BLOCK, PROFILE_BLOCK, 11]
    assert b"".join(blocks).decode("ascii") == _rowwise(profile)


def test_an_even_profile_with_a_signed_zero_is_not_mirrored():
    # -0.0 == 0.0, but its text has a sign: the halves are compared bit for bit
    profile = _even_profile(2 * PROFILE_BLOCK + 1, 11)
    profile.values[[5, -6]] = -0.0, 0.0
    assert b"".join(profile_csv(profile)).decode("ascii") == _rowwise(profile)


@pytest.mark.parametrize("tie, compact", [(0, 1), (1, 0)], ids=["tie-caller", "tie-worker"])
@pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
@pytest.mark.parametrize("blocks", [2, 3, 5])
def test_an_even_profile_laid_out_on_two_threads_is_the_row_wise_text(monkeypatch, percent, blocks, parity, tie,
                                                                       compact):
    # x < 0 is `blocks` blocks, the last of 7 rows: the even ones are laid out on the calling thread, the odd ones
    # on a worker. A tie sends one block and its mirror to %, a three-digit exponent compacts another and its
    # mirror; each is on the worker's side once and on the caller's once
    m = (blocks - 1) * PROFILE_BLOCK + 7
    profile = _even_profile(2 * m + parity, 30 + blocks)
    n = profile.grid.size
    for block, value in ((tie, 1000000000000000.25), (compact, 1.5e-120)):
        j = block * PROFILE_BLOCK + 3
        profile.values[[j, n - 1 - j]] = value
    on_main, compacted = {}, []  # per x < 0 block: whether each layout of it ran on the main thread
    layout, text = cli._layout, cli._text

    def recorded(x):
        if x[0, 0] < 0:
            block = int(np.flatnonzero(profile.grid == x[0, 0])[0]) // PROFILE_BLOCK
            on_main.setdefault(block, set()).add(threading.current_thread() is threading.main_thread())
        return layout(x)

    monkeypatch.setattr(cli, "_layout", recorded)
    monkeypatch.setattr(cli, "_text", lambda buf, compact: compacted.append(compact) or text(buf, compact))
    before = threading.active_count()
    assert b"".join(profile_csv(profile)).decode("ascii") == _rowwise(profile)
    assert threading.active_count() == before
    # the tie's block is laid out once more by the calling thread, which writes it with %
    assert on_main == {k: {k % 2 == 0} | ({True} if k == tie else set()) for k in range(blocks)}
    laid = [k == compact for k in range(blocks) if k != tie]
    assert compacted == laid + [False] * parity + laid[::-1]
    assert percent.calls == 2 * 3 * (PROFILE_BLOCK if tie < blocks - 1 else 7)


def test_closing_an_even_profile_early_stops_the_worker_after_its_current_block(monkeypatch):
    # x < 0 is eight blocks, four of them the worker's; each worker layout sleeps, so the worker is still busy when
    # the generator is closed after its first block, and lays out no block after the one it is in
    layout, on_worker = cli._layout, []

    def slow(x):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
            on_worker.append(x[0, 0])
        return layout(x)

    monkeypatch.setattr(cli, "_layout", slow)
    before = threading.active_count()
    blocks = profile_csv(_even_profile(2 * 8 * PROFILE_BLOCK, 40))
    assert bytes(next(blocks)) == b"x_m,intensity,visibility_pointwise\n"
    assert bytes(next(blocks)).count(b"\n") == PROFILE_BLOCK
    blocks.close()
    assert threading.active_count() == before
    assert 1 <= len(on_worker) < 4
