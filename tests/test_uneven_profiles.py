"""An uneven profile, such as one on a custom grid through 0, is laid out through the same list of blocks as an even
profile's x < 0 half: the calling thread lays out the even blocks and a worker thread the odd ones."""

import threading
import time

import numpy as np
import pytest
from test_cli import CONFIG_TEXT
from test_even_profiles import _even_profile, _rowwise

from eltsim import cli, params
from eltsim.cli import PROFILE_BLOCK, main, profile_csv


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def _uneven_profile(n: int, seed: int):
    profile = _even_profile(n, seed)
    profile.values[-1] = np.nextafter(profile.values[-1], 2.0)
    return profile


def test_an_uneven_profile_is_laid_out_on_two_threads(monkeypatch):
    # five blocks, the last of 11 rows: blocks 0, 2 and 4 on the calling thread, 1 and 3 on the worker
    profile = _uneven_profile(4 * PROFILE_BLOCK + 11, 50)
    caller, on_caller = threading.current_thread(), {}
    layout = cli._layout

    def recorded(x):
        block = int(np.flatnonzero(profile.grid == x[0, 0])[0]) // PROFILE_BLOCK
        on_caller.setdefault(block, set()).add(threading.current_thread() is caller)
        return layout(x)

    monkeypatch.setattr(cli, "_layout", recorded)
    before = threading.active_count()
    blocks = list(profile_csv(profile))
    assert threading.active_count() == before
    assert [bytes(b).count(b"\n") for b in blocks] == [1, *[PROFILE_BLOCK] * 4, 11]
    assert b"".join(blocks).decode("ascii") == _rowwise(profile)
    assert on_caller == {k: {k % 2 == 0} for k in range(5)}


def test_closing_an_uneven_profile_early_stops_the_worker_after_its_current_block(monkeypatch):
    # eight blocks, four of them the worker's; each worker layout sleeps, so the worker is still busy when the
    # generator is closed after its first block, and lays out no block after the one it is in
    layout, caller, on_worker = cli._layout, threading.current_thread(), []

    def slow(x):
        if threading.current_thread() is not caller:
            time.sleep(0.05)
            on_worker.append(x[0, 0])
        return layout(x)

    monkeypatch.setattr(cli, "_layout", slow)
    before = threading.active_count()
    blocks = profile_csv(_uneven_profile(8 * PROFILE_BLOCK, 51))
    assert bytes(next(blocks)) == b"x_m,intensity,visibility_pointwise\n"
    assert bytes(next(blocks)).count(b"\n") == PROFILE_BLOCK
    blocks.close()
    assert threading.active_count() == before
    assert 1 <= len(on_worker) < 4


@pytest.mark.parametrize("raises", ["worker", "caller"])
def test_a_layout_error_of_a_custom_grid_reaches_main_and_leaves_no_file_or_thread(config_path, tmp_path, capsys,
                                                                                   monkeypatch, raises):
    # a grid through 0 of five blocks, the last of one row: its layout fails on the worker, or on the calling
    # thread's second block, block 2, which an even profile of these points would not lay out
    class InjectedError(params.ConfigError):
        pass

    layout, caller, caller_calls = cli._layout, threading.current_thread(), []

    def failing(x):
        worker = threading.current_thread() is not caller
        if worker:
            time.sleep(0.05)  # so the worker is still busy when the calling thread fails
        else:
            caller_calls.append(x.shape)
        if {"worker": worker, "caller": not worker and len(caller_calls) == 2}[raises]:
            raise InjectedError(f"injected layout failure ({raises})")
        return layout(x)

    monkeypatch.setattr(cli, "_layout", failing)
    before = threading.active_count()
    out = tmp_path / "p.csv"
    grid = ["--grid-min", "-1e-6", "--grid-max", "1e-6", "--grid-points", str(4 * PROFILE_BLOCK + 1)]
    assert main(["intensity", "--config", config_path, *grid, "--out", str(out)]) == 2
    assert f"error: injected layout failure ({raises})" in capsys.readouterr().err
    assert threading.active_count() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
