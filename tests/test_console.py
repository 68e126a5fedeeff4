"""The boundary between ``cli.main``, the in-process entry, and ``cli.console``, the entry of a process that
exits once its command returns: only ``console`` freezes the collector, and both write the same bytes."""

import gc
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import eltsim
from eltsim.cli import main

RUBIDIUM = str(Path(__file__).resolve().parents[1] / "configs" / "rubidium.cfg")
SRC = os.path.dirname(os.path.dirname(eltsim.__file__))

# every subcommand, an argparse error and a ConfigError exit
IN_PROCESS = {
    "intensity": (["intensity", "--config", RUBIDIUM, "--grid-points", "11"], 0),
    "verify": (["verify", "--config", RUBIDIUM, "--points", "5"], 0),
    "states": (["states", "--config", RUBIDIUM, "--measurement", "bell"], 0),
    "sweep": (["sweep", "--config", RUBIDIUM, "--parameter", "d", "--range", "90e-9", "360e-9", "--steps", "5"], 0),
    "argparse-error": (["intensity", "--config", RUBIDIUM, "--branch", "loops"], 2),
    "config-error": (["states", "--config", "absent.cfg"], 2),
}

# the console path against main: (argv, environment, exit code); "out" is a file in the run's own directory
CONSOLE = {
    "states-bell": (["states", "--config", RUBIDIUM, "--measurement", "bell"], {}, 0),
    "verify-corrupt": (["verify", "--config", RUBIDIUM, "--skip-quadrature", "--corrupt-z", "z5R"], {}, 3),
    "intensity-out": (["intensity", "--config", RUBIDIUM, "--grid-points", "11", "--out", "p.csv"],
                      {"SOURCE_DATE_EPOCH": "0"}, 0),
    "version": (["--version"], {}, 0),
    "unknown-branch": (["intensity", "--config", RUBIDIUM, "--branch", "loops"], {}, 2),
    "missing-config": (["intensity", "--config", "absent.cfg"], {}, 2),
}


def _main(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors and --version
        return exc.code


def _environment(extra: dict) -> dict:
    # a fixed COLUMNS: argparse wraps its usage text to the terminal, which a pipe and pytest's capture see apart
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]), COLUMNS="80")
    env.pop("SOURCE_DATE_EPOCH", None)
    return dict(env, **extra)


def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("case", IN_PROCESS)
def test_main_never_freezes_the_collector(case, tmp_path, monkeypatch, capsys):
    argv, code = IN_PROCESS[case]
    monkeypatch.chdir(tmp_path)
    before = gc.get_freeze_count()
    assert _main(argv) == code
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("case", IN_PROCESS)
def test_the_collection_console_skips_closes_no_file_and_runs_no_finalizer(case, tmp_path, monkeypatch, capsys):
    # what console's freeze keeps the exiting interpreter from collecting holds no unclosed file (a ResourceWarning,
    # raised here as an error, reaches the unraisable hook from a finalizer) and nothing the collector cannot free
    argv, code = IN_PROCESS[case]
    monkeypatch.chdir(tmp_path)
    gc.collect()
    assert _main(argv) == code
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []
    assert gc.garbage == []


@pytest.mark.parametrize("case", ["states-bell", "verify-corrupt", "unknown-branch", "missing-config"])
def test_console_freezes_the_collector_and_exits_as_main_does(case, tmp_path, monkeypatch, capsys):
    argv, extra, code = CONSOLE[case]
    monkeypatch.chdir(tmp_path)
    assert _main(argv) == code
    script = (
        "import gc, sys\n"
        "from eltsim.cli import console\n"
        "try:\n"
        f"    code = console({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(gc.get_freeze_count(), code, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=_environment(extra),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    frozen, exit_code = done.stderr.splitlines()[-1].split()
    assert int(frozen) > 0
    assert int(exit_code) == code


@pytest.mark.parametrize("case", CONSOLE)
def test_python_m_eltsim_cli_writes_what_main_writes(case, tmp_path, monkeypatch, capsys):
    argv, extra, code = CONSOLE[case]
    console_dir, main_dir = tmp_path / "console", tmp_path / "main"
    console_dir.mkdir()
    main_dir.mkdir()
    done = subprocess.run([sys.executable, "-m", "eltsim.cli", *argv], cwd=console_dir, env=_environment(extra),
                          capture_output=True, text=True, timeout=120)
    monkeypatch.chdir(main_dir)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    for name, value in extra.items():
        monkeypatch.setenv(name, value)
    in_process = _main(argv)
    out, err = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (in_process, out, err)
    assert in_process == code
    assert _files(console_dir) == _files(main_dir)
