"""A command's verdict does not depend on --out: no command computes anything for its manifest alone, and only
verify reads the closed form."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import eltsim
from eltsim.cli import main

RUBIDIUM = {
    "mass_kg": "1.44e-25",
    "sigma0_m": "10e-9",
    "beta_m": "10e-9",
    "d_m": "180e-9",
    "t_s": "20e-6",
    "tau_s": "20e-6",
}


def _config(tmp_path, **overrides):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**RUBIDIUM, **overrides}.items()))
    return path


@pytest.mark.parametrize(
    "overrides, command, code",
    [
        # the flight 2 (epsilon + eta) overflows: the rows are written, with one regime warning
        ({"eta_s": "1e308"}, ["sweep", "--parameter", "d", "--range", "1e-7", "2e-7", "--steps", "3"], 0),
        # the loop chain's amplitude underflows to 0: a profile of 0 cannot be normalized
        ({"mass_kg": "1e-100", "t_s": "1e264"}, ["intensity", "--grid-points", "3"], 2),
        # m^3 leaves the float range: the closed form is not finite, and states reads none
        ({"mass_kg": "1e200"}, ["states"], 0),
    ],
    ids=["sweep-eta-1e308", "intensity-mass-1e-100", "states-mass-1e200"],
)
def test_one_verdict_with_and_without_out(tmp_path, capsys, overrides, command, code):
    config = _config(tmp_path, **overrides)
    argv = [command[0], "--config", str(config), *command[1:]]
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        to_stdout = main(argv)
        stdout = capsys.readouterr()
        to_file = main([*argv, "--out", str(out)])
        to_out = capsys.readouterr()
    assert to_stdout == to_file == code, (stdout.err, to_out.err)
    assert to_out.err == stdout.err and "Traceback" not in stdout.err and "Warning" not in stdout.err
    assert to_out.out == ""
    if code == 0:
        assert out.read_bytes() == stdout.out.encode("ascii")
    else:
        assert stdout.out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_only_verify_imports_the_closed_form(tmp_path):
    # intensity, sweep and states run, to stdout and to --out, and eltsim.closedform is never imported
    config = _config(tmp_path)
    commands = [
        ["intensity", "--grid-points", "11"],
        ["intensity", "--branch", "full", "--grid-points", "11"],
        ["sweep", "--parameter", "d", "--range", "90e-9", "360e-9", "--steps", "5"],
        ["states", "--measurement", "bell"],
    ]
    runs = [[argv[0], "--config", str(config), *argv[1:], *target]
            for argv in commands for target in ([], ["--out", str(tmp_path / "out")])]
    src = os.path.dirname(os.path.dirname(eltsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import io, json, sys\n"
        "from eltsim.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, 'eltsim.closedform' in sys.modules]), file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == [[0] * len(runs), False], done.stderr
