"""closedform.solve is the one solve of a configuration, and only verify calls it, once."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import eltsim
from eltsim import closedform, gaussians, verification
from eltsim.cli import SWEEP_CHUNK, main
from eltsim.params import derive, rubidium_config
from references import slits

CONFIG_TEXT = """\
mass_kg = 1.44e-25
sigma0_m = 10e-9
beta_m = 10e-9
d_m = 180e-9
t_s = 20e-6
tau_s = 20e-6
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


@pytest.fixture()
def solves(monkeypatch):
    """Count calls of closedform.build_coefficients."""
    calls = []
    original = closedform.build_coefficients

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(closedform, "build_coefficients", counting)
    return calls


def test_solve_matches_the_three_steps(config):
    derived = derive(config)
    zt = closedform.build_ztable(config, derived)
    solution = closedform.solve(config)
    assert solution.derived == derived
    assert solution.ztable == zt
    assert solution.coeffs == closedform.build_coefficients(zt, config, derived)


@pytest.mark.parametrize("points", [1, 801, 2001, 200001])
def test_psi21_is_psi12_at_minus_x_bit_for_bit(config, points):
    coeffs = closedform.solve(config).coeffs
    grid = np.linspace(-2e-6, 2e-6, points)
    assert np.array_equal(closedform.psi21(grid, coeffs), closedform.psi12(-grid, coeffs))


@pytest.mark.parametrize("branch", ["elt", "ground", "full", "fringes", "antifringes"])
def test_intensity_never_solves(config_path, tmp_path, solves, branch):
    out = tmp_path / f"{branch}.csv"
    assert main(["intensity", "--config", config_path, "--branch", branch, "--out", str(out)]) == 0
    assert len(solves) == 0  # the manifest records the chain's record, as test_path_amplitudes checks without --out


@pytest.mark.parametrize("steps", [1, 4, SWEEP_CHUNK + 1])
def test_sweep_never_solves(config_path, tmp_path, solves, steps):
    # the rows read the propagator chain, and the manifest records no closed form
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", config_path, "--parameter", "d", "--range", "90e-9", "360e-9"]
    assert main(argv + ["--steps", str(steps), "--out", str(out)]) == 0
    assert len(solves) == 0


@pytest.mark.parametrize("extra", [[], ["--corrupt-z", "z5R"]])
def test_verify_solves_once(config_path, tmp_path, solves, extra):
    out = tmp_path / "verify.txt"
    code = main(["verify", "--config", config_path, "--skip-quadrature", "--out", str(out)] + extra)
    assert code == (3 if extra else 0)
    assert len(solves) == 1
    # fault injection corrupts the check, never the solution the manifest records
    manifest = json.loads((tmp_path / "verify.txt.manifest.json").read_text())
    solution = closedform.solve(rubidium_config())
    assert closedform.EltCoefficients(**manifest["coefficients"]) == solution.coeffs
    assert manifest["ztable"]["z5"] == {"re": solution.ztable.z5.real, "im": solution.ztable.z5.imag}


@pytest.mark.parametrize("corrupt", [None, "z5R"])
def test_verification_never_solves(config, solves, corrupt):
    solution = closedform.solve(config)
    assert solution.config is config
    solves.clear()
    report = verification.full_verification(solution, quadrature=False, corrupt=corrupt)
    assert report.passed == (corrupt is None)
    assert solves == []


def test_verify_manifest_coefficients_reproduce_the_chain(config_path, tmp_path):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--config", config_path, "--skip-quadrature", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "verify.txt.manifest.json").read_text())
    coeffs = closedform.EltCoefficients(**manifest["coefficients"])
    config = rubidium_config()
    assert coeffs == closedform.solve(config).coeffs
    grid = np.linspace(-1e-6, 1e-6, 41)
    for loop, psi in (("12", closedform.psi12), ("21", closedform.psi21)):
        chain = gaussians.chain(slits(loop, config), config).evaluate(grid)
        closed = closedform.CHAIN_SIGN * psi(grid, coeffs)
        assert np.max(np.abs(closed - chain)) / np.max(np.abs(chain)) < verification.DEFAULT_CHAIN_TOL


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(eltsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import eltsim.cli, sys; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_import_does_not_load_the_verification_modules():
    # only verify needs the cross-checks and the quadrature oracle; it imports them when it runs
    src = os.path.dirname(os.path.dirname(eltsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import eltsim.cli, sys; print([m for m in ('eltsim.verification', 'eltsim.oracle') if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_command_runs_without_scipy(config_path):
    # scipy is a test extra only: with its import blocked, every subcommand still exits 0
    src = os.path.dirname(os.path.dirname(eltsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    commands = [
        ["intensity", "--config", config_path, "--grid-points", "11"],
        ["verify", "--config", config_path],
        ["states", "--config", config_path, "--measurement", "bell"],
        ["sweep", "--config", config_path, "--parameter", "d", "--range", "90e-9", "360e-9", "--steps", "5"],
    ]
    code = (
        "import json, sys; sys.modules['scipy'] = None\n"
        "from eltsim.cli import main\n"
        f"print(json.dumps([main(argv) for argv in {commands!r}]), file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == [0, 0, 0, 0], done.stderr


SWEPT = {
    "d": np.linspace(90e-9, 360e-9, 200),
    "t": np.linspace(2e-6, 2e-4, 200),
    "tau": np.linspace(2e-6, 2e-4, 200),
    "beta": np.linspace(1e-9, 1e-7, 200),
    "sigma0": np.linspace(1e-9, 1e-7, 200),
}


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_a_swept_solve_matches_each_row_solved_alone(name):
    values = SWEPT[name]
    swept = closedform.solve(rubidium_config(**{name: values}))

    def row(record, i):  # a field that does not depend on the swept one stays a scalar
        return {key: np.broadcast_to(value, values.shape)[i] for key, value in vars(record).items()}

    for i, value in enumerate(values):
        one = closedform.solve(rubidium_config(**{name: float(value)}))
        coeffs = row(swept.coeffs, i)
        for key, want in vars(one.coeffs).items():
            if key != "c3":
                assert coeffs[key] == pytest.approx(want, rel=1e-14, abs=0), (key, value)
        # C3 is a sum of terms much larger than itself where d/beta is large: compare on the terms' scale
        terms = closedform.constant_coefficient_terms(one.ztable, one.config, one.derived)
        assert abs(coeffs["c3"] - one.coeffs.c3) <= 1e-15 * sum(abs(term.real) for term in terms.values()), value
        ztable = row(swept.ztable, i)
        for key, want in vars(one.ztable).items():
            assert ztable[key] == pytest.approx(want, rel=1e-13, abs=0), (key, value)
        assert row(swept.derived, i) == vars(one.derived), value
