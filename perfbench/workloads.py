"""Workloads: seeded inputs for eltsim and the check of each operation's output.

eltsim sees only a generated config file and argv. Every operation comes with
a check that compares what eltsim wrote against ``reference`` or against the
invariants its output format promises; a check returns a problem string, or
None when the output is right.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

import reference

# the Rubidium set of configs/rubidium.cfg
RUBIDIUM = {
    "mass": 1.44e-25, "sigma0": 10e-9, "beta": 10e-9, "d": 180e-9, "t": 20e-6, "tau": 20e-6,
    "amp_nonexotic": 1.0, "amp_exotic": 0.05,
}
_FILE_KEYS = {
    "mass": "mass_kg", "sigma0": "sigma0_m", "beta": "beta_m", "d": "d_m", "t": "t_s", "tau": "tau_s",
    "amp_nonexotic": "amp_nonexotic_re", "amp_exotic": "amp_exotic_re",
}
SWEEP_PARAMETERS = ("sigma0", "beta", "d", "t", "tau")
BRANCHES = ("elt", "ground", "full", "fringes", "antifringes")

SWEEP_STEPS = 2000
DENSE_POINTS = 200_001
COLD_SWEEP_STEPS = 10
DEFAULT_POINTS = 2001  # eltsim's --grid-points default, used by the cold intensity command

PROFILE_TOL = 1e-9  # absolute, on peak-normalized intensity
RELATIVE_TOL = 1e-9


@dataclass
class Outcome:
    exit: int | None
    exception: str | None
    stdout: str


@dataclass
class Op:
    argv: list[str]
    check: Callable[[Outcome], str | None]
    work: float  # configurations, points, verifications or commands done
    outputs: list[str] = field(default_factory=list)  # files the op writes
    verdict: dict = field(default_factory=dict)  # filled by a verify check: cause of a FAILED verdict


def near_rubidium(rng) -> dict:
    """Lengths, times and the loop weight log-uniform over one decade centred on Rubidium."""
    cfg = dict(RUBIDIUM)
    for key in ("sigma0", "beta", "d", "t", "tau", "amp_exotic"):
        cfg[key] = RUBIDIUM[key] * 10.0 ** rng.uniform(-0.5, 0.5)
    return cfg


def in_verify_box(rng) -> dict:
    """t, tau log-uniform in [1e-9, 1e-2] s; d, sigma0, beta over two decades around Rubidium."""
    cfg = dict(RUBIDIUM)
    for key in ("t", "tau"):
        cfg[key] = math.exp(rng.uniform(math.log(1e-9), math.log(1e-2)))
    for key in ("d", "sigma0", "beta"):
        cfg[key] = RUBIDIUM[key] * 10.0 ** rng.uniform(-1.0, 1.0)
    return cfg


def write_config(path: str, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for key, name in _FILE_KEYS.items():
            fh.write(f"{name} = {cfg[key]!r}\n")
    return path


# ---- checks -------------------------------------------------------------


def _manifest_problem(out: str, command: str) -> str | None:
    try:
        with open(f"{out}.manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"manifest unreadable: {exc}"
    if manifest.get("command") != command:
        return f"manifest command {manifest.get('command')!r}, expected {command!r}"
    return None


def _read_csv(path: str, header: str) -> tuple[np.ndarray | None, str | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().strip()
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return None, f"csv unreadable: {exc}"
    if first != header:
        return None, f"csv header {first!r}"
    if not np.all(np.isfinite(body)):
        return None, "csv holds a non-finite number"
    return body, None


def _relative(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.abs(np.asarray(b))))


def check_intensity(cfg: dict, branch: str, points: int, out: str, outcome: Outcome) -> str | None:
    """Grid spans +/- 5 fringe spacings pi/|gamma| and increases strictly,
    values lie in [0, 1] and match the reference chain's branch profile."""
    if outcome.exit != 0:
        return f"exit {outcome.exit} {outcome.exception or ''}".strip()
    body, problem = _read_csv(out, "x_m,intensity,visibility_pointwise")
    if problem:
        return problem
    x, values = body[:, 0], body[:, 1]
    if len(x) != points:
        return f"{len(x)} rows, expected {points}"
    if not np.all(np.diff(x) > 0):
        return "grid not strictly increasing"
    half = 5.0 * math.pi / abs(reference.fringe_gamma(cfg))
    if _relative([x[0], x[-1]], [-half, half]) > RELATIVE_TOL:
        return f"grid [{x[0]:.6e}, {x[-1]:.6e}] m, expected +/-{half:.6e} m"
    if values.min() < 0.0 or values.max() > 1.0:
        return f"intensity outside [0, 1]: [{values.min():.3e}, {values.max():.3e}]"
    deviation = float(np.max(np.abs(values - reference.profile(cfg, branch, x))))
    if deviation > PROFILE_TOL:
        return f"{branch} profile deviates from the reference chain by {deviation:.3e}"
    return _manifest_problem(out, "intensity")


def check_sweep(cfg: dict, parameter: str, lo: float, hi: float, steps: int, out: str, outcome: Outcome) -> str | None:
    """Swept values, epsilon, gamma = Im b of the reference loop-12 chain and
    fringe spacing pi/|gamma| per row; aggregate visibility in [0, 1]."""
    if outcome.exit != 0:
        return f"exit {outcome.exit} {outcome.exception or ''}".strip()
    body, problem = _read_csv(out, "param_value,epsilon_s,gamma_et,fringe_spacing_m,aggregate_visibility,mu_et_rad")
    if problem:
        return problem
    if len(body) != steps:
        return f"{len(body)} rows, expected {steps}"
    values = np.linspace(lo, hi, steps)
    rows = {**cfg, parameter: values}
    gamma = reference.fringe_gamma(rows)
    for name, got, want in (
        ("param_value", body[:, 0], values),
        ("epsilon_s", body[:, 1], reference.epsilon(rows) * np.ones(steps)),
        ("gamma_et", body[:, 2], gamma),
        ("fringe_spacing_m", body[:, 3], math.pi / np.abs(gamma)),
    ):
        deviation = _relative(got, want)
        if deviation > RELATIVE_TOL:
            return f"{name} deviates from the reference by {deviation:.3e} (relative)"
    visibility = body[:, 4]
    if visibility.min() < 0.0 or visibility.max() > 1.0:
        return "aggregate_visibility outside [0, 1]"
    return _manifest_problem(out, "sweep")


_RECORD = re.compile(r"^\[(ok  |FAIL)\] (\S+): deviation (\S+) \(tol (\S+)\)")
_ROUNDING = 1e-3  # deviations are printed with four significant digits
_DEVIATION_FLOOR = 1e-2  # share of the tolerance by which a small deviation may differ from the reference's


def check_verify(op: Op, cfg: dict, out: str, outcome: Outcome) -> str | None:
    """The report is well formed, each closed-vs-chain deviation matches the
    one the reference chain gives for the closed form in the manifest, each
    record's status follows from its deviation and tolerance, the verdict
    from the records and the exit code from the verdict. A FAILED verdict is
    a correct output; its cause goes to ``op.verdict``: a deviation of exactly
    2 on closed-vs-chain is the known global sign flip, a NaN deviation a
    wavefunction that under- or overflowed."""
    if outcome.exit not in (0, 3):
        return f"exit {outcome.exit} {outcome.exception or ''}".strip()
    try:
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(f"{out}.manifest.json", encoding="utf-8") as fh:
            coefficients = json.load(fh)["coefficients"]
    except (OSError, ValueError, KeyError) as exc:
        return f"report or manifest unreadable: {exc!r}"
    records = [m.groups() for m in map(_RECORD.match, lines) if m]
    if not records:
        return "no check records in the report"
    families = {name.split("/")[0] for _, name, _, _ in records}
    if not {"closed-vs-chain", "chain-vs-quadrature"} <= families:
        return f"report lacks a wavefunction check: {sorted(families)}"
    causes = set()
    for status, name, deviation, tolerance in records:
        deviation, tolerance = float(deviation), float(tolerance)
        family = name.split("/")[0]
        if family == "closed-vs-chain":
            want, representable = reference.closed_vs_chain(cfg, coefficients, name[-2:])
            # outside double range plain arithmetic breaks down, and any value, NaN too, is an honest result
            close = deviation == want or abs(deviation - want) <= _ROUNDING * abs(want) + _DEVIATION_FLOOR * tolerance
            if representable and not close:
                return f"{name} deviation {deviation}, the reference chain gives {want:.4g}"
        if status != "FAIL":
            if not deviation <= tolerance * (1 + _ROUNDING):
                return f"{name} ok at deviation {deviation} beyond tolerance {tolerance}"
            continue
        if math.isnan(deviation):
            causes.add(f"{family}-nan")
        elif deviation < tolerance * (1 - _ROUNDING):
            return f"{name} FAIL at deviation {deviation} within tolerance {tolerance}"
        elif family == "closed-vs-chain" and abs(deviation - 2.0) <= 2.0 * _ROUNDING:
            causes.add("sign-flip")
        else:
            causes.add(family)
    verdict = "verification FAILED" if causes else "verification PASSED"
    if verdict not in lines:
        return f"report does not say {verdict!r}"
    if outcome.exit != (3 if causes else 0):
        return f"exit {outcome.exit} with {verdict!r}"
    if causes:
        op.verdict["cause"] = "+".join(sorted(causes))
    return _manifest_problem(out, "verify")


_BRANCH_LINE = re.compile(r"^ branch (\S+): probability (\S+)$")


def check_states(cfg: dict, outcome: Outcome) -> str | None:
    """Bell-branch probabilities against the marking protocol's weights."""
    if outcome.exit != 0:
        return f"exit {outcome.exit} {outcome.exception or ''}".strip()
    got = {m.group(1): float(m.group(2)) for m in map(_BRANCH_LINE.match, outcome.stdout.splitlines()) if m}
    want = reference.bell_probabilities(cfg)
    if set(got) != set(want):
        return f"branches {sorted(got)}, expected {sorted(want)}"
    for name, p in want.items():
        if abs(got[name] - p) > RELATIVE_TOL * p:
            return f"branch {name} probability {got[name]!r}, expected {p!r}"
    return None


# ---- operation streams ---------------------------------------------------


def _sweep_op(rng, tmp: str, n: int, steps: int) -> Op:
    cfg = near_rubidium(rng)
    parameter = rng.choice(SWEEP_PARAMETERS)
    lo = cfg[parameter] * 10.0 ** rng.uniform(-0.5, 0.0)
    hi = cfg[parameter] * 10.0 ** rng.uniform(0.0, 0.5)
    config = write_config(os.path.join(tmp, f"op{n}.cfg"), cfg)
    out = os.path.join(tmp, f"op{n}.csv")
    argv = ["sweep", "--config", config, "--parameter", parameter, "--range", repr(lo), repr(hi),
            "--steps", str(steps), "--out", out]
    return Op(argv, lambda o: check_sweep(cfg, parameter, lo, hi, steps, out, o), steps, [config, out, out + ".manifest.json"])


def _intensity_op(cfg: dict, tmp: str, n: int, branch: str, points: int | None) -> Op:
    config = write_config(os.path.join(tmp, f"op{n}.cfg"), cfg)
    out = os.path.join(tmp, f"op{n}.csv")
    argv = ["intensity", "--config", config, "--branch", branch, "--out", out]
    if points is not None:
        argv += ["--grid-points", str(points)]
    points = points or DEFAULT_POINTS
    return Op(argv, lambda o: check_intensity(cfg, branch, points, out, o), points, [config, out, out + ".manifest.json"])


def _verify_op(cfg: dict, tmp: str, n: int) -> Op:
    config = write_config(os.path.join(tmp, f"op{n}.cfg"), cfg)
    out = os.path.join(tmp, f"op{n}.txt")
    op = Op(["verify", "--config", config, "--out", out], None, 1, [config, out, out + ".manifest.json"])
    op.check = lambda o: check_verify(op, cfg, out, o)
    return op


def _states_op(cfg: dict, tmp: str, n: int) -> Op:
    config = write_config(os.path.join(tmp, f"op{n}.cfg"), cfg)
    return Op(["states", "--config", config, "--measurement", "bell"], lambda o: check_states(cfg, o), 1, [config])


def cold_cli(rng, tmp: str):
    """The README's four commands in turn, on configs near Rubidium."""
    for n in itertools.count():
        kind = n % 4
        if kind == 0:
            op = _intensity_op(near_rubidium(rng), tmp, n, "elt", None)
        elif kind == 1:
            op = _verify_op(near_rubidium(rng), tmp, n)
        elif kind == 2:
            op = _states_op(near_rubidium(rng), tmp, n)
        else:
            op = _sweep_op(rng, tmp, n, COLD_SWEEP_STEPS)
        op.work = 1  # one command
        yield op


def sweep_map(rng, tmp: str):
    for n in itertools.count():
        yield _sweep_op(rng, tmp, n, SWEEP_STEPS)


def dense_profile(rng, tmp: str):
    for n in itertools.count():
        yield _intensity_op(near_rubidium(rng), tmp, n, BRANCHES[n % len(BRANCHES)], DENSE_POINTS)


def verify_box(rng, tmp: str):
    for n in itertools.count():
        yield _verify_op(in_verify_box(rng), tmp, n)


class Workload(NamedTuple):
    stream: Callable  # (rng, tmp) -> endless iterator of Op
    cold: bool  # a fresh interpreter per operation
    unit: str  # what work_per_s counts
    min_ops: int  # fewest timed operations: keeps the tail percentile the same from run to run


WORKLOADS = {
    "cold_cli": Workload(cold_cli, True, "commands", 20),  # tail p50
    "sweep_map": Workload(sweep_map, False, "configs", 40),  # tail p75
    "dense_profile": Workload(dense_profile, False, "points", 20),  # tail p50
    "verify_box": Workload(verify_box, False, "verifies", 200),  # tail p95
}
