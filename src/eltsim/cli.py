"""Command-line surface: intensity profiles, verification, state reports, sweeps.

Each ``cmd_*`` returns its exit code, its text, the closed-form solution of
its configuration (``closedform.solve``) and its manifest fields. ``main``
writes the text to ``--out`` (stdout when it is not given) and, with
``--out``, the reproducibility record ``<out>.manifest.json`` beside it,
from that solution: ``verify`` solves once, every other command only with
``--out``. ``intensity`` and ``sweep`` read the propagator chain, so they
accept a nonzero ``eta``. ``sweep`` reads its values in batches of
``SWEEP_CHUNK`` configurations, one array chain and one (configurations x
window) profile block each, so its memory stays flat in ``--steps``. Each
row is scored on the central three fringes alone, the window its
``aggregate_visibility`` reads, at the default grid's spacing.

Exit codes: 0 success, 2 configuration error (including bad flags), 3
verification failure, 4 I/O error. CSV numbers use scientific notation with
17 significant digits so outputs are byte-reproducible across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys

import numpy as np

from . import __version__, closedform, intensity, marking, verification
from .params import ConfigError, PhysicsConfig, config_as_dict, derive, load_config, validate_regime

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_IO = 4

_FMT = "%.16e"  # 17 significant digits

BRANCHES = ("elt", "ground", "full", "fringes", "antifringes")
MEASUREMENTS = ("bell", "internal", "none")
SWEEP_PARAMETERS = ("sigma0", "beta", "d", "t", "tau")
# window points per swept configuration: +/- CENTRAL_FRINGES fringe spacings at spacing pi/|gamma|/80,
# the positions of points 280-520 of an 801-point default_grid, which is all aggregate_visibility reads
SWEEP_POINTS = 241
SWEEP_CHUNK = 32  # configurations per batch: each (SWEEP_CHUNK x SWEEP_POINTS) float temporary is 62 kB


def _rows(*columns) -> list[str]:
    """One CSV row per element of the broadcast columns, each number in ``_FMT``."""
    row = ",".join([_FMT] * len(columns))
    return [row % values for values in zip(*(c.tolist() for c in np.broadcast_arrays(*columns)))]


def _warn(config: PhysicsConfig):
    """Print the regime warnings of a configuration, or of all the values of a swept one."""
    for warning in validate_regime(config):
        print(f"warning: {warning}", file=sys.stderr)


def _reference(args, config: PhysicsConfig):
    """The closed-form solution a manifest records; solved only when ``--out`` asks for one."""
    return closedform.solve(config) if args.out is not None else None


def _grid(args, coeffs) -> np.ndarray:
    points = args.grid_points
    if args.grid_min is not None or args.grid_max is not None:
        if args.grid_min is None or args.grid_max is None:
            raise ConfigError("--grid-min and --grid-max must be given together")
        if not args.grid_max > args.grid_min:
            raise ConfigError("--grid-max must exceed --grid-min")
        return np.linspace(args.grid_min, args.grid_max, points)
    return intensity.default_grid(coeffs, points=points)


def _write_text(path, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _complex_pair(z: complex):
    return {"re": z.real, "im": z.imag}


def write_manifest(out_path, config: PhysicsConfig, solution: closedform.Solution, command: str, extra: dict):
    """Reproducibility record next to a data file: config echo, derived
    quantities, the full coefficient table, tool version, timestamp."""
    derived = solution.derived
    manifest = {
        "tool": "eltsim",
        "version": __version__,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config_as_dict(config),
        "derived": {
            "delta_p_kg_m_s": derived.delta_p,
            "delta_v_m_s": derived.delta_v,
            "epsilon_s": derived.epsilon,
        },
        "ztable": {
            name: _complex_pair(value) if isinstance(value, complex) else value
            for name, value in dataclasses.asdict(solution.ztable).items()
        },
        "coefficients": dataclasses.asdict(solution.coeffs),
    }
    manifest.update(extra)
    path = f"{out_path}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def branch_profile(branch: str, grid, config: PhysicsConfig, coeffs: closedform.EltCoefficients, normalization: str):
    """Screen profile for one named branch of the marked interferometer (``elt`` reads ``coeffs``)."""
    if branch == "elt":
        return intensity.elt_intensity(grid, coeffs, normalization)
    if branch not in BRANCHES:
        raise ConfigError(f"unknown branch {branch!r}")
    full = marking.post_slit_state(config)
    ground, _ = marking.measure_internal(full)
    states = {"full": full, "ground": ground}
    if branch in ("fringes", "antifringes"):
        # the straight paths are the ground branch; erasing their cavity marks gives the two patterns
        states["fringes"], states["antifringes"] = marking.eraser_basis_single_detector(ground.collapsed())
    return intensity.branch_intensity(states[branch], grid, config, normalization, label=branch)


def profile_csv(profile: intensity.IntensityProfile) -> str:
    vis = 0.0 if profile.visibility is None else profile.visibility
    return "\n".join(["x_m,intensity,visibility_pointwise", *_rows(profile.grid, profile.values, vis)]) + "\n"


def cmd_intensity(args, config: PhysicsConfig):
    _warn(config)
    solution = _reference(args, config)
    coeffs = intensity.loop_coefficients(config)
    grid = _grid(args, coeffs)
    normalization = "raw" if args.raw else "peak"
    profile = branch_profile(args.branch, grid, config, coeffs, normalization)
    extra = {"branch": args.branch, "normalization": normalization, "clamped_points": profile.clamped_points}
    return EXIT_OK, profile_csv(profile), solution, extra


def cmd_verify(args, config: PhysicsConfig):
    _warn(config)
    solution = closedform.solve(config)
    report = verification.full_verification(
        config,
        points=args.points,
        quadrature=not args.skip_quadrature,
        corrupt=args.corrupt_z,
        solution=solution,
    )
    text = report.render() + "\n"
    worst = report.worst()
    if worst is not None:
        text += f"worst offender: {worst.name} (deviation {worst.deviation:.3e})"
        if worst.detail:
            text += f", {worst.detail}"
        text += "\n"
    code = EXIT_OK if report.passed else EXIT_VERIFY
    extra = {"points": args.points, "tolerance": verification.DEFAULT_CHAIN_TOL, "passed": report.passed}
    return code, text, solution, extra


def _prob(p: float) -> str:
    return f"{p:.11e}"  # 12 significant digits


def _state_table(state: marking.CompositeState) -> list[str]:
    lines = []
    for label, amp in sorted(state.terms.items(), key=lambda kv: (kv[0].path, kv[0].cavities)):
        lines.append(
            f"  path {label.path:<3} level {label.level} cavities {label.cavities:<4} "
            f"amplitude {amp.real:+.12e} {amp.imag:+.12e}j"
        )
    return lines


def cmd_states(args, config: PhysicsConfig):
    _warn(config)
    solution = _reference(args, config)
    state = marking.post_slit_state(config)
    lines = ["post-slit composite state:"]
    lines += _state_table(state)

    measurements = {
        "bell": ("joint cavity measurement (Bell basis):", marking.measure_bell_cavities),
        "internal": ("atomic-level measurement:", marking.measure_internal),
    }
    if args.measurement in measurements:
        title, measure = measurements[args.measurement]
        lines.append(title)
        for br in measure(state):
            lines.append(f" branch {br.name}: probability {_prob(br.probability)}")
            if br.state is not None:
                lines += _state_table(br.state)
    elif args.measurement != "none":
        raise ConfigError(f"unknown measurement {args.measurement!r}")

    density = marking.reduce_center_of_mass(state)
    paths, mat = density.matrix()
    lines.append("reduced center-of-mass weight matrix (paths " + ", ".join(paths) + "):")
    for row in mat:
        lines.append("  " + "  ".join(f"{w.real:+.12e}{w.imag:+.12e}j" for w in row))
    return EXIT_OK, "\n".join(lines) + "\n", solution, {"measurement": args.measurement}


def cmd_sweep(args, config: PhysicsConfig):
    if args.parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {args.parameter!r}")
    lo, hi = args.range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"--range ends must be finite numbers, got {lo!r} {hi!r}")
    if not (lo > 0 and hi >= lo):
        raise ConfigError("sweep range must satisfy 0 < min <= max")
    if args.steps < 1:
        raise ConfigError("sweep needs at least one step")
    values = np.linspace(lo, hi, args.steps) if args.steps > 1 else np.array([lo])
    swept = dataclasses.replace(config, **{args.parameter: values})
    _warn(swept)  # derives every value first: a value out of range is named before any row is made
    # epsilon depends on d and sigma0 only, so it may be one value for all rows
    epsilon = np.broadcast_to(derive(swept).epsilon, values.shape)

    lines = ["param_value,epsilon_s,gamma_et,fringe_spacing_m,aggregate_visibility,mu_et_rad"]
    for start in range(0, values.size, SWEEP_CHUNK):
        chunk = slice(start, start + SWEEP_CHUNK)
        coeffs = intensity.loop_coefficients(dataclasses.replace(config, **{args.parameter: values[chunk]}))
        spacing = intensity.fringe_spacing(coeffs)
        grid = intensity.default_grid(coeffs, points=SWEEP_POINTS, fringes=intensity.CENTRAL_FRINGES)
        profile = intensity.elt_intensity(grid, coeffs, "peak")
        agg = intensity.aggregate_visibility(profile, spacing)
        lines += _rows(values[chunk], epsilon[chunk], coeffs.gamma, spacing, agg, coeffs.mu)
    extra = {"parameter": args.parameter, "range": [lo, hi], "steps": args.steps}
    return EXIT_OK, "\n".join(lines) + "\n", _reference(args, config), extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eltsim",
        description="Double-slit matter-wave simulator isolating looped-trajectory interference.",
    )
    parser.add_argument("--version", action="version", version=f"eltsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key=value configuration file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p_int = sub.add_parser("intensity", help="emit a screen intensity profile as CSV")
    common(p_int)
    p_int.add_argument("--branch", choices=BRANCHES, default="elt")
    p_int.add_argument("--grid-min", type=float, default=None, help="left grid edge, m")
    p_int.add_argument("--grid-max", type=float, default=None, help="right grid edge, m")
    p_int.add_argument("--grid-points", type=int, default=2001)
    p_int.add_argument("--raw", action="store_true", help="raw density instead of peak normalization")
    p_int.set_defaults(func=cmd_intensity)

    p_ver = sub.add_parser("verify", help="cross-check closed forms against the chain and quadrature")
    common(p_ver)
    p_ver.add_argument("--points", type=int, default=101)
    p_ver.add_argument("--skip-quadrature", action="store_true", help="skip the slow 2-D quadrature check")
    p_ver.add_argument("--corrupt-z", default=None, metavar="NAME", help="fault injection: corrupt one z-table entry (test mode)")
    p_ver.set_defaults(func=cmd_verify)

    p_st = sub.add_parser("states", help="report measurement branches and reduced densities")
    common(p_st)
    p_st.add_argument("--measurement", choices=MEASUREMENTS, default="none")
    p_st.set_defaults(func=cmd_states)

    p_sw = sub.add_parser("sweep", help="sweep one parameter and emit fringe metrics as CSV")
    common(p_sw)
    p_sw.add_argument("--parameter", required=True, choices=SWEEP_PARAMETERS)
    p_sw.add_argument("--range", type=float, nargs=2, required=True, metavar=("MIN", "MAX"))
    p_sw.add_argument("--steps", type=int, default=10)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        code, text, solution, extra = args.func(args, config)
        _write_text(args.out, text)
        if args.out is not None:
            write_manifest(args.out, config, solution, args.command, extra)
        return code
    except ValueError as exc:  # ConfigError and every other named error subclass it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
