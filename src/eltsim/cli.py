"""Command-line surface: intensity profiles, verification, state reports, sweeps.

Each ``cmd_*`` returns its exit code, its text as an iterable of string
blocks, the closed-form solution of its configuration (``closedform.solve``)
and its manifest fields. Every check that can fail on the whole output runs
before the command returns; the blocks are then made as they are read.
``intensity`` yields its CSV ``PROFILE_BLOCK`` rows at a time, ``sweep`` one
block per ``SWEEP_CHUNK`` configurations, ``verify`` and ``states`` their
whole report as one block; ``csv_block`` formats every CSV row. ``main``
writes the blocks as they arrive to stdout, or with ``--out`` to
``<out>.tmp``, then the reproducibility record from that solution to
``<out>.manifest.json.tmp``, and moves both into place only when both are
complete, after refusing a target that is a directory: a failing command
leaves no new file (a file already at a staging name is overwritten, then
removed). ``verify`` solves once,
every other command only with ``--out``. ``intensity`` and ``sweep`` read
the propagator chain, so they accept a nonzero ``eta``. ``sweep`` reads
every swept value off one array chain and builds no profile:
``intensity.aggregate_visibility`` scores ``SWEEP_CHUNK`` configurations at a
time on the fringe lattice they all share, and each chunk is one CSV block.

Exit codes: 0 success, 2 configuration error (including bad flags), 3
verification failure, 4 I/O error. On stdout, a sweep chunk whose visibility
fails exits 2 after the blocks before it were written. CSV numbers use
scientific notation with 17 significant digits so outputs are
byte-reproducible across runs: ``csv_block`` makes each block's text in
numpy, byte for byte the text of ``"%.16e" % x``, and hands to Python's
``%`` only nan, inf and the numbers whose last digit long double cannot
settle (about 2% of them; all of them where long double is only double).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__, closedform, intensity, marking, verification
from .params import ConfigError, PhysicsConfig, config_as_dict, derive, load_config, swept_rows, validate_regime

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_IO = 4

_FMT = "%.16e"  # 17 significant digits

BRANCHES = ("elt", "ground", "full", "fringes", "antifringes")
MEASUREMENTS = ("bell", "internal", "none")
SWEEP_PARAMETERS = ("sigma0", "beta", "d", "t", "tau")
SWEEP_CHUNK = 32  # configurations per visibility and CSV block: each (SWEEP_CHUNK x 121) lattice temporary is 31 kB
PROFILE_BLOCK = 4096  # intensity CSV rows per block: 0.3 MB of text, made with a 2 MB tracemalloc peak

# ``csv_block`` writes ``_FMT`` in numpy (fixed-precision %e as in Adams, "Ryu revisited", OOPSLA 2019).
# A finite x != 0 is |x| = y * 10**(E - 16) with y in [1e16, 1e17); its 17 digits are the integer
# nearest y. y is the long double product of |x| and a correctly rounded 10**(16 - E). Its two
# roundings leave it within 1e17 eps of exact; _TIE_BOUND adds 1% for the fraction's rounding to
# double. Where y's fraction lies that close to 1/2 the nearest integer is unsettled, or a tie that
# must round half to even, and Python's % formats x, as it does nan and inf. Where long double is
# only double the bound exceeds 1/2; where its exponent is no wider than double's (double,
# double-double) 10**(16 - E) overflows for the smallest doubles. There % formats every number.


_E_MIN, _E_MAX = -324, 308  # the decades of 5e-324 and of the largest double; each table's row E - _E_MIN serves E


def _scaling(dtype):
    """The table of 10**(16 - E) for every decade E of a nonzero double, the bound on y's error, and
    whether every entry is finite, for a floating type."""
    pow10 = np.array([f"1e{16 - e}" for e in range(_E_MIN, _E_MAX + 1)], dtype=dtype)
    return pow10, 1.01e17 * float(np.finfo(dtype).eps), bool(np.isfinite(pow10).all())


_POW10, _TIE_BOUND, _POW10_FINITE = _scaling(np.longdouble)


def _ascii_digits(width: int) -> np.ndarray:
    """The zero-padded decimal text of 0 ... 10**width - 1, one row of ``width`` ASCII bytes each."""
    digits = np.empty((10,) * width + (width,), np.uint8)
    codes = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(width):
        digits[..., place] = codes.reshape((10,) + (1,) * (width - 1 - place))
    return digits.reshape(-1, width)


_DIGITS4 = _ascii_digits(4).view(np.uint32).ravel()  # "0000" ... "9999", gathered four bytes at a time
_decades = np.arange(_E_MIN, _E_MAX + 1)
_EXPONENT = np.empty((_decades.size, 4), np.uint8)  # "+dd" or "+ddd" per decade, 0 for hundreds left out
_EXPONENT[:, 0] = np.where(_decades < 0, ord("-"), ord("+"))
_EXPONENT[:, 1:] = _ascii_digits(3)[np.abs(_decades)]
_EXPONENT[np.abs(_decades) < 100, 1] = 0
_EXPONENT = _EXPONENT.view(np.uint32).ravel()


def csv_block(*columns) -> str:
    """One CSV row, ending in a newline, per element of the broadcast 1-D columns, each number in ``_FMT``:
    the same bytes as Python's ``%``, made a block at a time in numpy."""
    x = np.column_stack(np.broadcast_arrays(*columns)).astype(np.float64)
    rows, width = x.shape
    x = x.ravel()
    a = np.abs(x)
    zero = a == 0
    by_percent = ~np.isfinite(a) if _POW10_FINITE else np.ones(a.shape, bool)
    a[zero | by_percent] = 1.0  # y = 1e16 at E = 0: a zero then gets 0 digits, the others get % text
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[e - _E_MIN]
    off = np.flatnonzero((y < 1e16) | (y >= 1e17))  # log10 rounded across a power of ten
    e[off] += np.where(y[off] < 1e16, -1, 1)
    y[off] = a[off] * _POW10[e[off] - _E_MIN]
    n = y.astype(np.uint64)  # y < 2**63 after the fix, which leaves it at most _TIE_BOUND outside [1e16, 1e17)
    frac = (y - n).astype(np.float64)
    n += frac > 0.5
    by_percent = np.flatnonzero(by_percent | ~(np.abs(frac - 0.5) > _TIE_BOUND))
    carry = n == 10**17  # rounded up into the next decade
    n[carry] = 10**16
    e += carry
    n[zero] = 0
    hi = n // 10**8
    lo = (n - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10**8
    hi -= lead * 10**8
    quads = np.empty((x.size, 4), np.uint32)  # the 16 digits after the point, four at a time
    for j, part in ((0, hi), (2, lo)):
        quads[:, j] = part // 10**4
        quads[:, j + 1] = part - quads[:, j] * 10**4
    cell = np.empty((rows, width, 25), np.uint8)  # "-d.dddddddddddddddde-ddd," per number, 0 for a byte left out
    cell[:, :, 24] = ord(",")
    cell[:, -1, 24] = ord("\n")
    cell = cell.reshape(x.size, 25)
    cell[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    cell[:, 1] = lead + ord("0")
    cell[:, 2] = ord(".")
    cell[:, 3:19] = _DIGITS4[quads].view(np.uint8)
    cell[:, 19] = ord("e")
    cell[:, 20:24] = _EXPONENT[e - _E_MIN].view(np.uint8).reshape(-1, 4)
    if by_percent.size:
        text = "".join([(_FMT % v).ljust(24, "\0") for v in x[by_percent].tolist()])
        cell[by_percent, :24] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
    cell = cell.ravel()
    return cell[cell != 0].tobytes().decode("ascii")


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
        lo, hi = args.grid_min, args.grid_max
        if lo is None or hi is None:
            raise ConfigError("--grid-min and --grid-max must be given together")
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
            raise ConfigError(f"--grid-min and --grid-max must be finite numbers with a finite span, got {lo!r} {hi!r}")
        if not hi > lo:
            raise ConfigError("--grid-max must exceed --grid-min")
        return np.linspace(lo, hi, points)
    return intensity.default_grid(coeffs, points=points)


def _complex_pair(z: complex):
    return {"re": z.real, "im": z.imag}


def write_manifest(path, solution: closedform.Solution, command: str, extra: dict):
    """Reproducibility record of a data file, read off one solution and written
    to ``path``: config echo, derived quantities, the full coefficient table,
    tool version, timestamp, and the Python and numpy versions that wrote it."""
    derived = solution.derived
    manifest = {
        "tool": "eltsim",
        "version": __version__,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        "config": config_as_dict(solution.config),
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


def profile_csv(profile: intensity.IntensityProfile):
    """The profile's CSV text: the header, then ``PROFILE_BLOCK`` rows per block."""
    vis = 0.0 if profile.visibility is None else profile.visibility
    grid, values, vis = np.broadcast_arrays(profile.grid, profile.values, vis)
    yield "x_m,intensity,visibility_pointwise\n"
    for start in range(0, grid.size, PROFILE_BLOCK):
        rows = slice(start, start + PROFILE_BLOCK)
        yield csv_block(grid[rows], values[rows], vis[rows])


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
        solution,
        points=args.points,
        quadrature=not args.skip_quadrature,
        corrupt=args.corrupt_z,
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
    return code, [text], solution, extra


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
    return EXIT_OK, ["\n".join(lines) + "\n"], solution, {"measurement": args.measurement}


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
    coeffs = intensity.loop_coefficients(swept)  # one chain: a value at which it degenerates is named before any row
    spacing = intensity.fringe_spacing(coeffs)

    def blocks():  # a chunk's visibility may still fail, after the blocks before it are written
        yield "param_value,epsilon_s,gamma_et,fringe_spacing_m,aggregate_visibility,mu_et_rad\n"
        for start in range(0, values.size, SWEEP_CHUNK):  # one visibility block and one CSV block per chunk
            chunk = slice(start, start + SWEEP_CHUNK)
            block = closedform.EltCoefficients(*(field[chunk] for field in vars(coeffs).values()))
            agg = intensity.aggregate_visibility(block, swept_rows(swept, chunk))  # names a failing row's swept value
            yield csv_block(values[chunk], epsilon[chunk], block.gamma, spacing[chunk], agg, block.mu)

    extra = {"parameter": args.parameter, "range": [lo, hi], "steps": args.steps}
    return EXIT_OK, blocks(), _reference(args, config), extra


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


def _write_files(out, blocks, solution: closedform.Solution, command: str, extra: dict):
    """Write the blocks to ``<out>.tmp`` and the manifest to ``<out>.manifest.json.tmp``,
    then move both into place; on any error remove both, so nothing new is left.
    A target that is a directory is refused first: the second move would fail
    after the first had already replaced ``<out>``."""
    manifest = f"{out}.manifest.json"
    for target in (out, manifest):
        if os.path.isdir(target):
            raise IsADirectoryError(f"{target} is a directory")
    staged = (f"{out}.tmp", f"{manifest}.tmp")
    try:
        with open(staged[0], "w", encoding="utf-8", newline="") as fh:
            fh.writelines(blocks)
        write_manifest(staged[1], solution, command, extra)
        os.replace(staged[0], out)
        os.replace(staged[1], manifest)
    except BaseException:
        for path in staged:
            try:
                os.remove(path)
            except OSError:
                pass  # never written, or already moved into place
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        code, blocks, solution, extra = args.func(args, config)
        if args.out is None:
            sys.stdout.writelines(blocks)
        else:
            _write_files(args.out, blocks, solution, args.command, extra)
        return code
    except ValueError as exc:  # ConfigError and every other named error subclass it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
