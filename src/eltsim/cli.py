"""Command-line surface: intensity profiles, verification, state reports, sweeps.

Each ``cmd_*`` returns its exit code, its output as an iterable of blocks of
bytes, the closed-form solution of its configuration (``closedform.solve``)
and its manifest fields. Every command runs every check before its first
byte: the checks run before the command returns, and the blocks are then
made as they are read. ``intensity`` yields its CSV ``PROFILE_BLOCK`` rows
at a time, ``sweep`` ``SWEEP_BLOCK`` rows at a time, ``verify`` and
``states`` their whole report as one block. The commands write a CSV block as
``_block``'s bytes; ``csv_block`` is their ``str`` form, for library callers.
Blocks stay bytes from layout to file: a laid-out CSV block is its numpy
byte buffer itself, and ``verify`` and ``states`` encode their report once.
``main`` writes the blocks as they arrive to stdout's binary buffer, so stdout
carries the bytes ``--out`` writes on every platform (a stream without a
buffer, such as ``io.StringIO``, gets them decoded), or with ``--out``
to ``<out>.tmp``, then the reproducibility record from that solution to
``<out>.manifest.json.tmp``, and moves both into place only when both are
complete, after refusing a target that is a directory: a failing command
leaves no new file (a file already at a staging name is overwritten, then
removed). ``verify`` solves once,
every other command only with ``--out``; its report renders its own verdict
and worst-offender line, and only ``verify`` imports the verification layers
and the quadrature oracle. ``intensity`` and ``sweep`` read
the propagator chain, so they accept a nonzero ``eta``. ``sweep`` range-checks
every swept value, then reads them off one array chain per ``SWEEP_CHAIN``
rows and builds no profile: ``intensity.aggregate_visibility`` scores
``SWEEP_CHUNK`` configurations of a chain at a time on the fringe lattice
they all share. Only the columns the CSV writes are kept, and they are
complete before the command returns, so a row at which a chain degenerates
or whose visibility fails exits 2 before any byte is written, on stdout as
with ``--out``; the first failing chain block names its error. Chain, chunk
and block sizes only spread the fixed cost of a block's numpy calls: no row
and no byte of the output depends on them.

Exit codes: 0 success, 2 configuration error (including bad flags), 3
verification failure, 4 I/O error. The parser owns the choices: an unknown
branch, measurement or sweep parameter is argparse's exit 2 with its usage
text, and ``--config`` and ``--out`` are declared once, for every
subcommand. A flag's negative value may follow it after a space, exponent
and float's digit-group underscores and all: ``--grid-min -1e-6`` is
``--grid-min=-1e-6``.
CSV numbers use scientific notation with 17
significant digits so outputs are byte-reproducible across runs:
``_block`` makes each block's bytes in numpy, byte for byte the text of
``"%.16e" % x``, from a double-double scaling in float64 alone that is the
same on every platform. A block that holds nan, inf or a number whose
fraction lies within ``_TIE_BOUND`` (5e-15) of 1/2 (in practice an exact tie
alone) is Python's ``%`` text whole, row by row. Every other block is
written straight into its final bytes, each column in slots of one width;
only a block in which some number leaves part of its slot unused (a column
of both signs or of two- and three-digit exponents) is compacted after.
``profile_csv`` writes a profile that is even bit for bit, as every
default-grid profile is (``intensity`` module docstring), from its x < 0
half: each x > 0 block is the byte buffer of its mirror block, rows
reversed and x's sign byte dropped, compacted where that block was. The x < 0
layouts are one list with a slot per block: the calling thread fills the even
slots and, where there are two blocks or more, one worker thread the odd ones,
so two blocks' temporaries are in flight at once. The x < 0 half is written
from that list in order, a worker's exception raised at its block, and the
x > 0 half from the list reversed; it holds the buffers, about 35 bytes per
grid point, until then. No block of such a profile
crosses x = 0; a custom grid through 0 is written block by block, and its
block where x crosses 0 is compacted.
A manifest's timestamp is ``SOURCE_DATE_EPOCH`` when that is set.

The ``eltsim`` console script and ``python -m eltsim.cli`` run ``console``:
``main``, then ``gc.freeze()``. Such a process exits once its command
returns, and the exiting interpreter's garbage collections, most of a cold
command's teardown, would walk every object only to free memory the process
gives back as it exits: the cyclic garbage a command leaves holds no open
file and no finalizer with an effect. Atexit handlers, stream flushes and
module teardown still run, so no output or exit code changes. ``main`` is
the in-process entry, which the tests and perfbench's warm worker call many
times, and it never freezes: a frozen heap would stop collecting their
cyclic garbage.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import gc
import itertools
import json
import math
import os
import platform
import re
import sys
import threading

import numpy as np

from . import __version__, closedform, intensity, marking
from .params import (ConfigError, DerivedQuantities, PhysicsConfig, config_as_dict, derive, load_config, swept_rows,
                     validate_regime)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_IO = 4

_FMT = "%.16e"  # 17 significant digits

BRANCHES = ("elt", "ground", "full", "fringes", "antifringes")
MEASUREMENTS = ("bell", "internal", "none")
SWEEP_PARAMETERS = ("sigma0", "beta", "d", "t", "tau")
SWEEP_CHUNK = 256  # configurations per visibility block; each (SWEEP_CHUNK x 121) lattice array is 248 kB
SWEEP_CHAIN = 4096  # configurations per loop-12 chain: a 2000-step sweep still builds one (0.43 ms; 1.5 ms as 256-row
# chains), and 200000 steps take 51 ms against 76 ms as one chain (medians, 2-vCPU shared machine). Chains of 4096 and
# 8192 rows give every row the bits of a one-step sweep at its value; numpy 2.4 on x86-64 rounds some complex products
# of a chain of 16384 or more otherwise, and a 200000-step chain wrote another last digit of mu_et_rad in 32% of rows
SWEEP_BLOCK = 1024  # sweep CSV rows per block: a block's ~80 numpy calls cost more than 256 rows of numbers. A warm
# 2000-step sweep took 10.1 ms at 256 rows, 9.0 ms at 1024 (1.13 MB tracemalloc peak) and 8.7 ms at 2048, at 1.69 MB
# over the 1.42 MB budget of tests/test_cli.py::test_sweep_block_memory_budget (medians, 2-vCPU shared machine)
PROFILE_BLOCK = 6144  # intensity CSV rows per block: 0.43 MB of bytes at a 1.55 MB tracemalloc peak (budget 2 MB)
# per csv_block call, 252 B per row, as _scaled and _digits drop each temporary once it is dead. Two threads lay out
# an even profile's x < 0 blocks, two blocks' temporaries at once, beside its held buffers: 7 MB at 200001 points
# (8.0-9.1 MB peak, by the threads' timing). Two threads lay out blocks 1.02x as fast as one at 4096 rows, whose
# numpy calls are too short to outlast a GIL handoff, 1.41x at 6144 and 1.63x at 8192 (2-vCPU shared machine). The
# profile's own evaluation peaks lower, 7.2 MB for full and 5.0 MB for elt at 200001 points, so the writer sets the
# peak of a dense intensity command

# ``_block`` writes ``_FMT`` in numpy (fixed-precision %e as in Adams, "Ryu revisited", OOPSLA 2019).
# A finite x != 0 is |x| = y * 10**(E - 16) with y in [1e16, 1e17); its 17 digits are the integer
# nearest y. y is made in float64 alone, as a double-double. Per decade E a table holds the shift
# s_E = -floor(E log2 10) and P_E = 10**(16 - E) * 2**-s_E in (5e15, 1e16] as hi + lo, both correctly
# rounded from Python integers. a = ldexp(|x|, s_E) lies in [1, 20) and is exact, subnormals too, and
# Dekker's TwoProduct (Numer. Math. 18, 224, 1971; hi is stored Veltkamp-split, since numpy has no fma)
# gives p + err = a * hi exactly. Then y ~ p + t with t = err + a * lo: n = p + floor(t) is an exact
# integer and the fraction t - floor(t) is exact for t >= 0, within u = 2**-53 for t < 0. t's error,
# with y < 1e17: |lo| <= ulp(hi) / 2 <= u hi, so |a lo| <= u y < 11.2, and lo's own rounding adds
# a u |lo| <= u * 11.2 = 1.3e-15; rounding a * lo (< 16) adds at most 2**-50 = 0.9e-15; |err| <=
# ulp(p) / 2 <= 8 as p <= 1e17 < 2**57, so |t| < 32 and rounding the sum adds at most 2**-49 = 1.8e-15.
# With the fraction's u that is 4.1e-15, and _TIE_BOUND = 5e-15. Only where the fraction lies that
# close to 1/2 (in practice only at an exact tie, which must round half to even) is the nearest
# integer unsettled; Python's % then formats the whole block, as it does one holding nan or inf.

_E_MIN, _E_MAX = -324, 308  # the decades of 5e-324 and of the largest double; each table's row E - _E_MIN serves E
_TIE_BOUND = 5e-15


def _power_table():
    """Per decade E: the shift s_E as int32, then P_E = 10**(16 - E) * 2**-s_E as the double-double
    hi + lo with hi split into two halves of at most 26 bits each; built from Python integers alone."""
    pow10 = [1]
    for _ in range(16 - _E_MIN):
        pow10.append(pow10[-1] * 10)
    log2_10 = math.log2(10)
    shift = [-math.floor(e * log2_10) for e in range(_E_MIN, _E_MAX + 1)]  # exact: E log2 10 stays 0.0015 from integers
    hi, lo = [], []
    for e, s in zip(range(_E_MIN, _E_MAX + 1), shift):
        if e > 16:
            num, den = 1 << -s, pow10[e - 16]
        elif s > 0:
            num, den = pow10[16 - e], 1 << s
        else:
            num, den = pow10[16 - e] << -s, 1
        h = num / den  # int / int is correctly rounded
        hi.append(h)
        lo.append((num - int(h) * den) / den)  # P_E - hi, correctly rounded: hi >= 2**52 is an integer
    hi = np.array(hi)
    big = hi * 134217729.0  # Veltkamp: 2**27 + 1
    big -= big - hi
    return np.array(shift, np.int32), big, hi - big, np.array(lo)


_SHIFT, _HI_BIG, _HI_SMALL, _LO = _power_table()


def _scaled(a: np.ndarray, row: np.ndarray):
    """n = floor(y) as int64 and y's fraction, y = |x| * 10**(16 - E) for a = |x| and row = E - _E_MIN.
    At most seven arrays of a's size are live at once; ``a`` itself is left as it is."""
    a = np.ldexp(a, _SHIFT.take(row))
    p = _HI_BIG.take(row)
    p += _HI_SMALL.take(row)  # hi, exactly
    p *= a  # fl(a * hi)
    a_big = np.multiply(a, 134217729.0)
    a_small = np.subtract(a_big, a)
    a_big -= a_small
    np.subtract(a, a_big, out=a_small)
    a *= _LO.take(row)  # a * lo, the last term of t
    big = _HI_BIG.take(row)
    t = np.multiply(a_big, big)  # err = ((a_big big - p) + a_big small + a_small big) + a_small small, exact
    t -= p
    small = _HI_SMALL.take(row)
    t += np.multiply(a_big, small, out=a_big)
    t += np.multiply(a_small, big, out=big)
    t += np.multiply(a_small, small, out=small)
    del a_big, a_small, big, small
    t += a
    whole = np.floor(t, out=a)
    n = p.astype(np.int64)
    del p
    n += whole.astype(np.int64)
    return n, np.subtract(t, whole, out=t)


def _ascii_digits(width: int) -> np.ndarray:
    """The zero-padded decimal text of 0 ... 10**width - 1, one row of ``width`` ASCII bytes each."""
    digits = np.empty((10,) * width + (width,), np.uint8)
    codes = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(width):
        digits[..., place] = codes.reshape((10,) + (1,) * (width - 1 - place))
    return digits.reshape(-1, width)


_DIGITS4 = _ascii_digits(4).view(np.uint32).ravel()  # "0000" ... "9999", gathered four bytes at a time
_LEAD = np.frombuffer(b"0.1.2.3.4.5.6.7.8.9.", "V2")  # the leading digit and the point


def _exponent_tables():
    """Per decade E, "e+dd" (right for |E| < 100 alone) as 4-byte items, and "e+ddd", or "e+dd" then a 0 for
    the byte left out, as 5-byte items."""
    decades = np.arange(_E_MIN, _E_MAX + 1)
    two = np.abs(decades) < 100
    text = np.empty((decades.size, 5), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(decades < 0, ord("-"), ord("+"))
    text[:, 2:] = _ascii_digits(3)[np.abs(decades)]
    text[two, 2:4] = text[two, 3:]
    text[two, 4] = 0
    return np.ascontiguousarray(text[:, :4]).view("V4").ravel(), text.view("V5").ravel()


_EXPONENT4, _EXPONENT5 = _exponent_tables()

# A block's text is laid out column-major in one (rows x row width) buffer. Each column has one slot width
# for all its rows, "-d.dddddddddddddddde-ddd,": 23 bytes, plus a sign byte where some number of the column
# has its sign bit set and a third exponent digit where some number has |E| >= 100. Each part of a
# column's slots (sign, "d.", 16 digits, exponent) is one write for every row, through a strided view with
# one void item per row, and the separators of all columns are one more. A number that leaves part of its
# slot unused (an unsigned number in a signed column, a two-digit exponent in a three-digit column) leaves
# a 0 there, and only a block that holds such a 0 is compacted.


def _run(buf: np.ndarray, start: int, item) -> np.ndarray:
    """The ``item``-typed bytes from ``start`` on in every row of ``buf``: a strided view, one item per row."""
    return np.ndarray(buf.shape[:1], item, buf, start, buf.strides[:1])


def _digits(x: np.ndarray):
    """Per number of x, its ``_FMT`` text in parts: the table row E - _E_MIN of its decade E, its leading digit
    and the point, and its 16 digits after the point, as 2- and 16-byte void items; or None where x holds nan,
    inf or a number whose fraction lies within ``_TIE_BOUND`` of 1/2, which Python's % formats instead. Each
    array is dropped once it is dead, and take's indices are made as intp: this and ``_scaled`` set a block's
    peak (``PROFILE_BLOCK``)."""
    a = np.abs(x)
    if not np.isfinite(a).all():
        return None
    zero = a == 0
    a[zero] = 1.0  # y = 1e16 at E = 0: a zero then gets 0 digits
    row = np.floor(np.log10(a)).astype(np.int64) - _E_MIN
    n, frac = _scaled(a, row)
    # log10 rounded across a power of ten; judged on n, so on p + t: a p of 1e16 with t < 0 lies below
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if off.size:
        row[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], frac[off] = _scaled(a[off], row[off])
    del a
    frac -= 0.5  # the fraction's distance above 1/2: n rounds up where it is positive
    n += frac > 0
    if (np.abs(frac, out=frac) <= _TIE_BOUND).any():
        return None
    del frac
    carry = n == 10**17  # rounded up into the next decade
    n[carry] = 10**16
    row += carry
    n[zero] = 0
    hi = n // 10**8
    n -= hi * 10**8
    lo = n.astype(np.uint32)
    del n
    hi = hi.astype(np.uint32)
    lead = hi // 10**8
    hi -= lead * 10**8
    quads = np.empty((x.size, 4), np.intp)  # the 16 digits after the point, four at a time, as take's own indices
    for j, part in ((0, hi), (2, lo)):
        quads[:, j] = high = part // 10**4
        part -= high * 10**4
        quads[:, j + 1] = part
    return row, _LEAD.take(lead), _DIGITS4.take(quads).view("V16").ravel()


def _layout(x: np.ndarray):
    """The (columns x rows) block ``x``, rows > 0, laid out in one (rows x row width) byte buffer, and whether
    some slot of it left a 0 byte; None where ``_digits`` is."""
    width, rows = x.shape
    parts = _digits(x.ravel())
    if parts is None:
        return None
    row, lead, digits = (part.reshape(width, rows) for part in parts)
    negative = np.signbit(x)
    long = np.abs(row + _E_MIN) >= 100  # a three-digit exponent
    signed, wide = negative.any(axis=1).tolist(), long.any(axis=1).tolist()
    slot = [23 + sign + three for sign, three in zip(signed, wide)]  # bytes per number, separator included
    start = [0, *itertools.accumulate(slot)]
    buf = np.empty((rows, start[-1]), np.uint8)
    for c, (sign, three) in enumerate(zip(signed, wide)):
        at = start[c] + sign  # the leading digit
        if sign:
            _run(buf, at - 1, np.uint8)[:] = negative[c] * np.uint8(ord("-"))
        _run(buf, at, lead.dtype)[:] = lead[c]
        _run(buf, at + 2, digits.dtype)[:] = digits[c]
        exponent = (_EXPONENT5 if three else _EXPONENT4).take(row[c])
        _run(buf, at + 18, exponent.dtype)[:] = exponent
    buf[:, np.subtract(start[1:], 1)] = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)  # the separators
    return buf, negative.all(axis=1).tolist() != signed or long.all(axis=1).tolist() != wide


def _text(buf: np.ndarray, compact: bool) -> np.ndarray:
    """A laid-out buffer's bytes, contiguous, its 0 bytes dropped where ``compact`` says a slot left some: the
    buffer itself where it is contiguous and not compacted."""
    return buf[buf != 0] if compact else np.ascontiguousarray(buf)


def _block(*columns):
    """``csv_block``'s bytes, as a bytes-like object: a laid-out buffer, or Python's % text encoded."""
    x = np.stack(np.broadcast_arrays(*columns)).astype(np.float64, copy=False)
    if not x.shape[1]:
        return b""  # an empty buffer holds no strided view
    laid = _layout(x)
    if laid is None:  # a number the layout cannot settle: the whole block is Python's % text
        return "".join(",".join([_FMT % v for v in line]) + "\n" for line in x.T.tolist()).encode("ascii")
    return _text(*laid)


def csv_block(*columns) -> str:
    """One CSV row, ending in a newline, per element of the broadcast 1-D columns, each number in ``_FMT``:
    the same bytes as Python's ``%``, made a block at a time in numpy. The commands write ``_block``'s bytes."""
    return str(_block(*columns), "ascii")


def _warn(config: PhysicsConfig) -> DerivedQuantities:
    """Print the regime warnings of a configuration, or of all the values of a swept one, and return
    ``derive(config)``, which range-checks every value first."""
    derived = derive(config)
    for warning in validate_regime(config, derived):
        print(f"warning: {warning}", file=sys.stderr)
    return derived


def _reference(args, config: PhysicsConfig):
    """The closed-form solution a manifest records; solved only when ``--out`` asks for one."""
    return closedform.solve(config) if args.out is not None else None


def _grid(args, coeffs) -> np.ndarray:
    points = args.grid_points
    if points < 1:
        raise ConfigError(f"--grid-points must be at least 1, got {points}")
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


def _timestamp() -> str:
    """The time a manifest records, in UTC: now, or the time that ``SOURCE_DATE_EPOCH`` names
    (https://reproducible-builds.org/specs/source-date-epoch/), so that two runs can write the same bytes."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return datetime.datetime.now(datetime.timezone.utc).isoformat()
    if not (epoch.isascii() and epoch.isdigit()):
        raise ConfigError(f"SOURCE_DATE_EPOCH must be a whole number of seconds, got {epoch!r}")
    try:
        return datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc).isoformat()
    except (OverflowError, OSError, ValueError) as exc:
        raise ConfigError(f"SOURCE_DATE_EPOCH {epoch} is out of range") from exc


def write_manifest(path, solution: closedform.Solution, command: str, extra: dict):
    """Reproducibility record of a data file, read off one solution and written
    to ``path``: config echo, derived quantities, the full coefficient table,
    tool version, timestamp, and the Python and numpy versions that wrote it."""
    derived = solution.derived
    manifest = {
        "tool": "eltsim",
        "version": __version__,
        "command": command,
        "timestamp": _timestamp(),
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
    """Screen profile for one named branch; ``coeffs`` are the loop chain's. ``elt`` is both loops with unit
    weights; ``ground`` is the post-slit state's level g, and erasing its cavity marks gives the two patterns."""
    if branch not in BRANCHES:
        raise ConfigError(f"unknown branch {branch!r}")
    state = intensity.LOOPS_ONLY if branch == "elt" else marking.post_slit_state(config)
    if branch not in ("elt", "full"):
        state, _ = marking.measure_internal(state)
        if branch != "ground":
            state = marking.eraser_basis_single_detector(state.collapsed())[branch == "antifringes"]
    return intensity.branch_intensity(state, grid, config, normalization, coeffs, label=branch)


def profile_csv(profile: intensity.IntensityProfile):
    """The profile's CSV bytes: the header, then ``PROFILE_BLOCK`` rows per block. A profile even bit for bit
    is laid out from its first m = n//2 rows, x < 0, a block at a time into one list, ``laid``: this thread
    lays out the even blocks and, where there are two blocks or more, one worker thread the odd ones. Rows
    m ... n - m, the centre row of an odd n, follow as they are, and the rows x > 0 are ``laid``'s buffers in
    reverse order without x's sign byte, held until then, about 35 bytes per point. An uneven profile is that
    layout with m = 0: every row as it is."""
    vis = 0.0 if profile.visibility is None else profile.visibility
    grid, values, vis = np.broadcast_arrays(*(np.asarray(c, np.float64) for c in (profile.grid, profile.values, vis)))
    yield b"x_m,intensity,visibility_pointwise\n"
    n, m = grid.size, grid.size // 2
    if not (np.array_equal(grid[:m], -grid[::-1][:m]) and all(  # bit for bit: -0.0 == 0.0, but not in text
            np.array_equal(column[:m].view(np.int64), column[::-1][:m].view(np.int64)) for column in (values, vis))):
        m = 0
    blocks = [slice(start, min(start + PROFILE_BLOCK, m)) for start in range(0, m, PROFILE_BLOCK)]
    laid = [None] * len(blocks)  # per block of x < 0: its buffer, None for Python's % text, or the worker's error
    ready, stop = threading.Semaphore(0), threading.Event()  # released per worker block; set as this generator ends

    def lay(k):
        laid[k] = _layout(np.stack([grid[blocks[k]], values[blocks[k]], vis[blocks[k]]]))

    def work():
        for k in range(1, len(blocks), 2):
            if stop.is_set():
                return
            try:
                lay(k)
            except BaseException as exc:  # raised by this generator at block k
                laid[k] = exc
                return
            finally:
                ready.release()

    worker = threading.Thread(target=work, name="eltsim-layout") if len(blocks) > 1 else None
    if worker:
        worker.start()
    try:
        for k, rows in enumerate(blocks):
            if k % 2 == 0:
                lay(k)
            else:
                ready.acquire()
                if isinstance(laid[k], BaseException):
                    raise laid[k]
            yield _block(grid[rows], values[rows], vis[rows]) if laid[k] is None else _text(*laid[k])
    finally:  # a closed generator or an error stops the worker after its current block
        stop.set()
        if worker:
            worker.join()
    for start in range(m, n - m, PROFILE_BLOCK):
        rows = slice(start, min(start + PROFILE_BLOCK, n - m))
        yield _block(grid[rows], values[rows], vis[rows])
    for rows, block in zip(blocks[::-1], laid[::-1]):  # x > 0: every number as at -x, less x's sign, a row's first byte
        if block is None:
            mirror = slice(n - rows.stop, n - rows.start)
            yield _block(grid[mirror], values[mirror], vis[mirror])
        else:
            buf, compact = block
            yield _text(buf[::-1, 1:], compact)


def cmd_intensity(args, config: PhysicsConfig):
    _warn(config)
    solution = _reference(args, config)
    coeffs = intensity.loop_coefficients(config)
    grid = _grid(args, coeffs)
    normalization = "raw" if args.raw else "peak"
    profile = branch_profile(args.branch, grid, config, coeffs, normalization)
    extra = {"branch": args.branch, "normalization": normalization}
    return EXIT_OK, profile_csv(profile), solution, extra


def cmd_verify(args, config: PhysicsConfig):
    from . import verification  # only verify loads it and the quadrature oracle

    if args.points < 1:
        raise ConfigError(f"--points needs at least one point, got {args.points}")
    _warn(config)
    solution = closedform.solve(config)
    report = verification.full_verification(
        solution,
        points=args.points,
        quadrature=not args.skip_quadrature,
        corrupt=args.corrupt_z,
    )
    code = EXIT_OK if report.passed else EXIT_VERIFY
    extra = {"points": args.points, "tolerance": verification.DEFAULT_CHAIN_TOL, "quadrature": not args.skip_quadrature,
             "corrupt_z": args.corrupt_z, "passed": report.passed}
    return code, [(report.render() + "\n").encode()], solution, extra


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
    if args.measurement != "none":
        title, measure = measurements[args.measurement]
        lines.append(title)
        for br in measure(state):
            lines.append(f" branch {br.name}: probability {_prob(br.probability)}")
            if br.state is not None:
                lines += _state_table(br.state)

    density = marking.reduce_center_of_mass(state)
    paths, mat = density.matrix()
    lines.append("reduced center-of-mass weight matrix (paths " + ", ".join(paths) + "):")
    for row in mat:
        lines.append("  " + "  ".join(f"{w.real:+.12e}{w.imag:+.12e}j" for w in row))
    return EXIT_OK, [("\n".join(lines) + "\n").encode()], solution, {"measurement": args.measurement}


def cmd_sweep(args, config: PhysicsConfig):
    lo, hi = args.range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"--range ends must be finite numbers, got {lo!r} {hi!r}")
    if not (lo > 0 and hi >= lo):
        raise ConfigError("sweep range must satisfy 0 < min <= max")
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    values = np.linspace(lo, hi, args.steps)
    swept = dataclasses.replace(config, **{args.parameter: values})
    # every value first: a value out of range is named before any row is made. Of the record only epsilon is kept,
    # as its span is one more array of every row; epsilon depends on d and sigma0 only, so may be one value for all
    epsilon = np.broadcast_to(_warn(swept).epsilon, values.shape)
    # every row is scored before the first byte, SWEEP_CHAIN rows per loop-12 chain: a row at which the chain
    # degenerates, or whose visibility fails, names its swept value; only the columns the CSV writes are kept
    gamma, spacing, agg, mu = (np.empty(values.shape) for _ in range(4))
    for first in range(0, values.size, SWEEP_CHAIN):
        rows = slice(first, first + SWEEP_CHAIN)
        part = swept_rows(swept, rows)
        coeffs = intensity.loop_coefficients(part)
        for start in range(0, coeffs.gamma.size, SWEEP_CHUNK):
            chunk = slice(start, start + SWEEP_CHUNK)
            agg[rows][chunk] = intensity.aggregate_visibility(swept_rows(coeffs, chunk), swept_rows(part, chunk))
        # after the visibility, which names a row whose gamma vanishes by its swept value
        gamma[rows], spacing[rows], mu[rows] = coeffs.gamma, intensity.fringe_spacing(coeffs), coeffs.mu

    def blocks():
        yield b"param_value,epsilon_s,gamma_et,fringe_spacing_m,aggregate_visibility,mu_et_rad\n"
        for start in range(0, values.size, SWEEP_BLOCK):
            rows = slice(start, start + SWEEP_BLOCK)
            yield _block(values[rows], epsilon[rows], gamma[rows], spacing[rows], agg[rows], mu[rows])

    extra = {"parameter": args.parameter, "range": [lo, hi], "steps": args.steps}
    return EXIT_OK, blocks(), _reference(args, config), extra


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but an argument that reads as a negative float as ``float`` reads it, digit-group
    underscores, exponent, inf and nan included, is a value and not a flag: argparse's own pattern (Python
    3.11) has no exponent, so it took the ``-1e-6`` of ``--grid-min -1e-6`` for a flag. ``add_subparsers``
    makes each subparser of this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        digits = r"\d(_?\d)*"  # float's own digit groups: one underscore at most between two digits
        number = rf"^-(({digits}(\.({digits})?)?|\.{digits})(e[+-]?{digits})?|inf|infinity|nan)$"
        self._negative_number_matcher = re.compile(number, re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eltsim",
        description="Double-slit matter-wave simulator isolating looped-trajectory interference.",
    )
    parser.add_argument("--version", action="version", version=f"eltsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags every subcommand takes
    common.add_argument("--config", required=True, help="key=value configuration file")
    common.add_argument("--out", default=None, help="output file (default: stdout)")

    p_int = sub.add_parser("intensity", help="emit a screen intensity profile as CSV", parents=[common])
    p_int.add_argument("--branch", choices=BRANCHES, default="elt")
    p_int.add_argument("--grid-min", type=float, default=None, help="left grid edge, m")
    p_int.add_argument("--grid-max", type=float, default=None, help="right grid edge, m")
    p_int.add_argument("--grid-points", type=int, default=2001)
    p_int.add_argument("--raw", action="store_true", help="raw density instead of peak normalization")
    p_int.set_defaults(func=cmd_intensity)

    p_ver = sub.add_parser("verify", help="cross-check closed forms against the chain and quadrature", parents=[common])
    p_ver.add_argument("--points", type=int, default=101)
    p_ver.add_argument("--skip-quadrature", action="store_true", help="skip the slow 2-D quadrature check")
    p_ver.add_argument("--corrupt-z", default=None, metavar="NAME", help="fault injection: corrupt one z-table entry (test mode)")
    p_ver.set_defaults(func=cmd_verify)

    p_st = sub.add_parser("states", help="report measurement branches and reduced densities", parents=[common])
    p_st.add_argument("--measurement", choices=MEASUREMENTS, default="none")
    p_st.set_defaults(func=cmd_states)

    p_sw = sub.add_parser("sweep", help="sweep one parameter and emit fringe metrics as CSV", parents=[common])
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
        with open(staged[0], "wb") as fh:
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


def _write_stdout(blocks):
    """Write the blocks to stdout's binary buffer, after the text already written to stdout, so stdout holds
    the bytes ``--out`` would; a text stream without a buffer (``io.StringIO``) gets them decoded."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.writelines(str(block, "utf-8") for block in blocks)
        return
    sys.stdout.flush()
    buffer.writelines(blocks)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        code, blocks, solution, extra = args.func(args, config)
        if args.out is None:
            _write_stdout(blocks)
        else:
            _write_files(args.out, blocks, solution, args.command, extra)
        return code
    except ValueError as exc:  # ConfigError and every other named error subclass it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console(argv=None) -> int:
    """Run ``main`` in a process that exits once it returns: the ``eltsim`` script and ``python -m eltsim.cli``.
    The collector is frozen after the command, even when it raises (argparse's exits), so the exiting
    interpreter's collections skip every object (module docstring)."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console())
