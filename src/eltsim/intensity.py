"""Screen-plane observables: intensity profiles and visibility.

Every profile is <x|rho|x> of a branch's reduced center-of-mass state, in one real-arithmetic
form. Marking leaves no straight-loop coherence (``marking.post_slit_state``), so rho has two 2x2
blocks, paths {1, 2} and loops {12, 21}, mirrors at the slits +/-d/2: ψ2(x) = ψ1(-x) and
ψ21(x) = ψ12(-x). So the commands build only path 1 and loop 12, each a ``gaussians.chain`` of
its slit centres, (d/2,) and (d/2, -d/2, d/2). Each block's chain form P exp(-a x^2 + b x + c) is
read once into real coefficients: with u = 2(ln|P| + Re c - Re a x^2), v = 2 Re b x and
gamma = Im b, |ψ(+/-x)|^2 = e^(u+/-v) and ψ(x) ψ(-x)* = e^u e^(2i gamma x). A
profile sums one term per detector label of the collapsed state, amplitudes alpha on ψ(x) and beta
on ψ(-x):

    |alpha ψ(x) + beta ψ(-x)|^2 = e^E [(1 - q)^2 + 4 q cos^2(gamma x + phi/2)],

E = u + ln|alpha beta| + d, q = e^-d, d = |v + ln|alpha/beta||, phi = arg(alpha beta*). Each term
is >= 0, so nothing is clamped; e^(i phi/2) is 1 or i where alpha beta* is real, so a fringe is
cos^2(gamma x) and an antifringe sin^2(gamma x), exactly 0 on its node. ``elt`` is the loop block
with unit weights. Each profile holds one configuration, on a 1-D grid.

At -x a term's alpha and beta trade places, so a block is even in x where its density is invariant under the
slit exchange 1 <-> 2, 12 <-> 21: w11 = sum |alpha|^2 equals w22 = sum |beta|^2 and w12 = sum alpha beta* is
real. Every named branch's density is, exactly, and ``default_grid`` is symmetric bit for bit. Where both
hold (``_even``, and the grid's first n//2 points are its last n//2 negated) a profile is evaluated on its
last n - n//2 points, x >= 0, and its first n//2 are their mirror; normalization then reads the whole
profile. Any other grid (``--grid-min/--grid-max``) or density is evaluated at every point.

The peak shift and the visibility's pointwise largest E are maxima over every term, so ``_sums`` reads the
terms twice: the first pass takes each term's cos and log once and keeps only its log-value E + ln bracket,
the second sums those and remakes each term's E and q, the cheap parts, for the visibility. A profile holds
one array per term beside one term's temporaries: 7.2 MB for ``full``'s three terms on the 100001 evaluated
points of a 200001-point grid (tracemalloc, grid excluded), where three arrays per term held 12.2 MB.

``eltsim sweep`` reads no profile. ``aggregate_visibility`` scores a block
of configurations on one shared fringe lattice, x = k h with
h = pi/|gamma|/80 and |k| <= 120: on it cos(2 gamma x) = cos(pi k/40) is one
table for every row, and the profile is even in k, so only k >= 0 is
evaluated. It is the loop block's term with alpha = beta = 1, >= 0 by
construction: nothing is clamped, and a block fails only on a row whose
peak shift is not finite, or whose coefficients overflow on the lattice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import closedform, gaussians, marking
from .params import PhysicsConfig, check

NORMALIZATIONS = ("raw", "peak")
CENTRAL_FRINGES = 1.5  # half-width of the aggregate-visibility window, in fringe spacings
# the aggregate-visibility lattice, k = 0 .. 120 steps of pi/|gamma|/80 (the step of an 801-point
# default_grid), and cos(2 gamma k h) = cos(pi k/40) on it, whatever the configuration
_LATTICE_K = np.arange(CENTRAL_FRINGES * 80.0 + 1.0)
_LATTICE_COS = np.cos(np.pi / 40.0 * _LATTICE_K)
BLOCKS = (("1", "2"), ("12", "21"))  # each block's path at x and its mirror at -x: straight, then looped
LOOPS_ONLY = marking.CenterOfMassDensity({(p, q): 1.0 for p in BLOCKS[1] for q in BLOCKS[1]})  # elt


class ProfileError(ValueError):
    """Empty grid, unknown normalization, or an undefined observable."""


@dataclass
class IntensityProfile:
    grid: np.ndarray  # finite, strictly increasing screen positions, m
    values: np.ndarray  # intensity per point, >= 0
    visibility: np.ndarray | None = None  # pointwise fringe visibility in [0, 1]

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.size == 0:
            raise ProfileError("empty grid")
        if not ((np.diff(self.grid) > 0).all() and np.isfinite(self.grid[[0, -1]]).all()):  # NaN never increases
            raise ProfileError("grid must be finite and strictly increasing")


def _pairs(branch) -> tuple[list, list]:
    """Per block, straight then looped, the pairs (alpha, beta) whose terms sum to the density of ``branch``: one
    per detector label of a state; [[w11, w12], [w12*, w22]] of a density gives (sqrt(w11), w12*/sqrt(w11))
    and (0, sqrt(w22 - |w12|^2/w11))."""
    if isinstance(branch, marking.CompositeState):
        labels: dict[tuple[str, str], dict[str, complex]] = {}
        for label, amp in branch.terms.items():
            labels.setdefault((label.level, label.cavities), {})[label.path] = amp
        amps = list(labels.values())
    elif isinstance(branch, marking.CenterOfMassDensity):
        amps = [dict.fromkeys(pair) for pair in branch.weights if not any(set(pair) <= set(b) for b in BLOCKS)]
        for p, q in BLOCKS:  # a pair of paths across the blocks is refused below
            w11, w22, w12 = branch.weight(p, p).real, branch.weight(q, q).real, branch.weight(p, q)
            rest = (w11 * w22 - abs(w12) ** 2) / w11 if w11 > 0 else w22
            if w11 < 0 or rest < -1e-12 * abs(w22) or (w11 == 0 and w12):
                raise ProfileError(f"density not positive semi-definite on paths {p}, {q}: {w11!r}, {w22!r}, {w12!r}")
            if w11 > 0:
                amps.append({p: math.sqrt(w11), q: w12.conjugate() / math.sqrt(w11)})
            if rest > 0:
                amps.append({q: math.sqrt(rest)})
    else:
        raise ProfileError(f"cannot build a profile from {type(branch).__name__}")
    pairs = ([], [])
    for paths in amps:
        k = next((k for k, block in enumerate(BLOCKS) if paths.keys() <= set(block)), None)
        if k is None:
            raise ProfileError(f"paths {', '.join(sorted(paths))} couple a straight path to a loop: no block form")
        pairs[k].append(tuple(paths.get(path, 0.0) for path in BLOCKS[k]))
    return pairs


def _terms(grid, blocks, fringe=True):
    """(E, q, E + ln bracket) per amplitude pair of ``blocks`` in order (module docstring), each made as it is read;
    a one-path pair has q = 0 and no bracket, so its log-value is E. Without ``fringe`` no cos or log is taken and
    the log-value is None: E and q are the cheap parts."""
    for (offset, c1, c2, gamma), pairs in blocks:
        u = np.square(grid)
        u *= -2.0 * c1
        u += 2.0 * offset
        for alpha, beta in pairs:
            yield _term(grid, u, c2, gamma, alpha, beta, fringe)


def _term(grid, u, c2, gamma, alpha, beta, fringe):
    """One term of ``_terms``."""
    e = grid * (2.0 * c2)  # v, then d, then E
    if not (alpha and beta):  # |alpha|^2 e^(u+v) or |beta|^2 e^(u-v)
        (np.add if alpha else np.subtract)(u, e, out=e)
        e += 2.0 * math.log(abs(alpha or beta))
        return e, 0.0, e
    ln_a, ln_b = math.log(abs(alpha)), math.log(abs(beta))
    e += ln_a - ln_b
    q = np.expm1(np.negative(np.abs(e, out=e), out=e))  # q - 1 at -d, without cancelling near d = 0
    log = None
    if fringe:
        z = alpha / abs(alpha) * (beta / abs(beta)).conjugate()  # no product of small amplitudes underflows
        half = cmath.sqrt(z / abs(z))
        t = grid * gamma  # cos^2(gamma x + phi/2) needs only cos or sin where alpha beta* is real
        cos = np.sin(t, out=t) if not half.real else np.cos(t, out=t) if not half.imag else (
            half.real * np.cos(t) - half.imag * np.sin(t))
        log = np.square(cos, out=cos)  # the bracket, then its log
        log *= 4.0 * q + 4.0
        log += q * q
        np.log(log, out=log)
    q += 1.0
    np.subtract(u, e, out=e)  # u + d, to the bit
    e += ln_a + ln_b
    if fringe:
        log += e
    return e, q, log


def _even(pairs) -> bool:
    """Whether a block's terms sum to a density the slit exchange 1 <-> 2, 12 <-> 21 leaves as it is: w11 == w22
    and w12 = sum alpha beta* real, summed in one order on both sides, so the test is exact."""
    w11 = sum(abs(alpha) ** 2 for alpha, _ in pairs)
    w22 = sum(abs(beta) ** 2 for _, beta in pairs)
    return w11 == w22 and not sum(alpha * beta.conjugate() for alpha, beta in pairs).imag


def _sums(x, blocks, normalization, n):
    """Intensity and pointwise visibility of ``_profile`` at x, the last x.size of n points; the first n - x.size
    are left for the mirror. Both shifts are maxima, so two passes over the terms hold one term's temporaries at
    a time: the first takes each term's cos and log once, keeps only its log-value E + ln bracket and folds in
    both maxima; the second sums the log-values, then remakes each term's E and q, the cheap parts, for the
    visibility. Every sum runs in the terms' order."""
    count = sum(len(pairs) for _, pairs in blocks)
    terms = _terms(x, blocks)
    if not count:  # a density without a weight has one term, 0 everywhere
        terms = [(x - np.inf, 0.0, x - np.inf)]
    logs, largest = [], None
    top = np.full(x.shape, -np.inf) if count > 1 else None  # the largest E at each point
    for e, q, log in terms:
        logs.append(log)
        if top is None:  # one term, whatever its scale
            alone = 2.0 * q / (q ** 2 + 1.0)
        else:
            np.maximum(top, e, out=top)
        if normalization != "raw":  # the first largest, as max() takes it
            high = np.max(log)
            largest = high if largest is None or high > largest else largest
        del e, q, log  # before the next term is made
    shift = 0.0 if largest is None else np.nan_to_num(largest, neginf=0.0)  # 0 stays 0
    values, at = np.empty(n), slice(n - x.size, n)
    for i, log in enumerate(logs):  # in the terms' order
        np.exp(np.subtract(log, shift, out=log), out=log if i else values[at])
        if i:
            values[at] += log
    del logs, log
    if top is None:
        vis = np.empty(n)
        vis[at] = alone
        return values, vis
    cross, diag = np.zeros(x.shape), np.zeros(x.shape)  # the diagonals and cross terms, shifted by top
    for e, q, _ in _terms(x, blocks, fringe=False):
        np.exp(np.subtract(e, top, out=e), out=e)
        cross += 2.0 * q * e
        diag += (q * q + 1.0) * e
        del e, q
    vis = np.zeros(n)
    np.divide(cross, diag, out=vis[at], where=diag > 0)
    return values, vis


def _profile(grid, blocks, normalization, label) -> IntensityProfile:
    """The sum of the terms of ``blocks``, (coefficients, amplitude pairs) each, as exp(E + ln bracket): a node is 0
    whatever its envelope. ``peak`` shifts every exponent by the profile's own largest log-value, so nothing under-
    or overflows that need not. Pointwise visibility: sum 2 q e^E over sum (1 + q^2) e^E, each term
    shifted by the largest E at that point (``_sums``).
    On a grid symmetric bit for bit, of blocks each ``_even``, the profile is even: its last n - n//2 points,
    x >= 0, are evaluated and the first n//2 are their mirror."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ProfileError("empty grid")
    if normalization not in NORMALIZATIONS:
        raise ProfileError(f"unknown normalization {normalization!r}")
    m = grid.size // 2
    mirror = np.array_equal(grid[:m], -grid[::-1][:m]) and all(_even(pairs) for _, pairs in blocks)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a profile that is not finite is named
        values, vis = _sums(grid[m:] if mirror else grid, blocks, normalization, grid.size)
    if mirror:
        for column in (values, vis):
            column[:m] = column[m:][::-1][:m]
    if not np.isfinite(values).all():
        raise ProfileError(f"the {label} profile is not finite on this grid")
    if normalization == "peak":
        scale = values.max()
        if not scale > 0:
            raise ProfileError(f"cannot normalize the {label} profile: its peak on this grid is {scale:.3g}")
        values /= scale
    return IntensityProfile(grid, values, vis)


def elt_intensity(grid, coeffs: closedform.EltCoefficients, normalization: str = "peak") -> IntensityProfile:
    """Looped-paths-only pattern |ψ12 + ψ21|^2 of ψ12's coefficients, from the closed form or the chain."""
    return branch_intensity(LOOPS_ONLY, grid, None, normalization, coeffs, "elt")


def loop_coefficients(config: PhysicsConfig) -> closedform.EltCoefficients:
    """ψ12's coefficients off the loop-12 chain (= CHAIN_SIGN ψ12), one per configuration;
    mu lands on the closed form's branch, (-3pi/4, 5pi/4), because every Re z_k > 0."""
    form = gaussians.chain((config.d / 2.0, -config.d / 2.0, config.d / 2.0), config)
    return closedform.EltCoefficients(
        amplitude=np.abs(form.prefactor),
        c1=form.a.real,
        c2=form.b.real,
        c3=form.c.real,
        alpha=-form.a.imag,
        gamma=form.b.imag,
        theta=form.c.imag,
        mu=np.pi / 4.0 + np.angle(closedform.CHAIN_SIGN * form.prefactor * np.exp(-0.25j * np.pi)),
    )


def branch_intensity(branch, grid, config: PhysicsConfig, normalization: str = "peak",
                     coeffs: closedform.EltCoefficients | None = None, label: str | None = None) -> IntensityProfile:
    """Screen profile of a CompositeState, a MeasurementBranch (collapsed here) or a CenterOfMassDensity.
    ``config`` builds the path-1 chain for a straight block, and the loop-12 chain for a looped block
    whose coefficients ``coeffs`` (ψ12's, ``loop_coefficients``) are not given."""
    if isinstance(branch, marking.MeasurementBranch):
        label, branch = label or branch.name, branch.collapsed()
    straight, looped = _pairs(branch)
    blocks = []
    with np.errstate(divide="ignore"):  # an amplitude that underflowed to 0 is ln 0 = -inf: its profile is 0
        if straight:
            form = gaussians.chain((config.d / 2.0,), config)
            blocks.append(((np.log(np.abs(form.prefactor)) + form.c.real, form.a.real, form.b.real, form.b.imag),
                           straight))
        if looped:
            coeffs = loop_coefficients(config) if coeffs is None else coeffs
            blocks.append(((np.log(coeffs.amplitude) + coeffs.c3, coeffs.c1, coeffs.c2, coeffs.gamma), looped))
    return _profile(grid, blocks, normalization, label or "density")


def default_grid(coeffs: closedform.EltCoefficients, points: int = 2001) -> np.ndarray:
    """Grid spanning +/- 5 fringe spacings pi/|gamma|, symmetric bit for bit: an odd grid's centre is 0."""
    if coeffs.gamma == 0:
        raise ProfileError("gamma vanishes; no fringe scale to derive the grid from")
    with np.errstate(over="ignore"):
        half = 5.0 * np.pi / np.abs(coeffs.gamma)
    if not half <= 0.5 * np.finfo(float).max:  # the span 2 half is a float too
        raise ProfileError(f"gamma = {coeffs.gamma!r} is too small: the grid half-width 5 pi/|gamma| leaves the float range")
    if points < 1:
        raise ProfileError("grid needs at least one point")
    grid = np.linspace(-half, half, points)
    return 0.5 * (grid - grid[::-1])  # linspace's -half + k step is not -(half - k step) in floats; one point is 0


def fringe_spacing(coeffs: closedform.EltCoefficients):
    """Distance between adjacent looped-path maxima near the center; inf where it leaves the float
    range. A sweep takes it after ``aggregate_visibility``, which names such a row by its swept value."""
    if np.any(coeffs.gamma == 0):
        raise ProfileError("gamma vanishes; fringes are infinitely wide")
    with np.errstate(over="ignore"):
        return np.pi / np.abs(coeffs.gamma)


def aggregate_visibility(coeffs: closedform.EltCoefficients, config: PhysicsConfig):
    """(Imax - Imin)/(Imax + Imin) of the looped-path profile over the central
    three fringes, per configuration of ``coeffs`` (a float for one, an array
    for a block of them). ``config`` holds the configurations the coefficients
    belong to; a failing check names the row that fails by every field of its batch.

    A convenience metric for sweeps; it depends on the window, so it is
    reported under its own name. The window is the lattice x = k h,
    h = pi/|gamma|/80, |k| <= 120 (module docstring): the points of an
    801-point ``default_grid`` within ``CENTRAL_FRINGES`` fringe spacings of
    the centre. With a = 2 C1 h^2 and b = |2 C2 h| the profile at k >= 0 is
    the loop block's form, e^(v - a k^2 - shift) [(1 - q)^2 + 2 q (1 + cos(pi k/40))]
    with v = b k and q = e^-v: every term is >= 0, so nothing is clamped. The
    shift max_k(-a k^2 + b k), at the vertex b/2a rounded to the lattice and
    clipped to it, scans no array, and the exponent is 0 there to the bit: a
    row whose shift is finite has a finite positive peak unless its
    coefficients overflow on the lattice.
    """
    gamma = np.asarray(coeffs.gamma, dtype=float)
    k = np.abs(_LATTICE_K)  # the window is even in k bit for bit
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a degenerate row is named below
        h = np.pi / np.abs(gamma) / 80.0
        a = (2.0 * coeffs.c1 * h * h)[..., None]  # a column per configuration, against the lattice's k
        b = np.abs(2.0 * coeffs.c2 * h)[..., None]
        peak = np.minimum(np.maximum(np.rint(b / (2.0 * a)), 0.0), k[-1])
        shift = b * peak - a * (peak * peak)  # the exponent below at k = peak, to the bit: 0 there
        # the exponent, q - 1 and the sum are one (3, rows, 121) allocation that every step writes into: glibc keeps
        # one 744 kB block's pages from call to call, while three 248 kB arrays, or a fresh temporary per step,
        # are handed back and faulted in again on every 256-row block (149 to 271 minor faults per call)
        e, q, values = np.empty((3,) + np.broadcast_shapes(a.shape, k.shape))
        np.multiply(-b, k, out=q)  # -v
        np.subtract(-shift, np.add(np.multiply(a, k * k, out=e), q, out=e), out=e)  # v - a k^2 - shift
        np.square(np.expm1(q, out=q), out=values)  # (1 - q)^2, without cancelling near v = 0
        q += 1.0
        values += np.multiply(q, 2.0 + 2.0 * _LATTICE_COS, out=q)
        values *= np.exp(e, out=e)
    hi, lo = values.max(axis=-1), values.min(axis=-1)

    def undefined(at, where):
        if at(gamma) == 0:  # h is then infinite, and the shift not a number
            return f"gamma vanishes{where}; no fringe scale to place the window on"
        if not np.isfinite(at(shift)):
            return (f"no finite peak shift of the visibility window{where}: "
                    f"a = 2 C1 h^2 = {at(a)!r}, b = |2 C2 h| = {at(b)!r}")
        return f"window intensity without a finite positive peak{where}: min {at(lo):.3g}, max {at(hi):.3g}"

    check(np.isfinite(shift[..., 0]) & (0 < hi) & (hi < np.inf), config, undefined, ProfileError)
    agg = (hi - lo) / (hi + lo)
    return float(agg) if agg.ndim == 0 else agg
