"""Screen-plane observables: intensity profiles and visibility.

Every profile is <x|rho|x> of a branch's reduced center-of-mass state, in one real-arithmetic
form. Marking leaves no straight-loop coherence (``marking.post_slit_state``), so rho has two 2x2
blocks, paths {1, 2} and loops {12, 21}, mirrors at the slits +/-d/2: ψ2(x) = ψ1(-x) and
ψ21(x) = ψ12(-x). Each block's chain form P exp(-a x^2 + b x + c), ``gaussians.chain_nonexotic(1)``
or ``chain_exotic("12")``, is read once into real coefficients: with u = 2(ln|P| + Re c - Re a x^2),
v = 2 Re b x and gamma = Im b, |ψ(+/-x)|^2 = e^(u+/-v) and ψ(x) ψ(-x)* = e^u e^(2i gamma x). A
profile sums one term per detector label of the collapsed state, amplitudes alpha on ψ(x) and beta
on ψ(-x):

    |alpha ψ(x) + beta ψ(-x)|^2 = e^E [(1 - q)^2 + 4 q cos^2(gamma x + phi/2)],

E = u + ln|alpha beta| + d, q = e^-d, d = |v + ln|alpha/beta||, phi = arg(alpha beta*). Each term
is >= 0, so nothing is clamped; e^(i phi/2) is 1 or i where alpha beta* is real, so a fringe is
cos^2(gamma x) and an antifringe sin^2(gamma x), exactly 0 on its node. ``elt`` is the loop block
with unit weights. Each profile holds one configuration, on a 1-D grid.

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
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import closedform, gaussians, marking
from .params import PhysicsConfig, check

NORMALIZATIONS = ("raw", "peak", "area")
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
    branch: str
    normalization: str
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


def _terms(grid, block, pairs):
    """(E, bracket, q) per pair of one block (module docstring); a one-path pair has no bracket and q = 0."""
    offset, c1, c2, gamma = block
    u = np.square(grid)
    u *= -2.0 * c1
    u += 2.0 * offset
    for alpha, beta in pairs:
        e = grid * (2.0 * c2)  # v, then d, then E
        if not (alpha and beta):  # |alpha|^2 e^(u+v) or |beta|^2 e^(u-v)
            yield (u + e if alpha else u - e) + 2.0 * math.log(abs(alpha or beta)), None, 0.0
            continue
        ln_a, ln_b = math.log(abs(alpha)), math.log(abs(beta))
        e += ln_a - ln_b
        q = np.expm1(np.negative(np.abs(e, out=e)))  # q - 1, without cancelling near d = 0
        z = alpha / abs(alpha) * (beta / abs(beta)).conjugate()  # no product of small amplitudes underflows
        half = cmath.sqrt(z / abs(z))
        t = grid * gamma  # cos^2(gamma x + phi/2) needs only cos or sin where alpha beta* is real
        cos = np.sin(t, out=t) if not half.real else np.cos(t, out=t) if not half.imag else (
            half.real * np.cos(t) - half.imag * np.sin(t))
        bracket = np.square(cos, out=cos)
        bracket *= 4.0 * q + 4.0
        bracket += q * q
        q += 1.0
        e += u
        e += ln_a + ln_b
        yield e, bracket, q


def _profile(grid, blocks, normalization, label) -> IntensityProfile:
    """The sum of the terms of ``blocks``, (coefficients, amplitude pairs) each, as exp(E + ln bracket): a node is 0
    whatever its envelope. ``peak`` and ``area`` shift every exponent by the profile's own largest log-value, so
    nothing under- or overflows that need not. Pointwise visibility: sum 2 q e^E over sum (1 + q^2) e^E."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ProfileError("empty grid")
    if normalization not in NORMALIZATIONS:
        raise ProfileError(f"unknown normalization {normalization!r}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a profile that is not finite is named
        # a density without a weight has one term, 0 everywhere
        terms = [term for block, pairs in blocks for term in _terms(grid, block, pairs)] or [(grid - np.inf, None, 0.0)]
        if len(terms) == 1:  # whatever the term's scale
            vis = np.broadcast_to(2.0 * terms[0][2] / (terms[0][2] ** 2 + 1.0), grid.shape)
        else:  # the diagonals and cross terms shifted by the largest E at each point
            top = functools.reduce(np.maximum, [e for e, _, _ in terms])
            cross = diag = 0.0
            for e, _, q in terms:
                weight = np.exp(e - top)
                cross, diag = cross + 2.0 * q * weight, diag + (q * q + 1.0) * weight
            vis = np.divide(cross, diag, out=np.zeros_like(grid), where=diag > 0)
        logs = [e if b is None else np.add(np.log(b, out=b), e, out=b) for e, b, _ in terms]  # E + ln bracket
        shift = 0.0 if normalization == "raw" else np.nan_to_num(max(map(np.max, logs)), neginf=0.0)  # 0 stays 0
        values = functools.reduce(np.add, [np.exp(np.subtract(log, shift, out=log), out=log) for log in logs])
    if not np.isfinite(values).all():
        raise ProfileError(f"the {label} profile is not finite on this grid")
    if normalization != "raw":
        scale = values.max() if normalization == "peak" else np.trapezoid(values, grid) if grid.size > 1 else values[0]
        if not scale > 0:
            raise ProfileError(f"cannot normalize the {label} profile: its {normalization} on this grid is {scale:.3g}")
        values /= scale
    return IntensityProfile(grid, values, label, normalization, vis)


def elt_intensity(grid, coeffs: closedform.EltCoefficients, normalization: str = "peak") -> IntensityProfile:
    """Looped-paths-only pattern |ψ12 + ψ21|^2 of ψ12's coefficients, from the closed form or the chain."""
    return branch_intensity(LOOPS_ONLY, grid, None, normalization, coeffs, "elt")


def loop_coefficients(config: PhysicsConfig) -> closedform.EltCoefficients:
    """ψ12's coefficients off the loop-12 chain (= CHAIN_SIGN ψ12), one per configuration;
    mu lands on the closed form's branch, (-3pi/4, 5pi/4), because every Re z_k > 0."""
    form = gaussians.chain_exotic("12", config)
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
    if straight:
        form = gaussians.chain_nonexotic(1, config)
        blocks.append(((np.log(np.abs(form.prefactor)) + form.c.real, form.a.real, form.b.real, form.b.imag), straight))
    if looped:
        coeffs = loop_coefficients(config) if coeffs is None else coeffs
        blocks.append(((np.log(coeffs.amplitude) + coeffs.c3, coeffs.c1, coeffs.c2, coeffs.gamma), looped))
    return _profile(grid, blocks, normalization, label or "density")


def default_grid(coeffs: closedform.EltCoefficients, points: int = 2001) -> np.ndarray:
    """Grid spanning +/- 5 fringe spacings pi/|gamma|, symmetric bit for bit: an odd grid's centre is 0."""
    if coeffs.gamma == 0:
        raise ProfileError("gamma vanishes; no fringe scale to derive the grid from")
    half = 5.0 * np.pi / np.abs(coeffs.gamma)
    if points < 1:
        raise ProfileError("grid needs at least one point")
    grid = np.linspace(-half, half, points)
    return 0.5 * (grid - grid[::-1])  # linspace's -half + k step is not -(half - k step) in floats; one point is 0


def fringe_spacing(coeffs: closedform.EltCoefficients):
    """Distance between adjacent looped-path maxima near the center."""
    if np.any(coeffs.gamma == 0):
        raise ProfileError("gamma vanishes; fringes are infinitely wide")
    return np.pi / np.abs(coeffs.gamma)


def aggregate_visibility(coeffs: closedform.EltCoefficients, config: PhysicsConfig):
    """(Imax - Imin)/(Imax + Imin) of the looped-path profile over the central
    three fringes, per configuration of ``coeffs`` (a float for one, an array
    for a block of them). ``config`` holds the configurations the coefficients
    belong to; a failing check names the swept value of the row that fails.

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
