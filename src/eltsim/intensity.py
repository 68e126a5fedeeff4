"""Screen-plane observables: intensity profiles and visibility.

A branch's screen profile is <x|rho|x> assembled from the path weight matrix
of the reduced center-of-mass state and the pointwise amplitudes of all four
paths (1, 2, 12, 21). Two exact propagator chains of :mod:`eltsim.gaussians`
give them: path 1 and loop 12. The slits sit at +/-d/2, so path 2 and loop 21
are their mirrors, ψ2(x) = ψ1(-x) and ψ21(x) = ψ12(-x).

The looped-paths-only profile ``elt_intensity`` is evaluated from the
coefficients ``loop_coefficients`` reads off the loop-12 chain, in real
arithmetic: with u = 2(C3 - C1 x^2) and v = 2 C2 x,

    |ψ12 + ψ21|^2 = A^2 [exp(u + v) + exp(u - v) + 2 exp(u) cos(2 gamma x)],

by that mirror. Each profile holds one configuration, on a 1-D grid.

``eltsim sweep`` reads no profile. ``aggregate_visibility`` scores a block
of configurations on one shared fringe lattice, x = k h with
h = pi/|gamma|/80 and |k| <= 120: on it cos(2 gamma x) = cos(pi k/40) is one
table for every row, and the profile is even in k, so only k >= 0 is
evaluated.
"""

from __future__ import annotations

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


class ProfileError(ValueError):
    """Empty grid, unknown normalization, or an undefined observable."""


@dataclass
class IntensityProfile:
    grid: np.ndarray  # strictly increasing screen positions, m
    values: np.ndarray  # intensity per point, >= 0
    branch: str
    normalization: str
    visibility: np.ndarray | None = None  # pointwise fringe visibility in [0, 1]
    clamped_points: int = 0  # points clipped up to 0 from tiny negative round-off

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.size == 0:
            raise ProfileError("empty grid")
        if np.any(np.diff(self.grid) <= 0):
            raise ProfileError("grid must be strictly increasing")


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ProfileError("empty grid")
    return grid


def _significantly_negative(lo, hi):
    """Whether a minimum ``lo`` (maximum ``hi``) is below 0 by more than round-off: 1e-12 max(1, |lo|, |hi|)."""
    return lo < -1e-12 * np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo)))


def _finalize(grid, values, branch, normalization, visibility=None) -> IntensityProfile:
    """Clamp round-off negatives and normalize; a profile with no positive peak or area to normalize by raises."""
    values = np.asarray(values, dtype=float)
    negative = values < 0
    clamped = int(np.count_nonzero(negative))
    if clamped:
        lo = values.min()
        if _significantly_negative(lo, values.max()):
            raise ProfileError(f"intensity significantly negative: min {lo:.3g}")
        values = np.where(negative, 0.0, values)
    if normalization not in NORMALIZATIONS:
        raise ProfileError(f"unknown normalization {normalization!r}")
    if normalization != "raw":
        if normalization == "peak":
            scale = values.max()
        else:
            scale = np.trapezoid(values, grid) if grid.size > 1 else values.sum()
        if not scale > 0:
            raise ProfileError(f"cannot normalize the {branch} profile: its {normalization} on this grid is {scale:.3g}")
        values = values / scale
    return IntensityProfile(grid, values, branch, normalization, visibility, clamped)


def elt_intensity(grid, coeffs: closedform.EltCoefficients, normalization: str = "peak") -> IntensityProfile:
    """Looped-paths-only interference pattern |ψ12 + ψ21|^2.

    Evaluated in the real form A^2 [e^(u+v) + e^(u-v) + 2 e^u cos(2 gamma x)]
    (module docstring), equal to |ψ12|^2 + |ψ21|^2 + 2 Re(ψ12 ψ21*)
    without a complex exponential. Symmetric in x because ψ21(x) = ψ12(-x).
    The pointwise visibility is 0 where |ψ12|^2 + |ψ21|^2 underflows to 0.

    ``peak`` and ``area`` are ratios, so for them the exponents are shifted
    by their largest, max(u + |v|), before ``exp``: the largest term is then
    1 and a profile whose absolute values would be subnormal keeps full
    precision. ``raw`` keeps the absolute values.
    """
    grid = _check_grid(grid)
    # ln A^2 rides in the exponent, so no factor underflows where the product does not
    u = 2.0 * (coeffs.c3 + np.log(coeffs.amplitude)) - 2.0 * coeffs.c1 * grid * grid
    v = 2.0 * coeffs.c2 * grid
    if normalization != "raw":
        u = u - np.max(u + np.abs(v))
    diag = np.exp(u + v) + np.exp(u - v)  # |ψ12|^2 + |ψ21|^2
    cross = 2.0 * np.exp(u)  # 2 |ψ12 ψ21*|
    del u, v  # a 200001-point profile: free 3.2 MB before the cosine's temporaries are made
    values = diag + cross * np.cos(2.0 * coeffs.gamma * grid)
    with np.errstate(invalid="ignore", divide="ignore"):
        vis = np.where(diag > 0, cross / diag, 0.0)
    return _finalize(grid, values, "elt", normalization, vis)


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


def path_evaluators(config: PhysicsConfig):
    """Pointwise amplitude evaluator for every path label: the path-1 and loop-12
    propagator chains, and their mirrors at -x for path 2 and loop 21."""
    straight = gaussians.chain_nonexotic(1, config)
    looped = gaussians.chain_exotic("12", config)
    return {
        "1": straight.evaluate,
        "2": straight.mirrored().evaluate,
        "12": looped.evaluate,
        "21": looped.mirrored().evaluate,
    }


def branch_intensity(
    branch,
    grid,
    config: PhysicsConfig,
    normalization: str = "peak",
    evaluators=None,
    label: str | None = None,
) -> IntensityProfile:
    """Screen profile of a collapsed composite state or a reduced density.

    ``branch`` may be a CompositeState (reduced here), a MeasurementBranch,
    or a CenterOfMassDensity.
    """
    grid = _check_grid(grid)
    if isinstance(branch, marking.MeasurementBranch):
        label = label or branch.name
        branch = branch.collapsed()
    if isinstance(branch, marking.CompositeState):
        density = marking.reduce_center_of_mass(branch)
    elif isinstance(branch, marking.CenterOfMassDensity):
        density = branch
    else:
        raise ProfileError(f"cannot build a profile from {type(branch).__name__}")

    if evaluators is None:
        evaluators = path_evaluators(config)
    amp = {}
    for path in density.paths():
        if path not in evaluators:
            raise ProfileError(f"no wavefunction evaluator for path {path!r}")
        amp[path] = np.asarray(evaluators[path](grid), dtype=complex)

    values = np.zeros_like(grid)
    cross_sum = np.zeros_like(grid, dtype=complex)
    diag_sum = np.zeros_like(grid)
    for (p, q), w in density.weights.items():
        term = w * amp[p] * np.conj(amp[q])
        values = values + term.real
        if p == q:
            diag_sum = diag_sum + term.real
        elif p < q:
            cross_sum = cross_sum + term
    with np.errstate(invalid="ignore", divide="ignore"):
        vis = np.where(diag_sum > 0, 2.0 * np.abs(cross_sum) / diag_sum, 0.0)
    return _finalize(grid, values, label or "density", normalization, vis)


def default_grid(coeffs: closedform.EltCoefficients, points: int = 2001) -> np.ndarray:
    """Symmetric grid spanning +/- 5 fringe spacings pi/|gamma|. One point is the centre, 0."""
    if coeffs.gamma == 0:
        raise ProfileError("gamma vanishes; no fringe scale to derive the grid from")
    half = 5.0 * np.pi / np.abs(coeffs.gamma)
    if points < 1:
        raise ProfileError("grid needs at least one point")
    if points == 1:
        return np.zeros(1)
    return np.linspace(-half, half, points)


def fringe_spacing(coeffs: closedform.EltCoefficients):
    """Distance between adjacent looped-path maxima near the center."""
    if np.any(coeffs.gamma == 0):
        raise ProfileError("gamma vanishes; fringes are infinitely wide")
    return np.pi / np.abs(coeffs.gamma)


def aggregate_visibility(coeffs: closedform.EltCoefficients, config: PhysicsConfig):
    """(Imax - Imin)/(Imax + Imin) of the peak-normalized looped-path profile
    over the central three fringes, per configuration of ``coeffs`` (a float
    for one, an array for a block of them). ``config`` holds the
    configurations the coefficients belong to; a failing check names the
    swept value of the row that fails.

    A convenience metric for sweeps; it depends on the window, so it is
    reported under its own name. The window is the lattice x = k h,
    h = pi/|gamma|/80, |k| <= 120 (module docstring): the points of an
    801-point ``default_grid`` within ``CENTRAL_FRINGES`` fringe spacings of
    the centre. With a = 2 C1 h^2 and b = |2 C2 h| the profile over k >= 0 is
    e^(u+v) + e^(u-v) + 2 e^u cos(pi k/40), u = -a k^2 - shift, v = b k.
    The shift max_k(-a k^2 + b k) makes the largest exponent 0, as in
    ``elt_intensity``; it sits at the parabola's vertex b/2a rounded to the
    lattice and clipped to it, so no array is scanned. The clamp, its
    significance check and the peak normalization are those of every
    profile, applied to the two extremes.
    """
    gamma = np.asarray(coeffs.gamma, dtype=float)
    k = _LATTICE_K
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a degenerate row is named below
        h = np.pi / np.abs(gamma) / 80.0
        a = (2.0 * coeffs.c1 * h * h)[..., None]  # a column per configuration, against the lattice's k
        b = np.abs(2.0 * coeffs.c2 * h)[..., None]
        peak = np.minimum(np.maximum(np.rint(b / (2.0 * a)), 0.0), k[-1])
        shift = b * peak - a * peak * peak
        # u, v and the sum are one (3, rows, 121) allocation that every step writes into: glibc keeps one
        # 744 kB block's pages from call to call, while three 248 kB arrays, or a fresh temporary per step,
        # are handed back and faulted in again on every 256-row block (149 to 271 minor faults per call)
        u, v, values = np.empty((3,) + np.broadcast_shapes(a.shape, k.shape))
        np.multiply(-a, k * k, out=u)
        u -= shift
        np.multiply(b, k, out=v)
        np.exp(np.add(u, v, out=values), out=values)
        values += np.exp(np.subtract(u, v, out=v), out=v)  # the same sum at -k: the half window holds every value
        values += np.multiply(2.0 * _LATTICE_COS, np.exp(u, out=u), out=u)
    hi, lo = values.max(axis=-1), values.min(axis=-1)

    def undefined(at, where):
        if at(gamma) == 0:  # h is then infinite, and the shift not a number
            return f"gamma vanishes{where}; no fringe scale to place the window on"
        if not np.isfinite(at(shift)):
            return (f"no finite peak shift of the visibility window{where}: "
                    f"a = 2 C1 h^2 = {at(a)!r}, b = |2 C2 h| = {at(b)!r}")
        return (f"window intensity without a finite positive peak, or significantly negative{where}: "
                f"min {at(lo):.3g}, max {at(hi):.3g}")

    defined = np.isfinite(shift[..., 0]) & (0 < hi) & (hi < np.inf) & ~_significantly_negative(lo, hi)
    check(defined, config, undefined, ProfileError)
    lo = np.where(lo < 0, 0.0, lo) / hi  # clamped and peak-normalized: the peak is 1
    agg = (1.0 - lo) / (1.0 + lo)
    return float(agg) if agg.ndim == 0 else agg
