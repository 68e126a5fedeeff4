"""Screen-plane observables: intensity profiles, visibility, predictability.

A branch's screen profile is <x|rho|x> assembled from the path weight matrix
of the reduced center-of-mass state and the pointwise amplitudes of all four
paths (1, 2, 12, 21), each evaluated through the exact propagator chain of
:mod:`eltsim.gaussians`.

The looped-paths-only profile ``elt_intensity`` is evaluated from the
coefficients ``loop_coefficients`` reads off the loop-12 chain, in real
arithmetic: with u = 2(C3 - C1 x^2) and v = 2 C2 x,

    |ψ12 + ψ21|^2 = A^2 [exp(u + v) + exp(u - v) + 2 exp(u) cos(2 gamma x)],

because ψ21(x) = ψ12(-x). ``elt_intensity``, ``default_grid``,
``fringe_spacing``, ``aggregate_visibility`` and the clamp and normalization
of every profile work along the last axis, so coefficients read for N
configurations at once give an (N, points) block in one call, the way
``eltsim sweep`` uses them; one configuration is the 1-D case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform, gaussians, marking
from .params import PhysicsConfig

NORMALIZATIONS = ("raw", "peak", "area")
CENTRAL_FRINGES = 1.5  # half-width of the aggregate-visibility window, in fringe spacings


class ProfileError(ValueError):
    """Empty grid, unknown normalization, or an undefined observable."""


@dataclass
class IntensityProfile:
    grid: np.ndarray  # strictly increasing screen positions, m (one row per configuration)
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


@dataclass(frozen=True)
class DualityPoint:
    visibility: float
    predictability: float


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ProfileError("empty grid")
    return grid


def _per_row(value):
    """A value per profile (scalar, or one per configuration) as a column against the last axis."""
    return np.asarray(value)[..., None]


def _finalize(grid, values, branch, normalization, visibility=None) -> IntensityProfile:
    """Clamp round-off negatives and normalize, each profile along the last axis."""
    values = np.asarray(values, dtype=float)
    negative = values < 0
    clamped = int(np.count_nonzero(negative))
    if clamped:
        floor = values.min(axis=-1)
        significant = floor < -1e-12 * np.maximum(1.0, np.abs(values).max(axis=-1))
        if np.any(significant):
            raise ProfileError(f"intensity significantly negative: min {float(np.min(floor[significant])):.3g}")
        values = np.where(negative, 0.0, values)
    if normalization not in NORMALIZATIONS:
        raise ProfileError(f"unknown normalization {normalization!r}")
    if normalization != "raw":
        if normalization == "peak":
            scale = values.max(axis=-1)
        else:
            scale = np.trapezoid(values, grid, axis=-1) if grid.shape[-1] > 1 else values.sum(axis=-1)
        scale = _per_row(scale)
        values = values / np.where(scale > 0, scale, 1.0)  # a profile without positive scale stays as is
    return IntensityProfile(grid, values, branch, normalization, visibility, clamped)


def born_double_slit(psi_a, psi_b):
    """Two-path probability density |psi_a|^2 + |psi_b|^2 + 2 Re(psi_a* psi_b)."""
    psi_a = np.asarray(psi_a, dtype=complex)
    psi_b = np.asarray(psi_b, dtype=complex)
    out = np.abs(psi_a) ** 2 + np.abs(psi_b) ** 2 + 2.0 * (np.conj(psi_a) * psi_b).real
    return float(out) if out.ndim == 0 else out


def fringes_antifringes(a1: complex, a2: complex, psi1, psi2, sign: int):
    """Erased-branch intensity I± = N^2 [I1 + I2 ± 2 Re(a1 a2* psi1 psi2*)]."""
    if sign not in (+1, -1):
        raise ProfileError(f"sign must be +1 or -1, got {sign!r}")
    psi1 = np.asarray(psi1, dtype=complex)
    psi2 = np.asarray(psi2, dtype=complex)
    nsq = abs(a1) ** 2 + abs(a2) ** 2
    if nsq == 0:
        raise ProfileError("both amplitudes vanish")
    i1 = abs(a1) ** 2 * np.abs(psi1) ** 2
    i2 = abs(a2) ** 2 * np.abs(psi2) ** 2
    cross = 2.0 * (a1 * np.conj(a2) * psi1 * np.conj(psi2)).real
    out = (i1 + i2 + sign * cross) / nsq
    return float(out) if out.ndim == 0 else out


def visibility_predictability(i1: float, i2: float, cross_magnitude: float) -> DualityPoint:
    """Pointwise wave/particle pair: V from the cross-term magnitude, P from
    the intensity imbalance. V^2 + P^2 = 1 for pure two-path states."""
    total = i1 + i2
    if total <= 0:
        raise ProfileError("visibility undefined where I1 + I2 = 0")
    return DualityPoint(
        visibility=2.0 * cross_magnitude / total,
        predictability=abs(i1 - i2) / total,
    )


def elt_intensity(grid, coeffs: closedform.EltCoefficients, normalization: str = "peak") -> IntensityProfile:
    """Looped-paths-only interference pattern |ψ12 + ψ21|^2.

    Evaluated in the real form A^2 [e^(u+v) + e^(u-v) + 2 e^u cos(2 gamma x)]
    (module docstring), equal to |ψ12|^2 + |ψ21|^2 + 2 Re(ψ12 ψ21*)
    without a complex exponential. Symmetric in x because ψ21(x) = ψ12(-x).
    For coefficients of N configurations ``grid`` is (N, points), one row
    each; the pointwise visibility is 0 where |ψ12|^2 + |ψ21|^2 underflows
    to 0.

    ``peak`` and ``area`` are ratios, so for them each row's exponents are
    shifted by its largest, max(u + |v|), before ``exp``: the largest term is
    then 1 and a row whose absolute values would be subnormal keeps full
    precision. ``raw`` keeps the absolute values.
    """
    grid = _check_grid(grid)
    # ln A^2 rides in the exponent, so no factor underflows where the product does not
    u = _per_row(2.0 * (coeffs.c3 + np.log(coeffs.amplitude))) - _per_row(2.0 * coeffs.c1) * grid * grid
    v = _per_row(2.0 * coeffs.c2) * grid
    if normalization != "raw":
        u = u - _per_row(np.max(u + np.abs(v), axis=-1))
    diag = np.exp(u + v) + np.exp(u - v)  # |ψ12|^2 + |ψ21|^2
    cross = 2.0 * np.exp(u)  # 2 |ψ12 ψ21*|
    del u, v  # a sweep block holds many points: keep few of its temporaries alive at once
    values = diag + cross * np.cos(_per_row(2.0 * coeffs.gamma) * grid)
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
    """Pointwise amplitude evaluator for every path label, each a propagator chain."""
    return {
        "1": gaussians.chain_nonexotic(1, config).evaluate,
        "2": gaussians.chain_nonexotic(2, config).evaluate,
        "12": gaussians.chain_exotic("12", config).evaluate,
        "21": gaussians.chain_exotic("21", config).evaluate,
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


def default_grid(coeffs: closedform.EltCoefficients, points: int = 2001, fringes: float = 5.0) -> np.ndarray:
    """Symmetric grid spanning +/- ``fringes`` fringe spacings pi/|gamma|; one
    row per configuration for coefficient arrays."""
    if np.any(coeffs.gamma == 0):
        raise ProfileError("gamma vanishes; no fringe scale to derive the grid from")
    half = fringes * np.pi / np.abs(coeffs.gamma)
    if points < 1:
        raise ProfileError("grid needs at least one point")
    return np.linspace(-half, half, points, axis=-1)


def fringe_spacing(coeffs: closedform.EltCoefficients):
    """Distance between adjacent looped-path maxima near the center."""
    if np.any(coeffs.gamma == 0):
        raise ProfileError("gamma vanishes; fringes are infinitely wide")
    return np.pi / np.abs(coeffs.gamma)


def aggregate_visibility(profile: IntensityProfile, spacing):
    """(Imax - Imin)/(Imax + Imin) over the central three fringes, per profile
    row (a float for one profile, an array for a block of them).

    A convenience metric for sweeps; unlike the pointwise visibility it
    depends on the grid window, so it is reported under its own name. The
    window is closed with a relative margin of 1e-12: its edges fall exactly
    on points of the default grid (the outer fringe minima), and without the
    margin the last bit of gamma decided whether they count.
    """
    half = CENTRAL_FRINGES * _per_row(spacing) * (1.0 + 1e-12)
    window = np.abs(profile.grid) <= half
    if not np.all(np.any(window, axis=-1)):
        raise ProfileError("grid does not cover the central fringes")
    hi = np.where(window, profile.values, -np.inf).max(axis=-1)
    lo = np.where(window, profile.values, np.inf).min(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        agg = np.where(hi + lo == 0, 0.0, (hi - lo) / (hi + lo))
    return float(agg) if agg.ndim == 0 else agg
