"""Screen-plane observables: intensity profiles, visibility, predictability.

A branch's screen profile is <x|rho|x> assembled from the path weight matrix
of the reduced center-of-mass state and the pointwise path amplitudes: the
straight paths come from the exact propagator chain, the looped paths from
the closed form. Looped-path evaluators use the closed form's sign
convention; weight matrices built from the composite state carry the
matching explicit minus, so all branch profiles are mutually consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closedform, gaussians, marking
from .params import PhysicsConfig

NORMALIZATIONS = ("raw", "peak", "area")


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


@dataclass(frozen=True)
class DualityPoint:
    visibility: float
    predictability: float


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ProfileError("empty grid")
    return grid


def _finalize(grid, values, branch, normalization, visibility=None) -> IntensityProfile:
    values = np.asarray(values, dtype=float)
    negative = values < 0
    clamped = int(np.count_nonzero(negative))
    if clamped:
        floor = float(values.min())
        if floor < -1e-12 * max(1.0, float(np.abs(values).max())):
            raise ProfileError(f"intensity significantly negative: min {floor:.3g}")
        values = np.where(negative, 0.0, values)
    if normalization not in NORMALIZATIONS:
        raise ProfileError(f"unknown normalization {normalization!r}")
    if normalization == "peak":
        peak = values.max()
        if peak > 0:
            values = values / peak
    elif normalization == "area":
        area = np.trapezoid(values, grid) if grid.size > 1 else values.sum()
        if area > 0:
            values = values / area
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
    """Looped-paths-only interference pattern |psi12 + psi21|^2.

    Computed through the complex cross term 2 Re(psi12 psi21*), which equals
    the |psi12|^2 + |psi21|^2 + 2|psi12 psi21| cos(phase difference) form
    identically. Symmetric in x because psi21(x) = psi12(-x).
    """
    grid = _check_grid(grid)
    p12 = closedform.psi12(grid, coeffs)
    p21 = closedform.psi21(grid, coeffs)
    i12 = np.abs(p12) ** 2
    i21 = np.abs(p21) ** 2
    cross = 2.0 * (p12 * np.conj(p21)).real
    values = i12 + i21 + cross
    with np.errstate(invalid="ignore", divide="ignore"):
        vis = np.where(i12 + i21 > 0, 2.0 * np.abs(p12 * np.conj(p21)) / (i12 + i21), 0.0)
    return _finalize(grid, values, "elt", normalization, vis)


def path_evaluators(config: PhysicsConfig):
    """Pointwise amplitude evaluator for every path label."""
    return solved_path_evaluators(config, closedform.solve(config).coeffs)


def solved_path_evaluators(config: PhysicsConfig, coeffs: closedform.EltCoefficients):
    """``path_evaluators`` with the looped paths on already solved coefficients."""
    form1 = gaussians.chain_nonexotic(1, config)
    form2 = gaussians.chain_nonexotic(2, config)
    return {
        "1": form1.evaluate,
        "2": form2.evaluate,
        "12": lambda x: closedform.psi12(x, coeffs),
        "21": lambda x: closedform.psi21(x, coeffs),
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
        contrib = (w * amp[p] * np.conj(amp[q])).real
        values = values + contrib
        if p == q:
            diag_sum = diag_sum + contrib
        elif p < q:
            cross_sum = cross_sum + w * amp[p] * np.conj(amp[q])
    with np.errstate(invalid="ignore", divide="ignore"):
        vis = np.where(diag_sum > 0, 2.0 * np.abs(cross_sum) / diag_sum, 0.0)
    return _finalize(grid, values, label or "density", normalization, vis)


def default_grid(coeffs: closedform.EltCoefficients, points: int = 2001, fringes: float = 5.0) -> np.ndarray:
    """Symmetric grid spanning +/- ``fringes`` fringe spacings pi/|gamma|."""
    if coeffs.gamma == 0:
        raise ProfileError("gamma vanishes; no fringe scale to derive the grid from")
    half = fringes * math.pi / abs(coeffs.gamma)
    if points < 1:
        raise ProfileError("grid needs at least one point")
    return np.linspace(-half, half, points)


def fringe_spacing(coeffs: closedform.EltCoefficients) -> float:
    """Distance between adjacent looped-path maxima near the center."""
    if coeffs.gamma == 0:
        raise ProfileError("gamma vanishes; fringes are infinitely wide")
    return math.pi / abs(coeffs.gamma)


def aggregate_visibility(profile: IntensityProfile, spacing: float) -> float:
    """(Imax - Imin)/(Imax + Imin) over the central three fringes.

    A convenience metric for sweeps; unlike the pointwise visibility it
    depends on the grid window, so it is reported under its own name.
    """
    half = 1.5 * spacing
    window = (profile.grid >= -half) & (profile.grid <= half)
    if not np.any(window):
        raise ProfileError("grid does not cover the central fringes")
    values = profile.values[window]
    hi, lo = float(values.max()), float(values.min())
    if hi + lo == 0:
        return 0.0
    return (hi - lo) / (hi + lo)
