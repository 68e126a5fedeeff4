"""Reference formulas that only the tests use: textbook intensity identities,
the aggregate visibility of a sampled profile, the closed-form norm of a
Gaussian form, and adaptive quadrature of the free-particle integrals.

The quadratures deliberately avoid the Gaussian-form algebra in
:mod:`eltsim.gaussians`: integrands are written out explicitly and
integrated numerically, so agreement with the chain engine is a genuine
cross-check and not a tautology. Only the adaptive-quadrature functions
import scipy. The runtime package needs none of this; its own loop oracle
is :func:`eltsim.oracle.looped_path_value`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from eltsim.gaussians import GaussianForm
from eltsim.intensity import CENTRAL_FRINGES, IntensityProfile, ProfileError
from eltsim.oracle import _DOMAIN_WIDTHS, QUAD_ABS_TOL
from eltsim.params import PhysicsConfig


@dataclass(frozen=True)
class DualityPoint:
    visibility: float
    predictability: float


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


def aggregate_visibility(profile: IntensityProfile, spacing):
    """(Imax - Imin)/(Imax + Imin) over the central three fringes of a sampled
    profile, per profile row (a float for one profile, an array for a block).

    The reference that ``eltsim.intensity.aggregate_visibility`` is checked
    against: it reads whichever grid points fall in the window. The window
    is closed with a relative margin of 1e-12: its edges fall exactly on
    points of the default grid (the outer fringe minima), and without the
    margin the last bit of gamma decided whether they count.
    """
    half = CENTRAL_FRINGES * np.asarray(spacing)[..., None] * (1.0 + 1e-12)
    window = np.abs(profile.grid) <= half
    if not np.all(np.any(window, axis=-1)):
        raise ProfileError("grid does not cover the central fringes")
    hi = np.where(window, profile.values, -np.inf).max(axis=-1)
    lo = np.where(window, profile.values, np.inf).min(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        agg = np.where(hi + lo == 0, 0.0, (hi - lo) / (hi + lo))
    return float(agg) if agg.ndim == 0 else agg


def norm_squared(form: GaussianForm) -> float:
    """integral |form(x)|^2 dx, in closed form."""
    ar, br, cr = 2.0 * form.a.real, 2.0 * form.b.real, 2.0 * form.c.real
    return abs(form.prefactor) ** 2 * math.sqrt(math.pi / ar) * math.exp(br * br / (4.0 * ar) + cr)


def complex_quad(f, a: float, b: float) -> complex:
    """Adaptive quadrature of a complex integrand via two real passes."""
    from scipy.integrate import quad

    opts = dict(epsabs=QUAD_ABS_TOL, epsrel=1e-11, limit=300)
    re, _ = quad(lambda x: f(x).real, a, b, **opts)
    im, _ = quad(lambda x: f(x).imag, a, b, **opts)
    return complex(re, im)


def _psi0(x, config: PhysicsConfig):
    return (config.sigma0 * math.sqrt(math.pi)) ** -0.5 * np.exp(
        -(x * x) / (2.0 * config.sigma0**2)
    )


def momentum_sigma(config: PhysicsConfig) -> float:
    """Momentum standard deviation of the source packet by double quadrature.

    Fourier-transforms the packet numerically at each momentum, then
    integrates p^2 |phi(p)|^2 dp; independent of any analytic moment formula.
    """
    from scipy.integrate import quad

    sig, hbar = config.sigma0, config.hbar
    x_half = _DOMAIN_WIDTHS * sig
    p_scale = hbar / sig

    def phi(p: float) -> complex:
        return complex_quad(
            lambda x: _psi0(x, config) * cmath.exp(-1j * p * x / hbar), -x_half, x_half
        ) / math.sqrt(2.0 * math.pi * hbar)

    p_half = _DOMAIN_WIDTHS * p_scale
    norm, _ = quad(lambda p: abs(phi(p)) ** 2, -p_half, p_half, limit=200)
    second, _ = quad(lambda p: p * p * abs(phi(p)) ** 2, -p_half, p_half, limit=200)
    first, _ = quad(lambda p: p * abs(phi(p)) ** 2, -p_half, p_half, limit=200)
    mean = first / norm
    return math.sqrt(second / norm - mean * mean)


def free_propagated_value(config: PhysicsConfig, duration: float, x: float) -> complex:
    """psi(x) after free evolution of the source packet, by direct quadrature."""
    m, hbar = config.mass, config.hbar
    pref = cmath.sqrt(m / (2j * math.pi * hbar * duration))
    kappa = m / (2.0 * hbar * duration)

    def integrand(y: float) -> complex:
        return cmath.exp(1j * kappa * (x - y) ** 2) * complex(_psi0(y, config))

    half = _DOMAIN_WIDTHS * config.sigma0
    return pref * complex_quad(integrand, -half, half)
