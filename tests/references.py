"""Reference formulas that only the tests use: textbook intensity identities,
the aggregate visibility of a sampled profile, the closed-form norm of a
Gaussian form, adaptive quadrature of the free-particle integrals, and a
50-digit transcription of the path-1 and loop-12 propagator chains with the
screen profile of every named branch.

The quadratures deliberately avoid the Gaussian-form algebra in
:mod:`eltsim.gaussians`: integrands are written out explicitly and
integrated numerically, so agreement with the chain engine is a genuine
cross-check and not a tautology. The 50-digit chains are written step by
step from the Gaussian integral in mpmath, and share no code with it. Only the adaptive-quadrature functions
import scipy. The runtime package needs none of this; its own loop oracle
is :func:`eltsim.oracle.looped_path_value`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
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


def _mp_flight(form, kappa, constant):
    """The form P exp(-a y^2 + b y + c) carried through the kernel constant * exp(i kappa (x - y)^2 / 2):
    in y the exponent is -A y^2 + B y + i kappa x^2 / 2 + c with A = a - i kappa / 2 and B = b - i kappa x,
    and integral exp(-A y^2 + B y) dy = sqrt(pi / A) exp(B^2 / 4A) for Re A > 0. B^2 / 4A is
    (b^2 - 2 i kappa b x - kappa^2 x^2) / 4A, so x^2, x and 1 collect the new coefficients."""
    a, b, c, pref = form
    big_a = a - 0.5j * kappa
    return (
        kappa**2 / (4 * big_a) - 0.5j * kappa,
        -1j * kappa * b / (2 * big_a),
        c + b**2 / (4 * big_a),
        pref * constant * mpmath.sqrt(mpmath.pi / big_a),
    )


def _mp_slit(form, center, beta):
    """The form times the Gaussian aperture exp(-(x - center)^2 / 2 beta^2)."""
    a, b, c, pref = form
    return a + 1 / (2 * beta**2), b + center / beta**2, c - center**2 / (2 * beta**2), pref


def mp_chain(config: PhysicsConfig, looped: bool):
    """(a, b, c, P) of ψ(x) = P exp(-a x^2 + b x + c) for path 1, or with ``looped`` loop 12, at the working
    precision: the source packet flies t, passes slit 1 at +d/2 (for loop 12 it then flies to slit 2 at -d/2
    and back to slit 1, each leg on the kernel exp(i m (x2 - x1)^2 / 4 hbar span), span = epsilon + eta,
    and sqrt(m / 4 pi i hbar span) once for both legs) and flies tau to the screen."""
    m, hbar, sigma0, beta, d = (mpmath.mpf(v) for v in (config.mass, config.hbar, config.sigma0, config.beta, config.d))

    def free(form, duration):
        kappa = m / (hbar * duration)
        return _mp_flight(form, kappa, mpmath.sqrt(m / (2j * mpmath.pi * hbar * duration)))

    form = (1 / (2 * sigma0**2), mpmath.mpc(0), mpmath.mpc(0), (sigma0 * mpmath.sqrt(mpmath.pi)) ** -0.5)
    form = _mp_slit(free(form, mpmath.mpf(config.t)), d / 2, beta)
    if looped:
        span = d * m * mpmath.sqrt(2) * sigma0 / hbar + mpmath.mpf(config.eta)  # epsilon = d / Delta v_x
        kappa = m / (2 * hbar * span)
        form = _mp_slit(_mp_flight(form, kappa, 1), -d / 2, beta)
        form = _mp_slit(_mp_flight(form, kappa, mpmath.sqrt(m / (4j * mpmath.pi * hbar * span))), d / 2, beta)
    return free(form, mpmath.mpf(config.tau))


def mp_branch_profiles(config: PhysicsConfig, grid) -> dict[str, np.ndarray]:
    """The peak-normalized screen profile of every named branch on ``grid``, from 50-digit chains:
    ``elt`` |ψ12 + ψ21|^2, ``ground`` |ψ1|^2 + |ψ2|^2, ``full`` the ground's weighted by |amp_nonexotic|^2
    plus the elt's by |amp_exotic|^2, and ``fringes`` / ``antifringes`` |ψ1 +/- ψ2|^2, with the mirrors
    ψ2(x) = ψ1(-x) and ψ21(x) = ψ12(-x)."""
    with mpmath.workdps(50):
        chains = [mp_chain(config, looped) for looped in (False, True)]
        straight, loop = (
            [(psi(x), psi(-x)) for x in map(mpmath.mpf, np.asarray(grid, dtype=float).tolist())]
            for a, b, c, pref in chains
            for psi in [lambda x, a=a, b=b, c=c, pref=pref: pref * mpmath.exp(-a * x * x + b * x + c)]
        )
        w_straight, w_loop = abs(complex(config.amp_nonexotic)) ** 2, abs(complex(config.amp_exotic)) ** 2
        sq = mpmath.fabs
        profiles = {
            "elt": [sq(p + q) ** 2 for p, q in loop],
            "ground": [sq(p) ** 2 + sq(q) ** 2 for p, q in straight],
            "fringes": [sq(p + q) ** 2 for p, q in straight],
            "antifringes": [sq(p - q) ** 2 for p, q in straight],
        }
        profiles["full"] = [w_straight * g + w_loop * e for g, e in zip(profiles["ground"], profiles["elt"])]
        peaks = {name: max(values) for name, values in profiles.items()}
        return {name: np.array([float(v / peaks[name]) for v in values]) for name, values in profiles.items()}
