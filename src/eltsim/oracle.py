"""Independent numerical oracles: direct quadrature of the path integrals.

Everything here deliberately avoids the Gaussian-form algebra in
:mod:`eltsim.gaussians`: integrands are written out explicitly and integrated
numerically, so agreement with the chain engine is a genuine cross-check and
not a tautology. Only the adaptive-quadrature functions import scipy.
The loop oracle ``looped_path_value`` uses tensor Gauss-Legendre grids, whose
rules are built once per process, and one segment kernel per order for all
the screen points asked for; each point converges on its own.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .params import PhysicsConfig, derive

QUAD_ABS_TOL = 1e-10  # absolute tolerance per 1-D adaptive pass
LOOP_REL_TOL = 1e-7  # relative agreement of two refinements of the loop-integral quadrature
_DOMAIN_WIDTHS = 10.0  # integration window half-width, in local packet widths


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


def _spread_packet(x1, config: PhysicsConfig):
    """Free-evolved source packet at time t, from the standard spreading
    formula (written directly, not via the chain engine)."""
    sig, hbar, m, t = config.sigma0, config.hbar, config.mass, config.t
    stretch = 1.0 + 1j * hbar * t / (m * sig * sig)
    return (
        (sig * math.sqrt(math.pi)) ** -0.5
        / np.sqrt(stretch)
        * np.exp(-(x1 * x1) / (2.0 * sig * sig * stretch))
    )


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def looped_path_value(config: PhysicsConfig, x):
    """Loop-12 amplitude at x: direct 2-D quadrature over the two loop crossing points.

    ``x`` is a scalar or a 1-D array of screen positions. The initial and
    final legs are folded in analytically (single Gaussian integrals written
    out here); the two-variable slit-to-slit-and-back integral is evaluated
    on tensor Gauss-Legendre grids of increasing order. Only the final leg
    depends on x, so each order builds the n x n segment kernel once for all
    points. Each point keeps the first order's value at which two successive
    refinements agree; if any point never agrees, it raises ``RuntimeError``.
    """
    m, hbar = config.mass, config.hbar
    d, beta, tau = config.d, config.beta, config.tau
    eps = derive(config).epsilon + config.eta
    lam_half = m / (4.0 * hbar * eps)  # per-segment kernel phase scale
    ktau = m / (2.0 * hbar * tau)
    screen = np.asarray(x, dtype=float)
    points = screen.reshape(-1, 1)

    def slit(y, center):
        return np.exp(-((y - center) ** 2) / (2.0 * beta * beta))

    # final leg: integral over x3 of screen propagator * slit * second segment
    def tail(x2):
        # integrand exp(-A x3^2 + B x3 + C) with the standard Gaussian result
        a3 = 1.0 / (2.0 * beta * beta) - 1j * ktau - 1j * lam_half
        b3 = d / (2.0 * beta * beta) - 2j * ktau * points - 2j * lam_half * x2
        c3 = (
            -(d * d) / (8.0 * beta * beta)
            + 1j * ktau * points * points
            + 1j * lam_half * x2 * x2
        )
        pref = cmath.sqrt(m / (2j * math.pi * hbar * tau))
        return pref * np.sqrt(np.pi / a3) * np.exp(b3 * b3 / (4.0 * a3) + c3)

    loop_pref = cmath.sqrt(m / (4j * math.pi * hbar * eps))
    half = _DOMAIN_WIDTHS * beta
    converged = np.zeros(len(points), dtype=complex)
    pending = np.ones(len(points), dtype=bool)
    previous = None
    for order in (80, 120, 180, 260, 380):
        nodes, weights = _gauss_legendre(order)
        x1 = d / 2.0 + half * nodes
        x2 = -d / 2.0 + half * nodes
        left = weights * _spread_packet(x1, config) * slit(x1, d / 2.0)
        segment = np.exp(1j * lam_half * (x2[None, :] - x1[:, None]) ** 2)
        right = weights * slit(x2, -d / 2.0) * tail(x2)
        value = half * half * (right @ (left @ segment))
        if previous is not None:
            agree = pending & (np.abs(value - previous) <= LOOP_REL_TOL * np.abs(value) + QUAD_ABS_TOL)
            converged[agree] = value[agree]
            pending &= ~agree
            if not pending.any():
                return (loop_pref * converged).reshape(screen.shape)[()]  # [()] unwraps a scalar x
        previous = value
    raise RuntimeError("looped-path quadrature did not converge")
