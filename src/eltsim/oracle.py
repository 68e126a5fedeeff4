"""Independent numerical oracle: direct quadrature of the loop integral.

It deliberately avoids the Gaussian-form algebra in :mod:`eltsim.gaussians`:
integrands are written out explicitly and integrated numerically, so
agreement with the chain engine is a genuine cross-check and not a
tautology. The loop oracle ``looped_path_value`` uses tensor Gauss-Legendre
grids, whose rules are built once per process, and one segment kernel per
order for all the screen points asked for, half of it computed and half copied
by the rule's mirror symmetry; each point converges on its own.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .params import PhysicsConfig, derive

QUAD_ABS_TOL = 1e-10  # absolute tolerance of two refinements' agreement
LOOP_REL_TOL = 1e-7  # relative agreement of two refinements of the loop-integral quadrature
_DOMAIN_WIDTHS = 10.0  # integration window half-width, in local packet widths
_ORDERS = (80, 120, 180, 260, 380)  # Gauss-Legendre orders, refined in turn


class QuadratureError(RuntimeError):
    """The loop quadrature's refinements never agree at some screen point."""


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


@functools.lru_cache(maxsize=None)
def _anti_triangle(order: int):
    """(rows, cols, spread) of an order x order segment kernel, built once per order and read-only:
    ``rows`` and ``cols`` index its entries on and above the anti-diagonal, i + j <= order - 1, and
    ``spread[i, j]`` is the index among them of (i, j), or of its mirror (order-1-j, order-1-i)."""
    rows, flipped = np.triu_indices(order)
    cols = order - 1 - flipped
    spread = np.empty((order, order), dtype=np.intp)
    spread[rows, cols] = spread[flipped, order - 1 - rows] = np.arange(rows.size)
    for table in (rows, cols, spread):
        table.flags.writeable = False
    return rows, cols, spread


def _segment(x1, x2, lam_half: float):
    """The loop segment kernel exp(i lam_half (x2[j] - x1[i])^2), with only the exponentials on and above
    its anti-diagonal computed. The Gauss-Legendre nodes are odd to the bit, so x2 = -x1[::-1] exactly
    and entry (i, j) is entry (n-1-j, n-1-i) to the bit: the other half is a copy."""
    rows, cols, spread = _anti_triangle(len(x1))
    return np.exp(1j * lam_half * (x2[cols] - x1[rows]) ** 2)[spread]


def looped_path_value(config: PhysicsConfig, x):
    """Loop-12 amplitude at x: direct 2-D quadrature over the two loop crossing points.

    ``x`` is a scalar or a 1-D array of screen positions. The initial and
    final legs are folded in analytically (single Gaussian integrals written
    out here); the two-variable slit-to-slit-and-back integral is evaluated
    on tensor Gauss-Legendre grids of increasing order. Only the final leg
    depends on x, so each order builds the n x n segment kernel once for all
    points. Each point keeps the first order's value at which two successive
    refinements agree; if any point never agrees, it raises ``QuadratureError``.
    """
    m, hbar = config.mass, config.hbar
    d, beta, tau = config.d, config.beta, config.tau
    span = derive(config).span  # each loop segment spans epsilon + eta
    lam_half = m / (4.0 * hbar * span)  # per-segment kernel phase scale
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

    loop_pref = cmath.sqrt(m / (4j * math.pi * hbar * span))
    half = _DOMAIN_WIDTHS * beta
    converged = np.zeros(len(points), dtype=complex)
    pending = np.ones(len(points), dtype=bool)
    previous = None
    with np.errstate(all="ignore"):  # a value out of the float range is nan or inf, and verification names it
        for order in _ORDERS:
            nodes, weights = _gauss_legendre(order)
            x1 = d / 2.0 + half * nodes
            x2 = -d / 2.0 + half * nodes
            left = weights * _spread_packet(x1, config) * slit(x1, d / 2.0)
            segment = _segment(x1, x2, lam_half)
            right = weights * slit(x2, -d / 2.0) * tail(x2)
            value = half * half * (right @ (left @ segment))
            if previous is not None:
                agree = pending & (np.abs(value - previous) <= LOOP_REL_TOL * np.abs(value) + QUAD_ABS_TOL)
                converged[agree] = value[agree]
                pending &= ~agree
                if not pending.any():
                    return (loop_pref * converged).reshape(screen.shape)[()]  # [()] unwraps a scalar x
            previous = value
    raise QuadratureError(f"looped-path quadrature did not converge by order {_ORDERS[-1]}")
