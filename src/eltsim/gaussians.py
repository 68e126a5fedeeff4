"""Complex-Gaussian wavefunction algebra and the propagator/slit chain engine.

Every intermediate state of the interferometer is an unnormalized complex
Gaussian ``prefactor * exp(-a x^2 + b x + c)`` with Re(a) > 0. In doubles,
Re(a) of a packet in a long flight may underflow to 0 until a slit restores
it, so a step carries Re(a) >= 0 and only a chain's result must have
Re(a) > 0. Free propagation and Gaussian slit transmission map such forms
to such forms via the identity  integral exp(-A y^2 + B y) dy =
sqrt(pi/A) exp(B^2/4A)  for Re(A) > 0 (principal-branch square roots
throughout). The chain is exact, and one ``chain(slits, config)`` builds
every path from its sequence of slit centres; the commands build only path 1
and loop 12 (``intensity``), whose mirrors at -x are path 2 and loop 21.
Every path amplitude and looped-path coefficient on the hot path comes from
it, and verification checks the closed form of :mod:`eltsim.closedform`
against the looped-path coefficients read off it. Forms and chains
broadcast: over a batch of configurations, whose fields ``params.batch``
returns, every coefficient is an array with one element per configuration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .params import PhysicsConfig, check, derive

# exp() overflow guard for the real part of the exponent
_EXP_LIMIT = 700.0


class DegenerateChainError(ValueError):
    """A Gaussian form with Re(a) <= 0 or a non-finite coefficient: not normalizable."""


class EvaluationError(ValueError):
    """Pointwise evaluation would overflow the real exponent."""


@dataclass(frozen=True)
class GaussianForm:
    """prefactor * exp(-a x^2 + b x + c); a in 1/m^2, b in 1/m, c dimensionless.

    The prefactor accumulates every chain normalization (propagator constants
    and Gaussian-integral factors) as a single complex number so that branch
    choices of the square roots cannot disagree between stages.
    """

    a: complex
    b: complex = 0.0j
    c: complex = 0.0j
    prefactor: complex = 1.0 + 0.0j

    def __post_init__(self):
        values = vars(self).values()
        # a batch is checked once, by the chain that built it, which can name the configuration that fails;
        # one configuration checks in Python scalar arithmetic what a step can carry (finite, Re(a) >= 0) and,
        # when that fails, raises as a batch would; a chain's result is checked by normalizable(), as a batch
        if np.ndarray not in set(map(type, values)) and not (all(map(cmath.isfinite, values)) and self.a.real >= 0):
            self.normalizable()

    def normalizable(self, config: PhysicsConfig | None = None) -> GaussianForm:
        """This form, checked finite with Re(a) > 0 for every configuration of ``config`` it holds."""
        check(
            np.isfinite(self.a) & np.isfinite(self.b) & np.isfinite(self.c) & np.isfinite(self.prefactor)
            & (np.real(self.a) > 0),
            config,
            lambda at, where: f"non-normalizable Gaussian form{where}: " + ", ".join(
                f"{name}={at(value)!r}" for name, value in vars(self).items()
            ),
            DegenerateChainError,
        )
        return self

    def evaluate(self, x):
        """Value at real position x (scalar or array); a reference for tests, as runtime code reads coefficients."""
        x = np.asarray(x, dtype=float)
        exponent = -self.a * x * x + self.b * x + self.c
        if np.any(exponent.real > _EXP_LIMIT):
            worst = float(np.max(exponent.real))
            raise EvaluationError(f"real exponent {worst:.3g} exceeds overflow limit {_EXP_LIMIT}")
        out = self.prefactor * np.exp(exponent)
        return complex(out) if out.ndim == 0 else out


def _sqrt(z):
    # one configuration stays in Python's complex arithmetic, as in every other step: cmath.sqrt and
    # np.sqrt round a number on the imaginary axis (every propagator constant) differently in the last bit
    return np.sqrt(z) if isinstance(z, np.ndarray) else cmath.sqrt(z)


def initial_packet(config: PhysicsConfig) -> GaussianForm:
    """Normalized source packet of transverse width sigma0, centered at x=0."""
    return GaussianForm(
        a=1.0 / (2.0 * config.sigma0**2) + 0.0j,
        prefactor=(config.sigma0 * math.sqrt(math.pi)) ** -0.5 + 0.0j,
    )


def apply_slit(form: GaussianForm, center: float, beta: float) -> GaussianForm:
    """Multiply by the Gaussian aperture exp(-(x-center)^2 / 2 beta^2)."""
    inv = 1.0 / (2.0 * beta**2)
    return replace(
        form,
        a=form.a + inv,
        b=form.b + center / beta**2,
        c=form.c - center * center * inv,
    )


def _integrate_quadratic(form: GaussianForm, kappa: float, constant: complex = 1.0) -> GaussianForm:
    """Convolve with the kernel constant * exp(i kappa (x-y)^2 / 2).

    Carries out integral exp(i kappa (x-y)^2 / 2) form(y) dy exactly; the
    caller supplies the propagator constant that belongs to the kernel.
    """
    half = 0.5j * kappa
    big_a = form.a - half  # Re(A) = Re(a) >= 0
    four_a = 4.0 * big_a
    return GaussianForm(
        a=kappa * kappa / four_a - half,
        b=-1j * kappa * form.b / (2.0 * big_a),
        c=form.c + form.b * form.b / four_a,
        prefactor=form.prefactor * _sqrt(np.pi / big_a) * constant,
    )


def propagate(form: GaussianForm, duration: float, config: PhysicsConfig) -> GaussianForm:
    """Free evolution for the given duration with the standard 1-D propagator
    sqrt(m / 2 pi i hbar dt) exp(i m (x-y)^2 / 2 hbar dt)."""
    if np.any(duration <= 0):
        raise ValueError(f"duration must be positive, got {duration!r}")
    kappa = config.mass / (config.hbar * duration)
    return _integrate_quadratic(form, kappa, _sqrt(config.mass / (2j * np.pi * config.hbar * duration)))


def chain(slits, config: PhysicsConfig) -> GaussianForm:
    """Source packet -> flight t -> each slit centre of ``slits`` in turn -> flight tau -> screen: path 1 is
    (d/2,), loop 12 (d/2, -d/2, d/2). Consecutive slits are joined by a loop segment, the kernel
    exp(i lam (x2-x1)^2 / 2) at ``derive``'s loop-kernel scale lam = m / (2 hbar span), span = epsilon + eta,
    and a loop's constant sqrt(m / 4 pi i hbar span) is multiplied once, on its second segment (the closed
    form's convention).
    """
    derived = derive(config)  # derive range-checks every divisor before any arithmetic
    with np.errstate(all="ignore"):  # a batch that overflows is named by the check below
        form = apply_slit(propagate(initial_packet(config), config.t, config), slits[0], config.beta)
        for segment, center in enumerate(slits[1:], 1):
            constant = _sqrt(config.mass / (4j * np.pi * config.hbar * derived.span)) if segment % 2 == 0 else 1.0
            form = apply_slit(_integrate_quadratic(form, derived.lam, constant), center, config.beta)
        form = propagate(form, config.tau, config)
    return form.normalizable(config)
