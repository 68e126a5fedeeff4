"""Closed-form looped-path wavefunctions psi12 / psi21: the paper's reference.

The looped-path chain (packet -> slit 1 -> slit 2 -> slit 1 -> screen) reduces
to a single complex Gaussian whose stage-by-stage quadratic coefficients form
the z-table below: z0..z3 are the four Gaussian-integration coefficients, and
z4..z10 are the products of z1, z2, z3 that appear once the linear and
constant parts of the exponent are expanded into real-arithmetic components.
z0..z3 are the chain's stage recursion over the wavenumbers kappa = (m/hbar t,
m/2 hbar (epsilon + eta), m/2 hbar (epsilon + eta), m/hbar tau) of the flight t,
the two loop segments and the flight tau; the loop one is ``derive``'s ``lam``.

Each coefficient of the final wavefunction

    psi12(x) = A exp(-C1 x^2 + C2 x + C3) exp(i(alpha x^2 + gamma x + theta + mu))

is computed twice: from a compact complex expression (authoritative) and from
the expanded real/imaginary component formulas (cross-check). Keeping both
routes contains transcription errors; the verifier reports any per-term
disagreement by name. ``solve`` is the one place that turns a configuration
into its derived kinematics, z-table and coefficients, each loop segment at
``derived.span`` = epsilon + eta as in the chain; it broadcasts over a
batch of configurations (``params.batch``), and its guards name the first
row that trips them by every field of the batch.

Nothing on the hot path reads the closed form: every profile and sweep row
comes from the propagator chain of :mod:`eltsim.gaussians`. The closed form
is the reference that verification checks the chain's record against, both
evaluated by ``psi12``/``psi21`` (the chain is exactly ``CHAIN_SIGN`` times
psi12, at every eta), and the coefficient record of every manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DerivedQuantities, PhysicsConfig, check, derive

# chain evaluation = CHAIN_SIGN * closed form, a global phase (mu is on the chain's branch)
CHAIN_SIGN = -1.0


class DegenerateConfigError(ValueError):
    """A z-table denominator vanished; the configuration is degenerate."""


@dataclass(frozen=True)
class ZTable:
    """Stage coefficients z0..z3 (1/m^2), their products z4..z10, and the
    composite pair (gouy_zr, gouy_zi) that sets the axial Gouy phase; arrays
    for an array-valued configuration."""

    z0: complex
    z1: complex
    z2: complex
    z3: complex
    z4: complex
    z5: complex
    z6: complex
    z7: complex
    z8: complex
    z9: complex
    z10: complex
    gouy_zr: float
    gouy_zi: float


@dataclass(frozen=True)
class EltCoefficients:
    """Coefficient bundle of the looped-path wavefunction psi12, from the closed
    form or read off the chain (``intensity.loop_coefficients``); arrays for
    an array-valued configuration."""

    amplitude: float  # A, m^(1/2): psi12 carries one more unit of length than psi1
    c1: float  # envelope curvature, 1/m^2
    c2: float  # envelope shift, 1/m (odd in d)
    c3: float  # envelope offset, dimensionless
    alpha: float  # quadratic phase, 1/m^2
    gamma: float  # linear phase, 1/m (odd in d)
    theta: float  # displacement axial phase, rad
    mu: float  # Gouy phase, rad


def build_ztable(config: PhysicsConfig, derived: DerivedQuantities) -> ZTable:
    """z-table as the chain's stage recursion: z0 = 1/(2 sigma0^2) - i kappa_0/2, then
    z_k = 1/(2 beta^2) + kappa_(k-1)^2 / 4 z_(k-1) - i (kappa_(k-1) + kappa_k)/2 for k = 1..3, where
    kappa = (k_t, lam, lam, k_tau) = (m/hbar t, m/2 hbar (epsilon + eta), m/2 hbar (epsilon + eta), m/hbar tau)
    are the wavenumbers of the flight t, the two loop segments at ``derived.span`` and the flight tau
    (``_kinematics``). No z_k vanishes: Re z0 = 1/(2 sigma0^2) > 0, and each stage adds to a positive real part."""
    kt, ktau, lam, _ = _kinematics(config, derived)
    kappa = (kt, lam, lam, ktau)
    z = [1.0 / (2.0 * config.sigma0**2) - 0.5j * kt]
    for before, after in zip(kappa, kappa[1:]):
        z.append(1.0 / (2.0 * config.beta**2) + before * before / (4.0 * z[-1]) - 0.5j * (before + after))
    z0, z1, z2, z3 = z

    big_z = z0 * z1 * z2 * z3
    return ZTable(
        z0=z0,
        z1=z1,
        z2=z2,
        z3=z3,
        z4=z1 * z1 * z2,
        z5=z1 * z1 * z2 * z2 * z3,
        z6=z1 * z2 * z3,
        z7=z1 * z2,
        z8=z2 * z2 * z3,
        z9=z1 * z2 * z2 * z3,
        z10=z2 * z3,
        gouy_zr=big_z.imag,
        gouy_zi=big_z.real,
    )


def expanded_products(zt: ZTable) -> dict[str, complex]:
    """z4..z10 and the Gouy composites from real-arithmetic expansions only.

    Written entirely in terms of the real/imaginary parts of z1..z3 (no
    complex multiplication), these serve as an independent transcription of
    the product table; tests assert they match the complex products.
    """
    z1r, z1i = zt.z1.real, zt.z1.imag
    z2r, z2i = zt.z2.real, zt.z2.imag
    z3r, z3i = zt.z3.real, zt.z3.imag
    z0r, z0i = zt.z0.real, zt.z0.imag

    z4 = complex(
        z1r**2 * z2r - z1i**2 * z2r - 2.0 * z1r * z1i * z2i,
        z1r**2 * z2i - z1i**2 * z2i + 2.0 * z1r * z1i * z2r,
    )
    p = z1r**2 * z2r**2 - z1r**2 * z2i**2 - z1i**2 * z2r**2 + z1i**2 * z2i**2 - 4.0 * z1r * z1i * z2r * z2i
    q = z1r**2 * z2r * z2i - z1i**2 * z2r * z2i + z1r * z1i * z2r**2 - z1r * z1i * z2i**2
    z5 = complex(z3r * p - 2.0 * z3i * q, z3i * p + 2.0 * z3r * q)
    z6 = complex(
        z1r * z2r * z3r - z1r * z2i * z3i - z1i * z2r * z3i - z1i * z2i * z3r,
        z1r * z2r * z3i + z1r * z2i * z3r + z1i * z2r * z3r - z1i * z2i * z3i,
    )
    z7 = complex(z1r * z2r - z1i * z2i, z1i * z2r + z1r * z2i)
    z8 = complex(
        (z2r**2 - z2i**2) * z3r - 2.0 * z2r * z2i * z3i,
        (z2r**2 - z2i**2) * z3i + 2.0 * z2r * z2i * z3r,
    )
    z9 = complex(z1r * z8.real - z1i * z8.imag, z1i * z8.real + z1r * z8.imag)
    z10 = complex(z2r * z3r - z2i * z3i, z2i * z3r + z2r * z3i)

    zr = (z0r * z1r - z0i * z1i) * (z2r * z3i + z2i * z3r) + (z0r * z1i + z0i * z1r) * (z2r * z3r - z2i * z3i)
    zi = (z0r * z1r - z0i * z1i) * (z2r * z3r - z2i * z3i) - (z0r * z1i + z0i * z1r) * (z2r * z3i + z2i * z3r)
    return {
        "z4": z4, "z5": z5, "z6": z6, "z7": z7, "z8": z8, "z9": z9, "z10": z10,
        "gouy_zr": complex(zr, 0.0), "gouy_zi": complex(zi, 0.0),
    }


def _kinematics(config: PhysicsConfig, derived: DerivedQuantities):
    """The closed form's one kinematics record (k_t, k_tau, lam, D): the flight wavenumbers m/hbar t and
    m/hbar tau, ``derive``'s loop-kernel scale lam = m/2 hbar (epsilon + eta), and D = d/2 beta^2."""
    m, hbar = config.mass, config.hbar
    return m / (hbar * config.t), m / (hbar * config.tau), derived.lam, config.d / (2.0 * config.beta**2)


def linear_coefficient_terms(zt: ZTable, config: PhysicsConfig, derived: DerivedQuantities) -> dict[str, complex]:
    """Complex terms whose real parts sum to C2 and imaginary parts to gamma."""
    _, ktau, lam, big_d = _kinematics(config, derived)
    return {
        "linear_screen": -1j * ktau * big_d / (2.0 * zt.z3),
        "linear_z10": ktau * lam * big_d / (4.0 * zt.z10),
        "linear_z6": 1j * ktau * lam**2 * big_d / (8.0 * zt.z6),
    }


def constant_coefficient_terms(zt: ZTable, config: PhysicsConfig, derived: DerivedQuantities) -> dict[str, complex]:
    """Complex terms whose real parts sum to C3 and imaginary parts to theta."""
    _, _, lam, big_d = _kinematics(config, derived)
    d, beta = config.d, config.beta
    dd = big_d * big_d
    return {
        "const_z1": dd / (4.0 * zt.z1),
        "const_z2": dd / (4.0 * zt.z2),
        "const_z3": dd / (4.0 * zt.z3),
        "const_z7": 1j * lam * dd / (4.0 * zt.z7),
        "const_z10": 1j * lam * dd / (4.0 * zt.z10),
        "const_z4": -(lam**2) * dd / (16.0 * zt.z4),
        "const_z8": -(lam**2) * dd / (16.0 * zt.z8),
        "const_z6": -(lam**2) * dd / (8.0 * zt.z6),
        "const_z9": -1j * lam**3 * dd / (16.0 * zt.z9),
        "const_z5": lam**4 * dd / (64.0 * zt.z5),
        "const_slits": -3.0 * d * d / (8.0 * beta * beta) + 0j,
    }


@np.errstate(all="ignore")
def expanded_coefficient_terms(zt: ZTable, config: PhysicsConfig, derived: DerivedQuantities) -> dict[str, complex]:
    """The same terms as the two functions above, written out in
    real-arithmetic components of the z-table (transcription cross-check).
    In numpy doubles, as ``build_coefficients`` takes m^3 and hbar^3: a term
    that leaves the float range is inf or nan and fails its check by name,
    where a Python float ** or / would raise."""
    m, hbar = np.float64(config.mass), np.float64(config.hbar)
    tau, eps = np.float64(config.tau), np.float64(derived.span)
    d, beta = np.float64(config.d), np.float64(config.beta)

    def sq(z: complex) -> float:
        return z.real * z.real + z.imag * z.imag

    z1, z2, z3 = zt.z1, zt.z2, zt.z3
    z4, z5, z6 = zt.z4, zt.z5, zt.z6
    z7, z8, z9, z10 = zt.z7, zt.z8, zt.z9, zt.z10
    b2, b4 = beta**2, beta**4

    return {
        # real part -> C2, imag part -> gamma
        "linear_screen": complex(
            -m * d * z3.imag / (4.0 * hbar * tau * b2 * sq(z3)),
            -m * d * z3.real / (4.0 * hbar * tau * b2 * sq(z3)),
        ),
        "linear_z10": complex(
            m**2 * d * z10.real / (16.0 * hbar**2 * tau * eps * b2 * sq(z10)),
            -(m**2) * d * z10.imag / (16.0 * hbar**2 * tau * eps * b2 * sq(z10)),
        ),
        "linear_z6": complex(
            m**3 * d * z6.imag / (64.0 * hbar**3 * b2 * tau * eps**2 * sq(z6)),
            m**3 * d * z6.real / (64.0 * hbar**3 * b2 * tau * eps**2 * sq(z6)),
        ),
        # real part -> C3, imag part -> theta
        "const_z1": complex(
            d**2 * z1.real / (16.0 * b4 * sq(z1)),
            -(d**2) * z1.imag / (16.0 * b4 * sq(z1)),
        ),
        "const_z2": complex(
            d**2 * z2.real / (16.0 * b4 * sq(z2)),
            -(d**2) * z2.imag / (16.0 * b4 * sq(z2)),
        ),
        "const_z3": complex(
            d**2 * z3.real / (16.0 * b4 * sq(z3)),
            -(d**2) * z3.imag / (16.0 * b4 * sq(z3)),
        ),
        "const_z7": complex(
            m * d**2 * z7.imag / (32.0 * hbar * b4 * eps * sq(z7)),
            m * d**2 * z7.real / (32.0 * hbar * b4 * eps * sq(z7)),
        ),
        "const_z10": complex(
            m * d**2 * z10.imag / (32.0 * hbar * eps * b4 * sq(z10)),
            m * d**2 * z10.real / (32.0 * hbar * eps * b4 * sq(z10)),
        ),
        "const_z4": complex(
            -(m**2) * d**2 * z4.real / (4**4 * b4 * hbar**2 * eps**2 * sq(z4)),
            m**2 * d**2 * z4.imag / (4**4 * hbar**2 * b4 * eps**2 * sq(z4)),
        ),
        "const_z8": complex(
            -(m**2) * d**2 * z8.real / (4**4 * hbar**2 * eps**2 * b4 * sq(z8)),
            m**2 * d**2 * z8.imag / (4**4 * hbar**2 * b4 * eps**2 * sq(z8)),
        ),
        "const_z6": complex(
            -(m**2) * d**2 * z6.real / (2**7 * hbar**2 * eps**2 * b4 * sq(z6)),
            m**2 * d**2 * z6.imag / (2**7 * hbar**2 * b4 * eps**2 * sq(z6)),
        ),
        "const_z9": complex(
            -(m**3) * d**2 * z9.imag / (2**9 * hbar**3 * eps**3 * b4 * sq(z9)),
            -(m**3) * d**2 * z9.real / (2**9 * hbar**3 * b4 * eps**3 * sq(z9)),
        ),
        "const_z5": complex(
            m**4 * d**2 * z5.real / (4**6 * hbar**4 * eps**4 * b4 * sq(z5)),
            -(m**4) * d**2 * z5.imag / (4**6 * hbar**4 * b4 * eps**4 * sq(z5)),
        ),
        "const_slits": complex(-(d**2) / (8.0 * b2) - d**2 / (4.0 * b2), 0.0),
    }


def gouy_phase(zt: ZTable) -> float:
    """The paper's axial Gouy phase (1/2) atan2(gouy_zi, gouy_zr), in (-pi/2, pi/2].

    It wraps by pi where z0 z1 z2 z3 crosses the branch cut; the mu of
    ``build_coefficients`` equals it modulo pi (checked by verification).
    """
    if np.any((zt.gouy_zr == 0.0) & (zt.gouy_zi == 0.0)):
        raise DegenerateConfigError("Gouy phase undefined: both composites vanish")
    return 0.5 * np.arctan2(zt.gouy_zi, zt.gouy_zr)


def build_coefficients(zt: ZTable, config: PhysicsConfig, derived: DerivedQuantities) -> EltCoefficients:
    """Assemble the closed-form coefficient bundle from the z-table."""
    _, ktau, _, _ = _kinematics(config, derived)

    big_z_mod = np.hypot(zt.gouy_zr, zt.gouy_zi)
    with np.errstate(all="ignore"):  # numpy cubes overflow to inf where a float ** raises; the check below names it
        amplitude = np.sqrt(np.float64(config.mass) ** 3 * math.sqrt(math.pi) / (
            16.0 * np.float64(config.hbar) ** 3 * config.tau * config.t * derived.span * config.sigma0 * big_z_mod))

    # full quadratic coefficient of the exponent is ktau^2/(4 z3) - i ktau/2
    quad = ktau * ktau / (4.0 * zt.z3)
    c1 = quad.real
    alpha = ktau / 2.0 - quad.imag

    linear = sum(linear_coefficient_terms(zt, config, derived).values())
    const = sum(constant_coefficient_terms(zt, config, derived).values())

    coeffs = EltCoefficients(
        amplitude=amplitude,
        c1=c1,
        c2=linear.real,
        c3=const.real,
        alpha=alpha,
        gamma=linear.imag,
        theta=const.imag,
        # the chain's branch (one principal square root per stage, Re z_k > 0): continuous where gouy_phase wraps
        mu=math.pi / 4.0 - 0.5 * (np.angle(zt.z0) + np.angle(zt.z1) + np.angle(zt.z2) + np.angle(zt.z3)),
    )
    check(
        (amplitude > 0) & (c1 > 0)
        & np.isfinite(amplitude) & np.isfinite(quad) & np.isfinite(linear) & np.isfinite(const),
        config,
        lambda at, where: f"non-normalizable closed form{where}: " + ", ".join(
            f"{name}={at(value)!r}" for name, value in vars(coeffs).items()
        ),
        DegenerateConfigError,
    )
    return coeffs


@dataclass(frozen=True)
class Solution:
    """One configuration solved: the configuration itself, its derived kinematics,
    z-table and coefficients; verification and the manifest read it, never solve."""

    config: PhysicsConfig
    derived: DerivedQuantities
    ztable: ZTable
    coeffs: EltCoefficients


def solve(config: PhysicsConfig) -> Solution:
    """derive -> build_ztable -> build_coefficients for one configuration, or
    for every value of an array-valued field at once; the loop terms at ``derived.span``."""
    derived = derive(config)
    zt = build_ztable(config, derived)
    return Solution(config, derived, zt, build_coefficients(zt, config, derived))


def psi12(x, coeffs: EltCoefficients):
    """Clockwise-loop wavefunction at screen position x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):  # a value out of the float range is nan or inf, and verification names it
        out = coeffs.amplitude * np.exp(
            -coeffs.c1 * x * x + coeffs.c2 * x + coeffs.c3
            + 1j * (coeffs.alpha * x * x + coeffs.gamma * x + coeffs.theta + coeffs.mu)
        )
    return complex(out) if out.ndim == 0 else out


def psi21(x, coeffs: EltCoefficients):
    """Counterclockwise loop: d -> -d flips the signs of C2 and gamma only,
    so psi21(x) = psi12(-x)."""
    return psi12(-np.asarray(x, dtype=float), coeffs)
