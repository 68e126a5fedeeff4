"""Physical configuration of the interferometer and derived kinematic quantities.

All quantities are SI doubles. The symbols follow the usual matter-wave
double-slit conventions: an initial Gaussian packet of transverse width
``sigma0`` travels for a time ``t`` to a pair of Gaussian slits of width
``beta`` separated by ``d``, then for a time ``tau`` to the screen. A looped
path crosses the slit plane three times; the slit-to-slit traversal time
``epsilon`` is set by the transverse momentum uncertainty of the packet.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

CODATA_HBAR = 1.054571817e-34  # J s

# Rubidium circular-Rydberg transition used for the cavity marking estimates.
DEFAULT_OMEGA_GE = 2.0 * math.pi * 51.099e9  # rad/s
DEFAULT_LIFETIME = 30e-3  # s

_CONFIG_KEYS = {
    "mass_kg": "mass",
    "sigma0_m": "sigma0",
    "beta_m": "beta",
    "d_m": "d",
    "t_s": "t",
    "tau_s": "tau",
    "eta_s": "eta",
    "hbar_Js": "hbar",
    "omega_ge_rad_s": "omega_ge",
    "lifetime_s": "excited_lifetime",
    "amp_exotic_re": None,
    "amp_exotic_im": None,
    "amp_nonexotic_re": None,
    "amp_nonexotic_im": None,
}

_REQUIRED_KEYS = ("mass_kg", "sigma0_m", "beta_m", "d_m", "t_s", "tau_s")
_AMPLITUDES = ("amp_nonexotic", "amp_exotic")


class ConfigError(ValueError):
    """Invalid physical configuration or malformed config file."""


@dataclass(frozen=True)
class PhysicsConfig:
    """Immutable experiment parameters.

    ``amp_nonexotic`` is the common weight of the two straight-through paths
    (source on the symmetry axis), ``amp_exotic`` the common weight of the
    clockwise/counterclockwise looped paths. The ratio between them is an
    explicit input; the looped-path chain itself is unnormalized.

    One real field may instead hold a 1-D float array: the configuration
    then stands for one configuration per element, and ``derive`` and
    ``closedform.solve`` broadcast over it (``sweep`` builds such batches).
    """

    mass: float
    sigma0: float
    beta: float
    d: float
    t: float
    tau: float
    eta: float = 0.0
    hbar: float = CODATA_HBAR
    omega_ge: float = DEFAULT_OMEGA_GE
    excited_lifetime: float = DEFAULT_LIFETIME
    amp_nonexotic: complex = 1.0 + 0.0j
    amp_exotic: complex = 0.05 + 0.0j

    def __post_init__(self):
        # finite numbers, bool excluded; only eta may be zero, only the amplitudes complex or signed.
        # A real field may hold a 1-D float array of values (one configuration each, see swept);
        # the first bad element is then checked below and named like a scalar.
        for name, value in vars(self).items():  # every field, in declaration order
            amplitude = name in _AMPLITUDES
            if isinstance(value, np.ndarray) and not amplitude:
                if value.ndim != 1 or value.dtype.kind != "f":
                    raise ConfigError(f"{name} must be a finite number or a 1-D float array, got {value!r}")
                good = np.isfinite(value) & (value >= 0 if name == "eta" else value > 0)
                if good.all():
                    continue
                value = value[np.argmin(good)].item()
            kinds = (int, float, complex) if amplitude else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds) or not cmath.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            if name == "eta" and value < 0:
                raise ConfigError(f"eta must be >= 0, got {value!r}")
            if not amplitude and name != "eta" and value <= 0:
                raise ConfigError(f"{name} must be strictly positive, got {value!r}")


def swept(config: PhysicsConfig) -> tuple[str, np.ndarray] | None:
    """The field that holds an array of values, and the values; None for one configuration."""
    for name, value in vars(config).items():
        if isinstance(value, np.ndarray):
            return name, value
    return None


@dataclass(frozen=True)
class DerivedQuantities:
    """Kinematics implied by the configuration: Delta p_x, Delta v_x, epsilon."""

    delta_p: float
    delta_v: float
    epsilon: float


def derive(config: PhysicsConfig) -> DerivedQuantities:
    """Momentum uncertainty of the initial packet and the slit-to-slit time.

    The initial packet exp(-x^2/2 sigma0^2) is minimum-uncertainty, so
    Delta p_x = hbar / (sqrt(2) sigma0); epsilon = d / Delta v_x with
    Delta v_x = Delta p_x / m. For the Rubidium parameter set this gives
    epsilon ~ 3.5 us. Broadcasts over an array-valued field.
    """
    delta_p = config.hbar / (math.sqrt(2.0) * config.sigma0)
    delta_v = delta_p / config.mass
    ok = np.ravel(delta_v > 0)  # epsilon divides by it
    if not ok.all():
        at = [np.ravel(np.broadcast_to(v, ok.shape))[np.argmin(ok)].item() for v in (config.sigma0, config.mass)]
        raise ConfigError("sigma0 = {!r} m is out of range at mass = {!r} kg: Delta v_x underflows to 0".format(*at))
    epsilon = config.d / delta_v
    return DerivedQuantities(delta_p=delta_p, delta_v=delta_v, epsilon=epsilon)


def validate_regime(config: PhysicsConfig) -> list[str]:
    """Warnings for parameter choices outside the regime the closed forms assume.

    The total flight time of a looped path must stay far below the excited-state
    lifetime (no spontaneous decay en route), and the auxiliary inter-slit time
    eta must be zero for the closed-form coefficients to apply.
    """
    derived = derive(config)
    warnings = []
    flight = config.t + 2.0 * derived.epsilon + config.tau
    if flight > 0.01 * config.excited_lifetime:
        warnings.append(
            f"total flight time {flight:.3e} s exceeds 1% of the excited-state "
            f"lifetime {config.excited_lifetime:.3e} s; spontaneous decay is not negligible"
        )
    if config.eta != 0.0:
        warnings.append(
            f"eta = {config.eta:.3e} s is nonzero; the closed-form coefficients assume eta -> 0"
        )
    return warnings


def parse_config_text(text: str) -> PhysicsConfig:
    """Parse a key=value config. Unknown keys are errors; see _CONFIG_KEYS."""
    raw: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[key] = float(value.strip())
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {value.strip()!r}") from None

    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    kwargs = {}
    for key, attr in _CONFIG_KEYS.items():
        if attr is not None and key in raw:
            kwargs[attr] = raw[key]
    if "amp_exotic_re" in raw or "amp_exotic_im" in raw:
        kwargs["amp_exotic"] = complex(raw.get("amp_exotic_re", 0.0), raw.get("amp_exotic_im", 0.0))
    if "amp_nonexotic_re" in raw or "amp_nonexotic_im" in raw:
        kwargs["amp_nonexotic"] = complex(raw.get("amp_nonexotic_re", 0.0), raw.get("amp_nonexotic_im", 0.0))
    return PhysicsConfig(**kwargs)


def load_config(path) -> PhysicsConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def config_as_dict(config: PhysicsConfig) -> dict:
    """Plain-JSON-able echo of a configuration (complex weights split)."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, complex):
            out[f.name + "_re"] = value.real
            out[f.name + "_im"] = value.imag
        else:
            out[f.name] = value
    return out


def rubidium_config(**overrides) -> PhysicsConfig:
    """The Rubidium parameter set used throughout: 1.44e-25 kg, 10 nm packet,
    10 nm slits 180 nm apart, 20 us legs."""
    base = dict(
        mass=1.44e-25,
        sigma0=10e-9,
        beta=10e-9,
        d=180e-9,
        t=20e-6,
        tau=20e-6,
    )
    base.update(overrides)
    return PhysicsConfig(**base)
