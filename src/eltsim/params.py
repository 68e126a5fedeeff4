"""Physical configuration of the interferometer and derived kinematic quantities.

All quantities are SI doubles. The symbols follow the usual matter-wave
double-slit conventions: an initial Gaussian packet of transverse width
``sigma0`` travels for a time ``t`` to a pair of Gaussian slits of width
``beta`` separated by ``d``, then for a time ``tau`` to the screen. A looped
path crosses the slit plane three times; the slit-to-slit traversal time
``epsilon`` is set by the transverse momentum uncertainty of the packet, and
each of its two loop segments spans ``epsilon + eta`` (``derive``'s ``span``).

Real fields may hold 1-D arrays of one length, a ``batch`` of configurations
that every route broadcasts over. ``derive`` range-checks the divisors of both
wavefunction routes; ``check`` names the first configuration of a batch that
fails such a check by every field of the batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

CODATA_HBAR = 1.054571817e-34  # J s

# Rubidium circular-Rydberg transition: validated and echoed in manifests, read by no computation.
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

    Any real fields may instead hold 1-D float arrays of one length, the
    ``batch``: the configuration then stands for one configuration per row,
    and ``derive``, the propagator chain and ``closedform.solve`` broadcast
    over it (``sweep`` builds such batches). Arrays of different lengths are
    a ConfigError that names each field and its length.
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
        # A real field may hold a 1-D float array of values (one configuration each, see batch);
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
        lengths = {name: values.size for name, values in batch(self).items()}
        if len(set(lengths.values())) > 1:
            raise ConfigError("array fields must have one length, got " + ", ".join(
                f"{name} of length {size}" for name, size in lengths.items()))


def batch(config: PhysicsConfig) -> dict[str, np.ndarray]:
    """The fields that hold an array of values, in declaration order: row i of each is
    configuration i. Empty for one configuration."""
    return {name: value for name, value in vars(config).items() if isinstance(value, np.ndarray)}


def swept(config: PhysicsConfig) -> tuple[str, np.ndarray] | None:
    """The first field of the batch and its values; None for one configuration."""
    return next(iter(batch(config).items()), None)


def swept_rows(config, rows: slice | int):
    """The rows ``rows`` of a batch record, a configuration or the coefficients read off one: every array field is
    cut alike. Its values were checked when it was built, so they are not checked again: this costs a dict copy,
    not a second ``__post_init__``."""
    part = object.__new__(type(config))
    part.__dict__.update(vars(config))
    part.__dict__.update({name: values[rows] for name, values in batch(config).items()})
    return part


def _first_failing(ok, config: PhysicsConfig | None):
    """(at, where) for the first configuration where ``ok`` fails: ``at`` picks its element
    of a value (one number or one per configuration), ``where`` names every field of the
    batch at that row."""
    i = int(np.argmin(ok))
    fields = batch(config) if config else {}
    row = ", ".join(f"{name} = {values[i].item()!r}" for name, values in fields.items())
    return (lambda value: np.ravel(value)[i if np.ndim(value) else 0].item()), row and f" at {row}"


def check(ok, config: PhysicsConfig | None, describe, error: type[ValueError] = ConfigError) -> None:
    """Raise ``error(describe(at, where))`` for the first configuration where ``ok`` fails.
    ``ok`` is a bool, a numpy bool or a bool array: a scalar is tested by its truth value,
    at a small fraction of the cost of ``np.all``'s reduction."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise error(describe(*_first_failing(ok, config)))


@dataclass(frozen=True)
class DerivedQuantities:
    """Kinematics implied by the configuration: Delta p_x, Delta v_x, epsilon itself, the time
    ``span = epsilon + eta`` of one loop segment, at which every route evaluates its loop terms, and
    the loop-kernel scale ``lam = m / (2 hbar span)`` that the chain and the closed form read."""

    delta_p: float
    delta_v: float
    epsilon: float
    span: float
    lam: float


def derive(config: PhysicsConfig) -> DerivedQuantities:
    """Momentum uncertainty of the initial packet, the slit-to-slit time and the loop-kernel scale.

    The initial packet exp(-x^2/2 sigma0^2) is minimum-uncertainty, so
    Delta p_x = hbar / (sqrt(2) sigma0); epsilon = d / Delta v_x with
    Delta v_x = Delta p_x / m. For the Rubidium parameter set this gives
    epsilon ~ 3.5 us. Broadcasts over an array-valued field.

    The chain and the closed form derive first: a divisor of theirs (the span, never epsilon alone)
    that under- or overflows is a ConfigError naming its field, before any arithmetic. A batch is
    refused by the same named checks as one configuration, naming its first failing row, without a numpy warning.
    """

    def divisor(value, describe):  # a divisor that must neither underflow to 0 nor overflow
        check(np.isfinite(value) & (value > 0), config, describe)

    with np.errstate(all="ignore"):  # a batch is refused by the named checks below, as one configuration is
        delta_p = config.hbar / (math.sqrt(2.0) * config.sigma0)
        delta_v = delta_p / config.mass
        check(  # epsilon divides by it
            delta_v > 0,
            config,
            lambda at, where: f"sigma0 = {at(config.sigma0)!r} m is out of range at mass = {at(config.mass)!r} kg"
            f"{where}: Delta v_x underflows to 0",
        )
        epsilon = config.d / delta_v
        span = epsilon + config.eta
        loop_scale = 2.0 * config.hbar * span
        divisor(loop_scale, lambda at, where: f"slit-to-slit time epsilon = {at(epsilon)!r} s is out of range"
                f"{where}: 2 hbar (epsilon + eta) = {at(loop_scale)!r} J s^2")
        width = 2.0 * np.square(config.sigma0)
        slit = 2.0 * np.square(config.beta)
        lam = config.mass / loop_scale
        kernel = np.power(lam, 4)  # the closed form takes the loop-kernel scale to the fourth power
        divisor(width, lambda at, where: f"packet width sigma0 = {at(config.sigma0)!r} m is out of range{where}: "
                f"2 sigma0^2 = {at(width)!r} m^2")
        divisor(slit, lambda at, where: f"slit width beta = {at(config.beta)!r} m is out of range{where}: "
                f"2 beta^2 = {at(slit)!r} m^2")
        for name in ("t", "tau"):
            duration = getattr(config, name)
            divisor(config.hbar * duration, lambda at, where: f"flight time {name} = {at(duration)!r} s is out of "
                    f"range{where}: hbar {name} = {at(config.hbar * duration)!r} J s^2")
        check(
            np.isfinite(kernel),
            config,
            lambda at, where: f"slit separation d = {at(config.d)!r} m is out of range{where}: "
            f"epsilon + eta = {at(span)!r} s and (m / 2 hbar (epsilon + eta))^4 = {at(kernel)!r} m^-8",
        )
    return DerivedQuantities(delta_p=delta_p, delta_v=delta_v, epsilon=epsilon, span=span, lam=lam)


def validate_regime(config: PhysicsConfig, derived: DerivedQuantities | None = None) -> list[str]:
    """Warnings for parameter choices outside the regime the model assumes.

    The total flight time t + 2 (epsilon + eta) + tau of a looped path must stay far below the
    excited-state lifetime (no spontaneous decay en route). For a batch the one warning names
    the first row past that limit, by every field of the batch, and counts the rows.
    ``derived`` is ``derive(config)``, derived here when not given.
    """
    derived = derive(config) if derived is None else derived
    with np.errstate(over="ignore"):  # a flight past the float range is inf, and warned of as any long one
        flight = config.t + 2.0 * derived.span + config.tau
    short = flight <= 0.01 * config.excited_lifetime
    if np.all(short):
        return []
    at, where = _first_failing(short, config)
    field = swept(config)
    if field:
        count = np.count_nonzero(~np.broadcast_to(short, field[1].shape))
        where += f", the first of {count} of {field[1].size} swept values that do"
    return [
        f"total flight time {at(flight):.3e} s exceeds 1% of the excited-state "
        f"lifetime {at(config.excited_lifetime):.3e} s{where}; spontaneous decay is not negligible"
    ]


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
    for name in _AMPLITUDES:
        if f"{name}_re" in raw or f"{name}_im" in raw:
            kwargs[name] = complex(raw.get(f"{name}_re", 0.0), raw.get(f"{name}_im", 0.0))
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
