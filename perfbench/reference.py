"""Independent reference for checking eltsim's outputs.

A second transcription of the propagator chain, written against numpy only:
every state of the interferometer is ``exp(-a x^2 + b x + c)`` with the
prefactor folded into ``c``, free flight and slit transmission map such forms
to such forms, and the looped path is the chain slit 1 -> slit 2 -> slit 1.
It shares no code with eltsim, and all scalar inputs may be numpy arrays so
that a whole sweep is checked in one pass.
"""

from __future__ import annotations

import numpy as np

HBAR = 1.054571817e-34  # J s, CODATA value that eltsim configs default to


def epsilon(cfg) -> float:
    """Slit-to-slit time d / (hbar / (sqrt(2) sigma0 m))."""
    return cfg["d"] * cfg["mass"] * np.sqrt(2.0) * cfg["sigma0"] / HBAR


def _packet(cfg):
    return (1.0 / (2.0 * cfg["sigma0"] ** 2) + 0j, 0j, -0.5 * np.log(cfg["sigma0"] * np.sqrt(np.pi)) + 0j)


def _fly(form, kappa, constant):
    """Convolve with constant * exp(i kappa (x - y)^2 / 2)."""
    a, b, c = form
    big = a - 0.5j * kappa
    return (
        kappa * kappa / (4.0 * big) - 0.5j * kappa,
        -1j * kappa * b / (2.0 * big),
        c + b * b / (4.0 * big) + 0.5 * np.log(np.pi / big) + np.log(constant),
    )


def _free(form, cfg, duration):
    kappa = cfg["mass"] / (HBAR * duration)
    return _fly(form, kappa, np.sqrt(cfg["mass"] / (2j * np.pi * HBAR * duration)))


def _slit(form, center, beta):
    a, b, c = form
    return a + 1.0 / (2.0 * beta**2), b + center / beta**2, c - center * center / (2.0 * beta**2)


def looped(cfg, loop: str):
    """(a, b, c) of the looped path "12" (first through slit 1 at +d/2) or "21"."""
    d = cfg["d"] if loop == "12" else -cfg["d"]
    beta, eps = cfg["beta"], epsilon(cfg)
    kappa = cfg["mass"] / (2.0 * HBAR * eps)
    form = _slit(_free(_packet(cfg), cfg, cfg["t"]), d / 2.0, beta)
    form = _fly(form, kappa, 1.0)
    form = _slit(form, -d / 2.0, beta)
    form = _fly(form, kappa, np.sqrt(cfg["mass"] / (4j * np.pi * HBAR * eps)))
    form = _slit(form, d / 2.0, beta)
    return _free(form, cfg, cfg["tau"])


def straight(cfg, slit: int):
    """(a, b, c) of the straight path through slit 1 (+d/2) or slit 2 (-d/2)."""
    center = cfg["d"] / 2.0 if slit == 1 else -cfg["d"] / 2.0
    form = _slit(_free(_packet(cfg), cfg, cfg["t"]), center, cfg["beta"])
    return _free(form, cfg, cfg["tau"])


def fringe_gamma(cfg):
    """Linear phase gamma of the looped-path wavefunction, Im b of loop 12."""
    return looped(cfg, "12")[1].imag


CHAIN_SIGN = -1.0  # the chain is this times the paper's closed form, a documented global phase
_EXP_RANGE = 690.0  # |log| of the largest and smallest magnitudes a double holds, with a margin


def closed_vs_chain(cfg, coefficients: dict, loop: str, points: int = 101) -> tuple[float, bool]:
    """(deviation, representable) of a closed form against the chain of ``loop``
    on ``points`` points over +/- 5 pi/|gamma|.

    ``coefficients`` holds amplitude, c1, c2, c3, alpha, gamma, theta and mu of
    psi12 = A exp(-C1 x^2 + C2 x + C3 + i(alpha x^2 + gamma x + theta + mu));
    psi21 flips the signs of C2 and gamma. The deviation is
    max |CHAIN_SIGN psi - chain| / max |chain|, in plain double arithmetic;
    ``representable`` is False when either wavefunction's magnitude on the
    grid lies outside what a double holds, where that arithmetic breaks down.
    """
    k = coefficients
    odd = 1.0 if loop == "12" else -1.0
    half = 5.0 * np.pi / abs(fringe_gamma(cfg))
    x = np.linspace(-half, half, points)
    a, b, c = looped(cfg, loop)
    chain_exp = -a * x * x + b * x + c
    closed_exp = (-k["c1"] * x * x + odd * k["c2"] * x + k["c3"]
                  + 1j * (k["alpha"] * x * x + odd * k["gamma"] * x + k["theta"] + k["mu"]))
    with np.errstate(all="ignore"):
        log_peaks = (float(np.max(chain_exp.real)), float(np.max(closed_exp.real)) + np.log(k["amplitude"]))
        chain = np.exp(chain_exp)
        deviation = float(np.max(np.abs(CHAIN_SIGN * k["amplitude"] * np.exp(closed_exp) - chain)) / np.max(np.abs(chain)))
    return deviation, all(abs(p) < _EXP_RANGE for p in log_peaks)


# branch -> incoherent terms (weight key, coherent sum of (path, sign));
# marking leaves only the looped pair and the erased straight pair coherent
_BRANCHES = {
    "elt": (("one", (("12", 1), ("21", 1))),),
    "ground": (("one", (("1", 1),)), ("one", (("2", 1),))),
    "full": (("straight", (("1", 1),)), ("straight", (("2", 1),)), ("loop", (("12", 1), ("21", 1)))),
    "fringes": (("one", (("1", 1), ("2", 1))),),
    "antifringes": (("one", (("1", 1), ("2", -1))),),
}


def profile(cfg, branch: str, x):
    """Peak-normalized screen intensity of one branch on the grid x."""
    terms = _BRANCHES[branch]
    weights = {"one": 1.0, "straight": abs(complex(cfg["amp_nonexotic"])) ** 2, "loop": abs(complex(cfg["amp_exotic"])) ** 2}
    forms = {"1": lambda: straight(cfg, 1), "2": lambda: straight(cfg, 2), "12": lambda: looped(cfg, "12"), "21": lambda: looped(cfg, "21")}
    exponents = {}
    for _, paths in terms:
        for path, _ in paths:
            if path not in exponents:
                a, b, c = forms[path]()
                exponents[path] = -a * x * x + b * x + c
    shift = max(float(np.max(e.real)) for e in exponents.values())  # a common factor, removed by the peak
    values = np.zeros_like(x)
    for weight, paths in terms:
        amplitude = sum(sign * np.exp(exponents[path] - shift) for path, sign in paths)
        values = values + weights[weight] * np.abs(amplitude) ** 2
    return values / values.max()


def bell_probabilities(cfg) -> dict[str, float]:
    """Joint cavity measurement on the post-slit state: straight paths carry one
    photon in cavity A or B, looped paths none."""
    straight_w = 2.0 * abs(complex(cfg["amp_nonexotic"])) ** 2
    loop_w = 2.0 * abs(complex(cfg["amp_exotic"])) ** 2
    total = straight_w + loop_w
    return {"phi+": 0.5 * straight_w / total, "phi-": 0.5 * straight_w / total, "remainder": loop_w / total}
