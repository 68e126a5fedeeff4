"""Cross-checks between the closed forms, the chain engine, and quadrature.

Three layers, from cheapest to most expensive:

* z-table consistency: the expanded real-arithmetic product formulas must
  reproduce the direct complex products (transcription containment);
* coefficient terms: each expanded coefficient term must match its compact
  complex counterpart, so a wrong term is named individually;
* wavefunction equivalence: the closed-form psi12/psi21 must agree with the
  exact propagator chain pointwise, and the chain in turn with direct 2-D
  quadrature of the loop integral.

Each layer takes the configuration and solves it (``closedform.solve``)
unless the caller passes the ``solution`` it already has; ``eltsim verify``
solves once and hands that solution to every layer and to its manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closedform, gaussians, intensity, oracle
from .params import PhysicsConfig

ZTABLE_TOL = 1e-12
TERM_TOL = 1e-12
DEFAULT_CHAIN_TOL = 1e-6
QUADRATURE_TOL = 1e-5


@dataclass(frozen=True)
class CheckRecord:
    name: str
    deviation: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass
class VerificationReport:
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord):
        self.records.append(record)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def worst(self) -> CheckRecord | None:
        failing = [r for r in self.records if not r.passed]
        if failing:
            return max(failing, key=lambda r: r.deviation / r.tolerance)
        return None

    def render(self) -> str:
        lines = []
        for r in self.records:
            status = "ok  " if r.passed else "FAIL"
            detail = f"  {r.detail}" if r.detail else ""
            lines.append(f"[{status}] {r.name}: deviation {r.deviation:.3e} (tol {r.tolerance:.1e}){detail}")
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def _rel(delta: float, scale: float) -> float:
    return delta / scale if scale > 0 else (0.0 if delta == 0 else math.inf)


def _parse_corrupt(corrupt: str | None):
    if corrupt is None:
        return None, None
    name = corrupt
    component = "both"
    if corrupt[-1] in ("R", "I"):
        name, component = corrupt[:-1], corrupt[-1]
    return name, component


def ztable_consistency(
    config: PhysicsConfig, corrupt: str | None = None, solution: closedform.Solution | None = None
) -> VerificationReport:
    """Expanded component formulas vs direct complex products for z4..z10 and
    the Gouy composites. ``corrupt`` perturbs one expanded entry (fault
    injection for tests), e.g. "z5R"; the solution itself is not changed."""
    zt = (solution or closedform.solve(config)).ztable
    expanded = closedform.expanded_products(zt)
    corrupt_name, component = _parse_corrupt(corrupt)
    if corrupt_name is not None and corrupt_name not in expanded:
        raise ValueError(f"unknown z-table entry {corrupt_name!r}")

    direct = {
        "z4": zt.z4, "z5": zt.z5, "z6": zt.z6, "z7": zt.z7,
        "z8": zt.z8, "z9": zt.z9, "z10": zt.z10,
        "gouy_zr": complex(zt.gouy_zr, 0.0), "gouy_zi": complex(zt.gouy_zi, 0.0),
    }
    report = VerificationReport()
    for name, value in expanded.items():
        if name == corrupt_name:
            bump_re = 1.001 if component in ("R", "both") else 1.0
            bump_im = 1.001 if component in ("I", "both") else 1.0
            value = complex(value.real * bump_re, value.imag * bump_im)
        dev = _rel(abs(value - direct[name]), abs(direct[name]))
        report.add(CheckRecord(f"ztable/{name}", dev, ZTABLE_TOL))
    return report


def coefficient_terms(config: PhysicsConfig, solution: closedform.Solution | None = None) -> VerificationReport:
    """Per-term agreement between expanded and compact coefficient formulas.

    Any single wrong term in the linear (C2/gamma) or constant (C3/theta)
    coefficient tables shows up here under its own name.
    """
    solution = solution or closedform.solve(config)
    derived, zt = solution.derived, solution.ztable
    compact = {}
    compact.update(closedform.linear_coefficient_terms(zt, config, derived))
    compact.update(closedform.constant_coefficient_terms(zt, config, derived))
    expanded = closedform.expanded_coefficient_terms(zt, config, derived)

    report = VerificationReport()
    for name, reference in compact.items():
        dev = _rel(abs(expanded[name] - reference), abs(reference))
        report.add(CheckRecord(f"term/{name}", dev, TERM_TOL))
    return report


def _worst_point(name: str, grid, reference, value, tolerance: float) -> CheckRecord:
    """Largest pointwise |value - reference| over the grid, relative to the largest |reference|."""
    devs = np.abs(value - reference) / float(np.max(np.abs(reference)))
    worst = int(np.argmax(devs))
    return CheckRecord(name, float(devs[worst]), tolerance, detail=f"worst at x = {grid[worst]:.6e} m")


def closed_vs_chain(
    config: PhysicsConfig,
    points: int = 101,
    tolerance: float = DEFAULT_CHAIN_TOL,
    solution: closedform.Solution | None = None,
) -> VerificationReport:
    """Closed-form psi12/psi21 against the exact propagator chain.

    Deviations are normalized by the largest chain magnitude on the grid. The
    chain carries the opposite global sign (see closedform.CHAIN_SIGN).
    """
    coeffs = (solution or closedform.solve(config)).coeffs
    grid = np.array([0.0]) if points == 1 else intensity.default_grid(coeffs, points)

    report = VerificationReport()
    for loop, closed_fn in (("12", closedform.psi12), ("21", closedform.psi21)):
        chain = gaussians.chain_exotic(loop, config).evaluate(grid)
        closed = closedform.CHAIN_SIGN * closed_fn(grid, coeffs)
        report.add(_worst_point(f"closed-vs-chain/loop{loop}", grid, chain, closed, tolerance))
    return report


def chain_vs_quadrature(
    config: PhysicsConfig,
    points: int = 5,
    tolerance: float = QUADRATURE_TOL,
    solution: closedform.Solution | None = None,
) -> VerificationReport:
    """Propagator chain against direct 2-D quadrature of the loop integral."""
    coeffs = (solution or closedform.solve(config)).coeffs
    offsets = np.linspace(-1.7, 1.7, points) if points > 1 else np.array([0.3])
    grid = offsets * intensity.fringe_spacing(coeffs)

    chain = gaussians.chain_exotic("12", config).evaluate(grid)
    quad_vals = np.array([oracle.looped_path_value(config, float(x)) for x in grid])
    return VerificationReport([_worst_point("chain-vs-quadrature/loop12", grid, chain, quad_vals, tolerance)])


def full_verification(
    config: PhysicsConfig,
    points: int = 101,
    tolerance: float = DEFAULT_CHAIN_TOL,
    quadrature: bool = True,
    corrupt: str | None = None,
    solution: closedform.Solution | None = None,
) -> VerificationReport:
    solution = solution or closedform.solve(config)
    parts = [
        ztable_consistency(config, corrupt=corrupt, solution=solution),
        coefficient_terms(config, solution=solution),
        closed_vs_chain(config, points=points, tolerance=tolerance, solution=solution),
    ]
    if quadrature:
        parts.append(chain_vs_quadrature(config, solution=solution))
    return VerificationReport([rec for part in parts for rec in part.records])
