"""Cross-checks between the closed forms, the chain engine, and quadrature.

Three layers, from cheapest to most expensive:

* z-table consistency: the expanded real-arithmetic product formulas must
  reproduce the direct complex products (transcription containment);
* coefficient terms: each expanded coefficient term must match its compact
  complex counterpart, so a wrong term is named individually (and mu the
  paper's Gouy phase modulo pi);
* wavefunction equivalence: the closed-form psi12/psi21 must agree pointwise with those of
  the record every command writes from (``intensity.loop_coefficients``, read off the loop-12
  chain), and that record in turn with direct 2-D quadrature of the loop integral.

Every layer takes one ``closedform.Solution``, which carries the
configuration it solved; no layer solves. ``eltsim verify`` solves once and
hands that solution to every layer and to its manifest, and reads the
loop-12 chain's record once for both wavefunction checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closedform, intensity, oracle

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
        """The failing record with the largest deviation / tolerance; a NaN deviation outranks every number."""
        failing = [r for r in self.records if not r.passed]
        return max(failing, key=lambda r: (math.isnan(r.deviation), r.deviation / r.tolerance), default=None)

    def render(self) -> str:
        lines = []
        for r in self.records:
            status = "ok  " if r.passed else "FAIL"
            detail = f"  {r.detail}" if r.detail else ""
            lines.append(f"[{status}] {r.name}: deviation {r.deviation:.3e} (tol {r.tolerance:.1e}){detail}")
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        worst = self.worst()
        if worst is not None:
            detail = f", {worst.detail}" if worst.detail else ""
            lines.append(f"worst offender: {worst.name} (deviation {worst.deviation:.3e}){detail}")
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


def ztable_consistency(solution: closedform.Solution, corrupt: str | None = None) -> VerificationReport:
    """Expanded component formulas vs direct complex products for z4..z10 and
    the Gouy composites. ``corrupt`` perturbs one expanded entry (fault
    injection for tests), e.g. "z5R"; the solution itself is not changed."""
    zt = solution.ztable
    expanded = closedform.expanded_products(zt)
    corrupt_name, component = _parse_corrupt(corrupt)
    if corrupt_name is not None and corrupt_name not in expanded:
        raise ValueError(f"unknown z-table entry {corrupt_name!r}")

    direct = {name: complex(getattr(zt, name)) for name in expanded}
    report = VerificationReport()
    for name, value in expanded.items():
        if name == corrupt_name:
            bump_re = 1.001 if component in ("R", "both") else 1.0
            bump_im = 1.001 if component in ("I", "both") else 1.0
            value = complex(value.real * bump_re, value.imag * bump_im)
        dev = _rel(abs(value - direct[name]), abs(direct[name]))
        report.add(CheckRecord(f"ztable/{name}", dev, ZTABLE_TOL))
    return report


def coefficient_terms(solution: closedform.Solution) -> VerificationReport:
    """Per-term agreement between expanded and compact coefficient formulas.

    Any single wrong term in the linear (C2/gamma) or constant (C3/theta)
    coefficient tables shows up here under its own name. ``term/mu`` is the
    distance of mu from the paper's ``gouy_phase`` modulo pi, in radians.
    """
    config, zt, derived = solution.config, solution.ztable, solution.derived
    compact = {}
    compact.update(closedform.linear_coefficient_terms(zt, config, derived))
    compact.update(closedform.constant_coefficient_terms(zt, config, derived))
    expanded = closedform.expanded_coefficient_terms(zt, config, derived)

    report = VerificationReport()
    for name, reference in compact.items():
        dev = _rel(abs(expanded[name] - reference), abs(reference))
        report.add(CheckRecord(f"term/{name}", dev, TERM_TOL))
    mu_offset = math.remainder(solution.coeffs.mu - closedform.gouy_phase(zt), math.pi)
    report.add(CheckRecord("term/mu", abs(mu_offset), TERM_TOL))
    return report


def _worst_point(name: str, grid, reference, value, tolerance: float) -> CheckRecord:
    """Largest pointwise |value - reference| over the grid, relative to the largest |reference|;
    NaN or inf, and so failing, where the reference underflows to 0 at every grid point."""
    scale = float(np.max(np.abs(reference)))
    with np.errstate(divide="ignore", invalid="ignore"):
        devs = np.abs(value - reference) / scale
    worst = int(np.argmax(devs))
    detail = f"worst at x = {grid[worst]:.6e} m" if scale != 0 else "reference underflows to 0 at every grid point"
    return CheckRecord(name, float(devs[worst]), tolerance, detail=detail)


def closed_vs_chain(solution: closedform.Solution, points: int = 101,
                    looped: closedform.EltCoefficients | None = None) -> VerificationReport:
    """Closed-form psi12/psi21 against those of the loop-12 chain's record, ``intensity.loop_coefficients``,
    both from one evaluator: a deviation is the records' difference, never two evaluators' rounding.
    ``looped`` is that record, read off the chain here when not given.

    Deviations are normalized by the largest chain magnitude on the grid.
    """
    closed = solution.coeffs
    grid = intensity.default_grid(closed, points)
    looped = intensity.loop_coefficients(solution.config) if looped is None else looped
    return VerificationReport([
        _worst_point(f"closed-vs-chain/loop{loop}", grid, psi(grid, looped), psi(grid, closed), DEFAULT_CHAIN_TOL)
        for loop, psi in (("12", closedform.psi12), ("21", closedform.psi21))
    ])


def chain_vs_quadrature(solution: closedform.Solution,
                        looped: closedform.EltCoefficients | None = None) -> VerificationReport:
    """The loop-12 chain's record against direct 2-D quadrature of the loop integral; a quadrature
    that does not converge fails the record with an infinite deviation. ``looped`` is that record,
    ``intensity.loop_coefficients``, read off the chain here when not given. A fringe spacing
    past the float range is a ProfileError naming gamma, as ``intensity.default_grid`` names it."""
    name = "chain-vs-quadrature/loop12"
    spacing = intensity.fringe_spacing(solution.coeffs)
    if not spacing <= np.finfo(float).max / 1.7:
        raise intensity.ProfileError(f"gamma = {solution.coeffs.gamma!r} is too small: "
                                     "the quadrature grid half-width 1.7 pi/|gamma| leaves the float range")
    grid = np.linspace(-1.7, 1.7, 5) * spacing

    looped = intensity.loop_coefficients(solution.config) if looped is None else looped
    chain = closedform.CHAIN_SIGN * closedform.psi12(grid, looped)
    try:
        quad_vals = oracle.looped_path_value(solution.config, grid)
    except oracle.QuadratureError as exc:
        return VerificationReport([CheckRecord(name, math.inf, QUADRATURE_TOL, detail=str(exc))])
    return VerificationReport([_worst_point(name, grid, chain, quad_vals, QUADRATURE_TOL)])


def full_verification(
    solution: closedform.Solution,
    points: int = 101,
    quadrature: bool = True,
    corrupt: str | None = None,
) -> VerificationReport:
    parts = [ztable_consistency(solution, corrupt=corrupt), coefficient_terms(solution)]
    looped = intensity.loop_coefficients(solution.config)  # one record for both wavefunction checks
    parts.append(closed_vs_chain(solution, points=points, looped=looped))
    if quadrature:
        parts.append(chain_vs_quadrature(solution, looped=looped))
    return VerificationReport([rec for part in parts for rec in part.records])
