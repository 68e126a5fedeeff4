"""Finite-dimensional quantum-marking algebra.

Composite states live on (path ⊗ atomic level ⊗ cavity photon numbers) with
paths {1, 2, 12, 21}, levels {g, e}, and two cavities truncated to photon
numbers {0, 1}. Distinct basis labels are treated as orthonormal: the
center-of-mass path states are not literally orthogonal on the screen, but
every probability here follows the convention that path labels index an
orthonormal decomposition of the pre-detection state.

The resonant atom-cavity interaction is modeled as a deterministic label
rewrite with unit probability: a first slit passage deposits a photon
((e,0) -> (g,1)); a second passage through the same cavity reabsorbs it
((g,1) -> (e,0)). Straight-through paths therefore end flagged (g, one
photon), looped paths end unflagged (e, vacuum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PhysicsConfig

_NORM_TOL = 1e-12

FOCK_LABELS = ("00", "01", "10", "11")
# Bell states of the two cavity modes, as superpositions of Fock labels.
BELL_CAVITY_STATES = {
    "psi+": {"00": 1 / math.sqrt(2), "11": 1 / math.sqrt(2)},
    "psi-": {"00": 1 / math.sqrt(2), "11": -1 / math.sqrt(2)},
    "phi+": {"10": 1 / math.sqrt(2), "01": 1 / math.sqrt(2)},
    "phi-": {"10": 1 / math.sqrt(2), "01": -1 / math.sqrt(2)},
}


class StateError(ValueError):
    """Ill-formed composite state or undefined measurement branch."""


@dataclass(frozen=True)
class BasisLabel:
    path: str  # "1", "2", "12", "21"
    level: str  # "g" or "e"
    cavities: str  # Fock pair "ij", a Bell label, or a generic marker label

    def __post_init__(self):
        if self.path not in ("1", "2", "12", "21"):
            raise StateError(f"unknown path label {self.path!r}")
        if self.level not in ("g", "e"):
            raise StateError(f"unknown level label {self.level!r}")


class CompositeState:
    """Finite superposition over orthonormal basis labels, unit norm."""

    def __init__(self, terms: dict[BasisLabel, complex]):
        cleaned = {label: complex(amp) for label, amp in terms.items() if amp != 0}
        if not cleaned:
            raise StateError("state has no nonzero amplitudes")
        norm_sq = sum(abs(a) ** 2 for a in cleaned.values())
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise StateError(f"state norm^2 = {norm_sq!r} is not 1")
        self.terms = cleaned

    @classmethod
    def from_unnormalized(cls, terms: dict[BasisLabel, complex]) -> "CompositeState":
        norm_sq = sum(abs(a) ** 2 for a in terms.values())
        if norm_sq == 0:
            raise StateError("cannot normalize the zero vector")
        scale = 1.0 / math.sqrt(norm_sq)
        return cls({label: amp * scale for label, amp in terms.items()})

    def amplitude(self, label: BasisLabel) -> complex:
        return self.terms.get(label, 0.0 + 0.0j)

    def paths(self) -> set[str]:
        return {label.path for label in self.terms}


def post_slit_state(config: PhysicsConfig) -> CompositeState:
    """Composite state at the screen just before detection.

    Straight paths arrive flagged: path 1 left a photon in cavity A (label
    ``10``), path 2 in cavity B (``01``). Looped paths reabsorbed their photon
    and arrive excited with both cavities in vacuum; their amplitudes carry
    the explicit minus sign of the chain's global phase.
    """
    a = complex(config.amp_nonexotic)
    a_loop = complex(config.amp_exotic)
    if a == 0 and a_loop == 0:
        raise StateError("both path weights are zero")
    terms = {
        BasisLabel("1", "g", "10"): a,
        BasisLabel("2", "g", "01"): a,
        BasisLabel("12", "e", "00"): -a_loop,
        BasisLabel("21", "e", "00"): -a_loop,
    }
    return CompositeState.from_unnormalized(terms)


@dataclass(frozen=True)
class MeasurementBranch:
    name: str
    probability: float
    state: CompositeState | None  # None when the branch has zero probability

    def collapsed(self) -> CompositeState:
        if self.state is None:
            raise StateError(f"collapse onto zero-probability branch {self.name!r} is undefined")
        return self.state


def _branch(name: str, unnormalized: dict[BasisLabel, complex]) -> MeasurementBranch:
    prob = sum(abs(a) ** 2 for a in unnormalized.values())
    if prob <= _NORM_TOL**2:
        return MeasurementBranch(name, 0.0, None)
    return MeasurementBranch(name, prob, CompositeState.from_unnormalized(unnormalized))


def bell_project(state: CompositeState, bell: str) -> MeasurementBranch:
    """Project the cavity subsystem onto one Bell state."""
    if bell not in BELL_CAVITY_STATES:
        raise StateError(f"unknown Bell label {bell!r}")
    comps = BELL_CAVITY_STATES[bell]
    projected: dict[BasisLabel, complex] = {}
    for label, amp in state.terms.items():
        if label.cavities in FOCK_LABELS:
            overlap = comps.get(label.cavities, 0.0)
        elif label.cavities in BELL_CAVITY_STATES:
            overlap = 1.0 if label.cavities == bell else 0.0
        else:
            raise StateError(f"cavity label {label.cavities!r} is not Fock or Bell")
        if overlap:
            new = BasisLabel(label.path, label.level, bell)
            projected[new] = projected.get(new, 0.0) + amp * overlap
    return _branch(bell, projected)


def measure_bell_cavities(state: CompositeState) -> tuple[MeasurementBranch, MeasurementBranch, MeasurementBranch]:
    """Three-outcome joint cavity measurement: phi+, phi-, and the remainder.

    The remainder projector (identity minus the two phi projectors) acts as
    the identity on the {00, 11} photon sector, so its branch keeps Fock
    labels: for the post-slit state it contains only looped-path terms with
    the atom excited and both cavities empty.
    """
    phi_plus = bell_project(state, "phi+")
    phi_minus = bell_project(state, "phi-")
    remainder: dict[BasisLabel, complex] = {}
    for label, amp in state.terms.items():
        if label.cavities in ("00", "11", "psi+", "psi-"):
            remainder[label] = remainder.get(label, 0.0) + amp
        elif label.cavities not in FOCK_LABELS and label.cavities not in BELL_CAVITY_STATES:
            raise StateError(f"cavity label {label.cavities!r} is not Fock or Bell")
    rest = _branch("remainder", remainder)
    total = phi_plus.probability + phi_minus.probability + rest.probability
    if abs(total - 1.0) > 1e-10:
        raise StateError(f"Bell branch probabilities sum to {total!r}, not 1")
    return phi_plus, phi_minus, rest


def measure_internal(state: CompositeState) -> tuple[MeasurementBranch, MeasurementBranch]:
    """Projective measurement of the atomic level: (ground, excited)."""
    ground = {l: a for l, a in state.terms.items() if l.level == "g"}
    excited = {l: a for l, a in state.terms.items() if l.level == "e"}
    return _branch("g", ground), _branch("e", excited)


class CenterOfMassDensity:
    """Reduced density operator on the path sector: Hermitian weight matrix
    indexed by (path, path) pairs."""

    def __init__(self, weights: dict[tuple[str, str], complex]):
        self.weights = {k: complex(v) for k, v in weights.items() if v != 0}
        for (p, q), w in self.weights.items():
            conj = self.weights.get((q, p), 0.0 + 0.0j)
            if abs(conj - w.conjugate()) > 1e-12 * max(1.0, abs(w)):
                raise StateError(f"weight matrix not Hermitian at ({p},{q})")

    def weight(self, p: str, q: str) -> complex:
        return self.weights.get((p, q), 0.0 + 0.0j)

    def paths(self) -> list[str]:
        ordered = [p for p in ("1", "2", "12", "21") if any(p in k for k in self.weights)]
        return ordered

    def matrix(self) -> tuple[list[str], np.ndarray]:
        paths = self.paths()
        mat = np.array([[self.weight(p, q) for q in paths] for p in paths], dtype=complex)
        return paths, mat


def reduce_center_of_mass(state: CompositeState) -> CenterOfMassDensity:
    """Partial trace over level and cavities.

    A cross weight (p, q) survives only when the two paths carry identical
    detector labels; marking therefore kills every straight-path coherence
    while leaving the looped-path pair coherent.
    """
    weights: dict[tuple[str, str], complex] = {}
    for label_p, amp_p in state.terms.items():
        for label_q, amp_q in state.terms.items():
            if label_p.level == label_q.level and label_p.cavities == label_q.cavities:
                key = (label_p.path, label_q.path)
                weights[key] = weights.get(key, 0.0) + amp_p * amp_q.conjugate()
    return CenterOfMassDensity(weights)


def eraser_basis_single_detector(state: CompositeState) -> tuple[MeasurementBranch, MeasurementBranch]:
    """Erasure measurement for one which-way marker with two orthonormal
    levels: project the marker onto (|up> +/- |down>)/sqrt(2).

    Input must be the canonical two-term marked state: two distinct paths,
    equal atomic levels, distinct marker labels. The "+" branch keeps the
    coherent (a1, +a2) structure (fringes), the "-" branch flips the sign of
    the second amplitude (anti-fringes).
    """
    if len(state.terms) != 2:
        raise StateError("single-detector erasure expects exactly two terms")
    (l1, a1), (l2, a2) = sorted(state.terms.items(), key=lambda kv: kv[0].path)
    if l1.path == l2.path or l1.level != l2.level or l1.cavities == l2.cavities:
        raise StateError("state is not of the two-path single-marker form")
    inv = 1.0 / math.sqrt(2.0)
    plus = {
        BasisLabel(l1.path, l1.level, "+"): a1 * inv,
        BasisLabel(l2.path, l2.level, "+"): a2 * inv,
    }
    minus = {
        BasisLabel(l1.path, l1.level, "-"): a1 * inv,
        BasisLabel(l2.path, l2.level, "-"): -a2 * inv,
    }
    return _branch("+", plus), _branch("-", minus)
