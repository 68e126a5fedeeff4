import math

import numpy as np
import pytest

from eltsim.marking import (
    BasisLabel,
    CenterOfMassDensity,
    CompositeState,
    StateError,
    bell_project,
    eraser_basis_single_detector,
    measure_bell_cavities,
    measure_internal,
    post_slit_state,
    reduce_center_of_mass,
)
from eltsim.params import rubidium_config


@pytest.fixture()
def state(config):
    return post_slit_state(config)


@pytest.fixture()
def equal_state():
    return post_slit_state(rubidium_config(amp_exotic=1.0, amp_nonexotic=1.0))


def test_post_slit_state_shape(state):
    assert len(state.terms) == 4
    norm = sum(abs(a) ** 2 for a in state.terms.values())
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_post_slit_signs(state, config):
    loop_amp = state.amplitude(BasisLabel("12", "e", "00"))
    straight_amp = state.amplitude(BasisLabel("1", "g", "10"))
    # looped terms enter with an explicit minus relative to the straight terms
    assert (loop_amp / straight_amp).real < 0
    assert state.amplitude(BasisLabel("21", "e", "00")) == loop_amp


def test_no_loops_gives_two_term_state():
    state = post_slit_state(rubidium_config(amp_exotic=0.0))
    assert set(state.terms) == {BasisLabel("1", "g", "10"), BasisLabel("2", "g", "01")}


def test_equal_weights_quarter_each(equal_state):
    for amp in equal_state.terms.values():
        assert abs(amp) ** 2 == pytest.approx(0.25, abs=1e-12)


def test_all_zero_amplitudes_rejected():
    with pytest.raises(StateError):
        post_slit_state(rubidium_config(amp_exotic=0.0, amp_nonexotic=0.0))


def test_bell_measurement_completeness(state):
    phi_plus, phi_minus, rest = measure_bell_cavities(state)
    total = phi_plus.probability + phi_minus.probability + rest.probability
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bell_equal_weights(equal_state):
    phi_plus, phi_minus, rest = measure_bell_cavities(equal_state)
    assert phi_plus.probability == pytest.approx(0.25, abs=1e-12)
    assert phi_minus.probability == pytest.approx(0.25, abs=1e-12)
    assert rest.probability == pytest.approx(0.5, abs=1e-12)


def test_bell_without_loops():
    state = post_slit_state(rubidium_config(amp_exotic=0.0))
    phi_plus, phi_minus, rest = measure_bell_cavities(state)
    assert phi_plus.probability == pytest.approx(0.5, abs=1e-12)
    assert phi_minus.probability == pytest.approx(0.5, abs=1e-12)
    assert rest.probability == pytest.approx(0.0, abs=1e-12)


def test_remainder_branch_contains_only_looped_terms(state):
    _, _, rest = measure_bell_cavities(state)
    for label in rest.collapsed().terms:
        assert label.path in ("12", "21")
        assert label.level == "e"
        assert label.cavities == "00"


def test_bell_collapse_idempotent(state):
    phi_plus, _, _ = measure_bell_cavities(state)
    again_plus, again_minus, again_rest = measure_bell_cavities(phi_plus.collapsed())
    assert again_plus.probability == pytest.approx(1.0, abs=1e-12)
    assert again_minus.probability == pytest.approx(0.0, abs=1e-12)
    assert again_rest.probability == pytest.approx(0.0, abs=1e-12)


def test_two_detector_state_projections():
    # symmetric one-photon state: flagged path 1 vs flagged path 2
    state = CompositeState.from_unnormalized(
        {BasisLabel("1", "g", "10"): 1.0, BasisLabel("2", "g", "01"): 1.0}
    )
    # the one-photon sector is orthogonal to both zero/two-photon Bell states
    assert bell_project(state, "psi+").probability == 0.0
    assert bell_project(state, "psi-").probability == 0.0
    # and splits evenly across the one-photon Bell pair
    assert bell_project(state, "phi+").probability == pytest.approx(0.5, abs=1e-15)
    assert bell_project(state, "phi-").probability == pytest.approx(0.5, abs=1e-15)


def test_zero_probability_collapse_undefined():
    state = CompositeState.from_unnormalized(
        {BasisLabel("1", "g", "10"): 1.0, BasisLabel("2", "g", "01"): 1.0}
    )
    branch = bell_project(state, "psi+")
    with pytest.raises(StateError):
        branch.collapsed()


def test_terms_that_cancel_to_rounding_leave_a_zero_branch():
    # phi- sums 0.3 and 0.1 + 0.2 with opposite signs: a residue of 1.7e-16 is their rounding, not a branch
    state = CompositeState.from_unnormalized({BasisLabel("1", "g", "10"): 0.3, BasisLabel("1", "g", "01"): 0.1 + 0.2})
    assert bell_project(state, "phi+").probability == pytest.approx(1.0, abs=1e-15)
    branch = bell_project(state, "phi-")
    assert branch.probability == 0.0
    with pytest.raises(StateError):
        branch.collapsed()


def test_unknown_bell_label(state):
    with pytest.raises(StateError):
        bell_project(state, "phi0")


def test_internal_measurement(equal_state):
    ground, excited = measure_internal(equal_state)
    assert ground.probability == pytest.approx(0.5, abs=1e-12)
    assert excited.probability == pytest.approx(0.5, abs=1e-12)
    assert {l.path for l in ground.collapsed().terms} == {"1", "2"}
    for label in excited.collapsed().terms:
        assert label.path in ("12", "21")
        assert label.level == "e"
        assert label.cavities == "00"


def test_internal_without_loops():
    ground, excited = measure_internal(post_slit_state(rubidium_config(amp_exotic=0.0)))
    assert ground.probability == pytest.approx(1.0, abs=1e-12)
    assert excited.probability == pytest.approx(0.0, abs=1e-12)


def test_reduction_kills_straight_coherence(state, config):
    density = reduce_center_of_mass(state)
    assert density.weight("1", "2") == 0
    a = complex(config.amp_exotic)
    total = 2.0 * abs(complex(config.amp_nonexotic)) ** 2 + 2.0 * abs(a) ** 2
    expected = abs(a) ** 2 / total
    assert density.weight("12", "21") == pytest.approx(expected, abs=1e-15)
    assert density.weight("12", "21") != 0


def test_reduction_hermitian_and_positive(state):
    _, mat = reduce_center_of_mass(state).matrix()
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-14
    eigenvalues = np.linalg.eigvalsh(mat)
    assert np.min(eigenvalues) >= -1e-12
    assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)


def test_pure_state_reduces_to_single_weight():
    state = CompositeState({BasisLabel("1", "g", "10"): 1.0 + 0j})
    density = reduce_center_of_mass(state)
    assert density.weights == {("1", "1"): 1.0 + 0j}


def test_excited_branch_reduction_is_fully_coherent(state):
    # reduced density of the excited branch: all four looped-path weights 1/2
    _, excited = measure_internal(state)
    density = reduce_center_of_mass(excited.collapsed())
    for pair in (("12", "12"), ("21", "21"), ("12", "21"), ("21", "12")):
        assert density.weight(*pair) == pytest.approx(0.5, abs=1e-12)


def test_eraser_branches():
    inv = 1.0 / math.sqrt(2.0)
    state = CompositeState(
        {BasisLabel("1", "g", "10"): inv, BasisLabel("2", "g", "01"): inv}
    )
    plus, minus = eraser_basis_single_detector(state)
    assert plus.probability == pytest.approx(0.5, abs=1e-12)
    assert minus.probability == pytest.approx(0.5, abs=1e-12)
    plus_state = plus.collapsed()
    minus_state = minus.collapsed()
    # "+" keeps the coherent (a1, +a2) structure, "-" flips the second sign
    a1p = plus_state.amplitude(BasisLabel("1", "g", "+"))
    a2p = plus_state.amplitude(BasisLabel("2", "g", "+"))
    a1m = minus_state.amplitude(BasisLabel("1", "g", "-"))
    a2m = minus_state.amplitude(BasisLabel("2", "g", "-"))
    assert a2p / a1p == pytest.approx(1.0)
    assert a2m / a1m == pytest.approx(-1.0)


def test_eraser_rejects_wrong_shape(state):
    with pytest.raises(StateError):
        eraser_basis_single_detector(state)
    same_marker = CompositeState.from_unnormalized(
        {BasisLabel("1", "g", "10"): 1.0, BasisLabel("2", "g", "10"): 1.0}
    )
    with pytest.raises(StateError):
        eraser_basis_single_detector(same_marker)


def test_label_validation():
    with pytest.raises(StateError):
        BasisLabel("3", "g", "00")
    with pytest.raises(StateError):
        BasisLabel("1", "x", "00")


def test_norm_enforced():
    with pytest.raises(StateError):
        CompositeState({BasisLabel("1", "g", "10"): 0.5 + 0j})


def test_a_state_without_terms_is_refused():
    with pytest.raises(StateError, match="no nonzero amplitudes"):
        CompositeState({})


def test_the_zero_vector_cannot_be_normalized():
    with pytest.raises(StateError, match="cannot normalize the zero vector"):
        CompositeState.from_unnormalized({BasisLabel("1", "g", "10"): 0j, BasisLabel("2", "g", "01"): 0j})


def test_bell_projection_refuses_an_erased_cavity_label():
    inv = 1.0 / math.sqrt(2.0)
    plus, _ = eraser_basis_single_detector(
        CompositeState({BasisLabel("1", "g", "10"): inv, BasisLabel("2", "g", "01"): inv})
    )
    with pytest.raises(StateError, match="cavity label '\\+' is not Fock or Bell"):
        bell_project(plus.collapsed(), "phi+")


def test_a_non_hermitian_density_is_refused():
    with pytest.raises(StateError, match="not Hermitian"):
        CenterOfMassDensity({("1", "2"): 0.5j, ("2", "1"): 0.5j})
