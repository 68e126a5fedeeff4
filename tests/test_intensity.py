import dataclasses
import math

import numpy as np
import pytest

from eltsim import closedform, gaussians, intensity, marking
from eltsim.intensity import (
    IntensityProfile,
    ProfileError,
    branch_intensity,
    default_grid,
    elt_intensity,
    fringe_spacing,
    path_evaluators,
)
from eltsim.params import derive, rubidium_config
from references import aggregate_visibility, born_double_slit, fringes_antifringes, visibility_predictability


@pytest.fixture(scope="module")
def coeffs(config, derived):
    zt = closedform.build_ztable(config, derived)
    return closedform.build_coefficients(zt, config, derived)


@pytest.fixture(scope="module")
def grid(coeffs):
    return default_grid(coeffs)


def test_cross_term_equals_cosine_form(coeffs, grid):
    profile = elt_intensity(grid, coeffs, "raw")
    p12 = closedform.psi12(grid, coeffs)
    p21 = closedform.psi21(grid, coeffs)
    phase = np.angle(p12) - np.angle(p21)
    cosine_form = np.abs(p12) ** 2 + np.abs(p21) ** 2 + 2.0 * np.abs(p12 * p21) * np.cos(phase)
    scale = np.max(cosine_form)
    assert np.max(np.abs(profile.values - cosine_form)) <= 1e-12 * scale


def test_elt_profile_symmetric(coeffs, grid):
    profile = elt_intensity(grid, coeffs, "peak")
    assert np.max(np.abs(profile.values - profile.values[::-1])) < 1e-12


def test_elt_peak_normalized_center(coeffs, grid):
    profile = elt_intensity(grid, coeffs, "peak")
    center = np.argmin(np.abs(grid))
    assert profile.values[center] == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(profile.values)) == center


def test_elt_secondary_maxima_spacing(coeffs):
    spacing = fringe_spacing(coeffs)
    grid = default_grid(coeffs, points=20001)
    values = elt_intensity(grid, coeffs, "peak").values
    interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    maxima = grid[1:-1][interior]
    per_side = np.count_nonzero(maxima > spacing / 2)
    assert per_side >= 3
    central = np.sort(maxima[np.abs(maxima) < 2.5 * spacing])
    gaps = np.diff(central)
    assert np.all(np.abs(gaps - spacing) < 0.02 * spacing)


def test_area_normalization(coeffs, grid):
    profile = elt_intensity(grid, coeffs, "area")
    area = np.trapezoid(profile.values, grid)
    assert area == pytest.approx(1.0, rel=1e-12)


def test_unknown_normalization(coeffs, grid):
    with pytest.raises(ProfileError):
        elt_intensity(grid, coeffs, "linear")


def test_empty_and_unsorted_grids(coeffs):
    with pytest.raises(ProfileError):
        elt_intensity(np.array([]), coeffs)
    with pytest.raises(ProfileError):
        IntensityProfile(np.array([1.0, 0.5]), np.array([1.0, 1.0]), "x", "raw")


def test_born_identities():
    psi = np.array([0.3 + 0.4j, -0.1 + 0.2j])
    zero = np.zeros(2, dtype=complex)
    assert np.allclose(born_double_slit(psi, zero), np.abs(psi) ** 2)
    assert np.allclose(born_double_slit(psi, psi), 4.0 * np.abs(psi) ** 2)
    assert np.allclose(born_double_slit(psi, -psi), 0.0, atol=1e-30)


def test_fringes_antifringes_identities():
    a1, a2 = 0.6 + 0.1j, 0.5 - 0.3j
    psi1 = np.array([0.2 + 0.7j, 0.1 - 0.1j])
    psi2 = np.array([0.4 - 0.2j, -0.3 + 0.5j])
    plus = fringes_antifringes(a1, a2, psi1, psi2, +1)
    minus = fringes_antifringes(a1, a2, psi1, psi2, -1)
    nsq = abs(a1) ** 2 + abs(a2) ** 2
    i_sum = (abs(a1) ** 2 * np.abs(psi1) ** 2 + abs(a2) ** 2 * np.abs(psi2) ** 2) / nsq
    assert np.allclose(plus + minus, 2.0 * i_sum, rtol=1e-12)
    # single-path limit: the two branches coincide
    solo_plus = fringes_antifringes(a1, 0.0, psi1, psi2, +1)
    solo_minus = fringes_antifringes(a1, 0.0, psi1, psi2, -1)
    assert np.allclose(solo_plus, solo_minus)
    assert np.allclose(solo_plus, np.abs(psi1) ** 2)


def test_fringes_plus_reproduces_born():
    psi1 = np.array([0.2 + 0.7j, 0.1 - 0.1j])
    psi2 = np.array([0.4 - 0.2j, -0.3 + 0.5j])
    inv = 1.0 / math.sqrt(2.0)
    plus = fringes_antifringes(inv, inv, psi1, psi2, +1)
    assert np.allclose(2.0 * plus, born_double_slit(psi1, psi2), rtol=1e-12)


def test_fringes_validation():
    with pytest.raises(ProfileError):
        fringes_antifringes(1.0, 1.0, np.array([1.0]), np.array([1.0]), 0)
    with pytest.raises(ProfileError):
        fringes_antifringes(0.0, 0.0, np.array([1.0]), np.array([1.0]), +1)


def test_duality_limits():
    balanced = visibility_predictability(1.0, 1.0, 1.0)
    assert balanced.visibility == pytest.approx(1.0)
    assert balanced.predictability == pytest.approx(0.0)
    one_path = visibility_predictability(1.0, 0.0, 0.0)
    assert one_path.visibility == 0.0
    assert one_path.predictability == 1.0
    marked = visibility_predictability(1.0, 1.0, 0.0)
    assert marked.visibility == 0.0
    assert marked.predictability == 0.0
    with pytest.raises(ProfileError):
        visibility_predictability(0.0, 0.0, 0.0)


def test_duality_identity_for_pure_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a1, a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi1, psi2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        i1 = abs(a1 * psi1) ** 2
        i2 = abs(a2 * psi2) ** 2
        cross = abs(a1 * np.conj(a2) * psi1 * np.conj(psi2))
        point = visibility_predictability(i1, i2, cross)
        assert point.visibility**2 + point.predictability**2 == pytest.approx(1.0, abs=1e-12)


def test_ground_branch_has_no_cross_terms(config, grid):
    state = marking.post_slit_state(config)
    ground, _ = marking.measure_internal(state)
    profile = branch_intensity(ground, grid, config, "raw")
    evaluators = path_evaluators(config)
    collapsed = ground.collapsed()
    a1 = collapsed.amplitude(marking.BasisLabel("1", "g", "10"))
    a2 = collapsed.amplitude(marking.BasisLabel("2", "g", "01"))
    incoherent = (
        abs(a1) ** 2 * np.abs(evaluators["1"](grid)) ** 2
        + abs(a2) ** 2 * np.abs(evaluators["2"](grid)) ** 2
    )
    assert np.max(np.abs(profile.values - incoherent)) <= 1e-12 * np.max(incoherent)
    assert np.allclose(profile.visibility, 0.0)


def test_excited_branch_matches_elt_pattern(config, coeffs, grid):
    state = marking.post_slit_state(config)
    _, excited = marking.measure_internal(state)
    profile = branch_intensity(excited, grid, config, "peak")
    reference = elt_intensity(grid, coeffs, "peak")
    assert np.max(np.abs(profile.values - reference.values)) < 1e-10


def test_full_density_cross_terms_only_between_loops(config, grid):
    state = marking.post_slit_state(config)
    density = marking.reduce_center_of_mass(state)
    off_diagonal = {k for k in density.weights if k[0] != k[1]}
    assert off_diagonal == {("12", "21"), ("21", "12")}
    profile = branch_intensity(density, grid, config, "raw", label="full")
    assert np.all(profile.values >= 0)


def test_branch_consistency(config, grid):
    state = marking.post_slit_state(config)
    full = branch_intensity(state, grid, config, "raw", label="full")
    ground, excited = marking.measure_internal(state)
    g = branch_intensity(ground, grid, config, "raw")
    e = branch_intensity(excited, grid, config, "raw")
    mixed = ground.probability * g.values + excited.probability * e.values
    assert np.max(np.abs(mixed - full.values)) <= 1e-10 * np.max(full.values)


def test_missing_evaluator_rejected(config, grid):
    state = marking.post_slit_state(config)
    with pytest.raises(ProfileError):
        branch_intensity(state, grid, config, "raw", evaluators={"1": lambda x: x})


def _indefinite(config, amp2, normalization):
    # |ψ1|^2 - |ψ2|^2 with ψ1 = 1: a Hermitian weight matrix that is not positive, on five points
    density = marking.CenterOfMassDensity({("1", "1"): 1.0, ("2", "2"): -1.0})
    evaluators = {"1": np.ones_like, "2": lambda x: np.array(amp2, dtype=complex)}
    return branch_intensity(density, np.linspace(-1.0, 1.0, 5), config, normalization, evaluators, label="stub")


@pytest.mark.parametrize("normalization", ["raw", "peak"])
def test_a_significantly_negative_profile_is_refused(config, normalization):
    with pytest.raises(ProfileError, match="significantly negative: min -1e-09"):
        _indefinite(config, [0.0, 0.0, math.sqrt(1.0 + 1e-9), 0.0, 0.0], normalization)


@pytest.mark.parametrize("normalization", ["raw", "peak"])
def test_a_round_off_negative_is_clamped_and_counted(config, normalization):
    # 1 - |ψ2|^2 is about -1e-13 at two points, within 1e-12 of the peak 1
    edge = math.sqrt(1.0 + 1e-13)
    profile = _indefinite(config, [0.0, edge, 0.0, edge, 0.0], normalization)
    assert 1.0 - edge * edge < 0.0
    assert profile.clamped_points == 2
    assert profile.values.tolist() == [1.0, 0.0, 1.0, 0.0, 1.0]


def test_a_profile_without_a_positive_peak_is_not_normalized(config):
    density = marking.CenterOfMassDensity({("1", "1"): 1.0})
    grid = np.linspace(-1.0, 1.0, 5)
    evaluators = {"1": np.zeros_like}
    for normalization in ("peak", "area"):
        with pytest.raises(ProfileError, match=f"cannot normalize the stub profile: its {normalization} on this grid is 0"):
            branch_intensity(density, grid, config, normalization, evaluators, label="stub")
    assert branch_intensity(density, grid, config, "raw", evaluators, label="stub").values.tolist() == [0.0] * 5


def test_default_grid_span(coeffs):
    grid = default_grid(coeffs, points=11)
    assert grid.size == 11
    assert grid[-1] == pytest.approx(5.0 * math.pi / abs(coeffs.gamma))
    assert grid[0] == -grid[-1]


def test_aggregate_visibility_high_for_elt(coeffs, grid):
    profile = elt_intensity(grid, coeffs, "peak")
    agg = aggregate_visibility(profile, fringe_spacing(coeffs))
    assert 0.9 < agg <= 1.0


def test_aggregate_visibility_requires_window(coeffs):
    profile = elt_intensity(np.linspace(1e-4, 2e-4, 5), coeffs, "raw")
    with pytest.raises(ProfileError):
        aggregate_visibility(profile, fringe_spacing(coeffs))


@pytest.mark.parametrize("tau", [20e-6, 2.104682274247492e-07])
def test_aggregate_visibility_ignores_the_last_bit_of_gamma(tau):
    # the window edges +/-1.5 pi/|gamma| fall on points 280 and 520 of the 801-point sweep grid
    coeffs = closedform.solve(rubidium_config(tau=tau)).coeffs
    results = []
    for gamma in (np.nextafter(coeffs.gamma, -np.inf), coeffs.gamma, np.nextafter(coeffs.gamma, np.inf)):
        nudged = dataclasses.replace(coeffs, gamma=float(gamma))
        profile = elt_intensity(default_grid(nudged, points=801), nudged, "peak")
        results.append(aggregate_visibility(profile, fringe_spacing(nudged)))
    assert results == pytest.approx([results[1]] * 3, rel=1e-12, abs=0)


@pytest.mark.parametrize("tau", [20e-6, 2.104682274247492e-07])
def test_lattice_visibility_ignores_the_last_bit_of_gamma(tau):
    # the lattice step pi/|gamma|/80 follows gamma; the cos table does not
    config = rubidium_config(tau=tau)
    coeffs = closedform.solve(config).coeffs
    results = []
    for gamma in (np.nextafter(coeffs.gamma, -np.inf), coeffs.gamma, np.nextafter(coeffs.gamma, np.inf)):
        results.append(intensity.aggregate_visibility(dataclasses.replace(coeffs, gamma=float(gamma)), config))
    assert results == pytest.approx([results[1]] * 3, rel=1e-12, abs=0)


def test_a_profile_on_an_empty_grid_is_refused():
    with pytest.raises(ProfileError, match="empty grid"):
        IntensityProfile(np.array([]), np.array([]), "x", "raw")


def test_a_profile_of_an_unknown_object_is_refused(config, grid):
    with pytest.raises(ProfileError, match="cannot build a profile from object"):
        branch_intensity(object(), grid, config)


def test_a_vanishing_gamma_has_no_fringe_scale(coeffs):
    flat = dataclasses.replace(coeffs, gamma=0.0)
    with pytest.raises(ProfileError, match="no fringe scale"):
        default_grid(flat)
    with pytest.raises(ProfileError, match="infinitely wide"):
        fringe_spacing(flat)


def test_a_grid_needs_a_point(coeffs):
    with pytest.raises(ProfileError, match="at least one point"):
        default_grid(coeffs, points=0)
