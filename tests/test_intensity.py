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
)
from eltsim.params import derive, rubidium_config
from references import aggregate_visibility, born_double_slit, fringes_antifringes, slits, visibility_predictability


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


def test_unknown_normalization(coeffs, grid):
    with pytest.raises(ProfileError):
        elt_intensity(grid, coeffs, "linear")


def test_empty_and_unsorted_grids(coeffs):
    with pytest.raises(ProfileError):
        elt_intensity(np.array([]), coeffs)
    with pytest.raises(ProfileError):
        IntensityProfile(np.array([1.0, 0.5]), np.array([1.0, 1.0]))


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
    collapsed = ground.collapsed()
    a1 = collapsed.amplitude(marking.BasisLabel("1", "g", "10"))
    a2 = collapsed.amplitude(marking.BasisLabel("2", "g", "01"))
    incoherent = (
        abs(a1) ** 2 * np.abs(gaussians.chain(slits("1", config), config).evaluate(grid)) ** 2
        + abs(a2) ** 2 * np.abs(gaussians.chain(slits("2", config), config).evaluate(grid)) ** 2
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


def test_a_label_coupling_a_straight_path_to_a_loop_is_refused(config, grid):
    # marking never makes one: a detector label that holds path 1 and loop 12 has no block form
    state = marking.CompositeState.from_unnormalized(
        {marking.BasisLabel("1", "g", "00"): 1.0, marking.BasisLabel("12", "g", "00"): 1.0}
    )
    for branch in (state, marking.reduce_center_of_mass(state)):
        with pytest.raises(ProfileError, match="paths 1, 12 couple a straight path to a loop: no block form"):
            branch_intensity(branch, grid, config, "raw")


@pytest.mark.parametrize("normalization", ["raw", "peak"])
@pytest.mark.parametrize(
    "weights",
    [
        {("1", "1"): 1.0, ("2", "2"): -1.0},  # |ψ1|^2 - |ψ2|^2
        {("12", "12"): -1.0},
        {("1", "1"): 1.0, ("2", "2"): 1.0, ("1", "2"): 1.0 + 1e-9, ("2", "1"): 1.0 + 1e-9},  # |w12|^2 > w11 w22
        {("2", "2"): 1.0, ("1", "2"): 0.5, ("2", "1"): 0.5},  # w11 = 0 with a cross weight
    ],
    ids=["negative-diagonal", "negative-loop", "cross-beyond-diagonal", "cross-without-diagonal"],
)
def test_an_indefinite_density_is_refused_by_name(config, normalization, weights):
    density = marking.CenterOfMassDensity(weights)
    with pytest.raises(ProfileError, match="density not positive semi-definite on paths"):
        branch_intensity(density, np.linspace(-1e-6, 1e-6, 5), config, normalization)


def test_a_pure_density_block_is_split_without_a_remainder(config, grid):
    # w11 w22 - |w12|^2 = 0 exactly for equal weights: the loop block is one term, the excited branch's
    _, excited = marking.measure_internal(marking.post_slit_state(config))
    density = marking.reduce_center_of_mass(excited.collapsed())
    straight, looped = intensity._pairs(density)
    assert straight == [] and len(looped) == 1
    from_density = branch_intensity(density, grid, config, "peak")
    from_state = branch_intensity(excited, grid, config, "peak")
    assert np.max(np.abs(from_density.values - from_state.values)) <= 1e-14
    assert np.max(np.abs(from_density.visibility - from_state.visibility)) <= 1e-14


def test_a_profile_without_a_positive_peak_is_not_normalized(config):
    # a one-point grid on the antifringe node x = 0: the profile is exactly 0 there
    state = marking.post_slit_state(config)
    ground, _ = marking.measure_internal(state)
    _, antifringes = marking.eraser_basis_single_detector(ground.collapsed())
    grid = np.zeros(1)
    for normalization in ("peak",):
        with pytest.raises(ProfileError, match=f"cannot normalize the stub profile: its {normalization} on this grid is 0"):
            branch_intensity(antifringes, grid, config, normalization, label="stub")
    assert branch_intensity(antifringes, grid, config, "raw", label="stub").values.tolist() == [0.0]


def test_a_density_without_a_weight_is_zero_and_not_normalized(config, grid):
    # no block and no term: the one term that stands in for them is 0 everywhere, its visibility 0
    weightless = marking.CenterOfMassDensity({})
    raw = branch_intensity(weightless, grid, config, "raw")
    assert not raw.values.any() and not raw.visibility.any() and raw.values.size == grid.size
    with pytest.raises(ProfileError, match="cannot normalize the density profile: its peak on this grid is 0"):
        branch_intensity(weightless, grid, config, "peak")


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
        IntensityProfile(np.array([]), np.array([]))


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


@pytest.mark.parametrize("points", [[0.0, np.nan, 1.0], [np.nan], [-np.inf, 0.0, np.inf], [0.0, 1.0, np.inf]])
def test_a_profile_on_a_grid_that_is_not_finite_is_refused(points):
    # NaN compares neither way, and -inf, 0, inf increases strictly
    with pytest.raises(ProfileError, match="grid must be finite and strictly increasing"):
        IntensityProfile(np.array(points), np.zeros(len(points)))


def test_a_profile_beyond_the_float_range_is_refused(coeffs, grid):
    with pytest.raises(ProfileError, match="the elt profile is not finite on this grid"):
        elt_intensity(grid, dataclasses.replace(coeffs, amplitude=1e300), "raw")


def test_a_window_whose_peak_overflows_is_refused(config, coeffs):
    # C1 < 0: the envelope grows away from the centre, and the window's largest intensity is inf
    with pytest.raises(ProfileError, match="window intensity without a finite positive peak"):
        intensity.aggregate_visibility(dataclasses.replace(coeffs, c1=-1e6 * coeffs.c1), config)


@pytest.mark.parametrize(
    "paths, w12",
    [(("1", "2"), 0.3 + 0.4j), (("12", "21"), -0.2 + 0.7j)],
    ids=["straight", "looped"],
)
def test_a_complex_coherence_shifts_the_fringes_by_its_phase(config, grid, paths, w12):
    # arg(w12) is neither 0 nor pi: the term's cos^2(gamma x + phi/2) takes both cos and sin
    p, q = paths
    density = marking.CenterOfMassDensity({(p, p): 1.0, (q, q): 1.0, (p, q): w12, (q, p): w12.conjugate()})
    psi_p, psi_q = (gaussians.chain(slits(path, config), config).evaluate(grid) for path in paths)
    reference = np.abs(psi_p) ** 2 + np.abs(psi_q) ** 2 + 2.0 * (w12 * psi_p * psi_q.conjugate()).real
    profile = branch_intensity(density, grid, config, "raw")
    assert np.max(np.abs(profile.values - reference)) <= 1e-12 * np.max(reference)
