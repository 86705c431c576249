import numpy as np
import pytest

from conftest import PRESETS, preset_context
from dwmix.overlaps import _quadrature_error_estimate, cross_species_tensor, overlap_tensor
from dwmix.potential import Grid

# For a normalized Gaussian whose density has standard deviation sigma,
# the quartic self-overlap integral is 1 / (2 sigma sqrt(pi)).
SIGMA = 0.25
GAUSSIAN_SELF_OVERLAP = 1.1283791670955126  # 2 / sqrt(pi) at sigma = 0.25


@pytest.fixture(scope="module")
def gaussian_pair():
    grid = Grid(x_max=4.0, n_points=4001)
    x = grid.points()

    def mode(center):
        u = np.exp(-((x - center) ** 2) / (4.0 * SIGMA**2))
        return u / np.sqrt(grid.inner(u, u))

    return grid, mode(-1.5), mode(+1.5)


def test_gaussian_oracle(gaussian_pair):
    grid, left, right = gaussian_pair
    tensor = overlap_tensor(left, right, grid)
    assert tensor.values[1, 1, 1, 1] == pytest.approx(GAUSSIAN_SELF_OVERLAP, rel=1e-9)
    # Same-site elements of the two wells agree for a mirror-symmetric pair.
    assert tensor.values[0, 0, 0, 0] == pytest.approx(tensor.values[1, 1, 1, 1], rel=1e-12)


def test_mixed_elements_are_negligible_for_distant_wells(gaussian_pair):
    grid, left, right = gaussian_pair
    tensor = overlap_tensor(left, right, grid)
    for idx in [(0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1), (0, 1, 0, 1)]:
        assert abs(tensor.values[idx]) < 1e-8


def test_full_permutation_symmetry_is_exact(gaussian_pair):
    grid, left, right = gaussian_pair
    v = overlap_tensor(left, right, grid).values
    # Copies of one quadrature per index multiset, so equality is bitwise.
    assert v[0, 0, 1, 1] == v[0, 1, 0, 1] == v[1, 1, 0, 0] == v[1, 0, 1, 0]
    assert v[0, 1, 1, 1] == v[1, 0, 1, 1] == v[1, 1, 0, 1] == v[1, 1, 1, 0]


@pytest.mark.parametrize("preset", PRESETS)
def test_mirror_symmetry_is_exact(preset):
    # psi_left is psi_right[::-1] and the trapezoid weights are symmetric, so
    # a key and its L <-> R mirror are one integral, computed once.
    overlaps = preset_context(preset, 0).overlaps
    for tensor in (overlaps.boson, overlaps.fermion, overlaps.cross):
        assert np.array_equal(tensor.values, tensor.values[::-1, ::-1, ::-1, ::-1])


def test_cross_tensor_pairwise_symmetry(gaussian_pair):
    grid, left, right = gaussian_pair
    v = cross_species_tensor(left, right, left, right, grid).values
    assert np.array_equal(v, v.transpose(1, 0, 2, 3))
    assert np.array_equal(v, v.transpose(0, 1, 3, 2))


def test_cross_tensor_with_identical_modes_matches_intra(gaussian_pair):
    grid, left, right = gaussian_pair
    intra = overlap_tensor(left, right, grid).values
    cross = cross_species_tensor(left, right, left, right, grid).values
    assert np.allclose(cross, intra, atol=1e-15)


def test_distinct_element_counts(gaussian_pair):
    grid, left, right = gaussian_pair
    intra = overlap_tensor(left, right, grid)
    cross = cross_species_tensor(left, right, left, right, grid)
    intra_keys = intra.distinct
    cross_keys = cross.distinct
    assert len(intra_keys) == 5
    assert len(cross_keys) == 9
    assert list(intra_keys) == sorted(intra_keys)
    assert intra_keys["RRRR"] == intra.values[1, 1, 1, 1]


def test_quadrature_error_estimate_is_small(gaussian_pair):
    grid, left, right = gaussian_pair
    tensor = overlap_tensor(left, right, grid)
    assert 0.0 <= tensor.quadrature_error_estimate < 1e-10


@pytest.mark.parametrize("n_points", [401, 403])
def test_quadrature_error_estimate_matches_the_trapezoid_error(n_points):
    # An integrand whose slope differs at the two ends, so the trapezoid rule
    # errs at O(h^2).  At 403 points the every-second-node grid has an even
    # point count, which Grid refuses.
    grid = Grid(x_max=2.0, n_points=n_points)
    x = grid.points()
    f = 1.0 / (1.0 + x**2)
    error = abs(grid.integral(f) - 2.0 * np.arctan(2.0))
    assert _quadrature_error_estimate(f, grid) == pytest.approx(error, rel=1e-4)


def test_localized_trap_modes_overlap_structure(coarse_context):
    # The real trap modes obey the same structure as the synthetic Gaussians.
    tensors = coarse_context.overlaps
    assert tensors.boson.values[1, 1, 1, 1] > 0.0
    assert tensors.fermion.values[1, 1, 1, 1] > 0.0
    same_site = tensors.boson.values[1, 1, 1, 1]
    mixed = abs(tensors.boson.values[0, 0, 1, 1])
    assert mixed < 1e-4 * same_site
