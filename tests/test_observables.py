import numpy as np
import pytest
from conftest import partial_trace_entropies

from dwmix.manybody import enumerate_bases
from dwmix.observables import species_entropies


def random_states(basis, rng, count=1):
    c = rng.normal(size=(count, basis.dim)) + 1j * rng.normal(size=(count, basis.dim))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def basis_state(basis, boson_label, fermion_label):
    c = np.zeros(basis.dim, dtype=complex)
    c[basis.index_of(boson_label, fermion_label)] = 1.0
    return c


def equal_weights(basis, pairs):
    """State with equal Schmidt weights on the given (boson, fermion) labels."""
    c = np.zeros(basis.dim, dtype=complex)
    c[[basis.index_of(b, f) for b, f in pairs]] = np.sqrt(1.0 / len(pairs))
    return c


@pytest.fixture(scope="module")
def basis():
    return enumerate_bases(0)


class TestReduce:
    """Batched Schmidt spectra, seen through the entropies they give."""

    def test_reduced_shapes(self, basis, rng):
        # One value per row, 0-d for one row; three equal Schmidt weights mix
        # the 3x3 boson reduction fully.
        three = equal_weights(basis, [("LL", "LLs"), ("S", "Ss"), ("RR", "RRs")])
        rows = np.array([three, random_states(basis, rng)[0]])
        entropy = species_entropies(rows, basis)
        assert entropy.shape == (2,)
        assert entropy[0] == pytest.approx(np.log2(3.0), abs=1e-12)
        assert species_entropies(three, basis).shape == ()
        assert species_entropies(rows.reshape(2, 1, -1), basis).shape == (2, 1)

    def test_product_state_is_pure_after_reduction(self, basis):
        rows = basis_state(basis, "RR", "RRs")[None]
        assert species_entropies(rows, basis).tolist() == [0.0]


class TestVnEntropy:
    def test_pure_state_has_zero_entropy(self, basis):
        rows = np.array([basis_state(basis, b, f)
                         for b, f in (("LL", "LLs"), ("S", "T0"), ("RR", "RRs"))])
        assert species_entropies(rows, basis).tolist() == [0.0, 0.0, 0.0]

    def test_maximally_mixed_qubit(self, basis):
        # Two equal Schmidt weights: one bit, the same from either species.
        two = equal_weights(basis, [("LL", "LLs"), ("RR", "RRs")])
        rows = np.array([two, basis_state(basis, "S", "Ss")])
        np.testing.assert_allclose(species_entropies(rows, basis), [1.0, 0.0],
                                   rtol=0.0, atol=1e-14)

    def test_eigenvalue_rounded_above_one_gives_zero(self, basis):
        # A product state scaled by sqrt(1 + 2 eps): its one Schmidt weight
        # rounds to 1 + 2 eps, whose unclamped term is -2 eps / ln 2.
        eps = np.finfo(float).eps
        c = np.sqrt(1.0 + 2.0 * eps) * basis_state(basis, "RR", "RRs")
        weights = np.linalg.svd(basis.coefficient_matrices(c), compute_uv=False) ** 2
        assert weights.max() > 1.0
        entropy = species_entropies(c, basis)
        assert entropy == 0.0
        assert not np.signbit(entropy)


class TestSpeciesEntropies:
    def test_product_state_is_unentangled(self, basis):
        assert species_entropies(basis_state(basis, "RR", "RRs"), basis) == 0.0

    def test_bell_like_state_has_one_bit(self, basis):
        c = equal_weights(basis, [("LL", "LLs"), ("RR", "RRs")])
        assert species_entropies(c, basis) == pytest.approx(1.0, abs=1e-12)

    def test_schmidt_symmetry_for_random_states(self, basis, rng):
        # Both reductions of a pure state share its Schmidt spectrum, so the
        # eigenvalues of either partial trace give the same entropies.
        rows = random_states(basis, rng, 25)
        entropy = species_entropies(rows, basis)
        for reference in partial_trace_entropies(rows, basis):
            np.testing.assert_allclose(entropy, reference, rtol=0.0, atol=1e-13)
        assert np.all((0.0 <= entropy) & (entropy <= np.log2(3.0) + 1e-12))

    def test_batch_matches_single_rows(self, basis, rng):
        rows = random_states(basis, rng, 7)
        batch = species_entropies(rows, basis)
        for k, row in enumerate(rows):
            assert species_entropies(row, basis) == batch[k]

