import numpy as np
import pytest

from conftest import doctored, full_matrix
from dwmix import tridiagonal
from dwmix.errors import ConfigError, InvariantError
from dwmix.manybody import (
    ANTISYMMETRIC,
    BOSONS,
    FERMIONS,
    PAPER_FOUR_STATE,
    CouplingParams,
    HamiltonianBlocks,
    SectorBlocks,
    enumerate_bases,
    ground_state,
    hamiltonian_blocks,
    mirror_operator,
    one_body_transition_matrix,
    spin_exchange_operator,
)
from dwmix.model import build_context
from dwmix.tridiagonal import EPS, Tridiagonal, checked_residuals

SQRT2 = np.sqrt(2.0)


class TestBases:
    def test_dimensions(self):
        basis = enumerate_bases()
        assert basis.boson_dim == 3
        assert basis.fermion_dim == 4
        assert basis.dim == 12
        assert basis.boson_labels == ["LL", "S", "RR"]
        assert basis.fermion_labels == ["LLs", "Ss", "RRs", "T0"]

    def test_labels_are_boson_major(self):
        basis = enumerate_bases()
        assert basis.labels[0] == "LL|LLs"
        assert basis.labels[4] == "S|LLs"
        assert basis.index_of("RR", "RRs") == 2 * 4 + 2

    def test_basis_vectors_are_orthonormal(self):
        basis = enumerate_bases()
        gram_b = basis.boson_vectors.T @ basis.boson_vectors
        gram_f = basis.fermion_vectors.T @ basis.fermion_vectors
        assert np.allclose(gram_b, np.eye(3), atol=1e-14)
        assert np.allclose(gram_f, np.eye(4), atol=1e-14)

    def test_polarized_sectors_have_one_state(self):
        assert enumerate_bases(sector=1).fermion_labels == ["LRuu"]
        assert enumerate_bases(sector=-1).fermion_labels == ["LRdd"]

    def test_four_state_variant(self):
        basis = enumerate_bases(fermion_variant=PAPER_FOUR_STATE)
        assert basis.fermion_labels == ["As", "LLt", "St", "RRt"]
        gram = basis.fermion_vectors.T @ basis.fermion_vectors
        assert np.allclose(gram, np.eye(4), atol=1e-14)
        with pytest.raises(ConfigError, match="sector 0"):
            enumerate_bases(sector=1, fermion_variant=PAPER_FOUR_STATE)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            enumerate_bases(fermion_variant="bogus")

    def test_missing_label_lookup(self):
        basis = enumerate_bases()
        with pytest.raises(ConfigError, match="available"):
            basis.index_of("RR", "nope")


class TestOneBodyOperators:
    def test_bosonic_enhancement_factor(self):
        # Moving one particle between a doubly occupied mode and the shared
        # state carries a sqrt(2) occupancy factor.
        basis = enumerate_bases()
        d = one_body_transition_matrix(basis, BOSONS)
        ll, s, rr = 0, 1, 2
        left, right = 0, 1
        assert d[ll, s, left, right] == pytest.approx(SQRT2, abs=1e-14)
        assert d[s, rr, left, right] == pytest.approx(SQRT2, abs=1e-14)
        assert d[ll, rr, left, right] == 0.0

    def test_fermion_transfer_between_paired_states(self):
        basis = enumerate_bases()
        d = one_body_transition_matrix(basis, FERMIONS)
        lls, ss, rrs, t0 = 0, 1, 2, 3
        left, right = 0, 1
        assert d[lls, ss, left, right] == pytest.approx(SQRT2, abs=1e-14)
        assert d[ss, rrs, left, right] == pytest.approx(SQRT2, abs=1e-14)
        # The orthogonal triplet-like combination is not reached.
        assert d[lls, t0, left, right] == pytest.approx(0.0, abs=1e-14)

    def test_unknown_species_rejected(self):
        with pytest.raises(ConfigError):
            one_body_transition_matrix(enumerate_bases(), "anyons")


class TestCouplingParams:
    def test_defaults_are_zero(self):
        p = CouplingParams()
        assert p.as_dict() == {"lambda_bb": 0.0, "lambda_ff": 0.0, "lambda_bf": 0.0}

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            CouplingParams(lambda_bb=-1e-4)

    def test_cap_enforced(self):
        with pytest.raises(ConfigError, match="exceeds"):
            CouplingParams(lambda_bf=0.2)

    def test_strong_coupling_warns(self):
        with pytest.warns(UserWarning, match="truncation accuracy"):
            CouplingParams(lambda_ff=0.05)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            CouplingParams(lambda_bb=np.nan)


class TestAssembly:
    def test_single_particle_block_structure(self, coarse_context):
        # <LL, f| H0 |S, f> must equal -sqrt(2) J for the bosons.
        ctx = coarse_context
        h0 = ctx.blocks.h0
        i = ctx.basis.index_of("LL", "LLs")
        j = ctx.basis.index_of("S", "LLs")
        expected = -SQRT2 * ctx.boson_modes.tunneling_amplitude
        assert h0[i, j] == pytest.approx(expected, rel=1e-12)

    def test_blocks_are_symmetric(self, coarse_context):
        for block in (
            coarse_context.blocks.h0,
            coarse_context.blocks.h_bb,
            coarse_context.blocks.h_ff,
            coarse_context.blocks.h_bf,
        ):
            assert np.max(np.abs(block - block.T)) < 1e-12

    def test_t0_sector_is_decoupled(self, coarse_context):
        """No Hamiltonian term connects the T0 fermion state to the paired
        singlet ladder, at any coupling strengths."""
        ctx = coarse_context
        h = full_matrix(
            ctx.blocks, CouplingParams(lambda_bb=1e-3, lambda_ff=1e-3, lambda_bf=9e-3)
        )
        t0 = ctx.basis.fermion_labels.index("T0")
        t0_rows = [i * 4 + t0 for i in range(3)]
        others = [k for k in range(12) if k not in t0_rows]
        coupling_block = h[np.ix_(t0_rows, others)]
        assert np.max(np.abs(coupling_block)) == 0.0

    def test_spin_polarized_contact_vanishes(self, coarse_context):
        # Two same-spin fermions share an antisymmetric spatial state, so a
        # contact interaction cannot touch them.
        ctx = coarse_context
        basis_up = enumerate_bases(sector=1)
        blocks = hamiltonian_blocks(
            ctx.boson_modes, ctx.fermion_modes, ctx.overlaps, basis_up
        )
        assert np.max(np.abs(blocks.h_ff)) == 0.0

    def test_noninteracting_spectrum_is_sum_of_pairs(self, coarse_context):
        """Independent-particle oracle: at zero coupling the 12 eigenvalues
        are exactly the sums of two-boson and two-fermion pair energies."""
        ctx = coarse_context
        eps_b = ctx.boson_modes.mean_energy
        j_b = ctx.boson_modes.tunneling_amplitude
        eps_f = ctx.fermion_modes.mean_energy
        j_f = ctx.fermion_modes.tunneling_amplitude
        boson_pairs = [2 * (eps_b - j_b), 2 * eps_b, 2 * (eps_b + j_b)]
        fermion_pairs = [2 * (eps_f - j_f), 2 * eps_f, 2 * eps_f, 2 * (eps_f + j_f)]
        expected = np.sort([b + f for b in boson_pairs for f in fermion_pairs])
        actual = np.linalg.eigvalsh(ctx.blocks.h0)
        assert np.allclose(actual, expected, atol=1e-10)


def _gap_and_flag(h):
    """Gap and degenerate flag of one Hamiltonian from the sector kernel."""
    _, gap, degenerate, _, _ = h.sectors.ground_states(h.couplings[None])
    return gap[0], degenerate[0]


class TestGroundState:
    def test_phase_convention(self, coarse_context):
        h = coarse_context.blocks.compose(CouplingParams(lambda_bb=5e-4))
        c = ground_state(h).vector
        assert c.dtype == np.float64
        assert c[int(np.argmax(np.abs(c)))] > 0.0
        gap, degenerate = _gap_and_flag(h)
        assert not degenerate
        assert gap > 0.0

    def test_degenerate_flag(self, coarse_context):
        zero = np.zeros((12, 12))
        blocks = HamiltonianBlocks(basis=coarse_context.basis, h0=zero, h_bb=zero,
                                   h_ff=zero, h_bf=zero)
        assert _gap_and_flag(blocks.compose(CouplingParams()))[1]


class TestMirror:
    def test_mirror_is_an_involution(self, coarse_context):
        m = mirror_operator(coarse_context.basis)
        assert np.allclose(m @ m, np.eye(12), atol=1e-12)

    def test_hamiltonian_commutes_with_mirror(self, coarse_context):
        m = mirror_operator(coarse_context.basis)
        h = full_matrix(
            coarse_context.blocks, CouplingParams(lambda_bb=1e-3, lambda_ff=5e-4, lambda_bf=2e-3)
        )
        assert np.max(np.abs(m @ h - h @ m)) < 1e-12

    def test_four_state_variant_is_not_mirror_closed(self):
        basis = enumerate_bases(fermion_variant=PAPER_FOUR_STATE)
        with pytest.raises(ConfigError, match="mirror"):
            mirror_operator(basis)


def _assert_orthonormal_cover(sectors, dim):
    r = np.hstack(sectors)
    assert r.shape == (dim, dim)
    assert np.allclose(r.T @ r, np.eye(dim), atol=1e-14)


class TestSymmetrySectors:
    def test_antisymmetric_sectors(self, coarse_context):
        basis = coarse_context.basis
        sectors = basis.sectors(coarse_context.blocks.h0)
        assert [q.shape[1] for q in sectors] == [5, 4, 2, 1]
        _assert_orthonormal_cover(sectors, basis.dim)
        assert [q.shape[1] for q in basis.sectors(np.zeros((12, 12)))] == [5, 4, 2, 1]

    def test_sectors_are_joint_eigenspaces(self, coarse_context):
        basis = coarse_context.basis
        for q in basis.sectors(coarse_context.blocks.h0):
            for op in (mirror_operator(basis), spin_exchange_operator(basis)):
                image = op @ q
                assert (np.allclose(image, q, atol=1e-14)
                        or np.allclose(image, -q, atol=1e-14))

    def test_spin_exchange_separates_singlets_from_t0(self):
        basis = enumerate_bases()
        signs = np.diag(spin_exchange_operator(basis)).reshape(3, 4)
        assert np.allclose(signs, [[-1.0, -1.0, -1.0, 1.0]] * 3, atol=1e-14)

    def test_hamiltonian_is_block_diagonal(self, coarse_context):
        h = full_matrix(
            coarse_context.blocks, CouplingParams(lambda_bb=1e-3, lambda_ff=5e-4, lambda_bf=9e-3)
        )
        sectors = coarse_context.basis.sectors(coarse_context.blocks.h0)
        for a, qa in enumerate(sectors):
            for b, qb in enumerate(sectors):
                if a != b:
                    assert np.max(np.abs(qa.T @ h @ qb)) < 1e-12

    def test_four_state_sectors_come_from_spin_exchange_alone(self, config_factory):
        context = build_context(config_factory(**{
            "grid.n_points": 801, "model.fermion_basis": PAPER_FOUR_STATE}))
        sectors = context.basis.sectors(context.blocks.h0)
        assert [q.shape[1] for q in sectors] == [9, 3]
        _assert_orthonormal_cover(sectors, 12)

    def test_symmetry_h_breaks_is_left_out(self):
        # A diagonal h commutes with the (diagonal) spin exchange but not the mirror.
        basis = enumerate_bases()
        sectors = basis.sectors(np.diag(np.arange(12.0)))
        assert [q.shape[1] for q in sectors] == [9, 3]

    def test_ground_state_matches_full_diagonalization(self, coarse_context):
        params = CouplingParams(lambda_bb=1e-3, lambda_ff=5e-4, lambda_bf=9e-3)
        h = coarse_context.blocks.compose(params)
        energies, vectors = np.linalg.eigh(full_matrix(coarse_context.blocks, params))
        gs = ground_state(h)
        assert gs.energy == pytest.approx(energies[0], abs=1e-12)
        assert _gap_and_flag(h)[0] == pytest.approx(energies[1] - energies[0], abs=1e-12)
        assert abs(np.vdot(gs.vector, vectors[:, 0])) == pytest.approx(
            1.0, abs=1e-12)

    def test_sector_leak_names_the_row(self, coarse_context):
        blocks = coarse_context.blocks
        mirror_breaking = np.zeros((12, 12))
        mirror_breaking[0, 1] = mirror_breaking[1, 0] = 1.0
        sectors = SectorBlocks.project(blocks.basis, blocks.h0, (mirror_breaking,))
        sectors.ground_states(np.zeros((2, 1)))
        with pytest.raises(InvariantError, match="symmetry sectors") as info:
            sectors.ground_states(np.array([[0.0], [0.0], [1e-3]]))
        assert info.value.index == 2


def _lowest_pair(matrices):
    """Lowest eigenvalue and vector of each (n, d, d) matrix by the sweep solver."""
    a = np.ascontiguousarray(np.moveaxis(matrices, 0, -1))
    reduced = Tridiagonal.reduce(a)
    lowest = reduced.lowest()
    vectors = reduced.vectors(lowest)
    return lowest, vectors.T, checked_residuals(a, vectors, lowest, np.arange(len(matrices)))


class TestSectorKernel:
    @pytest.mark.parametrize("d", range(1, 10))
    def test_random_stacks_match_eigh(self, rng, d):
        a = rng.standard_normal((300, d, d))
        matrices = a + a.transpose(0, 2, 1)
        lowest, vectors, residual = _lowest_pair(matrices)
        values, oracle = np.linalg.eigh(matrices)
        scale = np.linalg.norm(matrices, axis=(1, 2))
        assert np.all(np.abs(lowest - values[:, 0]) <= 16 * EPS * scale)
        assert np.all(residual <= 16 * EPS * scale)
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=0.0, atol=1e-14)
        if d > 1:
            separated = values[:, 1] - values[:, 0] > 1e-6 * scale
            overlap = np.abs(np.einsum("nd,nd->n", vectors, oracle[:, :, 0]))
            assert np.allclose(overlap[separated], 1.0, rtol=0.0, atol=1e-12)

    def test_steps_past_the_lowest_eigenvalue_end_there(self):
        # Laguerre's step is exact for a 2x2, so rounding puts about half of
        # these one ulp past the lowest eigenvalue; iterating on from there
        # would head for the other one.
        a = np.random.default_rng(0).standard_normal((200, 2, 2))
        matrices = a + a.transpose(0, 2, 1)
        lowest, _, _ = _lowest_pair(matrices)
        np.testing.assert_allclose(lowest, np.linalg.eigvalsh(matrices)[:, 0],
                                   rtol=0.0, atol=1e-14)

    def test_closed_forms_match_eigvalsh(self, rng):
        for d in (1, 2):
            a = rng.standard_normal((256, d, d))
            stack = a + a.transpose(0, 2, 1)
            if d == 2:
                stack[0] = [[0.7, 0.0], [0.0, 0.7]]
            lowest, _, _ = _lowest_pair(stack)
            assert np.allclose(lowest, np.linalg.eigvalsh(stack)[:, 0], rtol=0.0, atol=1e-14)
            if d == 2:
                assert lowest[0] == 0.7
                reduced = Tridiagonal.reduce(np.moveaxis(stack[:1], 0, -1))
                assert reduced.count_below(np.array([np.nextafter(0.7, 1.0)]))[0] == 2
                assert reduced.count_below(np.array([0.7]))[0] == 2  # a zero pivot counts

    def test_diagonal_and_reducible_matrices(self):
        diagonal = np.array([np.diag(v) for v in
                             ([3.0, 1.0, 2.0], [1.0, 1.0, 2.0], [0.0, 0.0, 0.0], [2.0, 2.0, 2.0])])
        block = np.zeros((2, 5, 5))
        block[:, :2, :2] = [[2.0, 1.0], [1.0, 2.0]]
        block[:, 2:, 2:] = [[0.5, 0.3, 0.0], [0.3, 0.5, 0.3], [0.0, 0.3, 0.5]]
        block[1, :2, :2] = [[0.5, 0.3], [0.3, 0.5]]  # the lowest eigenvalue in both blocks
        for matrices in (diagonal, block):
            lowest, vectors, residual = _lowest_pair(matrices)
            np.testing.assert_allclose(lowest, np.linalg.eigvalsh(matrices)[:, 0],
                                       rtol=0.0, atol=4 * EPS)
            assert np.all(residual <= 4 * EPS)
            np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-15)
        # A step that lands on the eigenvalue, where a pivot is zero, is the last.
        assert _lowest_pair(diagonal)[0].tolist() == [1.0, 1.0, 0.0, 2.0]

    def test_single_row(self, coarse_context):
        blocks = coarse_context.blocks
        sectors = blocks.sectors
        c = np.array([[1.0e-3, 5.0e-4, 9.0e-3]])
        energy, gap, degenerate, vector, residual = sectors.ground_states(c)
        values, oracle = np.linalg.eigh(full_matrix(blocks, CouplingParams(*c[0]))
                                        - sectors.shift * np.eye(12))
        assert energy.shape == gap.shape == residual.shape == (1,)
        assert energy[0] == pytest.approx(values[0] + sectors.shift, abs=1e-12)
        assert gap[0] == pytest.approx(values[1] - values[0], abs=1e-12)
        assert abs(vector[0] @ oracle[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= residual[0] < 1e-16

    def test_winner_own_second_eigenvalue_sets_the_gap(self, coarse_context):
        # Raising every mirror-odd and every T0 state leaves the even singlet
        # sector alone at the bottom: its own second eigenvalue lies below the
        # lowest of every other sector, and gives the gap.
        blocks = coarse_context.blocks
        basis = blocks.basis
        odd = 0.5 * (np.eye(12) - mirror_operator(basis))
        t0 = np.diag((np.diag(spin_exchange_operator(basis)) > 0.0).astype(float))
        raised = odd + t0 - odd @ t0
        sectors = SectorBlocks.project(basis, blocks.h0, (blocks.h_bf, raised))
        couplings = np.column_stack([np.linspace(0.0, 9.0e-3, 7), np.full(7, 0.1)])
        _, gap, _, _, _ = sectors.ground_states(couplings)
        for row, (bf, lift) in enumerate(couplings):
            h = blocks.h0 - sectors.shift * np.eye(12) + bf * blocks.h_bf + lift * raised
            own, *others = [np.linalg.eigvalsh(q.T @ h @ q) for q in sectors.sectors]
            assert own[1] < min(values[0] for values in others)
            values = np.linalg.eigvalsh(h)
            assert gap[row] == pytest.approx(values[1] - values[0], abs=1e-12)

    def test_residual_check_names_the_row(self, coarse_context):
        sectors = doctored(coarse_context.blocks.sectors)
        couplings = np.zeros((4, 3))
        couplings[2:, 2] = 1.0e-3
        _, _, _, _, residual = sectors.ground_states(couplings[:2])
        assert np.all(residual < 1.0e-16)
        with pytest.raises(InvariantError, match="residual") as info:
            sectors.ground_states(couplings)
        assert info.value.index == 2

    def test_laguerre_cap_names_the_row(self, monkeypatch):
        # Row 0 is diagonal, so its first step is exact; row 1 needs more.
        matrices = np.array([np.diag([3.0, 1.0, 2.0]),
                             [[2.0, 1.0, 0.5], [1.0, 1.0, 0.3], [0.5, 0.3, 3.0]]])
        reduced = Tridiagonal.reduce(np.moveaxis(matrices, 0, -1))
        monkeypatch.setattr(tridiagonal, "LAGUERRE_ITERATIONS", 1)
        with pytest.raises(InvariantError, match="still moving") as info:
            reduced.lowest()
        assert info.value.index == 1

    def test_mixed_winners_match_per_cell_oracle(self, coarse_context):
        # Lowering every fermion-T0 state by c moves the ground state from the
        # largest (even singlet) sector into a T0 sector as c grows.
        blocks = coarse_context.blocks
        basis = blocks.basis
        t0 = [basis.index_of(b, "T0") for b in basis.boson_labels]
        p_t0 = np.zeros((basis.dim, basis.dim))
        p_t0[t0, t0] = -1.0
        couplings = np.column_stack([np.full(16, 1.0e-3), np.linspace(0.0, 3.0e-2, 16)])
        sectors = SectorBlocks.project(basis, blocks.h0, (blocks.h_bf, p_t0))
        energy, gap, degenerate, vectors, _ = sectors.ground_states(couplings)
        in_t0 = np.abs(vectors[:, t0]).sum(axis=1) > 0.5
        assert in_t0.any() and not in_t0.all()
        for row, (bf, lowering) in enumerate(couplings):
            h = blocks.h0 - sectors.shift * np.eye(basis.dim) + bf * blocks.h_bf + lowering * p_t0
            values, oracle = np.linalg.eigh(h)
            assert energy[row] == pytest.approx(values[0] + sectors.shift, abs=1e-12)
            assert gap[row] == pytest.approx(values[1] - values[0], abs=1e-12)
            assert not degenerate[row]
            assert abs(vectors[row] @ oracle[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_loose_defect_bound_alone_does_not_raise(self, coarse_context):
        # Opposite mirror-breaking terms: the bound on the defect is 2 at
        # c = (1, 1), yet every defect entry cancels exactly.
        blocks = coarse_context.blocks
        mirror_breaking = np.zeros((12, 12))
        mirror_breaking[0, 1] = mirror_breaking[1, 0] = 1.0
        sectors = SectorBlocks.project(
            blocks.basis, blocks.h0, (mirror_breaking, -mirror_breaking))
        cancelled = sectors.ground_states(np.ones((3, 2)))
        plain = blocks.sectors.ground_states(np.zeros((3, 3)))
        for got, expected in zip(cancelled, plain):
            assert np.array_equal(got, expected)


def test_variant_constants():
    assert ANTISYMMETRIC == "antisymmetric"
    assert PAPER_FOUR_STATE == "paper_four_state"
