"""Coupling-plane sweeps: spec validation, determinism, and flag plumbing."""

import numpy as np
import pytest

from dwmix.errors import ConfigError, SweepError
from dwmix.manybody import CouplingParams, HamiltonianBlocks, enumerate_bases, ground_state
from dwmix.sweep import CHUNK_CELLS, AxisSpec, SweepSpec, entropy_scan, fidelity_map

REF = CouplingParams(lambda_bb=5.0e-4, lambda_ff=5.0e-4, lambda_bf=5.0e-4)


def _broken_blocks():
    """Blocks whose fermion interaction is not symmetric.

    Composing them fails only where lambda_ff is nonzero, which keeps the
    reference solve alive while every swept cell raises.
    """
    basis = enumerate_bases()
    zeros = np.zeros((basis.dim, basis.dim))
    lopsided = zeros.copy()
    lopsided[0, 1] = 1.0
    return HamiltonianBlocks(
        basis=basis, h0=np.diag(np.arange(float(basis.dim))),
        h_bb=zeros, h_ff=lopsided, h_bf=zeros,
    )


def plane_spec(x_axis, y_axis, reference=REF):
    return SweepSpec(
        plane="ff_bf",
        x_axis=x_axis,
        y_axis=y_axis,
        fixed={"lambda_bb": 5.0e-4},
        reference=reference,
    )


class TestAxisSpec:
    def test_values_hit_both_endpoints(self):
        axis = AxisSpec(start=0.0, stop=1.0e-3, count=5)
        values = axis.values()
        assert values[0] == 0.0
        assert values[-1] == 1.0e-3
        assert values.size == 5

    def test_single_point_axis(self):
        assert AxisSpec(start=2.0e-4, stop=2.0e-4, count=1).values().tolist() == [2.0e-4]

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError, match="at least 1"):
            AxisSpec(start=0.0, stop=1.0, count=0)

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError, match="stop >= start"):
            AxisSpec(start=1.0, stop=0.0, count=3)

    def test_degenerate_range_needs_count_one(self):
        with pytest.raises(ConfigError, match="degenerate axis range"):
            AxisSpec(start=1.0e-4, stop=1.0e-4, count=4)


class TestSweepSpec:
    def test_unknown_plane(self):
        with pytest.raises(ConfigError, match="unknown sweep plane"):
            SweepSpec(plane="bf_ff", x_axis=AxisSpec(0.0, 1.0e-3, 2))

    def test_plane_needs_y_axis(self):
        with pytest.raises(ConfigError, match="needs a y axis"):
            SweepSpec(plane="ff_bf", x_axis=AxisSpec(0.0, 1.0e-3, 2),
                      fixed={"lambda_bb": 0.0})

    def test_line_takes_no_y_axis(self):
        with pytest.raises(ConfigError, match="takes no y axis"):
            SweepSpec(
                plane="line_ff",
                x_axis=AxisSpec(0.0, 1.0e-3, 2),
                y_axis=AxisSpec(0.0, 1.0e-3, 2),
                fixed={"lambda_bb": 0.0, "lambda_bf": 0.0},
            )

    def test_wrong_fixed_keys(self):
        with pytest.raises(ConfigError, match="must fix exactly"):
            SweepSpec(
                plane="ff_bf",
                x_axis=AxisSpec(0.0, 1.0e-3, 2),
                y_axis=AxisSpec(0.0, 1.0e-3, 2),
                fixed={"lambda_ff": 0.0},
            )

    def test_couplings_at_routes_axes(self):
        spec = plane_spec(AxisSpec(0.0, 1.0e-3, 2), AxisSpec(0.0, 1.0e-3, 2))
        p = spec.couplings_at(2.0e-4, 3.0e-4)
        assert p.lambda_bb == 5.0e-4
        assert p.lambda_ff == 2.0e-4
        assert p.lambda_bf == 3.0e-4

    def test_couplings_at_line_plane(self):
        spec = SweepSpec(
            plane="line_ff",
            x_axis=AxisSpec(0.0, 1.0e-2, 3),
            fixed={"lambda_bb": 1.0e-3, "lambda_bf": 9.0e-3},
        )
        p = spec.couplings_at(4.0e-3, None)
        assert (p.lambda_bb, p.lambda_ff, p.lambda_bf) == (1.0e-3, 4.0e-3, 9.0e-3)


class TestFidelityMap:
    def test_reference_required(self, coarse_context):
        spec = plane_spec(AxisSpec(0.0, 1.0e-3, 2), AxisSpec(0.0, 1.0e-3, 2),
                          reference=None)
        with pytest.raises(ConfigError, match="reference couplings"):
            fidelity_map(coarse_context.blocks, spec)

    def test_reference_cell_has_unit_fidelity(self, coarse_context):
        spec = plane_spec(AxisSpec(5.0e-4, 5.0e-4, 1), AxisSpec(5.0e-4, 5.0e-4, 1))
        surface = fidelity_map(coarse_context.blocks, spec)
        assert surface.fidelity.shape == (1, 1)
        assert surface.fidelity[0, 0] == pytest.approx(1.0, abs=1.0e-12)
        gs = ground_state(coarse_context.blocks.compose(REF))
        assert surface.reference_energy == pytest.approx(gs.energy, abs=1.0e-12)

    def test_fidelity_is_continuous_near_reference(self, coarse_context):
        nudged = 5.0e-4 + 1.0e-8
        spec = plane_spec(AxisSpec(nudged, nudged, 1), AxisSpec(5.0e-4, 5.0e-4, 1))
        surface = fidelity_map(coarse_context.blocks, spec)
        assert surface.fidelity[0, 0] > 1.0 - 1.0e-6

    def test_worker_count_does_not_change_bytes(self, coarse_context):
        spec = plane_spec(AxisSpec(0.0, 1.0e-3, 3), AxisSpec(0.0, 1.0e-3, 3))
        serial = fidelity_map(coarse_context.blocks, spec, workers=1)
        pooled = fidelity_map(coarse_context.blocks, spec, workers=2)
        assert np.array_equal(serial.fidelity, pooled.fidelity)
        assert np.array_equal(serial.degenerate, pooled.degenerate)

    def test_failing_cell_is_named(self):
        reference = CouplingParams(lambda_bb=5.0e-4, lambda_ff=0.0, lambda_bf=5.0e-4)
        spec = plane_spec(AxisSpec(1.0e-4, 1.0e-4, 1), AxisSpec(0.0, 0.0, 1),
                          reference=reference)
        with pytest.raises(SweepError, match=r"cell \(0, 0\)"):
            fidelity_map(_broken_blocks(), spec)

    def test_degenerate_cells_flagged(self):
        basis = enumerate_bases()
        zeros = np.zeros((basis.dim, basis.dim))
        flat = HamiltonianBlocks(basis=basis, h0=zeros, h_bb=zeros,
                                 h_ff=zeros, h_bf=zeros)
        spec = plane_spec(AxisSpec(0.0, 1.0e-3, 2), AxisSpec(0.0, 1.0e-3, 2))
        surface = fidelity_map(flat, spec)
        assert surface.degenerate.all()

    def test_workers_must_be_positive(self, coarse_context):
        spec = plane_spec(AxisSpec(0.0, 1.0e-3, 2), AxisSpec(0.0, 1.0e-3, 2))
        with pytest.raises(ConfigError, match="workers"):
            fidelity_map(coarse_context.blocks, spec, workers=0)


class TestEntropyScan:
    def line_spec(self, lambda_bf, count=9, stop=1.0e-2):
        return SweepSpec(
            plane="line_ff",
            x_axis=AxisSpec(0.0, stop, count),
            fixed={"lambda_bb": 1.0e-3, "lambda_bf": lambda_bf},
        )

    def test_rejects_plane_spec(self, coarse_context):
        spec = plane_spec(AxisSpec(0.0, 1.0e-3, 2), AxisSpec(0.0, 1.0e-3, 2))
        with pytest.raises(ConfigError, match="line_ff"):
            entropy_scan(coarse_context.blocks, spec)

    def test_uncoupled_species_have_no_entropy(self, coarse_context):
        curve = entropy_scan(coarse_context.blocks, self.line_spec(0.0, count=5))
        assert np.all(curve.s_bosons < 1.0e-12)
        assert np.all(curve.s_fermions < 1.0e-12)

    def test_species_entropies_agree(self, coarse_context):
        curve = entropy_scan(coarse_context.blocks, self.line_spec(9.0e-3, count=13))
        np.testing.assert_allclose(curve.s_bosons, curve.s_fermions, atol=1.0e-10)

    def test_argmax_matches_curve(self, coarse_context):
        curve = entropy_scan(coarse_context.blocks, self.line_spec(9.0e-3, count=13))
        k = int(np.argmax(curve.s_bosons))
        assert curve.argmax_lambda == curve.lambda_ff[k]
        assert 0 < k < curve.lambda_ff.size - 1

    def test_worker_count_does_not_change_bytes(self, coarse_context):
        spec = self.line_spec(9.0e-3, count=7)
        serial = entropy_scan(coarse_context.blocks, spec, workers=1)
        pooled = entropy_scan(coarse_context.blocks, spec, workers=2)
        assert np.array_equal(serial.s_bosons, pooled.s_bosons)
        assert np.array_equal(serial.s_fermions, pooled.s_fermions)

    def test_failing_point_is_named(self):
        spec = SweepSpec(
            plane="line_ff",
            x_axis=AxisSpec(2.0e-3, 2.0e-3, 1),
            fixed={"lambda_bb": 1.0e-3, "lambda_bf": 0.0},
        )
        with pytest.raises(SweepError, match="point 0"):
            entropy_scan(_broken_blocks(), spec)


def _lowest_eigenpair(blocks, lambda_bb, lambda_ff, lambda_bf):
    h = (blocks.h0 + lambda_bb * blocks.h_bb + lambda_ff * blocks.h_ff
         + lambda_bf * blocks.h_bf)
    energies, vectors = np.linalg.eigh(h)
    return energies[1] - energies[0] < 1.0e-12, vectors[:, 0]


class TestAgainstPerCellOracle:
    """The batched kernel against a plain per-cell loop, over several chunks."""

    def test_fidelity_plane(self, coarse_context):
        blocks = coarse_context.blocks
        spec = plane_spec(AxisSpec(0.0, 2.0e-3, 41), AxisSpec(0.0, 3.0e-3, 29))
        assert 41 * 29 > CHUNK_CELLS
        surface = fidelity_map(blocks, spec)
        _, ref = _lowest_eigenpair(blocks, REF.lambda_bb, REF.lambda_ff, REF.lambda_bf)
        for i, x in enumerate(surface.x_values):
            for j, y in enumerate(surface.y_values):
                degenerate, v = _lowest_eigenpair(blocks, 5.0e-4, x, y)
                assert surface.fidelity[i, j] == pytest.approx(
                    min(abs(v @ ref), 1.0), abs=1.0e-12)
                assert surface.degenerate[i, j] == degenerate

    def test_entropy_line(self, coarse_context):
        blocks = coarse_context.blocks
        basis = blocks.basis
        spec = SweepSpec(
            plane="line_ff",
            x_axis=AxisSpec(0.0, 1.0e-2, CHUNK_CELLS + 77),
            fixed={"lambda_bb": 1.0e-3, "lambda_bf": 9.0e-3},
        )
        curve = entropy_scan(blocks, spec)
        for k, x in enumerate(curve.lambda_ff):
            degenerate, v = _lowest_eigenpair(blocks, 1.0e-3, x, 9.0e-3)
            schmidt = np.linalg.svd(v.reshape(basis.boson_dim, basis.fermion_dim),
                                    compute_uv=False) ** 2
            schmidt = schmidt[schmidt > 1.0e-14]
            expected = float(-np.sum(schmidt * np.log2(schmidt)))
            assert curve.s_bosons[k] == pytest.approx(expected, abs=1.0e-12)
            assert curve.s_fermions[k] == pytest.approx(expected, abs=1.0e-12)
            assert curve.degenerate[k] == degenerate


def test_failing_cell_is_named_under_optimize(run_python):
    # python -O strips assert statements; the symmetry check must not be one.
    proc = run_python("-O", "-c", "from test_sweep import TestFidelityMap; "
                      "TestFidelityMap().test_failing_cell_is_named()")
    assert proc.returncode == 0, proc.stderr
