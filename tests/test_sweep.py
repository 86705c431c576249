"""Coupling-plane sweeps: spec validation, determinism, and flag plumbing."""

import hashlib
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from conftest import doctor_cached_projection, partial_trace_entropies
from dwmix.cli import EXIT_CONFIG, EXIT_OK, _fidelity_spec, main
from dwmix.config import ANTISYMMETRIC, RunConfig, parse_config
from dwmix.errors import ConfigError, SweepError
from dwmix.manybody import (
    CouplingParams,
    HamiltonianBlocks,
    enumerate_bases,
    ground_state,
)
from dwmix.model import build_context
from dwmix.sweep import CHUNK_CELLS, AxisSpec, SweepSpec, entropy_scan, fidelity_map

REF = CouplingParams(lambda_bb=5.0e-4, lambda_ff=5.0e-4, lambda_bf=5.0e-4)


def _broken_blocks():
    """Blocks whose fermion interaction is not symmetric.

    Composing them fails only where lambda_ff is nonzero, which keeps the
    reference solve alive while every swept cell raises.  Their h0 (zero)
    keeps every symmetry of the basis, so the reference is not refused.
    """
    basis = enumerate_bases(0, ANTISYMMETRIC)
    zeros = np.zeros((basis.dim, basis.dim))
    lopsided = zeros.copy()
    lopsided[0, 1] = 1.0
    return HamiltonianBlocks(basis=basis, h0=zeros, h_bb=zeros, h_ff=lopsided, h_bf=zeros)


def csv_digests_over_workers(tmp_path, command, config_text, artifact):
    """sha256 of the CSV a CLI sweep writes at --workers 1, 4 and 8."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n_points = 801\n" + config_text)
    digests = set()
    for workers in ("1", "4", "8"):
        out = tmp_path / f"w{workers}"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == EXIT_OK
        digests.add(hashlib.sha256((out / artifact).read_bytes()).hexdigest())
    return digests


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

    # Axes are built from config values, so their rules are the config's.
    def test_zero_count_rejected(self, config_factory):
        with pytest.raises(ConfigError, match="sweep.y_count must be at least 1"):
            config_factory(**{"sweep.y_count": 0})

    def test_reversed_range_rejected(self, config_factory):
        with pytest.raises(ConfigError, match="sweep.x_max = 0.0 is below sweep.x_min = 0.001"):
            config_factory(**{"sweep.x_min": 1.0e-3, "sweep.x_max": 0.0})

    def test_degenerate_range_needs_count_one(self, config_factory):
        with pytest.raises(ConfigError, match="sweep.line_count must be 1 when sweep.line_min "
                                              "equals sweep.line_max"):
            config_factory(**{"sweep.line_min": 1.0e-4, "sweep.line_max": 1.0e-4,
                              "sweep.line_count": 4})

    def test_bounds_are_checked_as_couplings(self, config_factory):
        with pytest.raises(ConfigError, match="sweep.x_max = 0.5 exceeds 0.1"):
            config_factory(**{"sweep.x_max": 0.5})
        with pytest.raises(ConfigError, match="sweep.y_min must be non-negative"):
            config_factory(**{"sweep.y_min": -1.0e-4})


class TestSweepSpec:
    def test_unknown_plane(self, config_factory):
        with pytest.raises(ConfigError, match="sweep.plane must be one of"):
            config_factory(**{"sweep.plane": "bf_ff"})

    def test_plane_needs_y_axis(self, config_factory):
        with pytest.raises(ConfigError, match="two-axis plane; set sweep.plane"):
            _fidelity_spec(config_factory(**{"sweep.plane": "line_ff"}))

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

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        digests = csv_digests_over_workers(
            tmp_path, "fidelity-map", "sweep.x_count = 3\nsweep.y_count = 3\n",
            "fidelity_map.csv")
        assert len(digests) == 1

    def test_failing_cell_is_named(self):
        reference = CouplingParams(lambda_bb=5.0e-4, lambda_ff=0.0, lambda_bf=5.0e-4)
        spec = plane_spec(AxisSpec(1.0e-4, 1.0e-4, 1), AxisSpec(0.0, 0.0, 1),
                          reference=reference)
        with pytest.raises(SweepError, match=r"cell \(0, 0\)"):
            fidelity_map(_broken_blocks(), spec)

    def test_degenerate_cells_flagged(self):
        basis = enumerate_bases(0, ANTISYMMETRIC)
        zeros = np.zeros((basis.dim, basis.dim))
        flat = HamiltonianBlocks(basis=basis, h0=zeros, h_bb=zeros,
                                 h_ff=zeros, h_bf=zeros)
        spec = plane_spec(AxisSpec(0.0, 1.0e-3, 2), AxisSpec(0.0, 1.0e-3, 2))
        surface = fidelity_map(flat, spec)
        assert surface.degenerate.all()

    def test_workers_must_be_positive(self, capsys):
        for command in ("fidelity-map", "entropy-scan"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--workers", "0"])
            assert exc.value.code == EXIT_CONFIG
            assert "argument --workers: must be at least 1" in capsys.readouterr().err


class TestEntropyScan:
    def line_spec(self, lambda_bf, count=9, stop=1.0e-2):
        return SweepSpec(
            plane="line_ff",
            x_axis=AxisSpec(0.0, stop, count),
            fixed={"lambda_bb": 1.0e-3, "lambda_bf": lambda_bf},
        )

    def test_uncoupled_species_have_no_entropy(self, coarse_context):
        curve = entropy_scan(coarse_context.blocks, self.line_spec(0.0, count=5))
        assert np.all(curve.entropy < 1.0e-12)

    def test_species_entropies_agree(self, coarse_context):
        # Each point's ground state solved alone, and reduced to both species'
        # entropies by their own partial traces.  At lambda_bf = 1e-3 the
        # smaller Schmidt weights run from 2.6e-6 to 7.6e-3.
        blocks = coarse_context.blocks
        for lambda_bf in (9.0e-3, 1.0e-3):
            spec = self.line_spec(lambda_bf, count=13)
            curve = entropy_scan(blocks, spec)
            states = np.array([ground_state(blocks.compose(spec.couplings_at(x, None))).vector
                               for x in curve.lambda_ff])
            for reference in partial_trace_entropies(states, blocks.basis):
                np.testing.assert_allclose(curve.entropy, reference, rtol=0.0, atol=1.0e-13)

    def test_argmax_matches_curve(self, coarse_context):
        curve = entropy_scan(coarse_context.blocks, self.line_spec(9.0e-3, count=13))
        k = int(np.argmax(curve.entropy))
        assert curve.argmax_lambda == curve.lambda_ff[k]
        assert 0 < k < curve.lambda_ff.size - 1

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        digests = csv_digests_over_workers(
            tmp_path, "entropy-scan",
            "couplings.lambda_bb = 1.0e-3\ncouplings.lambda_bf = 9.0e-3\n"
            "sweep.line_count = 7\n",
            "entropy_scan.csv")
        assert len(digests) == 1

    def test_failing_point_is_named(self):
        spec = SweepSpec(
            plane="line_ff",
            x_axis=AxisSpec(2.0e-3, 2.0e-3, 1),
            fixed={"lambda_bb": 1.0e-3, "lambda_bf": 0.0},
        )
        with pytest.raises(SweepError, match="point 0"):
            entropy_scan(_broken_blocks(), spec)


def _spectrum(blocks, lambda_bb, lambda_ff, lambda_bf):
    """Full eigh of H, taken on H - shift * I (shift = mean diagonal of h0) so
    that its rounding scales with the spread of the spectrum, not its offset."""
    shift = np.mean(np.diag(blocks.h0))
    h = (blocks.h0 - shift * np.eye(blocks.basis.dim) + lambda_bb * blocks.h_bb
         + lambda_ff * blocks.h_ff + lambda_bf * blocks.h_bf)
    energies, vectors = np.linalg.eigh(h)
    return energies + shift, vectors


def _lowest_eigenpair(blocks, lambda_bb, lambda_ff, lambda_bf):
    energies, vectors = _spectrum(blocks, lambda_bb, lambda_ff, lambda_bf)
    return energies[1] - energies[0] < 1.0e-12, vectors[:, 0]


def _assert_plane_matches_oracle(blocks, spec):
    """Fidelity, flags and gaps of every cell against a per-cell full eigh."""
    surface = fidelity_map(blocks, spec)
    _, ref = _lowest_eigenpair(blocks, *spec.reference.as_dict().values())
    for i, x in enumerate(surface.x_values):
        for j, y in enumerate(surface.y_values):
            p = spec.couplings_at(x, y)
            energies, vectors = _spectrum(blocks, p.lambda_bb, p.lambda_ff, p.lambda_bf)
            gap = energies[1] - energies[0]
            assert surface.degenerate[i, j] == (gap < 1.0e-12)
            if gap >= 1.0e-12:  # a degenerate cell has no one ground vector
                assert surface.fidelity[i, j] == pytest.approx(
                    min(abs(vectors[:, 0] @ ref), 1.0), abs=1.0e-12)
            assert surface.gap[i, j] == pytest.approx(gap, abs=1.0e-12)


def _assert_line_matches_oracle(blocks, spec):
    """Entropies and flags of every point against a per-point full eigh."""
    basis = blocks.basis
    curve = entropy_scan(blocks, spec)
    for k, x in enumerate(curve.lambda_ff):
        degenerate, v = _lowest_eigenpair(blocks, spec.fixed["lambda_bb"], x,
                                          spec.fixed["lambda_bf"])
        schmidt = np.linalg.svd(v.reshape(basis.boson_dim, basis.fermion_dim),
                                compute_uv=False) ** 2
        schmidt = schmidt[schmidt > 1.0e-14]
        expected = float(-np.sum(schmidt * np.log2(schmidt)))
        assert curve.entropy[k] == pytest.approx(expected, abs=1.0e-12)
        assert curve.degenerate[k] == degenerate


class TestAgainstPerCellOracle:
    """The batched kernel against a plain per-cell loop, over several chunks."""

    def test_fidelity_plane(self, coarse_context):
        spec = plane_spec(AxisSpec(0.0, 2.0e-3, 121), AxisSpec(0.0, 3.0e-3, 71))
        assert 121 * 71 > 2 * CHUNK_CELLS
        _assert_plane_matches_oracle(coarse_context.blocks, spec)

    def test_entropy_line(self, coarse_context):
        spec = SweepSpec(
            plane="line_ff",
            x_axis=AxisSpec(0.0, 1.0e-2, CHUNK_CELLS + 77),
            fixed={"lambda_bb": 1.0e-3, "lambda_bf": 9.0e-3},
        )
        _assert_line_matches_oracle(coarse_context.blocks, spec)


# Ground-state entropies on the phase_maps geometry and line (bb = bf = 5e-4)
# at lambda_ff = 0, 1e-4, 2e-4, 3e-4, from a 40-digit mpmath diagonalization
# of the same float64 blocks.  tests/make_pins.py regenerates them.
PHASE_MAPS_LINE_ENTROPIES = [0.16428591012064345, 0.15595815149235115,
                             0.14776221310745716, 0.13973059976418567]


class TestSymmetrySectors:
    """Sweeps solve per symmetry sector; these pin what that must not change."""

    def test_ground_state_in_a_t0_sector(self, coarse_context):
        # Lowering every fermion-T0 state puts the ground state in a T0 sector,
        # not in the largest (even singlet) one.
        blocks = coarse_context.blocks
        basis = blocks.basis
        t0 = [basis.index_of(b, "T0") for b in basis.boson_labels]
        p_t0 = np.zeros((basis.dim, basis.dim))
        p_t0[t0, t0] = 1.0
        lowered = HamiltonianBlocks(basis=basis, h0=blocks.h0 - 1.0e-2 * p_t0,
                                    h_bb=blocks.h_bb, h_ff=blocks.h_ff, h_bf=blocks.h_bf)
        spec = plane_spec(AxisSpec(0.0, 2.0e-3, 9), AxisSpec(0.0, 3.0e-3, 7))
        _assert_plane_matches_oracle(lowered, spec)

        h = lowered.compose(CouplingParams(1.0e-3, 1.0e-3, 2.0e-3))
        gs = ground_state(h)
        _, gap, _, _, _ = h.sectors.ground_states(h.couplings[None])
        others = np.setdiff1d(np.arange(basis.dim), t0)
        assert np.all(gs.vector[others] == 0.0)
        energies, vectors = _spectrum(lowered, 1.0e-3, 1.0e-3, 2.0e-3)
        assert gs.energy == pytest.approx(energies[0], abs=1.0e-12)
        assert gap[0] == pytest.approx(energies[1] - energies[0], abs=1.0e-12)
        assert abs(gs.vector @ vectors[:, 0]) == pytest.approx(1.0, abs=1.0e-12)

    def test_mirror_breaking_coupling_names_the_first_cell(self, coarse_context):
        blocks = coarse_context.blocks
        lopsided = blocks.h_bf.copy()
        lopsided[0, 1] += 1.0
        lopsided[1, 0] += 1.0
        broken = HamiltonianBlocks(basis=blocks.basis, h0=blocks.h0, h_bb=blocks.h_bb,
                                   h_ff=blocks.h_ff, h_bf=lopsided)
        # The reference is solved on the same projection, so at lambda_bf > 0
        # it is refused first, named by its couplings; at lambda_bf = 0 the
        # cells are reached.
        axes = AxisSpec(0.0, 1.0e-3, 2), AxisSpec(0.0, 1.0e-3, 3)
        with pytest.raises(SweepError, match=(
                r"fidelity reference failed at lambda_bb=0\.0005, lambda_ff=0\.0005, "
                r"lambda_bf=0\.0005: InvariantError: .*couples symmetry sectors")):
            fidelity_map(broken, plane_spec(*axes))
        spec = plane_spec(*axes, reference=CouplingParams(5.0e-4, 5.0e-4, 0.0))
        with pytest.raises(SweepError, match=r"cell \(0, 1\), x=0\.0, y=0\.0005"):
            fidelity_map(broken, spec)

    def test_four_state_plane_matches_oracle(self, config_factory):
        context = build_context(config_factory(**{
            "grid.n_points": 801, "model.fermion_basis": "paper_four_state"}))
        spec = plane_spec(AxisSpec(0.0, 2.0e-3, 11), AxisSpec(0.0, 3.0e-3, 9))
        _assert_plane_matches_oracle(context.blocks, spec)


    @pytest.mark.parametrize("spin_sector", [1, -1])
    def test_spin_polarized_sweeps_match_oracle(self, config_factory, spin_sector):
        # One LR fermion pair of parallel spins: sectors of 2 and 1 states.
        blocks = build_context(config_factory(**{
            "grid.n_points": 801, "model.spin_sector": spin_sector})).blocks
        assert [q.shape[1] for q in blocks.sectors.sectors] == [2, 1]
        spec = plane_spec(AxisSpec(0.0, 2.0e-3, 11), AxisSpec(0.0, 3.0e-3, 9))
        _assert_plane_matches_oracle(blocks, spec)
        _assert_line_matches_oracle(blocks, SweepSpec(
            plane="line_ff", x_axis=AxisSpec(0.0, 1.0e-2, 21),
            fixed={"lambda_bb": 1.0e-3, "lambda_bf": 9.0e-3}))

    def test_entropies_match_an_extended_precision_solve(self, config_factory):
        # A full 12x12 eigh misses the third of PHASE_MAPS_LINE_ENTROPIES by
        # 1.2e-12, because its rounding scales with the spectrum's offset
        # (about 4.35) rather than its spread (about 0.02).
        context = build_context(config_factory(**{
            "potential.separation": 1.65, "potential.smoothing": 0.12}))
        spec = SweepSpec(plane="line_ff", x_axis=AxisSpec(0.0, 3.0e-4, 4),
                         fixed={"lambda_bb": 5.0e-4, "lambda_bf": 5.0e-4})
        curve = entropy_scan(context.blocks, spec)
        np.testing.assert_allclose(curve.entropy, PHASE_MAPS_LINE_ENTROPIES,
                                   rtol=0.0, atol=1.0e-13)


class TestFidelitySusceptibility:
    """Near the reference, 1 - F = chi_F * delta^2 / 2 to leading order, with
    chi_F = sum_{n != 0} |<n| dH/dlambda |0>|^2 / (E_n - E_0)^2 taken from the
    reference eigendecomposition alone (Zanardi & Paunkovic, PRE 74, 031123)."""

    @pytest.fixture(scope="class")
    def phase_maps_blocks(self, config_factory):
        return build_context(config_factory(**{
            "potential.separation": 1.65, "potential.smoothing": 0.12})).blocks

    @pytest.mark.parametrize("axis", ["lambda_ff", "lambda_bf"])
    def test_one_minus_fidelity_matches_susceptibility(self, phase_maps_blocks, axis):
        blocks = phase_maps_blocks
        energies, vectors = _spectrum(blocks, REF.lambda_bb, REF.lambda_ff, REF.lambda_bf)
        dh = {"lambda_ff": blocks.h_ff, "lambda_bf": blocks.h_bf}[axis]
        elements = vectors.T @ dh @ vectors[:, 0]
        chi = float(np.sum(elements[1:] ** 2 / (energies[1:] - energies[0]) ** 2))
        errors = []
        for delta in (1.0e-5, 3.0e-5):
            x = REF.lambda_ff + (delta if axis == "lambda_ff" else 0.0)
            y = REF.lambda_bf + (delta if axis == "lambda_bf" else 0.0)
            surface = fidelity_map(blocks, plane_spec(AxisSpec(x, x, 1), AxisSpec(y, y, 1)))
            predicted = 0.5 * chi * delta**2
            errors.append(abs((1.0 - surface.fidelity[0, 0]) - predicted) / predicted)
        assert errors[0] < 0.02
        assert errors[0] < errors[1]


def test_ground_energy_slopes_match_hellmann_feynman():
    # dE0/dlambda_k = <0|h_k|0>: central differences of the sweep kernel's
    # energies against the expectation of each coupling term in the kernel's
    # own ground vectors, at 8 seeded cells of the phase_maps cube.
    text = resources.files("dwmix").joinpath("presets/phase_maps.cfg").read_text()
    blocks = build_context(parse_config(text)).blocks
    cells = np.random.default_rng(20261019).uniform(0.0, 1.0e-3, size=(8, 3))
    _, _, degenerate, vectors, _ = blocks.sectors.ground_states(cells)
    assert not degenerate.any()
    step = 1.0e-6
    for k, term in enumerate((blocks.h_bb, blocks.h_ff, blocks.h_bf)):
        shift = step * np.eye(3)[k]
        slope = (blocks.sectors.ground_states(cells + shift)[0]
                 - blocks.sectors.ground_states(cells - shift)[0]) / (2.0 * step)
        expectation = np.einsum("ni,ij,nj->n", vectors, term, vectors)
        np.testing.assert_allclose(slope, expectation, rtol=1.0e-6, atol=0.0)

def test_unsolved_cell_is_named():
    # Builds its own context, so that it also runs under python -O below.
    context = build_context(RunConfig.default().replace_values(**{"grid.n_points": 801}))
    blocks = doctor_cached_projection(context.blocks)
    spec = plane_spec(AxisSpec(0.0, 1.0e-3, 2), AxisSpec(0.0, 1.0e-3, 3))
    with pytest.raises(SweepError, match=r"cell \(0, 1\).*residual"):
        fidelity_map(blocks, spec)


def test_unsolved_cell_is_named_under_optimize(run_python):
    proc = run_python("-O", "-c", "from test_sweep import test_unsolved_cell_is_named as t; t()")
    assert proc.returncode == 0, proc.stderr


def test_failing_cell_is_named_under_optimize(run_python):
    # python -O strips assert statements; the symmetry check must not be one.
    proc = run_python("-O", "-c", "from test_sweep import TestFidelityMap; "
                      "TestFidelityMap().test_failing_cell_is_named()")
    assert proc.returncode == 0, proc.stderr


# Bytes one chunk's solve may allocate at its peak.  CHUNK_CELLS was chosen
# against this budget: tracemalloc reads about 950 B per cell (3.72 MiB at
# 4096 cells, 1.88 MiB at 2048, 7.26 MiB at 8192), so a kernel change that
# grows the working set fails here before it shows in a run's peak RSS.
CHUNK_WORKING_SET_BUDGET = 4 * 2**20


def test_chunk_working_set_stays_in_budget():
    text = resources.files("dwmix").joinpath("presets/phase_maps.cfg").read_text()
    side = math.isqrt(CHUNK_CELLS - 1) + 1
    config = parse_config(text).replace_values(
        **{"sweep.x_count": side, "sweep.y_count": side})
    context = build_context(config)
    couplings = _fidelity_spec(config).coupling_rows()[:CHUNK_CELLS]
    sectors = context.blocks.sectors
    tracemalloc.start()
    try:
        sectors.ground_states(couplings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHUNK_WORKING_SET_BUDGET, (
        f"{CHUNK_CELLS} cells peaked at {peak} B, budget {CHUNK_WORKING_SET_BUDGET} B")
