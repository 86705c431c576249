"""Coupling-plane sweeps: spec validation, determinism, and flag plumbing."""

import hashlib
import json
import math
import os
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (doctor_cached_blocks, doctored, model_terms, partial_trace_entropies,
                      preset_config, preset_context)
from dwmix import manifest
from dwmix.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, _fidelity_spec, main
from dwmix.config import COUPLING_NAMES, PLANE_AXES, RunConfig
from dwmix.errors import ConfigError, InvariantError, SweepError
from dwmix.manybody import (
    CouplingParams,
    HamiltonianBlocks,
    enumerate_bases,
    ground_state,
)
from dwmix.model import build_context
from dwmix.sweep import (
    CHUNK_CELLS,
    AxisSpec,
    FidelitySurface,
    SweepSpec,
    entropy_scan,
    fidelity_map,
)

REF = CouplingParams(lambda_bb=5.0e-4, lambda_ff=5.0e-4, lambda_bf=5.0e-4)


def _broken_blocks():
    """A coarse model's blocks, doctored in their lambda_ff term.

    Their ground pairs fail the residual check only where lambda_ff is
    nonzero, which keeps the reference solve alive while every swept cell
    raises.  Builds its own model, so that it also runs under python -O.
    """
    context = build_context(RunConfig.default().replace_values(**{"grid.n_points": 801}))
    return doctored(context.blocks, term=COUPLING_NAMES.index("lambda_ff"))


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
        basis = enumerate_bases(0)
        zeros = np.zeros((basis.dim, basis.dim))
        flat = HamiltonianBlocks.project(basis, zeros, (zeros,) * 3)
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


def _spectrum(terms, lambda_bb, lambda_ff, lambda_bf):
    """Full eigh of H from its full terms (h0, h_bb, h_ff, h_bf), taken on
    H - shift * I (shift = mean diagonal of h0) so that its rounding scales
    with the spread of the spectrum, not its offset."""
    h0, h_bb, h_ff, h_bf = terms
    shift = np.mean(np.diag(h0))
    h = (h0 - shift * np.eye(len(h0)) + lambda_bb * h_bb
         + lambda_ff * h_ff + lambda_bf * h_bf)
    energies, vectors = np.linalg.eigh(h)
    return energies + shift, vectors


def _lowest_eigenpair(terms, lambda_bb, lambda_ff, lambda_bf):
    energies, vectors = _spectrum(terms, lambda_bb, lambda_ff, lambda_bf)
    return energies[1] - energies[0] < 1.0e-12, vectors[:, 0]


def _assert_plane_matches_oracle(blocks, terms, spec):
    """Fidelity, flags and gaps of every cell of a map on ``blocks`` against a
    per-cell full eigh of the terms they project."""
    surface = fidelity_map(blocks, spec)
    _, ref = _lowest_eigenpair(terms, *spec.reference.as_dict().values())
    for i, x in enumerate(surface.x_values):
        for j, y in enumerate(surface.y_values):
            p = spec.couplings_at(x, y)
            energies, vectors = _spectrum(terms, p.lambda_bb, p.lambda_ff, p.lambda_bf)
            gap = energies[1] - energies[0]
            assert surface.degenerate[i, j] == (gap < 1.0e-12)
            if gap >= 1.0e-12:  # a degenerate cell has no one ground vector
                assert surface.fidelity[i, j] == pytest.approx(
                    min(abs(vectors[:, 0] @ ref), 1.0), abs=1.0e-12)
            assert surface.gap[i, j] == pytest.approx(gap, abs=1.0e-12)


def _assert_line_matches_oracle(blocks, terms, spec):
    """Entropies and flags of every point of a line on ``blocks`` against a
    per-point full eigh of the terms they project; a degenerate point has no
    one ground vector, so only its flag is checked."""
    basis = blocks.basis
    curve = entropy_scan(blocks, spec)
    for k, x in enumerate(curve.lambda_ff):
        degenerate, v = _lowest_eigenpair(terms, spec.fixed["lambda_bb"], x,
                                          spec.fixed["lambda_bf"])
        schmidt = np.linalg.svd(v.reshape(basis.boson_dim, basis.fermion_dim),
                                compute_uv=False) ** 2
        schmidt = schmidt[schmidt > 1.0e-14]
        expected = float(-np.sum(schmidt * np.log2(schmidt)))
        assert curve.degenerate[k] == degenerate
        if not degenerate:
            assert curve.entropy[k] == pytest.approx(expected, abs=1.0e-12)


class TestAgainstPerCellOracle:
    """The batched kernel against a plain per-cell loop, over several chunks."""

    def test_fidelity_plane(self, coarse_context):
        spec = plane_spec(AxisSpec(0.0, 2.0e-3, 121), AxisSpec(0.0, 3.0e-3, 71))
        assert 121 * 71 > 2 * CHUNK_CELLS
        _assert_plane_matches_oracle(coarse_context.blocks, model_terms(coarse_context), spec)

    def test_entropy_line(self, coarse_context):
        spec = SweepSpec(
            plane="line_ff",
            x_axis=AxisSpec(0.0, 1.0e-2, CHUNK_CELLS + 77),
            fixed={"lambda_bb": 1.0e-3, "lambda_bf": 9.0e-3},
        )
        _assert_line_matches_oracle(coarse_context.blocks, model_terms(coarse_context), spec)


# Ground-state entropies on the phase_maps geometry and line (bb = bf = 5e-4)
# at lambda_ff = 0, 1e-4, 2e-4, 3e-4, from a 40-digit mpmath diagonalization
# of the same float64 blocks.  tests/make_pins.py regenerates them.
PHASE_MAPS_LINE_ENTROPIES = [0.1642859101205477, 0.15595815149225672,
                             0.14776221310736445, 0.13973059976409508]


class TestSymmetrySectors:
    """Sweeps solve per symmetry sector; these pin what that must not change."""

    def test_ground_state_in_a_t0_sector(self, coarse_context):
        # Lowering every fermion-T0 state puts the ground state in a T0 sector,
        # not in the largest (even singlet) one.
        basis = coarse_context.basis
        h0, *couplings = model_terms(coarse_context)
        t0 = [basis.index_of(b, "T0") for b in basis.boson_labels]
        p_t0 = np.zeros((basis.dim, basis.dim))
        p_t0[t0, t0] = 1.0
        terms = (h0 - 1.0e-2 * p_t0, *couplings)
        lowered = HamiltonianBlocks.project(basis, terms[0], terms[1:])
        spec = plane_spec(AxisSpec(0.0, 2.0e-3, 9), AxisSpec(0.0, 3.0e-3, 7))
        _assert_plane_matches_oracle(lowered, terms, spec)

        h = lowered.compose(CouplingParams(1.0e-3, 1.0e-3, 2.0e-3))
        gs = ground_state(h)
        _, gap, _, _, _ = h.blocks.ground_states(h.couplings[None])
        others = np.setdiff1d(np.arange(basis.dim), t0)
        assert np.all(gs.vector[others] == 0.0)
        energies, vectors = _spectrum(terms, 1.0e-3, 1.0e-3, 2.0e-3)
        assert gs.energy == pytest.approx(energies[0], abs=1.0e-12)
        assert gap[0] == pytest.approx(energies[1] - energies[0], abs=1.0e-12)
        assert abs(gs.vector @ vectors[:, 0]) == pytest.approx(1.0, abs=1.0e-12)

    @pytest.mark.parametrize("spin_sector", [1, -1])
    def test_spin_polarized_sweeps_match_oracle(self, config_factory, spin_sector):
        # One LR fermion pair of parallel spins: sectors of 2 and 1 states.
        context = build_context(config_factory(**{
            "grid.n_points": 801, "model.spin_sector": spin_sector}))
        blocks, terms = context.blocks, model_terms(context)
        assert [q.shape[1] for q in blocks.basis.sectors] == [2, 1]
        spec = plane_spec(AxisSpec(0.0, 2.0e-3, 11), AxisSpec(0.0, 3.0e-3, 9))
        _assert_plane_matches_oracle(blocks, terms, spec)
        _assert_line_matches_oracle(blocks, terms, SweepSpec(
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
    def phase_maps_context(self, config_factory):
        return build_context(config_factory(**{
            "potential.separation": 1.65, "potential.smoothing": 0.12}))

    @pytest.mark.parametrize("axis", COUPLING_NAMES)
    def test_one_minus_fidelity_matches_susceptibility(self, phase_maps_context, axis):
        blocks, terms = phase_maps_context.blocks, model_terms(phase_maps_context)
        energies, vectors = _spectrum(terms, REF.lambda_bb, REF.lambda_ff, REF.lambda_bf)
        dh = terms[1 + COUPLING_NAMES.index(axis)]
        elements = vectors.T @ dh @ vectors[:, 0]
        chi = float(np.sum(elements[1:] ** 2 / (energies[1:] - energies[0]) ** 2))
        # lambda_bb is swept on the bb_bf plane, the others on ff_bf.
        plane = "bb_bf" if axis == "lambda_bb" else "ff_bf"
        x_name, y_name, (fixed_name,) = PLANE_AXES[plane]
        errors = []
        for delta in (1.0e-5, 3.0e-5):
            cell = REF.as_dict()
            cell[axis] += delta
            spec = SweepSpec(
                plane=plane,
                x_axis=AxisSpec(cell[x_name], cell[x_name], 1),
                y_axis=AxisSpec(cell[y_name], cell[y_name], 1),
                fixed={fixed_name: cell[fixed_name]},
                reference=REF,
            )
            surface = fidelity_map(blocks, spec)
            predicted = 0.5 * chi * delta**2
            errors.append(abs((1.0 - surface.fidelity[0, 0]) - predicted) / predicted)
        assert errors[0] < 0.02
        assert errors[0] < errors[1]


def test_ground_energy_slopes_match_hellmann_feynman():
    # dE0/dlambda_k = <0|h_k|0>: central differences of the sweep kernel's
    # energies against the expectation of each coupling term in the kernel's
    # own ground vectors, at 8 seeded cells of the phase_maps cube.
    context = preset_context("phase_maps")
    blocks = context.blocks
    cells = np.random.default_rng(20261019).uniform(0.0, 1.0e-3, size=(8, 3))
    _, _, degenerate, vectors, _ = blocks.ground_states(cells)
    assert not degenerate.any()
    step = 1.0e-6
    for k, term in enumerate(model_terms(context)[1:]):
        shift = step * np.eye(3)[k]
        slope = (blocks.ground_states(cells + shift)[0]
                 - blocks.ground_states(cells - shift)[0]) / (2.0 * step)
        expectation = np.einsum("ni,ij,nj->n", vectors, term, vectors)
        np.testing.assert_allclose(slope, expectation, rtol=1.0e-6, atol=0.0)

def test_unsolved_cell_is_named():
    # Builds its own context, so that it also runs under python -O below.
    context = build_context(RunConfig.default().replace_values(**{"grid.n_points": 801}))
    blocks = doctor_cached_blocks(context)
    spec = plane_spec(AxisSpec(0.0, 1.0e-3, 2), AxisSpec(0.0, 1.0e-3, 3))
    with pytest.raises(SweepError, match=r"cell \(0, 1\).*residual"):
        fidelity_map(blocks, spec)


def test_unsolved_cell_is_named_under_optimize(run_python):
    proc = run_python("-O", "-c", "from test_sweep import test_unsolved_cell_is_named as t; t()")
    assert proc.returncode == 0, proc.stderr


def test_failing_cell_is_named_under_optimize(run_python):
    # python -O strips assert statements; the residual check must not be one.
    proc = run_python("-O", "-c", "from test_sweep import TestFidelityMap; "
                      "TestFidelityMap().test_failing_cell_is_named()")
    assert proc.returncode == 0, proc.stderr


# A plane of three chunks, an odd count: the caller solves the first two
# and a forked child the last, of SPLIT_LAST_ROWS cells.
SPLIT_SIDE = 91
SPLIT_LAST_ROWS = SPLIT_SIDE**2 % CHUNK_CELLS


class TestTwoProcessSplit:
    """A plane of more than one chunk is solved in two processes where two
    CPUs are free, and in one otherwise, with the same bytes.  Only the sweep
    forks: the CSV is written by the caller alone."""

    @pytest.fixture(autouse=True)
    def leaves_nothing(self, tmp_path):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every forked child was reaped
        for out in tmp_path.glob("out-*"):
            assert {p.name for p in out.iterdir()} <= {"fidelity_map.csv", "manifest.json"}

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        """fidelity-map over the split plane on ``cpus`` CPUs: its exit code,
        stderr, output directory and number of forks."""
        cfg = tmp_path / "split.cfg"
        cfg.write_text("grid.n_points = 801\nsweep.plane = ff_bf\nsweep.y_min = 0.0\n"
                       f"sweep.x_count = {SPLIT_SIDE}\nsweep.y_count = {SPLIT_SIDE}\n")
        fork = os.fork
        forks = []

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)

        def run(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"out-{len(list(tmp_path.glob('out-*')))}"
            forks.clear()
            code = main(["fidelity-map", "--config", str(cfg), "--out", str(out)])
            return code, capsys.readouterr().err, out, len(forks)

        return run

    @pytest.fixture
    def in_child(self, monkeypatch):
        """Replace ``HamiltonianBlocks.ground_states`` so that on the plane's
        last chunk (on every chunk with ``everywhere``) it runs
        ``action(blocks, couplings)`` first, and solves on the blocks that
        returns, if any."""
        solve = HamiltonianBlocks.ground_states

        def install(action, everywhere=False):
            def ground_states(blocks, couplings):
                if everywhere or len(couplings) == SPLIT_LAST_ROWS:
                    blocks = action(blocks, couplings) or blocks
                return solve(blocks, couplings)

            monkeypatch.setattr(HamiltonianBlocks, "ground_states", ground_states)

        return install

    def test_inline_and_forked_runs_match(self, run):
        assert math.ceil(SPLIT_SIDE**2 / CHUNK_CELLS) == 3
        forked, inline = run(2), run(1)
        assert forked[0] == inline[0] == EXIT_OK
        assert (forked[3], inline[3]) == (1, 0)  # the sweep's fork alone
        csv, manifests = [], []
        for _, _, out, _ in (forked, inline):
            csv.append((out / "fidelity_map.csv").read_bytes())
            manifests.append(json.loads((out / "manifest.json").read_text())["results"])
        assert csv[0] == csv[1]
        assert manifests[0] == manifests[1]
        assert csv[0].count(b"\n") == SPLIT_SIDE**2 + 1

    def test_failed_fork_runs_inline(self, run, monkeypatch):
        forked = run(2)

        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        unforked = run(2)
        assert forked[0] == unforked[0] == EXIT_OK
        assert ((forked[2] / "fidelity_map.csv").read_bytes()
                == (unforked[2] / "fidelity_map.csv").read_bytes())

    def test_failing_cell_in_child_is_named_as_inline(self, run, in_child):
        # The doctored blocks fail wherever lambda_bf, the y axis, is nonzero:
        # first at the last chunk's first row (y index 2).
        in_child(lambda blocks, couplings: doctored(blocks))
        forked, inline = run(2), run(1)
        i, j = divmod(2 * CHUNK_CELLS, SPLIT_SIDE)
        assert forked[0] == inline[0] == EXIT_INTERNAL
        assert forked[1] == inline[1]
        assert f"fidelity sweep failed at cell ({i}, {j}), x=" in forked[1]
        assert "InvariantError" in forked[1] and "residual" in forked[1]

    def test_caller_error_comes_first(self, run, in_child):
        # Every chunk fails, so the child is killed while the caller raises
        # for the first failing cell, (0, 1), as the inline run does.
        in_child(lambda blocks, couplings: doctored(blocks), everywhere=True)
        forked, inline = run(2), run(1)
        assert forked[0] == inline[0] == EXIT_INTERNAL
        assert forked[1] == inline[1]
        assert "fidelity sweep failed at cell (0, 1), x=0.0, y=" in forked[1]

    def test_killed_sweep_child_raises(self, run, in_child):
        parent = os.getpid()
        in_child(lambda blocks, couplings:
                 os.getpid() != parent and os.kill(os.getpid(), signal.SIGKILL))
        code, err, out, forks = run(2)
        assert (code, forks) == (EXIT_INTERNAL, 1)
        assert "died of SIGKILL without a result" in err
        assert not any(out.iterdir())

    def test_three_chunk_map_forks_once(self, coarse_context, tmp_path, monkeypatch):
        # One fork solves the last chunk; writing the map's CSV forks none.
        fork = os.fork
        forks = []

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", counted_fork)
        axis = AxisSpec(0.0, 1.0e-3, SPLIT_SIDE)
        surface = fidelity_map(coarse_context.blocks, plane_spec(axis, axis))
        assert len(forks) == 1
        path = manifest.write_fidelity_csv(tmp_path / "fidelity_map.csv", surface)
        assert len(forks) == 1
        assert path.read_bytes().count(b"\n") == SPLIT_SIDE**2 + 1

    def test_child_warning_reaches_caller(self, coarse_context, in_child, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child(lambda blocks, couplings: warnings.warn(
            f"last chunk solved in process {os.getpid()}", UserWarning, stacklevel=1))
        axis = AxisSpec(0.0, 1.0e-3, SPLIT_SIDE)
        with pytest.warns(UserWarning, match="last chunk solved in process") as caught:
            fidelity_map(coarse_context.blocks, plane_spec(axis, axis))
        assert len(caught) == 1
        assert str(caught[0].message) != f"last chunk solved in process {os.getpid()}"

    def test_unpicklable_child_error_is_an_invariant_error(self, coarse_context, in_child,
                                                          monkeypatch):
        class Local(Exception):
            pass

        def fail(blocks, couplings):
            raise Local("not importable")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child(fail)
        axis = AxisSpec(0.0, 1.0e-3, SPLIT_SIDE)
        with pytest.raises(InvariantError, match="raised Local: not importable"):
            fidelity_map(coarse_context.blocks, plane_spec(axis, axis))


# Bytes one chunk's solve may allocate at its peak.  CHUNK_CELLS was chosen
# against this budget: tracemalloc reads about 950 B per cell (3.72 MiB at
# 4096 cells, 1.86 MiB at 2048, 7.26 MiB at 8192), so a kernel change that
# grows the working set fails here before it shows in a run's peak RSS.
CHUNK_WORKING_SET_BUDGET = 4 * 2**20


def test_chunk_working_set_stays_in_budget():
    side = math.isqrt(CHUNK_CELLS - 1) + 1
    config = preset_config("phase_maps", {"sweep.x_count": side, "sweep.y_count": side})
    context = build_context(config)
    couplings = _fidelity_spec(config).coupling_rows()[:CHUNK_CELLS]
    blocks = context.blocks
    tracemalloc.start()
    try:
        blocks.ground_states(couplings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHUNK_WORKING_SET_BUDGET, (
        f"{CHUNK_CELLS} cells peaked at {peak} B, budget {CHUNK_WORKING_SET_BUDGET} B")


# Bytes that writing a 256x256 map's CSV may allocate at its peak.  The
# writer holds one block of manifest.WRITE_BLOCK_CELLS rows at a time
# (tracemalloc reads 0.68 MB, 0.76 MB when the write first builds the digit
# table), so a change that holds the whole map fails here before it shows in
# a run's peak RSS.
WRITE_BUDGET = 2 * 2**20


def test_map_write_stays_in_budget(tmp_path):
    axis = AxisSpec(0.0, 1.0e-3, 256).values()
    rng = np.random.default_rng(7)
    fidelity = 1.0 - rng.uniform(0.0, 0.04, (256, 256))
    fidelity[0, 0] = 1.0
    surface = FidelitySurface(
        x_values=axis, y_values=axis, fidelity=fidelity,
        degenerate=np.zeros((256, 256), dtype=bool), gap=fidelity,
        max_residual=0.0, reference_energy=0.0)
    tracemalloc.start()
    try:
        manifest.write_fidelity_csv(tmp_path / "fidelity_map.csv", surface)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WRITE_BUDGET, (
        f"a 256x256 map's write peaked at {peak} B, budget {WRITE_BUDGET} B")
