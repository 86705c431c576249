"""End-to-end command-line runs, exercised in process through main()."""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from conftest import doctor_cached_projection
from dwmix import cli, dynamics, model
from dwmix.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_MODEL, EXIT_OK, PRESET_NAMES, build_parser, main
from dwmix.config import FERMION_VARIANTS, PLANE_AXES, RunConfig
from dwmix.manybody import SectorBlocks

COARSE = "grid.n_points = 801\n"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


class TestSolveModes:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COARSE)
        out = tmp_path / "out"
        assert main(["solve-modes", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for name in ("modes_boson.csv", "modes_fermion.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["omega_1_boson"] > 0.0
        assert "wrote" in capsys.readouterr().out

    def test_plot_flag_emits_script_only(self, tmp_path):
        cfg = write_cfg(tmp_path, COARSE)
        out = tmp_path / "out"
        assert main(["solve-modes", "--config", cfg, "--out", str(out),
                     "--plot"]) == EXIT_OK
        script = out / "plot_modes.py"
        assert script.exists()
        assert "matplotlib" in script.read_text()
        assert not list(out.glob("*.png"))


class TestExitCodes:
    def test_overlapping_wells(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COARSE + "potential.separation = 0.5\n")
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_vanishing_depth_is_a_model_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COARSE + "potential.depth = 0.0\n")
        assert main(["validate-config", "--config", cfg]) == EXIT_MODEL
        assert "model validity error" in capsys.readouterr().err

    def test_unknown_key_suggestion(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "couplings.lamda_bb = 1e-4\n")
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert "did you mean" in capsys.readouterr().err

    def test_negative_coupling(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COARSE + "couplings.lambda_bb = -1.0\n")
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, message", [
        ("validate-config", "species.boson_mass_amu = 172.0",
         "species.fermion_mass_amu = 171.0 is below species.boson_mass_amu = 172.0"),
        ("validate-config", "species.boson_mass_amu = -1.0",
         "species.boson_mass_amu must be positive"),
        ("evolve", "model.min_gap_ratio = nan", "model.min_gap_ratio must be finite"),
        ("validate-config", "grid.x_max = nan", "grid.x_max must be finite"),
        ("evolve", "dynamics.periods = nan", "dynamics.periods must be finite"),
        ("validate-config", "sweep.reference_bb = -1.0",
         "sweep.reference_bb must be non-negative"),
        ("validate-config", "grid.x_max = 0.5", "grid.x_max = 0.5 does not contain the wells"),
        ("validate-config", "potential.well_width = 0", "potential.well_width must be positive"),
        ("validate-config", "potential.separation = -1", "potential.separation must be positive"),
        ("validate-config", "potential.depth = -1", "potential.depth must be non-negative"),
        ("validate-config", "potential.smoothing = -0.01",
         "potential.smoothing must be non-negative"),
        ("validate-config", "potential.separation = 1.0",
         "potential.separation = 1.0 must exceed potential.well_width = 1.2"),
        ("solve-modes", "potential.smoothing = 0.5", "potential.smoothing = 0.5 must be below"),
        ("validate-config", "potential.shape = quartic\npotential.minimum_pos = 0",
         "potential.minimum_pos must be positive"),
        ("evolve", "potential.shape = quartic\npotential.barrier = 0",
         "potential.barrier must be positive"),
        ("validate-config", "grid.n_points = 5", "grid.n_points must be odd and at least 7"),
        ("solve-modes", "grid.n_points = 800", "grid.n_points must be odd and at least 7"),
        ("validate-config", "sweep.x_min = 1e-3\nsweep.x_max = 0",
         "sweep.x_max = 0.0 is below sweep.x_min = 0.001"),
        ("validate-config", "sweep.x_max = 0.5", "sweep.x_max = 0.5 exceeds 0.1"),
        ("validate-config", "dynamics.periods = 2.0", "dynamics.periods must be at least 3"),
        ("validate-config", "model.fermion_basis = paper_four_state\nmodel.spin_sector = 1",
         "model.spin_sector must be 0 with model.fermion_basis = paper_four_state (got 1)"),
        ("fidelity-map", "sweep.plane = line_ff", "set sweep.plane to one of ff_bf"),
        ("evolve --fermion-basis paper_four_state", "",
         "needs model.fermion_basis = antisymmetric and model.spin_sector = 0 "
         "(got paper_four_state and 0)"),
        ("evolve", "model.spin_sector = 1", "(got antisymmetric and 1)"),
        # Every key is checked whatever the subcommand reads.
        ("entropy-scan", "sweep.y_min = 5e-3", "sweep.y_max = 0.001 is below sweep.y_min"),
        ("fidelity-map", "dynamics.periods = 2", "dynamics.periods must be at least 3"),
        ("solve-modes", "sweep.line_min = 1e-3\nsweep.line_max = 1e-3",
         "sweep.line_count must be 1 when sweep.line_min equals sweep.line_max (got 101)"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, monkeypatch, capsys, command, line,
                                     message):
        # Each case is refused before any doublet solve.
        solves = []
        solve = model.solve_doublet
        monkeypatch.setattr(model, "solve_doublet",
                            lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
        # A case that sets the grid replaces the coarse one (keys may not repeat).
        base = "" if line.startswith("grid.n_points") else COARSE
        cfg = write_cfg(tmp_path, base + "dynamics.n_samples = 64\n" + line + "\n")
        out = tmp_path / "out"
        assert main([*command.split(), "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert solves == []

    @pytest.mark.parametrize("lines, message", [
        ("grid.x_max = 1.375\n", "must exceed the outer well edge at 1.375"),
        ("potential.shape = quartic\ngrid.x_max = 1.0\n",
         "must exceed the quartic minimum at 1.0"),
    ])
    def test_box_must_contain_the_wells(self, tmp_path, capsys, lines, message):
        cfg = write_cfg(tmp_path, COARSE + lines)
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "grid.x_max" in err and message in err

    @pytest.mark.parametrize("x_range, lines, message", [
        ((-2.0, 2.0), "grid.x_max = 3.0\n",
         "grid.x_max = 3.0 puts the box [-3.0, 3.0] outside the table"),
        ((-3.0, -1.0), "", "grid.x_max = 0.0 derives the box from the table"),
        ((0.5, 3.0), "", "grid.x_max = 0.0 derives the box from the table"),
    ])
    def test_box_must_lie_inside_the_table(self, tmp_path, monkeypatch, capsys, x_range,
                                           lines, message):
        x = np.linspace(*x_range, 41).tolist()
        table = tmp_path / "table.csv"
        table.write_text("x_um,V_xi\n" + "".join(f"{a!r},{a * a!r}\n" for a in x))
        solves = []
        solve = model.solve_doublet
        monkeypatch.setattr(model, "solve_doublet",
                            lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
        cfg = write_cfg(tmp_path, COARSE + "potential.shape = tabulated\n"
                        f"potential.table_path = {table}\n" + lines)
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert f"potential.table_path = {str(table)!r} spans x in [{x[0]!r}, {x[-1]!r}]" in err
        assert solves == []

    @pytest.mark.parametrize("separation", [2.3, 2.6, 3.0])
    def test_unresolvable_splitting_is_a_model_error(self, tmp_path, capsys, separation):
        # On 801 points the splitting guard first fails at separation 2.28.
        cfg = write_cfg(tmp_path, COARSE + f"potential.separation = {separation}\n")
        assert main(["validate-config", "--config", cfg]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert "doublet splitting" in err and "bisection error bound" in err

    def test_unknown_preset_name(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve-modes", "--config", "nosuch", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "nosuch" in capsys.readouterr().err

    def test_four_state_basis_has_no_doubly_occupied_start(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COARSE)
        out = tmp_path / "out"
        code = main(["evolve", "--config", cfg, "--out", str(out),
                     "--fermion-basis", "paper_four_state"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_shipped_presets_validate(self, name, capsys):
        assert main(["validate-config", "--config", name]) == EXIT_OK
        assert "config OK" in capsys.readouterr().out


class TestEvolve:
    def test_uncoupled_run_matches_single_particle_theory(self, tmp_path):
        cfg = write_cfg(tmp_path, COARSE + "dynamics.n_samples = 1024\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        regimes = json.loads((out / "regimes.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        for species, key in (("bosons", "omega_1_boson"),
                             ("fermions", "omega_1_fermion")):
            bare_period = 2.0 * math.pi / manifest["derived"][key]
            assert regimes[species]["damping_estimate"] < 1.0e-3
            assert regimes[species]["period_estimate"] == pytest.approx(
                bare_period, rel=0.01
            )

    def test_entropy_track(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            COARSE
            + "dynamics.n_samples = 64\n"
            + "dynamics.with_entropy = true\n"
            + "couplings.lambda_bf = 2.0e-3\n",
        )
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = read_csv(out / "entropy_t.csv")
        np.testing.assert_allclose(data[:, 1], data[:, 2], atol=1.0e-10)
        assert data[0, 1] == pytest.approx(0.0, abs=1.0e-12)
        assert data[:, 1].max() > 0.0

    def test_entropy_track_leaves_p_rr_unchanged(self, tmp_path):
        # Both evolve branches compute P_RR from the same coefficients.
        text = COARSE + "dynamics.n_samples = 256\n" + "couplings.lambda_bf = 2.0e-3\n"
        digests = []
        for run, extra in (("off", ""), ("on", "dynamics.with_entropy = true\n")):
            cfg = write_cfg(tmp_path, text + extra, name=f"{run}.cfg")
            out = tmp_path / run
            assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
            digests.append([(out / name).read_bytes() for name in ("p_rr.csv", "regimes.json")])
        assert (tmp_path / "on" / "entropy_t.csv").exists()
        assert not (tmp_path / "off" / "entropy_t.csv").exists()
        assert digests[0] == digests[1]

    def test_sector_projection_is_timed(self, tmp_path, monkeypatch):
        # Projecting the blocks onto their sectors is part of a run's work, so
        # one of the manifest's stage timers covers it.
        project = SectorBlocks.project

        def slow(cls, *args):
            time.sleep(0.2)
            return project(*args)

        monkeypatch.setattr(SectorBlocks, "project", classmethod(slow))
        cfg = write_cfg(tmp_path, COARSE + "dynamics.n_samples = 64\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        wall = json.loads((out / "manifest.json").read_text())["wall_time_s"]
        assert wall["build"] + wall["evolve"] >= 0.2


class TestFidelityMap:
    SWEEP = (
        COARSE
        + "sweep.x_count = 3\n"
        + "sweep.y_count = 3\n"
        # pin the off-plane coupling to its reference value so the swept
        # plane actually contains the reference point
        + "couplings.lambda_bb = 5.0e-4\n"
    )

    def test_reference_cell_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP)
        digests = []
        for run, workers in (("a", "1"), ("b", "2"), ("c", "1")):
            out = tmp_path / run
            code = main(["fidelity-map", "--config", cfg, "--out", str(out),
                         "--workers", workers])
            assert code == EXIT_OK
            digests.append(hashlib.sha256((out / "fidelity_map.csv").read_bytes())
                           .hexdigest())
        assert len(set(digests)) == 1
        data = read_csv(tmp_path / "a" / "fidelity_map.csv")
        at_ref = data[(data[:, 0] == 5.0e-4) & (data[:, 1] == 5.0e-4)]
        assert at_ref.shape[0] == 1
        assert abs(at_ref[0, 2] - 1.0) <= 1.0e-12

    def test_manifest_results(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP)
        out = tmp_path / "out"
        assert main(["fidelity-map", "--config", cfg, "--out", str(out)]) == EXIT_OK
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert 0.0 < results["min_fidelity"] <= 1.0
        assert results["degenerate_cells"] == 0
        assert 0.0 < results["max_residual"] < 1.0e-16

    def test_unsolved_cell_exits_internal(self, tmp_path, monkeypatch, capsys):
        build = cli.build_context

        def build_doctored(config):
            context = build(config)
            doctor_cached_projection(context.blocks)
            return context

        monkeypatch.setattr(cli, "build_context", build_doctored)
        cfg = write_cfg(tmp_path, self.SWEEP)
        assert main(["fidelity-map", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_INTERNAL
        assert "cell (0, 1)" in capsys.readouterr().err

    def test_min_gap_matches_oracle(self, tmp_path, coarse_context):
        cfg = write_cfg(tmp_path, self.SWEEP)
        out = tmp_path / "out"
        assert main(["fidelity-map", "--config", cfg, "--out", str(out)]) == EXIT_OK
        results = json.loads((out / "manifest.json").read_text())["results"]
        data = read_csv(out / "fidelity_map.csv")
        blocks = coarse_context.blocks
        gaps = []
        for x, y in data[:, :2]:
            h = blocks.h0 + 5.0e-4 * blocks.h_bb + x * blocks.h_ff + y * blocks.h_bf
            energies = np.linalg.eigvalsh(h)
            gaps.append(energies[1] - energies[0])
        k = int(np.argmin(gaps))
        assert results["min_gap"] == pytest.approx(gaps[k], abs=1.0e-12)
        assert results["min_gap_cell"] == [k // 3, k % 3]

    def test_line_plane_error_names_every_two_axis_plane(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COARSE + "sweep.plane = line_ff\n")
        out = tmp_path / "out"
        assert main(["fidelity-map", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        planes = [name for name, axes in PLANE_AXES.items() if axes[1] is not None]
        assert planes
        for name in planes:
            assert name in err


class TestEntropyScan:
    def test_species_symmetry_and_results(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            COARSE
            + "sweep.plane = line_ff\n"
            + "sweep.line_count = 9\n"
            + "couplings.lambda_bb = 1.0e-3\n"
            + "couplings.lambda_bf = 9.0e-3\n",
        )
        out = tmp_path / "out"
        assert main(["entropy-scan", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = read_csv(out / "entropy_scan.csv")
        np.testing.assert_allclose(data[:, 1], data[:, 2], atol=1.0e-10)
        results = json.loads((out / "manifest.json").read_text())["results"]
        k = int(np.argmax(data[:, 1]))
        assert results["argmax_lambda_ff"] == data[k, 0]
        assert results["min_gap"] > 0.0
        assert 0.0 < results["max_residual"] < 1.0e-16
        assert 0 <= results["min_gap_point"] < 9

    def test_criterion_7_line_peaks_inside(self, tmp_path):
        # The default geometry with these two couplings is the criterion-7
        # line; phase_maps (bb = bf = 5e-4) peaks at the lambda_ff = 0 edge.
        cfg = write_cfg(tmp_path, "couplings.lambda_bb = 1.0e-3\n"
                                  "couplings.lambda_bf = 9.0e-3\n")
        out = tmp_path / "out"
        assert main(["entropy-scan", "--config", cfg, "--out", str(out)]) == EXIT_OK
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results["argmax_lambda_ff"] == 2.8e-3


def _last_above_one(p):
    p[-1] = 1.0 + 1.0e-6
    return p


def _scaled(psi0):
    return 1.001 * psi0


def _last_dropped(p):
    return p[:-1]


def _left_mode_scaled(modes):
    return dataclasses.replace(modes, psi_left=1.001 * modes.psi_left)


@pytest.mark.parametrize("command, module, name, doctor, message", [
    ("evolve", dynamics, "return_probability", _last_above_one,
     "p_rr_bosons leaves [0, 1]"),
    ("evolve", cli, "initial_state_rr", _scaled, "state norm is 1.001000000000, not 1"),
    ("validate-config", model, "solve_doublet", _left_mode_scaled,
     "left mode is not normalized"),
    ("evolve", dynamics, "return_probability", _last_dropped,
     "p_rr_bosons length does not match the time grid"),
], ids=["p_rr_bounds", "psi0_norm", "mode_norm", "p_rr_length"])
def test_broken_invariant_exits_internal(tmp_path, monkeypatch, capsys, command, module,
                                         name, doctor, message):
    # One value doctored on its way out of a library call is an internal fault.
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: doctor(original(*args, **kwargs)))
    cfg = write_cfg(tmp_path, COARSE + "dynamics.n_samples = 64\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error" in err and message in err


@pytest.mark.parametrize("command, projections", [
    ("fidelity-map", 1), ("entropy-scan", 1), ("evolve", 1),
    ("validate-config", 0), ("solve-modes", 0),
])
def test_each_model_is_projected_at_most_once(tmp_path, monkeypatch, command, projections):
    # Every solve of a model reads the one projection its blocks cache.
    calls = []
    project = SectorBlocks.project

    def counted(cls, *args):
        calls.append(command)
        return project(*args)

    monkeypatch.setattr(SectorBlocks, "project", classmethod(counted))
    cfg = write_cfg(tmp_path, TestFidelityMap.SWEEP + "sweep.line_count = 9\n"
                    "dynamics.n_samples = 64\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == projections


@pytest.mark.parametrize("command, overlaps, blocks", [
    ("validate-config", 0, 0), ("solve-modes", 1, 0), ("evolve", 1, 1),
    ("fidelity-map", 1, 1), ("entropy-scan", 1, 1),
])
def test_each_model_builds_only_what_its_run_reads(tmp_path, monkeypatch, command, overlaps,
                                                   blocks):
    # A context builds its overlap tensors and Hamiltonian blocks on first
    # read, through the names in dwmix.model, and keeps them.
    names = ("overlap_tensor", "cross_species_tensor", "hamiltonian_blocks")
    calls = []
    for name in names:
        original = getattr(model, name)
        monkeypatch.setattr(model, name, lambda *args, _name=name, _original=original,
                            **kwargs: calls.append(_name) or _original(*args, **kwargs))
    cfg = write_cfg(tmp_path, TestFidelityMap.SWEEP + "sweep.line_count = 9\n"
                    "dynamics.n_samples = 64\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert [calls.count(name) for name in names] == [2 * overlaps, overlaps, blocks]


@pytest.mark.parametrize("command", [
    "validate-config", "solve-modes", "evolve", "fidelity-map", "entropy-scan",
])
def test_config_is_validated_once_per_run(tmp_path, monkeypatch, command):
    # Once both flags that override a key are applied, where the config is final.
    calls = []
    validate = RunConfig.validate
    monkeypatch.setattr(RunConfig, "validate", lambda self: calls.append(1) or validate(self))
    cfg = write_cfg(tmp_path, TestFidelityMap.SWEEP + "sweep.line_count = 9\n"
                    "dynamics.n_samples = 64\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--fermion-basis", "antisymmetric"]) == EXIT_OK
    assert len(calls) == 1


def test_fermion_basis_choices_are_the_variant_table():
    commands = build_parser()._subparsers._group_actions[0].choices
    for command in commands.values():
        (option,) = [a for a in command._actions if a.dest == "fermion_basis"]
        assert tuple(option.choices) == FERMION_VARIANTS


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.linalg", "numpy.f2py",
                                    "concurrent.futures"])
def test_import_leaves_out(run_python, module):
    # dwmix needs none of these, and each one adds to every cold start.
    proc = run_python("-c", f"import sys, dwmix.cli; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
