"""End-to-end command-line runs, exercised in process through main()."""

import hashlib
import json
import math

import numpy as np
import pytest

from conftest import doctor_cached_projection
from dwmix import cli
from dwmix.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_MODEL, EXIT_OK, PRESET_NAMES, build_parser, main
from dwmix.manybody import FERMION_VARIANTS, SectorBlocks
from dwmix.sweep import PLANE_AXES

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
        ("validate-config", "grid.n_points = 5", "grid.n_points must be odd and at least 7"),
        ("solve-modes", "grid.n_points = 800", "grid.n_points must be odd and at least 7"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, command, line, message):
        # A case that sets the grid replaces the coarse one (keys may not repeat).
        base = "" if line.startswith("grid.n_points") else COARSE
        cfg = write_cfg(tmp_path, base + "dynamics.n_samples = 64\n" + line + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

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
