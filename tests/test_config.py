"""Parsing, validation, and round-tripping of run configuration text."""

import json
import re
import warnings
from pathlib import Path

import pytest

from dwmix.config import DEFAULTS, RunConfig, load_config, parse_config
from dwmix.errors import ConfigError
from dwmix.manifest import build_manifest, write_manifest
from dwmix.model import build_context


class TestDefaults:
    def test_default_geometry(self):
        cfg = RunConfig.default()
        assert cfg.potential.shape == "double_square_well"
        assert cfg.potential.separation == 1.55
        assert cfg.potential.well_width == 1.2
        assert cfg.potential.smoothing == 0.08
        assert cfg.grid.n_points == 4001
        assert cfg.grid.x_max == 0.0

    def test_default_species_and_couplings(self):
        cfg = RunConfig.default()
        assert cfg.species.boson_mass_amu == 170.0
        assert cfg.species.fermion_mass_amu == 171.0
        assert cfg.couplings.lambda_bb == 0.0
        assert cfg.couplings.lambda_ff == 0.0
        assert cfg.couplings.lambda_bf == 0.0
        assert cfg.model.fermion_basis == "antisymmetric"
        assert cfg.model.spin_sector == 0

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig.default()

    def test_comments_and_blank_lines_ignored(self):
        text = "\n".join(
            [
                "# hash comment",
                "; semicolon comment",
                "",
                "   ",
                "grid.n_points = 801",
            ]
        )
        cfg = parse_config(text)
        assert cfg.grid.n_points == 801
        assert cfg.potential == RunConfig.default().potential

    def test_config_is_read_only(self):
        cfg = RunConfig.default()
        with pytest.raises(AttributeError):
            cfg.grid = cfg.potential
        with pytest.raises(AttributeError):
            cfg.grid.n_points = 801
        assert cfg == RunConfig.default()


class TestRoundTrip:
    """A manifest's config block, as flat text, parses back to the run's config."""

    @staticmethod
    def manifest_config_text(context, tmp_path):
        manifest = build_manifest(context, {}, wall_times={}, results={})
        path = write_manifest(tmp_path / "manifest.json", manifest)
        flat = json.loads(path.read_text())["config"]
        return "".join(f"{key} = {value}\n" for key, value in flat.items())

    def test_default_round_trips(self, default_context, tmp_path):
        text = self.manifest_config_text(default_context, tmp_path)
        assert parse_config(text) == default_context.config == RunConfig.default()

    def test_modified_round_trips(self, tmp_path):
        cfg = RunConfig.default().replace_values(
            **{
                "potential.separation": 1.62,
                "potential.smoothing": 0.12,
                "couplings.lambda_bf": 9.0e-3,
                "dynamics.with_entropy": True,
                "sweep.plane": "bb_ff",
                "output.directory": "scratch",
            }
        )
        text = self.manifest_config_text(build_context(cfg), tmp_path)
        assert parse_config(text) == cfg

    def test_flat_dict_covers_every_key(self):
        flat = RunConfig.default().to_flat_dict()
        assert "potential.shape" in flat
        assert "sweep.reference_bf" in flat
        assert all("." in key for key in flat)


class TestParseErrors:
    def test_unknown_key_suggests_nearest(self):
        with pytest.raises(ConfigError, match=r"did you mean 'couplings.lambda_bb'"):
            parse_config("couplings.lamda_bb = 1e-4")

    def test_unknown_key_without_neighbor(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("zzz.qqq_www = 1")

    def test_duplicate_key_reports_line(self):
        text = "grid.n_points = 801\ngrid.n_points = 1601\n"
        with pytest.raises(ConfigError, match="line 2: duplicate key"):
            parse_config(text)

    def test_missing_equals_reports_line(self):
        text = "# comment\n\ngrid.n_points 801\n"
        with pytest.raises(ConfigError, match="line 3: expected"):
            parse_config(text)

    def test_malformed_float(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("potential.separation = wide")

    def test_malformed_int(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config("grid.n_points = 4001.5")

    def test_malformed_bool(self):
        with pytest.raises(ConfigError, match="expected true/false"):
            parse_config("dynamics.with_entropy = maybe")

    @pytest.mark.parametrize(
        "word,expected",
        [("true", True), ("Yes", True), ("ON", True), ("1", True),
         ("false", False), ("No", False), ("off", False), ("0", False)],
    )
    def test_bool_words(self, word, expected):
        cfg = parse_config(f"dynamics.with_entropy = {word}")
        assert cfg.dynamics.with_entropy is expected

    def test_replace_values_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.default().replace_values(**{"grid.m_points": 100})


class TestValidate:
    @pytest.mark.parametrize(
        "key,value,fragment",
        [
            ("potential.shape", "cubic", "potential.shape must be one of"),
            ("grid.x_max", -2.0, "grid.x_max must be positive"),
            ("sweep.plane", "bf_bb", "sweep.plane must be one of"),
            ("model.fermion_basis", "symmetric", "model.fermion_basis must be"),
            ("model.spin_sector", 2, "spin_sector must be -1, 0, or"),
            ("model.min_gap_ratio", 0.0, "min_gap_ratio must be positive"),
            ("dynamics.periods", 0.0, "periods must be at least 3"),
            ("dynamics.periods", 2.9, "dynamics.periods must be at least 3"),
            ("dynamics.n_samples", 8, "n_samples must be at least 16"),
            ("sweep.x_count", 0, "sweep.x_count must be at least 1"),
            ("sweep.line_count", 0, "sweep.line_count must be at least 1"),
            ("sweep.y_min", 5.0e-3, r"sweep.y_max = 0.001 is below sweep.y_min = 0.005"),
            ("sweep.line_max", 0.5, r"sweep.line_max = 0.5 exceeds 0.1"),
            ("sweep.x_min", -1.0e-4, "sweep.x_min must be non-negative"),
            ("couplings.lambda_bb", -1.0e-4, "must be non-negative"),
            ("couplings.lambda_bf", 0.2, "exceeds"),
            ("couplings.lambda_ff", float("nan"), "couplings.lambda_ff must be finite"),
        ],
    )
    def test_rejections(self, key, value, fragment):
        cfg = RunConfig.default().replace_values(**{key: value})
        with pytest.raises(ConfigError, match=fragment):
            cfg.validate()

    def test_tabulated_requires_table_path(self):
        cfg = RunConfig.default().replace_values(**{"potential.shape": "tabulated"})
        with pytest.raises(ConfigError, match="table_path is required"):
            cfg.validate()

    def test_default_validates(self):
        RunConfig.default().validate()

    def test_strong_coupling_validates_without_warning(self):
        # The strong-coupling warning belongs to CouplingParams, raised once
        # per model, not to every validation of the config.
        cfg = RunConfig.default().replace_values(**{"couplings.lambda_ff": 0.05})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg.validate()


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "nope.cfg")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("potential.separation = 1.62\ncouplings.lambda_bf = 2e-3\n")
        cfg = load_config(path)
        assert cfg.potential.separation == 1.62
        assert cfg.couplings.lambda_bf == 2e-3


def test_config_is_a_leaf_module(run_python):
    # Reading a config loads no solver and no numpy.
    proc = run_python("-c", "import sys, dwmix.config; "
                      "print('numpy' in sys.modules, sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'dwmix'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False ['dwmix', 'dwmix.config', 'dwmix.errors']"


def _readme_keys():
    """Keys of README's Configuration table, ``a/b/c`` rows expanded: a later
    part with an underscore names a key of the first part's section, one
    without replaces the first part's last word."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = []
    for first, *rest in (row.split("/") for row in re.findall(r"^\| `([^`]+)` \|", section,
                                                             re.MULTILINE)):
        section_name = first.partition(".")[0]
        keys.append(first)
        keys += [f"{section_name}.{part}" if "_" in part else f"{first.rsplit('_', 1)[0]}_{part}"
                 for part in rest]
    return keys


def test_readme_table_lists_every_key_in_order():
    assert _readme_keys() == list(DEFAULTS)
