"""Output artifacts: CSV layouts, hashing, and the run manifest."""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

import dwmix
from dwmix.dynamics import initial_state_rr, regime_metrics, return_series
from dwmix.manifest import (
    ENTROPY_HEADER,
    ENTROPY_T_HEADER,
    FIDELITY_HEADER,
    MODES_HEADER,
    TIMESERIES_HEADER,
    build_manifest,
    sha256_of,
    write_entropy_csv,
    write_entropy_timeseries_csv,
    write_fidelity_csv,
    write_manifest,
    write_modes_csv,
    write_regimes_json,
    write_timeseries_csv,
)
from dwmix.manybody import CouplingParams
from dwmix.sweep import AxisSpec, SweepSpec, entropy_scan, fidelity_map

MANIFEST_KEYS = [
    "tool",
    "version",
    "created_utc",
    "config",
    "constants",
    "derived",
    "results",
    "wall_time_s",
    "outputs",
]


@pytest.fixture(scope="module")
def small_surface(coarse_context):
    spec = SweepSpec(
        plane="ff_bf",
        x_axis=AxisSpec(0.0, 1.0e-3, 3),
        y_axis=AxisSpec(0.0, 1.0e-3, 2),
        fixed={"lambda_bb": 5.0e-4},
        reference=CouplingParams(5.0e-4, 5.0e-4, 5.0e-4),
    )
    return fidelity_map(coarse_context.blocks, spec)


@pytest.fixture(scope="module")
def small_curve(coarse_context):
    spec = SweepSpec(
        plane="line_ff",
        x_axis=AxisSpec(0.0, 1.0e-2, 5),
        fixed={"lambda_bb": 1.0e-3, "lambda_bf": 9.0e-3},
    )
    return entropy_scan(coarse_context.blocks, spec)


def _series(context, n_periods=3.0, n_samples=512):
    times = np.linspace(0.0, n_periods * 2 * np.pi / context.min_splitting, n_samples)
    return return_series(context.hamiltonian(), initial_state_rr(context.basis), times)


class TestCsvLayout:
    def test_modes_header_and_length(self, coarse_context, tmp_path):
        path = write_modes_csv(tmp_path / "m.csv", coarse_context.boson_modes,
                               coarse_context.grid)
        lines = path.read_text().splitlines()
        assert lines[0] == MODES_HEADER
        assert len(lines) == 1 + coarse_context.grid.n_points

    def test_modes_values_round_trip(self, coarse_context, tmp_path):
        path = write_modes_csv(tmp_path / "m.csv", coarse_context.fermion_modes,
                               coarse_context.grid)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], coarse_context.grid.points())
        np.testing.assert_array_equal(data[:, 1], coarse_context.fermion_modes.psi_s)

    def test_timeseries_layout(self, coarse_context, tmp_path):
        series = _series(coarse_context, n_samples=16)
        times = series.times
        path = write_timeseries_csv(tmp_path / "t.csv", series)
        lines = path.read_text().splitlines()
        assert lines[0] == TIMESERIES_HEADER
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], times)
        np.testing.assert_array_equal(data[:, 1], series.p_rr_bosons)

    def test_fidelity_layout_row_major(self, small_surface, tmp_path):
        path = write_fidelity_csv(tmp_path / "f.csv", small_surface)
        lines = path.read_text().splitlines()
        assert lines[0] == FIDELITY_HEADER
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert float(first[0]) == small_surface.x_values[0]
        assert float(first[1]) == small_surface.y_values[0]
        assert float(second[1]) == small_surface.y_values[1]

    def test_degenerate_flag_written_as_int(self, small_surface, small_curve, tmp_path):
        fpath = write_fidelity_csv(tmp_path / "f.csv", small_surface)
        epath = write_entropy_csv(tmp_path / "e.csv", small_curve)
        for path in (fpath, epath):
            flags = {line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]}
            assert flags <= {"0", "1"}
        assert epath.read_text().splitlines()[0] == ENTROPY_HEADER

    def test_floats_survive_repr_round_trip(self, small_curve, tmp_path):
        path = write_entropy_csv(tmp_path / "e.csv", small_curve)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1], small_curve.entropy)
        np.testing.assert_array_equal(data[:, 2], small_curve.entropy)

    def test_rewrite_is_byte_identical(self, small_surface, tmp_path):
        a = write_fidelity_csv(tmp_path / "a.csv", small_surface)
        b = write_fidelity_csv(tmp_path / "b.csv", small_surface)
        assert a.read_bytes() == b.read_bytes()

    def test_entropy_timeseries_header(self):
        assert ENTROPY_T_HEADER.split(",") == ["tau", "s_bosons", "s_fermions"]


# Values whose repr is easy to get wrong: signed zero, the smallest subnormal,
# huge and integral floats, nan and inf.
SPECIAL = np.array([-0.0, 5e-324, 1e300, 3.0, np.nan, 0.1, -2.5e-17, np.inf])
FLAGS = np.array([True, False, False, True, True, False, True, False])


def _reference_csv(header, rows):
    """The CSV text of the per-value formatting: repr(float(x)), str(int(flag))."""
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _fmt(x):
    return repr(float(x))


class TestCsvBytes:
    """The column writers against per-value formatting, byte for byte."""

    def test_modes(self, tmp_path):
        grid = SimpleNamespace(points=lambda: SPECIAL[::-1].copy())
        modes = SimpleNamespace(psi_s=SPECIAL, psi_a=-SPECIAL, psi_left=SPECIAL * 3.0,
                                psi_right=np.arange(8))
        x = grid.points()
        expected = _reference_csv(MODES_HEADER, (
            (_fmt(x[k]), _fmt(modes.psi_s[k]), _fmt(modes.psi_a[k]),
             _fmt(modes.psi_left[k]), _fmt(modes.psi_right[k])) for k in range(8)))
        path = write_modes_csv(tmp_path / "m.csv", modes, grid)
        assert path.read_text(encoding="utf-8") == expected

    def test_timeseries(self, tmp_path):
        series = SimpleNamespace(times=SPECIAL, p_rr_bosons=SPECIAL[::-1],
                                 p_rr_fermions=np.linspace(0.0, 1.0, 8, dtype=np.float32))
        expected = _reference_csv(TIMESERIES_HEADER, (
            (_fmt(series.times[k]), _fmt(series.p_rr_bosons[k]),
             _fmt(series.p_rr_fermions[k])) for k in range(8)))
        path = write_timeseries_csv(tmp_path / "t.csv", series)
        assert path.read_text(encoding="utf-8") == expected

    def test_fidelity(self, tmp_path):
        surface = SimpleNamespace(x_values=SPECIAL[:4], y_values=SPECIAL[4:7],
                                  fidelity=np.resize(SPECIAL, (4, 3)),
                                  degenerate=np.resize(FLAGS, (4, 3)))
        expected = _reference_csv(FIDELITY_HEADER, (
            (_fmt(surface.x_values[i]), _fmt(surface.y_values[j]),
             _fmt(surface.fidelity[i, j]), str(int(surface.degenerate[i, j])))
            for i in range(4) for j in range(3)))
        path = write_fidelity_csv(tmp_path / "f.csv", surface)
        assert path.read_text(encoding="utf-8") == expected

    def test_fidelity_one_degenerate_cell(self, tmp_path):
        # The writer fills each x row's pieces in place; its bytes are those
        # of formatting every row on its own.
        x = [0.0, 1.0e-3 / 3.0, 1.0e-3]
        y = [0.1 + 0.2, 2.5e-4, 5e-324, 1.0e-3]
        fidelity = np.linspace(0.9, 1.0, 12).reshape(3, 4)
        degenerate = np.zeros((3, 4), dtype=bool)
        degenerate[1, 2] = True
        surface = SimpleNamespace(x_values=np.array(x), y_values=np.array(y),
                                  fidelity=fidelity, degenerate=degenerate)
        expected = FIDELITY_HEADER + "\n" + "".join(
            f"{xv!r},{yv!r},{f!r},{int(d)}\n"
            for xv, f_row, d_row in zip(x, fidelity.tolist(), degenerate.tolist())
            for yv, f, d in zip(y, f_row, d_row))
        path = write_fidelity_csv(tmp_path / "f.csv", surface)
        assert path.read_bytes() == expected.encode("utf-8")
        assert path.read_bytes().count(b",1\n") == 1

    def test_entropy(self, tmp_path):
        curve = SimpleNamespace(lambda_ff=SPECIAL, entropy=SPECIAL[::-1], degenerate=FLAGS)
        expected = _reference_csv(ENTROPY_HEADER, (
            (_fmt(curve.lambda_ff[k]), _fmt(curve.entropy[k]),
             _fmt(curve.entropy[k]), str(int(curve.degenerate[k]))) for k in range(8)))
        path = write_entropy_csv(tmp_path / "e.csv", curve)
        assert path.read_text(encoding="utf-8") == expected

    def test_entropy_timeseries_from_lists(self, tmp_path):
        values = SPECIAL.tolist()
        expected = _reference_csv(ENTROPY_T_HEADER, (
            (_fmt(values[k]), _fmt(values[-1 - k]), _fmt(values[-1 - k])) for k in range(8)))
        path = write_entropy_timeseries_csv(tmp_path / "s.csv", values, values[::-1])
        assert path.read_text(encoding="utf-8") == expected

    def test_column_lengths_must_agree(self, tmp_path):
        curve = SimpleNamespace(lambda_ff=SPECIAL, entropy=SPECIAL[:-1], degenerate=FLAGS)
        with pytest.raises(ValueError):
            write_entropy_csv(tmp_path / "e.csv", curve)


class TestHashing:
    def test_sha256_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"0123456789" * 1000)
        assert sha256_of(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestRegimesJson:
    def test_regime_report_round_trips(self, coarse_context, tmp_path):
        report = regime_metrics(_series(coarse_context))
        path = write_regimes_json(tmp_path / "regimes.json", report)
        loaded = json.loads(path.read_text())
        assert set(loaded) == {"bosons", "fermions"}
        assert loaded["bosons"]["period_estimate"] == report["bosons"]["period_estimate"]

    def test_trailing_newline(self, coarse_context, tmp_path):
        report = regime_metrics(_series(coarse_context))
        path = write_regimes_json(tmp_path / "r.json", report)
        assert path.read_text().endswith("\n")


@pytest.fixture(scope="module")
def manifest(coarse_context, small_surface, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    csv_path = write_fidelity_csv(out / "fidelity_map.csv", small_surface)
    return build_manifest(
        context=coarse_context,
        outputs={"fidelity_map": csv_path},
        wall_times={"sweep": 0.25},
        results={"reference_energy": small_surface.reference_energy},
    )


class TestManifest:
    def test_key_order(self, manifest):
        assert list(manifest) == MANIFEST_KEYS

    def test_version_matches_package(self, manifest):
        assert manifest["version"] == dwmix.__version__
        assert manifest["tool"] == "dwmix"

    def test_config_is_flat_with_text_bools(self, manifest):
        config = manifest["config"]
        assert config["grid.n_points"] == 801
        assert config["dynamics.with_entropy"] in ("true", "false")

    def test_output_entries(self, manifest):
        entry = manifest["outputs"]["fidelity_map"]
        assert entry["path"] == "fidelity_map.csv"
        assert len(entry["sha256"]) == 64
        assert entry["bytes"] > 0

    def test_derived_block(self, manifest, coarse_context):
        derived = manifest["derived"]
        assert derived["omega_1_boson"] == coarse_context.boson_modes.splitting
        assert derived["basis_labels"] == coarse_context.basis.labels
        assert "LLLL" in derived["boson_tensor"]

    def test_json_round_trip_has_no_numpy(self, manifest, tmp_path):
        path = write_manifest(tmp_path / "manifest.json", manifest)
        loaded = json.loads(path.read_text())
        assert list(loaded) == MANIFEST_KEYS
        assert loaded["results"]["reference_energy"] == pytest.approx(
            manifest["results"]["reference_energy"]
        )

    def test_wall_times_recorded(self, manifest):
        assert manifest["wall_time_s"]["sweep"] >= 0.0
