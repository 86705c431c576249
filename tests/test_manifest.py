"""Output artifacts: CSV layouts, hashing, and the run manifest."""

import hashlib
import json
import warnings
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
    WRITE_BLOCK_CELLS,
    _repr_bytes,
    _repr_digits,
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


def _over_blocks():
    """Rows over three write blocks, the last partial: numpy settles every
    value of the first block, SPECIAL is mixed into the second, and the
    third is left mostly to repr."""
    block = WRITE_BLOCK_CELLS
    values = 1.0 - np.random.default_rng(5).uniform(0.0, 0.9, 2 * block + 123)
    values[block::5] = np.resize(SPECIAL, values[block::5].size)
    values[2 * block:] = np.resize(SPECIAL, 123)
    assert values.size % WRITE_BLOCK_CELLS and values.size > WRITE_BLOCK_CELLS
    return values


# The column writers' inputs: the hard values alone, and the same among
# rows over several write blocks.  Each column test writes both.
COLUMN_INPUTS = (SPECIAL, _over_blocks())


class TestCsvBytes:
    """The column writers against per-value formatting, byte for byte."""

    def test_modes(self, tmp_path):
        for values in COLUMN_INPUTS:
            grid = SimpleNamespace(points=lambda: values[::-1].copy())
            modes = SimpleNamespace(psi_s=values, psi_a=-values, psi_left=values * 3.0,
                                    psi_right=np.arange(values.size))
            x = grid.points()
            expected = _reference_csv(MODES_HEADER, (
                (_fmt(x[k]), _fmt(modes.psi_s[k]), _fmt(modes.psi_a[k]),
                 _fmt(modes.psi_left[k]), _fmt(modes.psi_right[k])) for k in range(values.size)))
            path = write_modes_csv(tmp_path / "m.csv", modes, grid)
            assert path.read_text(encoding="utf-8") == expected

    def test_timeseries(self, tmp_path):
        for values in COLUMN_INPUTS:
            series = SimpleNamespace(times=values, p_rr_bosons=values[::-1],
                                     p_rr_fermions=np.linspace(0.0, 1.0, values.size,
                                                               dtype=np.float32))
            expected = _reference_csv(TIMESERIES_HEADER, (
                (_fmt(series.times[k]), _fmt(series.p_rr_bosons[k]),
                 _fmt(series.p_rr_fermions[k])) for k in range(values.size)))
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

    def test_fidelity_over_blocks(self, tmp_path):
        # A map of several write blocks, the last one partial, whose block
        # edges fall inside x rows; its fidelities mix every kind of value.
        x = np.linspace(0.0, 1.0e-3, 70)
        y = np.linspace(-2.0e-3, 5.0e-3, 71)
        rng = np.random.default_rng(3)
        fidelity = 1.0 - rng.uniform(0.0, 0.1, x.size * y.size)
        fidelity[::97] = np.resize(SPECIAL, fidelity[::97].size)
        degenerate = rng.uniform(size=fidelity.size) < 0.1
        surface = SimpleNamespace(x_values=x, y_values=y,
                                  fidelity=fidelity.reshape(70, 71),
                                  degenerate=degenerate.reshape(70, 71))
        assert fidelity.size % WRITE_BLOCK_CELLS and fidelity.size > WRITE_BLOCK_CELLS
        expected = _reference_csv(FIDELITY_HEADER, (
            (_fmt(x[k // 71]), _fmt(y[k % 71]), _fmt(fidelity[k]), str(int(degenerate[k])))
            for k in range(fidelity.size)))
        path = write_fidelity_csv(tmp_path / "f.csv", surface)
        assert path.read_text(encoding="utf-8") == expected

    def test_fidelity_shape_must_match_axes(self, tmp_path):
        surface = SimpleNamespace(x_values=SPECIAL[:4], y_values=SPECIAL[4:7],
                                  fidelity=np.ones((4, 3)), degenerate=np.zeros((3, 4), bool))
        with pytest.raises(ValueError, match="do not span the 4x3 axes"):
            write_fidelity_csv(tmp_path / "f.csv", surface)

    def test_entropy(self, tmp_path):
        for values in COLUMN_INPUTS:
            curve = SimpleNamespace(lambda_ff=values, entropy=values[::-1],
                                    degenerate=np.resize(FLAGS, values.size))
            expected = _reference_csv(ENTROPY_HEADER, (
                (_fmt(curve.lambda_ff[k]), _fmt(curve.entropy[k]),
                 _fmt(curve.entropy[k]), str(int(curve.degenerate[k])))
                for k in range(values.size)))
            path = write_entropy_csv(tmp_path / "e.csv", curve)
            assert path.read_text(encoding="utf-8") == expected

    def test_entropy_timeseries_from_lists(self, tmp_path):
        for values in map(np.ndarray.tolist, COLUMN_INPUTS):
            expected = _reference_csv(ENTROPY_T_HEADER, (
                (_fmt(values[k]), _fmt(values[-1 - k]), _fmt(values[-1 - k]))
                for k in range(len(values))))
            path = write_entropy_timeseries_csv(tmp_path / "s.csv", values, values[::-1])
            assert path.read_text(encoding="utf-8") == expected

    def test_column_lengths_must_agree(self, tmp_path):
        curve = SimpleNamespace(lambda_ff=SPECIAL, entropy=SPECIAL[:-1], degenerate=FLAGS)
        with pytest.raises(ValueError):
            write_entropy_csv(tmp_path / "e.csv", curve)


def _repr_texts(values) -> list[str]:
    """What ``_repr_bytes`` writes for each value, its NULs dropped."""
    rows = _repr_bytes(values)
    newline = np.full((rows.shape[0], 1), ord("\n"), dtype=np.uint8)
    text = np.concatenate((rows, newline), axis=1).tobytes().translate(None, b"\0")
    return text.decode("ascii").splitlines()


def _assert_reprs(values):
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, 1 << 16):  # small working sets
        part = values[start:start + (1 << 16)]
        got, want = _repr_texts(part), [repr(v) for v in part.tolist()]
        bad = [(g, w) for g, w in zip(got, want, strict=True) if g != w]
        assert not bad, f"{len(bad)} mismatches, first {bad[:3]}"


def _around(edge, ulps=1000):
    """Every float64 within ``ulps`` ulps of ``edge``."""
    return (np.float64(edge).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64)


# The binade edges of the formatter's domain (1/16, 1) and its one decade edge.
EDGES = (0.0625, 0.125, 0.25, 0.5, 1.0, 0.1)


class TestReprDigits:
    """The numpy formatter of the float columns against ``repr``."""

    def test_seeded_values(self):
        # Log-uniform over the domain: each of its four binades equally.
        values = 2.0 ** -np.random.default_rng(11).uniform(0.0, 4.0, 2**20)
        _assert_reprs(values)
        settled = np.concatenate([_repr_digits(values[k:k + 4096])[1]
                                  for k in range(0, values.size, 4096)])
        assert np.count_nonzero(~settled) <= 1e-3 * values.size

    def test_map_like_values(self):
        # Fidelities close below 1, where the map's values lie.
        _assert_reprs(1.0 - np.random.default_rng(12).uniform(0.0, 0.05, 2**18))

    @pytest.mark.parametrize("edge", EDGES)
    def test_values_around_edges(self, edge):
        _assert_reprs(_around(edge))

    def test_short_and_tied_values(self):
        rng = np.random.default_rng(13)
        short = np.concatenate([np.round(rng.uniform(0.0625, 1.0, 4000), digits)
                                for digits in range(1, 16)])
        _assert_reprs(short)
        # k / 2**17, k odd: x * 10**17 ends in ...5 exactly, a tie between two
        # multiples of 10 that only repr may settle.
        dyadic = np.arange(2**16 + 1, 2**17, 2) / 2**17
        _assert_reprs(dyadic)
        assert not _repr_digits(dyadic)[1].all()

    def test_values_it_leaves(self):
        leaves = np.concatenate([SPECIAL[SPECIAL != 0.1],
                                 [0.0, 1.0, -0.75, 0.5, 0.25, 0.125, 0.0625, 2.0, 0.0624,
                                  1e-5, 2.2250738585072014e-308, -np.inf, 1.0000000000000002]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chars, settled = _repr_digits(leaves)
            _assert_reprs(leaves)
        assert not settled.any() and not chars.any()


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
