import numpy as np
import pytest

from dwmix.errors import ConfigError
from dwmix.potential import (
    DoubleSquareWell,
    Grid,
    QuarticDoubleWell,
    TabulatedPotential,
    sample_on_grid,
)


class TestGrid:
    def test_points_are_exactly_antisymmetric(self):
        x = Grid(x_max=2.0, n_points=401).points()
        assert np.array_equal(x, -x[::-1])
        assert x[200] == 0.0

    def test_spacing(self):
        g = Grid(x_max=1.0, n_points=5)
        assert g.spacing == 0.5
        assert np.allclose(g.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    @pytest.mark.parametrize("n", [2, 4, 100])
    def test_even_point_count_rejected(self, n):
        with pytest.raises(ConfigError):
            Grid(x_max=1.0, n_points=n)

    def test_tiny_or_negative_box_rejected(self):
        with pytest.raises(ConfigError):
            Grid(x_max=0.0, n_points=5)
        with pytest.raises(ConfigError):
            Grid(x_max=1.0, n_points=1)

    def test_inner_product_of_normalized_vector(self):
        g = Grid(x_max=3.0, n_points=301)
        x = g.points()
        u = np.cos(np.pi * x / 6.0)
        u = u / np.sqrt(g.inner(u, u))
        assert g.inner(u, u) == pytest.approx(1.0, abs=1e-14)


class TestDoubleSquareWell:
    def test_profile_levels(self):
        w = DoubleSquareWell(separation=1.6, well_width=1.2, depth=30.0, smoothing=0.0)
        # Zero in the wells, full depth at the origin and far outside.
        assert w(np.array([0.8]))[0] == 0.0
        assert w(np.array([-0.8]))[0] == 0.0
        assert w(np.array([0.0]))[0] == 30.0
        assert w(np.array([3.0]))[0] == 30.0

    def test_even_to_the_last_bit(self):
        w = DoubleSquareWell(separation=1.55, well_width=1.2, depth=31.0, smoothing=0.08)
        x = Grid(x_max=2.4, n_points=801).points()
        v = w(x)
        assert np.array_equal(v, v[::-1])

    def test_smoothing_interpolates_edges(self):
        sharp = DoubleSquareWell(separation=1.6, well_width=1.2, depth=10.0, smoothing=0.0)
        soft = DoubleSquareWell(separation=1.6, well_width=1.2, depth=10.0, smoothing=0.1)
        # At the inner edge the smooth profile sits halfway down the wall.
        edge = sharp.inner_edge
        assert soft(np.array([edge]))[0] == pytest.approx(5.0, abs=1e-12)
        assert soft(np.array([sharp.outer_edge]))[0] == pytest.approx(5.0, abs=1e-12)

    # The geometry rules live in RunConfig.validate, and name their keys.
    def test_overlapping_wells_rejected(self, config_factory):
        with pytest.raises(ConfigError, match="potential.separation = 1.0 must exceed "
                                              "potential.well_width = 1.2"):
            config_factory(**{"potential.separation": 1.0})

    def test_oversized_smoothing_rejected(self, config_factory):
        with pytest.raises(ConfigError, match="potential.smoothing = 0.1 must be below"):
            config_factory(**{"potential.separation": 1.3, "potential.smoothing": 0.1})

    def test_negative_depth_rejected(self, config_factory):
        with pytest.raises(ConfigError, match="potential.depth must be non-negative"):
            config_factory(**{"potential.depth": -1.0})


class TestQuarticDoubleWell:
    def test_minima_and_barrier(self):
        q = QuarticDoubleWell(minimum_pos=1.0, barrier=5.0)
        assert q(np.array([1.0]))[0] == 0.0
        assert q(np.array([-1.0]))[0] == 0.0
        assert q(np.array([0.0]))[0] == 5.0

    def test_invalid_parameters(self, config_factory):
        for key in ("potential.minimum_pos", "potential.barrier"):
            with pytest.raises(ConfigError, match=f"{key} must be positive"):
                config_factory(**{"potential.shape": "quartic", key: 0.0})


class TestTabulatedPotential:
    def test_from_csv_round_trip(self, tmp_path):
        x = np.linspace(-2.0, 2.0, 41)
        v = x**4
        path = tmp_path / "table.csv"
        lines = ["x_um,V_xi"] + [f"{a},{b}" for a, b in zip(x, v)]
        path.write_text("\n".join(lines) + "\n")
        pot = TabulatedPotential.from_csv(path)
        assert np.allclose(pot(np.array([0.5])), 0.5**4)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,V\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="x_um,V_xi"):
            TabulatedPotential.from_csv(path)

    def test_non_monotonic_x_rejected(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            TabulatedPotential(
                x_table=np.array([0.0, 1.0, 0.5]), v_table=np.array([1.0, 2.0, 3.0])
            )


def test_sample_on_grid_rejects_uneven_potential():
    g = Grid(x_max=1.0, n_points=5)
    with pytest.raises(ConfigError, match="not even"):
        sample_on_grid(lambda x: x, g)


def test_sample_on_grid_rejects_non_finite():
    g = Grid(x_max=1.0, n_points=5)
    with pytest.raises(ConfigError, match="non-finite"):
        sample_on_grid(lambda x: np.where(x == 0.0, np.inf, 0.0), g)
