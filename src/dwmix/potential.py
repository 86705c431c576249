"""Spatial grid and trap potentials.

The grid is built mirror-symmetric about x = 0 by construction (the right
half is generated once and reflected), so even/odd classification of
eigenvectors and the left/right mode mirror identity hold to the last bit.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, Record

EVENNESS_TOL = 1.0e-12


class Grid(Record):
    """Uniform symmetric grid on [-x_max, x_max] with an odd point count.

    ``n_points`` must be odd so that x = 0 is a grid node; mirror symmetry
    then maps nodes onto nodes exactly.
    """

    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if self.x_max <= 0.0:
            raise ConfigError("grid half-width x_max must be positive")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ConfigError("n_points must be an odd integer >= 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.x_max / (self.n_points - 1)

    def points(self) -> np.ndarray:
        """Grid nodes, exactly antisymmetric: x[i] == -x[n-1-i]."""
        half = self.n_points // 2
        right = np.linspace(0.0, self.x_max, half + 1)
        return np.concatenate([-right[:0:-1], right])

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights, built on first read and read-only."""
        w = np.full(self.n_points, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        w.flags.writeable = False
        return w

    def integral(self, values: np.ndarray) -> float:
        """Trapezoid integral of ``values`` sampled on the nodes: one dot over
        the weights, which every integral over the whole grid goes through."""
        return float(np.dot(self.weights, values))

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Trapezoid inner product <f|g> on the grid.

        Eigenvectors vanish at the box walls, so the endpoint halving is a
        no-op for them and the rule collapses to h * sum(f * g); that exact
        discrete form is what normalization and orthogonality tests rely on.
        """
        return self.integral(np.asarray(f) * np.asarray(g))


def _require_even(v: np.ndarray, x: np.ndarray) -> None:
    dev = float(np.max(np.abs(v - v[::-1])))
    if dev > EVENNESS_TOL:
        raise ConfigError(
            f"potential is not even on the grid (max |V(x)-V(-x)| = {dev:.3e})"
        )


def sample_on_grid(potential: Callable[[np.ndarray], np.ndarray], grid: Grid) -> np.ndarray:
    """Evaluate ``potential`` (elementwise in x) on ``grid``; enforce evenness."""
    x = grid.points()
    v = np.asarray(potential(x), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ConfigError("potential evaluated to a non-finite value")
    _require_even(v, x)
    return v


def _cos_ramp(t: np.ndarray) -> np.ndarray:
    """Smooth 0 -> 1 ramp on t in [0, 1] (clamped outside), C^1 at both ends."""
    tc = np.clip(t, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * tc))


class DoubleSquareWell(Record):
    """Two square wells of width ``well_width`` separated (centre-to-centre)
    by ``separation``, depth ``depth`` below the outside level, with edges
    smoothed over ``smoothing`` so the finite-difference solver converges at
    its nominal order.

    V = 0 inside the wells, ``depth`` on the central barrier and outside.
    The profile is a function of |x|, hence even to the last bit.
    ``RunConfig.validate`` holds the geometry keys to wells that do not
    overlap, with smoothing below half a well or barrier width.
    """

    separation: float
    well_width: float
    depth: float
    smoothing: float

    @property
    def inner_edge(self) -> float:
        """|x| where the well starts (barrier side)."""
        return 0.5 * (self.separation - self.well_width)

    @property
    def outer_edge(self) -> float:
        """|x| where the well ends (outside)."""
        return 0.5 * (self.separation + self.well_width)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        ax = np.abs(np.asarray(x, dtype=float))
        if self.smoothing == 0.0:
            inside = (ax >= self.inner_edge) & (ax <= self.outer_edge)
            return np.where(inside, 0.0, self.depth)
        s = self.smoothing
        # Ramp down into the well across [inner_edge - s, inner_edge + s],
        # back up across [outer_edge - s, outer_edge + s].
        down = _cos_ramp((ax - (self.inner_edge - s)) / (2.0 * s))
        up = _cos_ramp((ax - (self.outer_edge - s)) / (2.0 * s))
        return self.depth * (1.0 - down + up)


class QuarticDoubleWell(Record):
    """Smooth double well V(x) = barrier * ((x/x0)^2 - 1)^2.

    Minima at x = +-x0 with V = 0, barrier height ``barrier`` at x = 0;
    ``RunConfig.validate`` holds both positive.
    """

    minimum_pos: float
    barrier: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # Evaluate in |x| so floating-point evenness is exact.
        r = (np.abs(np.asarray(x, dtype=float)) / self.minimum_pos) ** 2
        return self.barrier * (r - 1.0) ** 2


class TabulatedPotential(Record):
    """Potential sampled from a table, linearly interpolated.

    The table must cover the requested grid (``model.resolve_x_max`` holds
    the box inside it) and be even; evenness is enforced at sampling time
    like every other profile.
    """

    x_table: np.ndarray
    v_table: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x_table, dtype=float)
        v = np.asarray(self.v_table, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 2:
            raise ConfigError("tabulated potential needs matching 1-d x and V columns")
        if not np.all(np.diff(x) > 0.0):
            raise ConfigError("tabulated x values must be strictly increasing")
        self.__dict__.update(x_table=x, v_table=v)

    @classmethod
    def from_csv(cls, path: str | Path) -> "TabulatedPotential":
        """Load a two-column CSV with header ``x_um,V_xi``."""
        path = Path(path)
        try:
            with path.open() as fh:
                header = fh.readline().strip()
                if header.replace(" ", "") != "x_um,V_xi":
                    raise ConfigError(
                        f"{path}: expected header 'x_um,V_xi', got {header!r}"
                    )
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot read potential table {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"malformed potential table {path}: {exc}") from exc
        if data.shape[1] != 2:
            raise ConfigError(f"{path}: expected exactly two columns")
        return cls(x_table=data[:, 0], v_table=data[:, 1])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.x_table, self.v_table)
