"""Brute-force spatial oracle for the return probability.

The mode projection of :func:`dwmix.dynamics.return_probability` is checked
against the two-particle density |Psi(x1, x2)|^2 rebuilt from the mode
functions and integrated over the right-right quadrant; the difference
between the two is mode leakage, not error.
"""

from dataclasses import dataclass

import numpy as np

from dwmix.errors import ConfigError
from dwmix.manybody import BOSONS, CompositeBasis
from dwmix.modes import DoubletModes


@dataclass(frozen=True)
class DensityProfiles:
    """Two-particle densities |Psi(x1, x2)|^2 per species on a subgrid."""

    x: np.ndarray
    boson: np.ndarray
    fermion: np.ndarray

    def _weights(self) -> np.ndarray:
        h = float(self.x[1] - self.x[0])
        w = np.full(self.x.size, h)
        w[0] = w[-1] = 0.5 * h
        return w

    def integral(self, species: str) -> float:
        w = self._weights()
        rho = self.boson if species == BOSONS else self.fermion
        return float(w @ rho @ w)

    def quadrant_probability(self, species: str) -> float:
        """Mass in the x1 > 0, x2 > 0 quadrant (half weight on the axes)."""
        w = self._weights()
        half = np.where(self.x > 0.0, 1.0, 0.0)
        half[self.x == 0.0] = 0.5
        wr = w * half
        rho = self.boson if species == BOSONS else self.fermion
        return float(wr @ rho @ wr)


def density_profile(
    coefficients: np.ndarray,
    basis: CompositeBasis,
    modes_b: DoubletModes,
    modes_f: DoubletModes,
    stride: int,
) -> DensityProfiles:
    """Reconstruct |Psi(x1, x2)|^2 per species from mode functions.

    ``coefficients`` is one state over ``basis``, such as a row of
    :func:`dwmix.dynamics.evolve`.  The fermion density is traced over both
    spins; the boson density over the fermion state (and vice versa).
    ``stride`` subsamples the grid for cheaper quadrant oracles; it must
    divide the grid's interval count.  A boson basis vector is a coefficient
    matrix over the modes (m1, m2), a fermion one a tensor over (m1, s1, m2, s2).
    """
    if modes_b.grid != modes_f.grid:
        raise ConfigError("species modes live on different grids")
    grid = modes_b.grid
    if stride < 1 or (grid.n_points - 1) % stride != 0:
        raise ConfigError(
            f"stride {stride} does not divide the grid into whole intervals"
        )
    sl = slice(None, None, stride)
    x = grid.points()[sl]
    phi_b = np.column_stack([modes_b.psi_left[sl], modes_b.psi_right[sl]])
    phi_f = np.column_stack([modes_f.psi_left[sl], modes_f.psi_right[sl]])

    m = np.reshape(coefficients, (basis.boson_dim, basis.fermion_dim))
    n = x.size

    rho_b = np.zeros((n, n))
    for j in range(basis.fermion_dim):
        c = sum(m[i, j] * basis.boson_vectors[:, i].reshape(2, 2)
                for i in range(basis.boson_dim))
        w = phi_b @ c @ phi_b.T
        rho_b += np.abs(w) ** 2

    rho_f = np.zeros((n, n))
    for i in range(basis.boson_dim):
        t = sum(m[i, j] * basis.fermion_vectors[:, j].reshape(2, 2, 2, 2)
                for j in range(basis.fermion_dim))
        for s1 in range(2):
            for s2 in range(2):
                w = phi_f @ t[:, s1, :, s2] @ phi_f.T
                rho_f += np.abs(w) ** 2

    return DensityProfiles(x=x, boson=rho_b, fermion=rho_f)
