"""Species entanglement entropies of batches of states, from their reduced
density matrices."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .manybody import CompositeBasis

EIGENVALUE_FLOOR = -1.0e-12
# A density matrix has trace 1, so eigenvalues at or below a few eps are
# rounding and count as 0 (0 log 0 := 0); every one above is kept.
ENTROPY_FLOOR = 4.0 * np.finfo(float).eps


def _entropies(eigenvalues: np.ndarray) -> np.ndarray:
    """S = -sum lambda_i log2 lambda_i of each row, with 0 log 0 := 0.

    Raises ConfigError at the first row with an eigenvalue below the floor.
    """
    lowest = eigenvalues.min(axis=1)
    bad = np.flatnonzero(lowest < EIGENVALUE_FLOOR)
    if bad.size:
        k = int(bad[0])
        raise ConfigError(
            f"density matrix has eigenvalue {lowest[k]:.3e} below the "
            "positivity floor",
            index=k,
        )
    lam = np.where(eigenvalues > ENTROPY_FLOOR, eigenvalues, 1.0)
    return -np.sum(lam * np.log2(lam), axis=1)


def species_entropies(coefficients: np.ndarray, basis: CompositeBasis) -> tuple:
    """Boson and fermion entropies of each normalized state (row) over ``basis``.

    Each comes from the eigenvalues of that species' reduced density matrix,
    the partial trace of |psi><psi| over the other species.  For a pure
    state the two agree (same Schmidt spectrum); both are computed anyway as
    a numerical cross-check.
    """
    m = coefficients.reshape(-1, basis.boson_dim, basis.fermion_dim)
    reduced = (m @ m.conj().swapaxes(1, 2), m.swapaxes(1, 2) @ m.conj())
    return tuple(_entropies(np.linalg.eigvalsh(rho)) for rho in reduced)
