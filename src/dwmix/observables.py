"""Species entanglement entropies of batches of states, from their Schmidt
weights.

A pure state's boson x fermion coefficient matrix M has Schmidt weights
w = sigma^2, the squared singular values of M.  They are the nonzero
eigenvalues of both species' reduced density matrices, M M^H and M^T M*,
so one spectrum gives the entropy of either species, and no weight is
negative.
"""

from __future__ import annotations

import numpy as np

from .manybody import CompositeBasis

# The weights sum to 1, so those at or below a few eps are rounding and
# count as 0 (0 log 0 := 0); every one above is kept.
ENTROPY_FLOOR = 4.0 * np.finfo(float).eps


def species_entropies(coefficients: np.ndarray, basis: CompositeBasis) -> np.ndarray:
    """Entanglement entropy of each normalized state over ``basis``, shape
    (..., dim) -> (...): 0-d for one state.

    S = -sum w log2 w over the state's Schmidt weights w, clamped at 0 (a
    weight rounded above 1 has a negative term).  For a pure state it is
    both species' entropy, so one array holds both.
    """
    w = np.linalg.svd(basis.coefficient_matrices(coefficients), compute_uv=False) ** 2
    w = np.where(w > ENTROPY_FLOOR, w, 1.0)
    return np.maximum(-np.sum(w * np.log2(w), axis=-1), 0.0)
