"""Species entanglement entropies of batches of states, from their Schmidt
weights.

A pure state's boson x fermion coefficient matrix M has Schmidt weights
w = sigma^2, the squared singular values of M.  They are the nonzero
eigenvalues of both species' reduced density matrices, M M^H and M^T M*,
so one spectrum gives both entropies, and no weight is negative.
"""

from __future__ import annotations

import numpy as np

from .manybody import CompositeBasis

# The weights sum to 1, so those at or below a few eps are rounding and
# count as 0 (0 log 0 := 0); every one above is kept.
ENTROPY_FLOOR = 4.0 * np.finfo(float).eps


def species_entropies(coefficients: np.ndarray, basis: CompositeBasis) -> tuple:
    """Boson and fermion entropies of each normalized state (row) over ``basis``.

    S = -sum w log2 w over the Schmidt weights w of each row, clamped at 0
    (a weight rounded above 1 has a negative term).  For a pure state the
    two species' entropies are one value, so both are the same array.
    """
    m = basis.coefficient_matrices(np.atleast_2d(coefficients))
    w = np.linalg.svd(m, compute_uv=False) ** 2
    w = np.where(w > ENTROPY_FLOOR, w, 1.0)
    entropy = np.maximum(-np.sum(w * np.log2(w), axis=1), 0.0)
    return entropy, entropy
