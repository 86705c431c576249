"""Contact-interaction overlap tensors on the localized modes.

For contact (delta-function) couplings every two-body matrix element reduces
to a 1-d quadrature of a product of four mode functions,

    U[a, b, c, d] = integral phi_a phi_b phi_c phi_d dx,

with indices running over (left, right) = (0, 1).  Intra-species tensors use
a single mode pair, so the integrand only depends on the index multiset and
the tensor is symmetric under any permutation of (a, b, c, d); there are 5
distinct values.  The cross-species tensor takes boson modes in the first
two slots and fermion modes in the last two, leaving only the within-pair
swaps as symmetries; 9 distinct values.  Each distinct integral is computed
once and copied, so the symmetries hold to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .potential import Grid


@dataclass(frozen=True, repr=False, eq=False)
class OverlapTensor:
    """A (2, 2, 2, 2) contact tensor plus a quadrature error estimate.

    Index 0 is the left mode, index 1 the right mode.
    """

    values: np.ndarray
    quadrature_error_estimate: float


def _simpson_error_estimate(integrand: np.ndarray, grid: Grid) -> float:
    """Compare Simpson at full resolution against every second node.

    The coarse evaluation uses Simpson when the subsampled point count is
    still odd and trapezoid otherwise; the difference, scaled by 1/15 for a
    fourth-order rule, estimates the fine-grid quadrature error.
    """
    fine = float(np.dot(grid.simpson_weights(), integrand))
    coarse_vals = integrand[::2]
    n_c = coarse_vals.size
    h_c = 2.0 * grid.spacing
    if n_c % 2 == 1:
        wc = np.ones(n_c)
        wc[1:-1:2] = 4.0
        wc[2:-1:2] = 2.0
        wc *= h_c / 3.0
    else:
        wc = np.full(n_c, h_c)
        wc[0] = wc[-1] = 0.5 * h_c
    coarse = float(np.dot(wc, coarse_vals))
    return abs(fine - coarse) / 15.0


def overlap_tensor(
    psi_left: np.ndarray, psi_right: np.ndarray, grid: Grid
) -> OverlapTensor:
    """Intra-species contact tensor over one pair of localized modes.

    Canonical key is the sorted index 4-tuple, so all 16 entries are copies
    of 5 quadratures and full permutation symmetry is exact.
    """
    modes = (np.asarray(psi_left, dtype=float), np.asarray(psi_right, dtype=float))
    w = grid.simpson_weights()
    cache: dict[tuple[int, ...], float] = {}
    values = np.empty((2, 2, 2, 2))
    for idx in product(range(2), repeat=4):
        key = tuple(sorted(idx))
        if key not in cache:
            integrand = modes[key[0]] * modes[key[1]] * modes[key[2]] * modes[key[3]]
            cache[key] = float(np.dot(w, integrand))
        values[idx] = cache[key]
    err = _simpson_error_estimate(modes[1] ** 4, grid)
    return OverlapTensor(values=values, quadrature_error_estimate=err)


def cross_species_tensor(
    boson_left: np.ndarray,
    boson_right: np.ndarray,
    fermion_left: np.ndarray,
    fermion_right: np.ndarray,
    grid: Grid,
) -> OverlapTensor:
    """Cross-species tensor U[a,b,c,d]: (a,b) boson modes, (c,d) fermion modes.

    Symmetric under a <-> b and c <-> d separately; the pairs are not
    exchangeable because the species have different masses, so 9 distinct
    quadratures are performed.
    """
    b_modes = (np.asarray(boson_left, dtype=float), np.asarray(boson_right, dtype=float))
    f_modes = (np.asarray(fermion_left, dtype=float), np.asarray(fermion_right, dtype=float))
    w = grid.simpson_weights()
    cache: dict[tuple[tuple[int, int], tuple[int, int]], float] = {}
    values = np.empty((2, 2, 2, 2))
    for a, b, c, d in product(range(2), repeat=4):
        key = ((min(a, b), max(a, b)), (min(c, d), max(c, d)))
        if key not in cache:
            (p, q), (r, s) = key
            integrand = b_modes[p] * b_modes[q] * f_modes[r] * f_modes[s]
            cache[key] = float(np.dot(w, integrand))
        values[a, b, c, d] = cache[key]
    err = _simpson_error_estimate(b_modes[1] ** 2 * f_modes[1] ** 2, grid)
    return OverlapTensor(values=values, quadrature_error_estimate=err)


def distinct_elements(tensor: OverlapTensor, pair_symmetric: bool) -> dict[str, float]:
    """Canonical index strings (L/R letters) mapped to tensor values.

    ``pair_symmetric`` selects intra-species canonicalization (sorted
    4-multiset, 5 keys); otherwise within-pair sorting only (9 keys).  Used
    for the run manifest dump.
    """
    letters = "LR"
    out: dict[str, float] = {}
    for idx in product(range(2), repeat=4):
        if pair_symmetric:
            canon = tuple(sorted(idx))
        else:
            a, b, c, d = idx
            canon = (min(a, b), max(a, b), min(c, d), max(c, d))
        key = "".join(letters[i] for i in canon)
        out.setdefault(key, float(tensor.values[idx]))
    return dict(sorted(out.items()))
