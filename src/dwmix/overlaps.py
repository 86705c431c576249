"""Contact-interaction overlap tensors on the localized modes.

For contact (delta-function) couplings every two-body matrix element reduces
to a 1-d quadrature of a product of four mode functions,

    U[a, b, c, d] = integral phi_a phi_b phi_c phi_d dx,

with indices running over (left, right) = (0, 1): (a, b) over one pair of
modes and (c, d) over another.  The quadrature is the grid's trapezoid
rule, the inner product the modes are normalized in (``Grid.inner``).  Every
entry is keyed by the sorted labels of the four mode functions it
multiplies, and each distinct key is integrated once and copied, so the
symmetries hold to the last bit.  An intra-species tensor passes one pair
twice, so its key is the sorted index multiset: 5 distinct values.  The
cross-species tensor passes the boson pair, then the fermion pair, whose
labels differ, so only the within-pair swaps share a key: 9 distinct values.
``psi_left`` is ``psi_right[::-1]`` on a mirror-symmetric grid, so a key and
its L <-> R mirror are one integral, computed once: 3 and 5 quadratures, and
U[a, b, c, d] == U[1-a, 1-b, 1-c, 1-d] holds bitwise.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import Record
from .potential import Grid

_MIRROR = str.maketrans("LR", "RL")


class OverlapTensor(Record):
    """A (2, 2, 2, 2) contact tensor plus a quadrature error estimate.

    Index 0 is the left mode, index 1 the right mode.  ``distinct`` maps each
    distinct integral's L/R string (its key's letters) to its value, sorted.
    """

    values: np.ndarray
    distinct: dict[str, float]
    quadrature_error_estimate: float


def _quadrature_error_estimate(integrand: np.ndarray, w: np.ndarray) -> float:
    """The trapezoid rule of weights ``w`` on every node against the same rule
    on every second node, spacing 2h, whose weights are 2 w[::2].  The
    difference, scaled by 1/3 for a second-order rule, estimates the
    fine-grid quadrature error of the integrand as sampled; it says nothing
    of the modes' own O(h^2) discretization error."""
    fine = float(np.dot(w, integrand))
    coarse = float(np.dot(2.0 * w[::2], integrand[::2]))
    return abs(fine - coarse) / 3.0


def _contact_tensor(
    first: dict[str, np.ndarray],
    second: dict[str, np.ndarray],
    error_integrand: np.ndarray,
    grid: Grid,
) -> OverlapTensor:
    """U[a, b, c, d] over modes (a, b) of ``first`` and (c, d) of ``second``.

    Each pair maps its (left, right) labels, which end in L and R, to mode
    values, the left mode the grid mirror of the right.  An entry is keyed by
    its four labels sorted, and the product is taken in that order, unless
    the key's mirror was; ``error_integrand`` is the entry whose quadrature
    error is estimated.
    """
    slots = (tuple(first), tuple(first), tuple(second), tuple(second))
    modes = {**first, **second}
    w = grid.trapezoid_weights()
    cache: dict[tuple[str, ...], float] = {}
    values = np.empty((2, 2, 2, 2))
    for idx in product(range(2), repeat=4):
        key = tuple(sorted(labels[i] for labels, i in zip(slots, idx)))
        if key not in cache:
            mirror = tuple(sorted(label.translate(_MIRROR) for label in key))
            m = [modes[label] for label in key]
            cache[key] = cache[mirror] if mirror in cache else float(
                np.dot(w, m[0] * m[1] * m[2] * m[3]))
        values[idx] = cache[key]
    distinct = {"".join(label[-1] for label in key): v for key, v in cache.items()}
    return OverlapTensor(
        values=values,
        distinct=dict(sorted(distinct.items())),
        quadrature_error_estimate=_quadrature_error_estimate(error_integrand, w),
    )


def overlap_tensor(
    psi_left: np.ndarray, psi_right: np.ndarray, grid: Grid
) -> OverlapTensor:
    """Intra-species contact tensor over one pair of localized modes, psi_left
    the grid mirror of psi_right: 16 entries that are copies of 5 values,
    fully permutation and mirror symmetric, from 3 quadratures."""
    pair = {"L": np.asarray(psi_left, dtype=float), "R": np.asarray(psi_right, dtype=float)}
    return _contact_tensor(pair, pair, pair["R"] ** 4, grid)


def cross_species_tensor(
    boson_left: np.ndarray,
    boson_right: np.ndarray,
    fermion_left: np.ndarray,
    fermion_right: np.ndarray,
    grid: Grid,
) -> OverlapTensor:
    """Cross-species tensor U[a,b,c,d]: (a,b) boson modes, (c,d) fermion modes.

    Symmetric under a <-> b and c <-> d separately, and under the mirror;
    the pairs are not exchangeable because the species have different masses,
    so the tensor holds 9 distinct values, from 5 quadratures.
    """
    bosons = {"bL": np.asarray(boson_left, dtype=float),
              "bR": np.asarray(boson_right, dtype=float)}
    fermions = {"fL": np.asarray(fermion_left, dtype=float),
                "fR": np.asarray(fermion_right, dtype=float)}
    return _contact_tensor(bosons, fermions, bosons["bR"] ** 2 * fermions["fR"] ** 2, grid)
