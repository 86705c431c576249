"""Species entanglement entropies from reduced density matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .manybody import CompositeBasis, StateVector

EIGENVALUE_FLOOR = -1.0e-12
ENTROPY_CLIP = 1.0e-14


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
    lam = np.where(eigenvalues > ENTROPY_CLIP, eigenvalues, 1.0)
    return -np.sum(lam * np.log2(lam), axis=1)


@dataclass(frozen=True)
class SpeciesEntropies:
    s_bosons: float
    s_fermions: float


def species_entropies(psi: StateVector) -> SpeciesEntropies:
    """Entanglement entropy of each species' reduction.

    For a pure composite state the two values agree (same Schmidt spectrum);
    both are computed anyway as a numerical cross-check.
    """
    s_bosons, s_fermions = entropy_arrays(psi.coefficients[None], psi.basis)
    return SpeciesEntropies(s_bosons=float(s_bosons[0]), s_fermions=float(s_fermions[0]))


def entropy_arrays(coefficients: np.ndarray, basis: CompositeBasis) -> tuple:
    """Boson and fermion entropies of each normalized state (row) over ``basis``.

    Each comes from the eigenvalues of that species' reduced density matrix,
    the partial trace of |psi><psi| over the other species.
    """
    m = coefficients.reshape(-1, basis.boson_dim, basis.fermion_dim)
    reduced = (m @ m.conj().swapaxes(1, 2), m.swapaxes(1, 2) @ m.conj())
    return tuple(_entropies(np.linalg.eigvalsh(rho)) for rho in reduced)

