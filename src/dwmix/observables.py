"""Fidelity, reduced density matrices, and Von Neumann entropy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .manybody import (
    BOSONS,
    FERMIONS,
    CompositeBasis,
    StateVector,
    one_body_transition_matrix,
)

TRACE_TOL = 1.0e-9
EIGENVALUE_FLOOR = -1.0e-12
ENTROPY_CLIP = 1.0e-14


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|, independent of either state's global phase."""
    if psi.basis.labels != phi.basis.labels:
        raise ConfigError("fidelity requires states over the same basis")
    value = abs(np.vdot(psi.coefficients, phi.coefficients))
    return float(min(value, 1.0))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite reduced state."""

    matrix: np.ndarray
    subsystem_tag: str

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1.0e-10:
            raise ConfigError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ConfigError(f"density matrix trace is {np.trace(m).real:.12f}, not 1")
        object.__setattr__(self, "matrix", m)


def _reduced(coefficients: np.ndarray, basis: CompositeBasis, keep: str) -> np.ndarray:
    """Partial traces of |psi><psi| over the species not kept, one per row."""
    m = coefficients.reshape(-1, basis.boson_dim, basis.fermion_dim)
    if keep == BOSONS:
        return m @ m.conj().swapaxes(1, 2)
    if keep == FERMIONS:
        return m.swapaxes(1, 2) @ m.conj()
    raise ConfigError(f"keep must be {BOSONS!r} or {FERMIONS!r}, got {keep!r}")


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


def reduce(psi: StateVector, keep: str) -> DensityMatrix:
    """Partial trace of |psi><psi| over the species not kept."""
    rho = _reduced(psi.coefficients, psi.basis, keep)[0]
    return DensityMatrix(matrix=rho, subsystem_tag=keep)


def vn_entropy(rho: DensityMatrix) -> float:
    """S = -sum lambda_i log2 lambda_i with the 0 log 0 := 0 convention."""
    return float(_entropies(np.linalg.eigvalsh(rho.matrix)[None])[0])


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
    """Boson and fermion entropies of each normalized state (row) over ``basis``."""
    return tuple(
        _entropies(np.linalg.eigvalsh(_reduced(coefficients, basis, keep)))
        for keep in (BOSONS, FERMIONS)
    )


def single_particle_mode_entropy(psi: StateVector, species: str) -> float:
    """Secondary output: entropy of one species' single-particle mode state.

    Builds the 2x2 left/right mode occupation matrix rho1[a, b] =
    <create in b, annihilate in a> / 2 and returns its entropy.
    This is an intra-species correlation measure, distinct from (and not
    comparable to) the species-bipartition entropy above.
    """
    d = one_body_transition_matrix(psi.basis, species)
    rho_species = reduce(psi, species).matrix
    rho1 = np.einsum("ij,jixy->yx", rho_species, d.astype(complex)) / 2.0
    return vn_entropy(DensityMatrix(matrix=rho1, subsystem_tag="single_particle"))
