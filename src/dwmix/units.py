"""Unit system and species constants.

Everything downstream works in dimensionless units fixed by three reference
scales: a length ``l_ref`` (micrometres), an energy ``xi_ref`` (joules), and
the derived time ``tau_ref = hbar / xi_ref``.  The single number the solvers
actually need is the kinetic prefactor

    kappa = hbar**2 / (2 * m * l_ref**2 * xi_ref)

so that the stationary problem reads ``-kappa u'' + V(x) u = E u`` with x in
units of ``l_ref`` and V, E in units of ``xi_ref``.
"""

from __future__ import annotations

from dataclasses import dataclass

# CODATA 2018 values, pinned so results are reproducible across environments.
HBAR_JS = 1.054571817e-34
PLANCK_H_JS = 6.62607015e-34  # exact by SI definition
ATOMIC_MASS_KG = 1.660539067e-27

# The reference scales: 1 micrometre and 1e-31 J, so tau_ref = hbar / xi_ref.
LENGTH_M = 1.0e-6
ENERGY_J = 1.0e-31
TIME_S = HBAR_JS / ENERGY_J


def kinetic_prefactor(mass_kg: float) -> float:
    """Dimensionless kappa = hbar^2 / (2 m l^2 xi)."""
    return HBAR_JS**2 / (2.0 * mass_kg * LENGTH_M**2 * ENERGY_J)


@dataclass(frozen=True, repr=False, eq=False)
class SpeciesConstants:
    """Kinetic prefactors for the boson/fermion pair."""

    kappa_boson: float
    kappa_fermion: float

    @classmethod
    def from_amu(cls, boson_mass_amu: float, fermion_mass_amu: float) -> "SpeciesConstants":
        """Build constants from mass numbers, which ``RunConfig.validate``
        holds positive and ordered."""
        return cls(
            kappa_boson=kinetic_prefactor(boson_mass_amu * ATOMIC_MASS_KG),
            kappa_fermion=kinetic_prefactor(fermion_mass_amu * ATOMIC_MASS_KG),
        )
