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

DEFAULT_LENGTH_M = 1.0e-6
DEFAULT_ENERGY_J = 1.0e-31


@dataclass(frozen=True, repr=False, eq=False)
class UnitSystem:
    """Reference scales tying dimensionless model numbers to SI.

    Attributes
    ----------
    length_m:
        Reference length in metres (default 1 micrometre).
    energy_j:
        Reference energy in joules.
    """

    length_m: float = DEFAULT_LENGTH_M
    energy_j: float = DEFAULT_ENERGY_J

    def __post_init__(self) -> None:
        if self.length_m <= 0.0 or self.energy_j <= 0.0:
            raise ValueError("reference scales must be positive")

    @property
    def time_s(self) -> float:
        """Reference time tau = hbar / xi in seconds."""
        return HBAR_JS / self.energy_j

    def kinetic_prefactor(self, mass_kg: float) -> float:
        """Dimensionless kappa = hbar^2 / (2 m l^2 xi)."""
        return HBAR_JS**2 / (2.0 * mass_kg * self.length_m**2 * self.energy_j)


DEFAULT_UNITS = UnitSystem()


@dataclass(frozen=True, repr=False, eq=False)
class SpeciesConstants:
    """Kinetic prefactors for the boson/fermion pair."""

    kappa_boson: float
    kappa_fermion: float

    @classmethod
    def from_amu(
        cls, boson_mass_amu: float = 170.0, fermion_mass_amu: float = 171.0
    ) -> "SpeciesConstants":
        """Build constants in DEFAULT_UNITS from mass numbers (defaults: Yb-170
        and Yb-171); ``RunConfig.validate`` holds them positive and ordered."""
        return cls(
            kappa_boson=DEFAULT_UNITS.kinetic_prefactor(boson_mass_amu * ATOMIC_MASS_KG),
            kappa_fermion=DEFAULT_UNITS.kinetic_prefactor(fermion_mass_amu * ATOMIC_MASS_KG),
        )
