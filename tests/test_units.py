import pytest

from dwmix.errors import ConfigError
from dwmix.units import (
    ATOMIC_MASS_KG,
    ENERGY_J,
    HBAR_JS,
    PLANCK_H_JS,
    TIME_S,
    SpeciesConstants,
    kinetic_prefactor,
)

# Frozen from an independent evaluation of kappa = hbar^2 / (2 m l^2 xi)
# with the constants pinned in dwmix.units (l = 1 um, xi = 1e-31 J).
KAPPA_BOSON_170 = 0.196980985999906
KAPPA_FERMION_171 = 0.19582905040926324


def test_kinetic_prefactor_formula():
    m = 170.0 * ATOMIC_MASS_KG
    expected = HBAR_JS**2 / (2.0 * m * (1.0e-6) ** 2 * 1.0e-31)
    assert kinetic_prefactor(m) == expected


def test_kappa_frozen_values():
    species = SpeciesConstants.from_amu(170.0, 171.0)
    assert species.kappa_boson == pytest.approx(KAPPA_BOSON_170, abs=1e-15)
    assert species.kappa_fermion == pytest.approx(KAPPA_FERMION_171, abs=1e-15)
    # Heavier particle, smaller prefactor.
    assert species.kappa_fermion < species.kappa_boson


def test_mass_ratio_matches_kappa_ratio():
    species = SpeciesConstants.from_amu(170.0, 171.0)
    assert species.kappa_boson / species.kappa_fermion == pytest.approx(
        171.0 / 170.0, rel=1e-14
    )


def test_energy_from_hz():
    # h * 4700 Hz over the default energy scale is the default trap depth.
    assert PLANCK_H_JS * 4700.0 / ENERGY_J == pytest.approx(
        31.142529704999994, abs=1e-12
    )


def test_time_scale():
    assert TIME_S == pytest.approx(HBAR_JS / 1.0e-31, rel=1e-15)


def test_pinned_constants():
    assert HBAR_JS == 1.054571817e-34
    assert PLANCK_H_JS == 6.62607015e-34
    assert ATOMIC_MASS_KG == 1.660539067e-27


def test_species_ordering_enforced(config_factory):
    # SpeciesConstants are built from config masses, so the config holds
    # the masses' rules.
    with pytest.raises(ConfigError, match="species.fermion_mass_amu = 170.0 is below"):
        config_factory(**{"species.boson_mass_amu": 171.0, "species.fermion_mass_amu": 170.0})
    with pytest.raises(ConfigError, match="species.boson_mass_amu must be positive"):
        config_factory(**{"species.boson_mass_amu": -1.0})
