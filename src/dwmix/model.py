"""Assembly of the full pipeline from a run configuration.

Everything downstream (CLI, sweeps, tests) funnels through ``build_context``
so that a configuration resolves to exactly one model, built the same way
every time: potential -> grid -> doublet modes per species -> overlap
tensors -> composite basis -> Hamiltonian blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import RunConfig
from .errors import ConfigError
from .manybody import (
    CompositeBasis,
    CouplingParams,
    HamiltonianBlocks,
    ManyBodyHamiltonian,
    OverlapSet,
    enumerate_bases,
    hamiltonian_blocks,
)
from .modes import DoubletModes, solve_doublet
from .overlaps import cross_species_tensor, overlap_tensor
from .potential import (
    DoubleSquareWell,
    Grid,
    QuarticDoubleWell,
    TabulatedPotential,
    sample_on_grid,
)
from .units import SpeciesConstants

X_MARGIN = 1.0


def build_potential(config: RunConfig):
    """Potential object for the configured shape."""
    pot = config.potential
    if pot.shape == "double_square_well":
        return DoubleSquareWell(
            separation=pot.separation,
            well_width=pot.well_width,
            depth=pot.depth,
            smoothing=pot.smoothing,
        )
    if pot.shape == "quartic":
        return QuarticDoubleWell(minimum_pos=pot.minimum_pos, barrier=pot.barrier)
    if pot.shape == "tabulated":
        return TabulatedPotential.from_csv(pot.table_path)
    raise ConfigError(f"unsupported potential shape {pot.shape!r}")


def resolve_x_max(config: RunConfig, potential) -> float:
    """Explicit box size, or one derived from the potential's own extent.

    An explicit box must reach past the outer edge of a square well or the
    minimum of a quartic one; a smaller box would set the tunneling by its
    walls instead of the barrier.
    """
    x_max = config.grid.x_max
    if isinstance(potential, DoubleSquareWell):
        edge = potential.outer_edge
        return _box(x_max, edge, edge + X_MARGIN, "outer well edge")
    if isinstance(potential, QuarticDoubleWell):
        minimum = potential.minimum_pos
        return _box(x_max, minimum, minimum * 2.0 + X_MARGIN, "quartic minimum")
    if x_max > 0.0:
        return x_max
    if isinstance(potential, TabulatedPotential):
        return float(min(abs(potential.x_table[0]), potential.x_table[-1]))
    raise ConfigError("grid.x_max must be set for this potential")


def _box(x_max: float, extent: float, derived: float, what: str) -> float:
    """``derived`` when x_max is 0 (unset), else x_max if it exceeds ``extent``."""
    if x_max == 0.0:
        return derived
    if x_max <= extent:
        raise ConfigError(
            f"grid.x_max = {x_max} does not contain the wells: it must exceed "
            f"the {what} at {extent}"
        )
    return x_max


@dataclass(frozen=True)
class ModelContext:
    """One fully built model: grid, modes, tensors, and Hamiltonian blocks."""

    config: RunConfig
    species: SpeciesConstants
    grid: Grid
    boson_modes: DoubletModes
    fermion_modes: DoubletModes
    overlaps: OverlapSet
    basis: CompositeBasis
    blocks: HamiltonianBlocks

    @property
    def min_splitting(self) -> float:
        return min(self.boson_modes.splitting, self.fermion_modes.splitting)

    def hamiltonian(self) -> ManyBodyHamiltonian:
        c = self.config.couplings
        return self.blocks.compose(CouplingParams(c.lambda_bb, c.lambda_ff, c.lambda_bf))


def build_context(config: RunConfig) -> ModelContext:
    config.validate()
    species = SpeciesConstants.from_amu(
        boson_mass_amu=config.species.boson_mass_amu,
        fermion_mass_amu=config.species.fermion_mass_amu,
    )
    potential = build_potential(config)
    grid = Grid(x_max=resolve_x_max(config, potential), n_points=config.grid.n_points)
    v = sample_on_grid(potential, grid)

    boson_modes = solve_doublet(
        species.kappa_boson, v, grid, min_gap_ratio=config.model.min_gap_ratio
    )
    fermion_modes = solve_doublet(
        species.kappa_fermion, v, grid, min_gap_ratio=config.model.min_gap_ratio
    )
    overlaps = OverlapSet(
        boson=overlap_tensor(boson_modes.psi_left, boson_modes.psi_right, grid),
        fermion=overlap_tensor(fermion_modes.psi_left, fermion_modes.psi_right, grid),
        cross=cross_species_tensor(
            boson_modes.psi_left,
            boson_modes.psi_right,
            fermion_modes.psi_left,
            fermion_modes.psi_right,
            grid,
        ),
    )
    basis = enumerate_bases(
        sector=config.model.spin_sector, fermion_variant=config.model.fermion_basis
    )
    blocks = hamiltonian_blocks(boson_modes, fermion_modes, overlaps, basis)
    return ModelContext(
        config=config,
        species=species,
        grid=grid,
        boson_modes=boson_modes,
        fermion_modes=fermion_modes,
        overlaps=overlaps,
        basis=basis,
        blocks=blocks,
    )
