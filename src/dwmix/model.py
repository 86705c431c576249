"""Assembly of the full pipeline from a run configuration.

Everything downstream (CLI, sweeps, tests) funnels through ``build_context``
so that a configuration resolves to exactly one model, built the same way
every time: potential -> grid -> doublet modes per species (both bisected
at once) -> composite basis, then, on first read, overlap tensors ->
Hamiltonian blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import RunConfig
from .errors import ConfigError, InvariantError
from .manybody import (
    CompositeBasis,
    CouplingParams,
    HamiltonianBlocks,
    ManyBodyHamiltonian,
    OverlapSet,
    enumerate_bases,
    hamiltonian_blocks,
)
from .modes import DoubletModes, bisect_lowest, build_sp_hamiltonian, solve_doublet
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
NORMALIZATION_TOL = 1.0e-8


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
    return TabulatedPotential.from_csv(pot.table_path)


def resolve_x_max(config: RunConfig, potential) -> float:
    """Explicit box size (``RunConfig.validate`` holds it past the wells), or
    one derived from the potential's own extent.

    A table's box is checked here, before sampling: an explicit box must lie
    inside the table's x range, and a derived one, the largest box that does,
    needs x = 0 strictly inside that range.
    """
    x_max = config.grid.x_max
    if isinstance(potential, TabulatedPotential):
        low, high = float(potential.x_table[0]), float(potential.x_table[-1])
        table = (f"the table of potential.table_path = {config.potential.table_path!r} "
                 f"spans x in [{low!r}, {high!r}]")
        if x_max <= 0.0:
            if not low < 0.0 < high:
                raise ConfigError(f"grid.x_max = {x_max!r} derives the box from the table, "
                                  f"which needs x = 0 strictly inside it, but {table}")
            return min(-low, high)
        if not (low <= -x_max and x_max <= high):
            raise ConfigError(f"grid.x_max = {x_max!r} puts the box [-{x_max!r}, {x_max!r}] "
                              f"outside the table: {table}")
        return x_max
    if x_max > 0.0:
        return x_max
    if isinstance(potential, DoubleSquareWell):
        return potential.outer_edge + X_MARGIN
    return potential.minimum_pos * 2.0 + X_MARGIN


def _check_normalized(mode: np.ndarray, grid: Grid, name: str) -> None:
    norm = grid.inner(mode, mode)
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise InvariantError(f"{name} mode is not normalized (<phi|phi> = {norm:.12f})")


@dataclass(frozen=True, repr=False, eq=False)
class ModelContext:
    """One model: grid, doublet modes and composite basis, built with it.

    The overlap tensors and the Hamiltonian blocks are built on first read
    and kept, so a run pays only for what it reads: ``validate-config`` stops
    after the doublet and the basis, and ``solve-modes`` builds the overlaps
    its manifest reports but no blocks.
    """

    config: RunConfig
    species: SpeciesConstants
    grid: Grid
    boson_modes: DoubletModes
    fermion_modes: DoubletModes
    basis: CompositeBasis

    @cached_property
    def overlaps(self) -> OverlapSet:
        b, f = self.boson_modes, self.fermion_modes
        return OverlapSet(
            boson=overlap_tensor(b.psi_left, b.psi_right, self.grid),
            fermion=overlap_tensor(f.psi_left, f.psi_right, self.grid),
            cross=cross_species_tensor(
                b.psi_left, b.psi_right, f.psi_left, f.psi_right, self.grid
            ),
        )

    @cached_property
    def blocks(self) -> HamiltonianBlocks:
        return hamiltonian_blocks(self.boson_modes, self.fermion_modes, self.overlaps, self.basis)

    @property
    def min_splitting(self) -> float:
        return min(self.boson_modes.splitting, self.fermion_modes.splitting)

    def hamiltonian(self) -> ManyBodyHamiltonian:
        c = self.config.couplings
        return self.blocks.compose(CouplingParams(c.lambda_bb, c.lambda_ff, c.lambda_bf))


def build_context(config: RunConfig) -> ModelContext:
    """The model of a config that ``RunConfig.validate`` passed (as
    ``parse_config`` and ``load_config`` return them); nothing here checks
    a config key again."""
    species = SpeciesConstants.from_amu(
        boson_mass_amu=config.species.boson_mass_amu,
        fermion_mass_amu=config.species.fermion_mass_amu,
    )
    potential = build_potential(config)
    grid = Grid(x_max=resolve_x_max(config, potential), n_points=config.grid.n_points)
    v = sample_on_grid(potential, grid)

    # Both species are bisected at once where a second CPU is free; the rest
    # of each solve, and all of its checks, runs here in order, bosons first.
    boson_bisection, fermion_bisection = bisect_lowest(
        [build_sp_hamiltonian(kappa, v, grid)
         for kappa in (species.kappa_boson, species.kappa_fermion)]
    )
    boson_modes = solve_doublet(
        boson_bisection, grid, min_gap_ratio=config.model.min_gap_ratio
    )
    fermion_modes = solve_doublet(
        fermion_bisection, grid, min_gap_ratio=config.model.min_gap_ratio
    )
    # The modes' norm is an invariant of every model, checked here once: the
    # overlap tensors built from these modes do not check it again.
    for name, modes in (("boson", boson_modes), ("fermion", fermion_modes)):
        _check_normalized(modes.psi_left, grid, f"{name} left")
        _check_normalized(modes.psi_right, grid, f"{name} right")
    basis = enumerate_bases(config.model.spin_sector)
    return ModelContext(
        config=config,
        species=species,
        grid=grid,
        boson_modes=boson_modes,
        fermion_modes=fermion_modes,
        basis=basis,
    )
