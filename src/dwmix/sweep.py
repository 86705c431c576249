"""Parameter-plane and parameter-line scans over coupling space.

A sweep evaluates the interacting ground state over a coupling grid, against
fixed single-particle inputs (modes and overlap tensors are computed once and
shared read-only).  The Hamiltonian blocks are projected once onto the
basis's symmetry sectors (``HamiltonianBlocks.sectors``).  Cells are solved
in chunks of CHUNK_CELLS: one product composes a chunk's sector blocks, and
each step of the numpy solver in ``SectorBlocks.ground_states`` (Householder
reduction, Laguerre's iteration for each sector's lowest eigenvalue, inverse
iteration for the winning sector's vector) runs once over every cell of the
chunk.  The chunks are solved one after another on the calling thread, and
output order is row-major over the grid.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DwmixError, SweepError
from .manybody import COUPLING_NAMES, CouplingParams, HamiltonianBlocks, ground_state
from .observables import species_entropies

# plane tag -> (x axis coupling, y axis coupling, fixed couplings)
PLANE_AXES: dict[str, tuple[str, str | None, tuple[str, ...]]] = {
    "ff_bf": ("lambda_ff", "lambda_bf", ("lambda_bb",)),
    "bb_bf": ("lambda_bb", "lambda_bf", ("lambda_ff",)),
    "bb_ff": ("lambda_bb", "lambda_ff", ("lambda_bf",)),
    "line_ff": ("lambda_ff", None, ("lambda_bb", "lambda_bf")),
}

# Cells per batched solve.  On a 256x256 map (2-core Xeon, numpy 2.4) the
# solve took 2.5, 1.6 and 1.9 us per cell at 2048, 4096 and 8192 cells
# (median of 7), while its working set grows at about 950 B per cell
# (tracemalloc peak of one ``SectorBlocks.ground_states`` call: 1.88, 3.72
# and 7.26 MiB).  tests/test_sweep.py holds a chunk's working set to 4 MiB.
CHUNK_CELLS = 4096


@dataclass(frozen=True)
class AxisSpec:
    """One linearly spaced sweep axis."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError("axis resolution must be at least 1")
        if self.stop < self.start:
            raise ConfigError("axis range must have stop >= start")
        if self.stop == self.start and self.count > 1:
            raise ConfigError("degenerate axis range needs resolution 1")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.start], dtype=float)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Which plane to scan, over what ranges, with what held fixed."""

    plane: str
    x_axis: AxisSpec
    y_axis: AxisSpec | None = None
    fixed: dict[str, float] | None = None
    reference: CouplingParams | None = None

    def __post_init__(self) -> None:
        if self.plane not in PLANE_AXES:
            raise ConfigError(f"unknown sweep plane {self.plane!r}")
        x_name, y_name, fixed_names = PLANE_AXES[self.plane]
        if (y_name is None) != (self.y_axis is None):
            raise ConfigError(
                f"plane {self.plane!r} "
                + ("takes no y axis" if y_name is None else "needs a y axis")
            )
        fixed = dict(self.fixed or {})
        if set(fixed) != set(fixed_names):
            raise ConfigError(
                f"plane {self.plane!r} must fix exactly {sorted(fixed_names)}, "
                f"got {sorted(fixed)}"
            )
        axis_names = {x_name} | ({y_name} if y_name else set())
        if axis_names | set(fixed) != set(COUPLING_NAMES):
            raise ConfigError("axes plus fixed couplings must cover all three couplings")
        object.__setattr__(self, "fixed", fixed)

    def couplings_at(self, x_value: float, y_value: float | None) -> CouplingParams:
        x_name, y_name, _ = PLANE_AXES[self.plane]
        values = dict(self.fixed)
        values[x_name] = float(x_value)
        if y_name is not None:
            values[y_name] = float(y_value)
        return CouplingParams(**values)

    def coupling_rows(self) -> np.ndarray:
        """Couplings of every cell, ordered as COUPLING_NAMES, row-major over (x, y).

        Every value lies between its axis's start and stop, so the coupling
        checks and the strong-coupling warning run on those two corners
        only, not once per cell.
        """
        y_axis = self.y_axis
        self.couplings_at(self.x_axis.start, y_axis.start if y_axis else None)
        self.couplings_at(self.x_axis.stop, y_axis.stop if y_axis else None)
        x_name, y_name, _ = PLANE_AXES[self.plane]
        xs = self.x_axis.values()
        ys = y_axis.values() if y_axis else np.zeros(1)
        columns = {name: np.full(xs.size * ys.size, value)
                   for name, value in self.fixed.items()}
        columns[x_name] = np.repeat(xs, ys.size)
        if y_name is not None:
            columns[y_name] = np.tile(ys, xs.size)
        return np.column_stack([columns[name] for name in COUPLING_NAMES])


@dataclass(frozen=True)
class FidelitySurface:
    x_values: np.ndarray
    y_values: np.ndarray
    fidelity: np.ndarray  # shape (len(x), len(y))
    degenerate: np.ndarray  # bool, same shape
    gap: np.ndarray  # E1 - E0, same shape
    max_residual: float  # largest ||(H - E0) x|| of a ground pair
    reference: CouplingParams
    reference_energy: float
    wall_time_s: float


@dataclass(frozen=True)
class EntropyCurve:
    lambda_ff: np.ndarray
    s_bosons: np.ndarray
    s_fermions: np.ndarray
    degenerate: np.ndarray
    gap: np.ndarray
    max_residual: float
    wall_time_s: float

    @property
    def argmax_lambda(self) -> float:
        return float(self.lambda_ff[int(np.argmax(self.s_bosons))])


def _solve_chunks(
    blocks: HamiltonianBlocks,
    couplings: np.ndarray,
    where: Callable[[int], str],
    kernel: Callable[[np.ndarray], tuple],
) -> list[np.ndarray]:
    """Ground states of every coupling row, solved in fixed-size chunks.

    The chunks are solved in order on the calling thread.  Each is solved
    per symmetry sector (see ``SectorBlocks.ground_states``); ``kernel`` maps
    its ground vectors to a tuple of per-cell arrays.  Returns the gaps and
    the degenerate flags over all rows in order, the largest ground-pair
    residual of each chunk, and the kernel's arrays over all rows in order.
    A batched check that fails is raised as a SweepError that ``where``
    words for the first failing row.
    """
    sectors = blocks.sectors
    chunks = []
    for start in range(0, len(couplings), CHUNK_CELLS):
        try:
            _, gap, degenerate, vectors, residual = sectors.ground_states(
                couplings[start : start + CHUNK_CELLS]
            )
            chunks.append((gap, degenerate, residual.max(keepdims=True), *kernel(vectors)))
        except DwmixError as exc:
            if exc.index is None:
                raise
            raise SweepError(
                f"{where(start + exc.index)}: {type(exc).__name__}: {exc}"
            ) from exc
    return [np.concatenate(parts) for parts in zip(*chunks)]


def fidelity_map(
    blocks: HamiltonianBlocks, spec: SweepSpec, *, workers: int = 1
) -> FidelitySurface:
    """Ground-state fidelity against the reference over a coupling plane.

    The reference (by ``manybody.ground_state``) and the cells are solved on
    the blocks' one sector projection.  ``workers`` changes nothing: the CLI
    passes its ``--workers`` value only so that ``perfbench/tracing.py``,
    which names a map's span after this keyword, can tell its 1- and 2-worker
    ops apart.
    """
    if spec.reference is None:
        raise ConfigError("fidelity sweeps need reference couplings")
    started = time.perf_counter()
    ref_gs = ground_state(blocks.compose(spec.reference))
    xs = spec.x_axis.values()
    ys = spec.y_axis.values() if spec.y_axis is not None else np.array([0.0])

    def where(index: int) -> str:
        i, j = divmod(index, len(ys))
        return (f"fidelity sweep failed at cell ({i}, {j}), "
                f"x={float(xs[i])!r}, y={float(ys[j])!r}")

    gap, degen, residual, fid = _solve_chunks(
        blocks, spec.coupling_rows(), where,
        lambda vectors: (np.minimum(np.abs(vectors @ ref_gs.vector), 1.0),),
    )
    return FidelitySurface(
        x_values=xs,
        y_values=ys,
        fidelity=fid.reshape(len(xs), len(ys)),
        degenerate=degen.reshape(len(xs), len(ys)),
        gap=gap.reshape(len(xs), len(ys)),
        max_residual=float(residual.max()),
        reference=spec.reference,
        reference_energy=ref_gs.energy,
        wall_time_s=time.perf_counter() - started,
    )


def entropy_scan(blocks: HamiltonianBlocks, spec: SweepSpec) -> EntropyCurve:
    """Species entanglement entropies of the ground state along a line."""
    if spec.plane != "line_ff":
        raise ConfigError("entropy scans run on the 'line_ff' plane")
    started = time.perf_counter()
    xs = spec.x_axis.values()

    def where(index: int) -> str:
        return f"entropy scan failed at point {index}, lambda_ff={float(xs[index])!r}"

    gap, degen, residual, sb, sf = _solve_chunks(
        blocks, spec.coupling_rows(), where,
        lambda vectors: species_entropies(vectors, blocks.basis),
    )
    return EntropyCurve(
        lambda_ff=xs,
        s_bosons=sb,
        s_fermions=sf,
        degenerate=degen,
        gap=gap,
        max_residual=float(residual.max()),
        wall_time_s=time.perf_counter() - started,
    )
