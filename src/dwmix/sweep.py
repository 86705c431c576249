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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import COUPLING_NAMES, PLANE_AXES
from .errors import DwmixError, SweepError
from .manybody import CouplingParams, HamiltonianBlocks, ground_state
from .observables import species_entropies

# Cells per batched solve.  On a 256x256 map (2-core Xeon, numpy 2.4) the
# solve took 2.5, 1.6 and 1.9 us per cell at 2048, 4096 and 8192 cells
# (median of 7), while its working set grows at about 950 B per cell
# (tracemalloc peak of one ``SectorBlocks.ground_states`` call: 1.88, 3.72
# and 7.26 MiB).  tests/test_sweep.py holds a chunk's working set to 4 MiB.
CHUNK_CELLS = 4096


@dataclass(frozen=True, repr=False, eq=False)
class AxisSpec:
    """One linearly spaced sweep axis; ``RunConfig.validate`` checks its values."""

    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.start], dtype=float)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True, repr=False, eq=False)
class SweepSpec:
    """Which plane to scan, over what ranges, with what held fixed (the
    couplings of ``PLANE_AXES[plane]`` that no axis sets)."""

    plane: str
    x_axis: AxisSpec
    fixed: dict[str, float]
    y_axis: AxisSpec | None = None
    reference: CouplingParams | None = None

    def couplings_at(self, x_value: float, y_value: float | None) -> CouplingParams:
        x_name, y_name, _ = PLANE_AXES[self.plane]
        values = dict(self.fixed)
        values[x_name] = float(x_value)
        if y_name is not None:
            values[y_name] = float(y_value)
        return CouplingParams(**values)

    def coupling_rows(self) -> np.ndarray:
        """Couplings of every cell, ordered as COUPLING_NAMES, row-major over (x, y).

        Every value lies between its axis's start and stop, so the
        strong-coupling warning runs on those two corners only, not once per
        cell.
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


@dataclass(frozen=True, repr=False, eq=False)
class FidelitySurface:
    x_values: np.ndarray
    y_values: np.ndarray
    fidelity: np.ndarray  # shape (len(x), len(y))
    degenerate: np.ndarray  # bool, same shape
    gap: np.ndarray  # E1 - E0, same shape
    max_residual: float  # largest ||(H - E0) x|| of a ground pair
    reference_energy: float


@dataclass(frozen=True, repr=False, eq=False)
class EntropyCurve:
    lambda_ff: np.ndarray
    entropy: np.ndarray  # both species' entropy: the ground states are pure
    degenerate: np.ndarray
    gap: np.ndarray
    max_residual: float

    @property
    def argmax_lambda(self) -> float:
        return float(self.lambda_ff[int(np.argmax(self.entropy))])


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
    the blocks' one sector projection, and a failure at either is raised as
    a SweepError that names its couplings.  ``workers`` changes nothing: the CLI
    passes its ``--workers`` value only so that ``perfbench/tracing.py``,
    which names a map's span after this keyword, can tell its 1- and 2-worker
    ops apart.
    """
    try:
        ref_gs = ground_state(blocks.compose(spec.reference))
    except DwmixError as exc:
        named = ", ".join(f"{k}={v!r}" for k, v in spec.reference.as_dict().items())
        raise SweepError(
            f"fidelity reference failed at {named}: {type(exc).__name__}: {exc}"
        ) from exc
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
        reference_energy=ref_gs.energy,
    )


def entropy_scan(blocks: HamiltonianBlocks, spec: SweepSpec) -> EntropyCurve:
    """Species entanglement entropies of the ground state along a line."""
    xs = spec.x_axis.values()

    def where(index: int) -> str:
        return f"entropy scan failed at point {index}, lambda_ff={float(xs[index])!r}"

    gap, degen, residual, entropy = _solve_chunks(
        blocks, spec.coupling_rows(), where,
        lambda vectors: (species_entropies(vectors, blocks.basis),),
    )
    return EntropyCurve(
        lambda_ff=xs,
        entropy=entropy,
        degenerate=degen,
        gap=gap,
        max_residual=float(residual.max()),
    )
