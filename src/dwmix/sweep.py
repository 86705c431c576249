"""Parameter-plane and parameter-line scans over coupling space.

A sweep evaluates the interacting ground state over a coupling grid, against
fixed single-particle inputs (modes and overlap tensors are computed once and
shared read-only), on the model's ``HamiltonianBlocks``: its symmetry
sectors hold 5, 4, 2 and 1 states.  Cells are solved in chunks of
CHUNK_CELLS: one product composes a chunk's sector blocks, and each step of
the numpy solver in ``HamiltonianBlocks.ground_states`` (Householder
reduction, Laguerre's iteration for each sector's lowest eigenvalue, inverse
iteration for the winning sector's vector) runs once over every cell of the
chunk.  A sweep of more than one chunk is solved in two processes (see
``in_two_processes``): a forked child solves the second half of the chunk
list while the caller solves the first.  Chunk boundaries do not depend on
the split, and output order is row-major over the grid.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import signal
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .config import COUPLING_NAMES, PLANE_AXES
from .errors import DwmixError, InvariantError, SweepError
from .manybody import CouplingParams, HamiltonianBlocks, ground_state
from .modes import other_cpus
from .observables import species_entropies

# Cells per batched solve: a power of two whose working set (950 B a cell,
# tracemalloc peak of one ``HamiltonianBlocks.ground_states`` call) stays in
# the 4 MiB that tests/test_sweep.py allows.  Speed does not set it: a 256x256
# map (2-core Xeon, numpy 2.4.6) took 126-137, 102-108, 91-96 and 93-103 ms
# at 2048, 4096, 8192 and 16384 cells (medians of 7, two runs), in one process;
# in two, 140-196 ms at 8192, 42-63 ms at 4096, and 44-55 ms at 8192 with
# OPENBLAS_NUM_THREADS=1, as OpenBLAS's own threads then share each process's CPU.
CHUNK_CELLS = 4096


def halves(items: Sequence, cells: int) -> tuple[Sequence, Sequence]:
    """A job's two parts for ``in_two_processes``: ``items`` split in the
    middle (the caller's part the larger) when the job spans more than
    CHUNK_CELLS cells, else whole and empty."""
    if cells <= CHUNK_CELLS:
        return items, items[:0]
    middle = (len(items) + 1) // 2
    return items[:middle], items[middle:]


def in_two_processes(fn: Callable[[Any], Any], first: Sequence, second: Sequence) -> tuple:
    """``(fn(first), fn(second))``, with ``fn(second)`` run in a forked child.

    The fork is taken only when ``second`` is non-empty and
    ``modes.other_cpus`` names a CPU, and the child moves itself there;
    otherwise, or if the fork fails, both calls run here, in order.  The
    child sends back its result, or the exception it raised (its message and
    ``index`` kept), together with the warnings it recorded, which are
    re-emitted here in order.  If ``fn(first)`` raises, the child is killed
    and that error is raised: it covers the earlier part.  A child that dies
    without a result, or whose exception cannot be pickled, raises
    InvariantError.  The child is reaped on every path.

    Safe to fork: no other Python thread is alive (``modes`` joins its
    bisection thread inside ``build_context``), and OpenBLAS quiesces its
    thread pool in its own atfork handler.  Python 3.12 still warns
    (DeprecationWarning) on any fork from a process with other OS threads,
    which that pool is; the warning is left to the caller's filters.  The
    child imports nothing (``pickle`` is imported above, and a child that
    imported could deadlock on an import lock another thread held at the
    fork), runs no ``atexit`` handler and flushes no inherited buffer: it
    leaves through ``os._exit``.
    """
    cpus = other_cpus() if second else set()
    if not cpus:
        return fn(first), fn(second)
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: the same work, in order, here
        os.close(read_fd)
        os.close(write_fd)
        return fn(first), fn(second)
    if pid == 0:
        _child(fn, second, read_fd, write_fd, cpus)
    os.close(write_fd)
    reaped = False
    try:
        mine = fn(first)
        with os.fdopen(read_fd, "rb") as pipe:
            read_fd = None
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
    finally:
        if read_fd is not None:
            os.close(read_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        raise InvariantError(
            "the process of the second half died of "
            f"{signal.Signals(os.WTERMSIG(status)).name} without a result")
    if os.waitstatus_to_exitcode(status) != 0:
        raise InvariantError(
            "the process of the second half exited with code "
            f"{os.waitstatus_to_exitcode(status)} without a result")
    outcome, value, caught = pickle.loads(payload)
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno)
    if outcome == "raised":
        raise value
    if outcome == "unpicklable":
        raise InvariantError(f"the process of the second half raised {value}")
    return mine, value


def _child(fn: Callable, part, read_fd: int, write_fd: int, cpus: set[int]) -> None:
    """The forked side of ``in_two_processes``, run on ``cpus``: never returns."""
    code = 1
    try:
        with contextlib.suppress(OSError):  # a mask changed since: stay put
            os.sched_setaffinity(0, cpus)
        # The caller's garbage is the caller's: a finalizer run here could
        # flush a buffer that the caller flushes too.
        gc.disable()
        os.close(read_fd)
        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = ("returned", fn(part))
            except BaseException as exc:  # relayed to the caller
                outcome = ("raised", exc)
        relayed = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        try:
            payload = pickle.dumps((*outcome, relayed), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an outcome that cannot be pickled is named
            kind, value = outcome
            text = (f"{type(value).__name__}: {value}" if kind == "raised"
                    else f"a result that cannot be pickled ({type(exc).__name__}: {exc})")
            payload = pickle.dumps(("unpicklable", text, []))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


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

    Each chunk is solved per symmetry sector (see
    ``HamiltonianBlocks.ground_states``); ``kernel`` maps its ground vectors
    to a tuple of per-cell arrays.  With more than one chunk, a forked child
    solves the second half of the chunk list (``in_two_processes``).  Returns
    the gaps and the degenerate flags over all rows in order, the largest
    ground-pair residual of each chunk, and the kernel's arrays over all rows
    in order.  A batched check that fails is raised as a SweepError that
    ``where`` words for the first failing row; a failure in the first half
    is raised before one in the second.
    """
    def solve(starts: range) -> list[tuple]:
        chunks = []
        for start in starts:
            try:
                _, gap, degenerate, vectors, residual = blocks.ground_states(
                    couplings[start : start + CHUNK_CELLS]
                )
                chunks.append((gap, degenerate, residual.max(keepdims=True),
                               *kernel(vectors)))
            except DwmixError as exc:
                if exc.index is None:
                    raise
                raise SweepError(
                    f"{where(start + exc.index)}: {type(exc).__name__}: {exc}"
                ) from exc
        return chunks

    starts = range(0, len(couplings), CHUNK_CELLS)
    first, second = in_two_processes(solve, *halves(starts, len(couplings)))
    return [np.concatenate(parts) for parts in zip(*first, *second)]


def fidelity_map(
    blocks: HamiltonianBlocks, spec: SweepSpec, *, workers: int = 1
) -> FidelitySurface:
    """Ground-state fidelity against the reference over a coupling plane.

    The reference (by ``manybody.ground_state``) and the cells are solved on
    the blocks' one sector projection, and a failure at either is raised as
    a SweepError that names its couplings.  A plane of more than CHUNK_CELLS
    cells uses two processes where two CPUs are free (see ``_solve_chunks``),
    with the same bytes as one.  ``workers`` changes nothing: the CLI passes
    its ``--workers`` value only so that ``perfbench/tracing.py``, which
    names a map's span after this keyword, can tell its 1- and 2-worker ops
    apart.
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
