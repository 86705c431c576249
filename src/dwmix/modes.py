"""Single-particle doublet solver and localized-mode construction.

The stationary problem ``-kappa u'' + V u = E u`` on a hard-wall box is
discretized with second-order central differences on the interior nodes.
The four lowest energies come from LAPACK bisection (``stebz``) on the full
grid.  The sampled potential is even, so the matrix splits into an even and
an odd sector on the half grid x >= 0: the even one couples the centre node
with sqrt(2) * e and stores u(0) / sqrt(2); the odd one has u(0) = 0.  Each
doublet state is the ground state of its own sector, found by inverse
iteration (``gtsv``) at the bisected energy and mirrored onto the full grid,
so its parity holds by construction.

Two precision guards raise :class:`SolverError`: the splitting must exceed
the bisection error bound 2 eps max_i(|d_i| + 2|e|) by 1 / SPLITTING_RTOL,
and each sector state's Rayleigh quotient must lie within half the
splitting of its energy.  The doublet must also be well separated from the
rest of the spectrum, otherwise the two-mode truncation used everywhere
downstream is invalid and we refuse to continue.

Both LAPACK routines come from scipy's compiled extension
``scipy.linalg._flapack``, the module ``scipy.linalg.lapack`` re-exports
them from.  It is loaded from its file: importing ``scipy.linalg`` would run
the whole package and its array-API layer, which costs more than half of a
cold CLI run.  ``gtsv`` is called through its f2py wrapper.  ``stebz`` is
called through the pointer to the Fortran routine that its wrapper carries
and calls, with the wrapper's own arguments, so its output is the same to
the byte; that call releases the GIL, so :func:`bisect_lowest` bisects both
species at once where :func:`other_cpus` names a CPU, moving a thread there.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
from types import ModuleType

import numpy as np

from .errors import SolverError
from .potential import Grid

# The doublet splitting must exceed the bisection error bound by this factor.
SPLITTING_RTOL = 1.0e-5
RIGHT_MASS_MIN = 0.9
_N_LOW_STATES = 4
_INVERSE_STEPS = 2

_EPS = float(np.finfo(float).eps)
_SQRT2 = np.sqrt(2.0)
_SQRT_HALF = np.sqrt(0.5)


def _scipy_dir() -> Path:
    """scipy's install directory, found without importing scipy."""
    spec = find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("dwmix needs scipy's compiled LAPACK routines, and no scipy "
                          "package is on the module search path")
    return Path(spec.submodule_search_locations[0])


def _load_flapack(scipy_dir: Path) -> ModuleType:
    """Load ``linalg/_flapack`` under ``scipy_dir`` as ``scipy.linalg._flapack``.

    The module stays out of ``sys.modules``, so a later ``import scipy.linalg``
    in the same process loads it the usual way.
    """
    directory = scipy_dir / "linalg"
    for suffix in EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            spec = spec_from_file_location("scipy.linalg._flapack", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from importlib.metadata import PackageNotFoundError, version

    try:
        found = f"scipy {version('scipy')}"
    except PackageNotFoundError:
        found = "no installed scipy distribution"
    raise ImportError(f"no compiled LAPACK extension _flapack in {directory} ({found})")


def _compiled_routine(routine, prototype):
    """The Fortran routine an f2py wrapper calls, as a ``prototype`` function.

    Each f2py routine object holds its routine's address in a capsule,
    ``_cpointer``; the capsule's name (None today) is read first, since
    ``PyCapsule_GetPointer`` must be given it.
    """
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule = routine._cpointer
    return prototype(get_pointer(capsule, get_name(capsule)))


_flapack = _load_flapack(_scipy_dir())
dgtsv = _flapack.dgtsv

# scipy's stebz signature: (*f2py_func)(range, order, &n, &vl, &vu, &il, &iu,
# &tol, d, e, &m, &nsplit, w, iblock, isplit, work, iwork, &info), every
# argument by reference, no hidden string lengths, and F_INT a C int (the
# extension is built LP64).  A CFUNCTYPE call releases the GIL.
_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_STEBZ = _compiled_routine(_flapack.dstebz, ctypes.CFUNCTYPE(
    None, ctypes.c_char_p, ctypes.c_char_p, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE,
    _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _INT))


@dataclass(frozen=True, repr=False, eq=False)
class Bisection:
    """A tridiagonal Hamiltonian and what ``stebz`` returned for its lowest
    _N_LOW_STATES eigenvalues: ``found`` of them (LAPACK's m) at the head of
    ``energies``, in ascending order, and LAPACK's ``info``."""

    diag: np.ndarray
    off: np.ndarray
    found: int
    energies: np.ndarray
    info: int


@dataclass(frozen=True, repr=False, eq=False)
class DoubletModes:
    """Lowest doublet of the trap plus derived localized modes.

    Attributes
    ----------
    grid:
        Grid the wavefunctions live on.
    energies:
        Four lowest eigenvalues (symmetric, antisymmetric, next two).
    psi_s, psi_a:
        Normalized even/odd doublet states with the sign conventions
        psi_s(0) > 0 and psi_a'(0) > 0.
    psi_left, psi_right:
        Localized combinations; psi_right concentrates on x > 0 and
        psi_left is its exact grid mirror.
    """

    grid: Grid
    energies: np.ndarray
    psi_s: np.ndarray
    psi_a: np.ndarray
    psi_left: np.ndarray
    psi_right: np.ndarray

    @property
    def splitting(self) -> float:
        """Tunneling splitting Omega_1 = E_a - E_s."""
        return float(self.energies[1] - self.energies[0])

    @property
    def mean_energy(self) -> float:
        """Doublet centre (E_s + E_a) / 2."""
        return float(0.5 * (self.energies[0] + self.energies[1]))

    @property
    def tunneling_amplitude(self) -> float:
        """Hopping J = (E_a - E_s) / 2 in the localized basis."""
        return 0.5 * self.splitting

    @property
    def gap_ratio(self) -> float:
        """(E_2 - E_a) / (E_a - E_s): how isolated the doublet is."""
        return float((self.energies[2] - self.energies[1]) / self.splitting)

    def right_mass(self) -> float:
        """Probability weight of psi_right on x > 0 (half the node at 0)."""
        return float(np.dot(_right_weights(self.grid), self.psi_right**2))


def build_sp_hamiltonian(
    kappa: float, v: np.ndarray, grid: Grid
) -> tuple[np.ndarray, np.ndarray]:
    """Interior-node tridiagonal Hamiltonian as (diagonal, off-diagonal)."""
    h = grid.spacing
    diag = 2.0 * kappa / h**2 + v[1:-1]
    off = np.full(grid.n_points - 3, -kappa / h**2)
    return diag, off


def _normalize(u: np.ndarray, grid: Grid) -> np.ndarray:
    return u / np.sqrt(grid.inner(u, u))


def _right_weights(grid: Grid) -> np.ndarray:
    """Trapezoid weights on x > 0, with half the weight of the node at x = 0."""
    w = grid.trapezoid_weights()
    mid = grid.n_points // 2
    w[:mid] = 0.0
    w[mid] *= 0.5
    return w


def _sector_ground_state(
    diag: np.ndarray, off: np.ndarray, energy: float
) -> tuple[np.ndarray, float]:
    """Inverse iteration at ``energy``; return (vector, Rayleigh quotient).

    The sector's ground state is nodeless on the half grid, so the all-ones
    start overlaps it well and a few steps reach it to rounding.
    """
    shifted = diag - energy
    u = np.ones(diag.size)
    for _ in range(_INVERSE_STEPS):
        _, _, _, u, info = dgtsv(off, shifted, off, u)
        if info != 0:
            raise SolverError(f"inverse iteration at E = {energy!r} failed (gtsv info {info})")
        u /= np.linalg.norm(u)
    rayleigh = float(u @ (diag * u) + 2.0 * (off @ (u[:-1] * u[1:])))
    return u, rayleigh


def other_cpus() -> set[int]:
    """The CPUs the calling thread may use besides the one it is on (libc's
    ``int sched_getcpu(void)``, ctypes' default prototype), or none where
    ``os.sched_getaffinity`` allows fewer than two or is missing.  A helper moves
    there, since a kernel that does not balance load leaves it on its creator's CPU."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    return cpus - {ctypes.CDLL(None).sched_getcpu()} if len(cpus) > 1 else set()


def bisect_lowest(
    hamiltonians: Sequence[tuple[np.ndarray, np.ndarray]],
) -> list[Bisection]:
    """Bisect each (diagonal, off-diagonal) pair for its _N_LOW_STATES lowest
    eigenvalues, the first in this thread and the rest at once in one more
    on :func:`other_cpus`, or where that is empty all here, in order.

    Raises :class:`SolverError` before any LAPACK call when a matrix has
    fewer rows than the states solved for (LAPACK would print its
    complaint).  Every argument is built here; the second thread runs only
    the foreign calls, which cannot raise, and is joined before any result
    is read.
    """
    calls, outputs = [], []
    for diag, off in hamiltonians:
        n = diag.size
        if n < _N_LOW_STATES:
            raise SolverError(
                f"the grid has {n} interior nodes; the doublet solve needs "
                f"at least {_N_LOW_STATES}"
            )
        if off.size != n - 1:
            # stebz reads n - 1 off-diagonals whatever the array holds.
            raise ValueError(f"{n} diagonal entries need {n - 1} off-diagonals, not {off.size}")
        diag = np.ascontiguousarray(diag, dtype=float)
        off = np.ascontiguousarray(off, dtype=float)
        found, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
        energies = np.empty(n)
        iblock, isplit, iwork = (np.empty(k * n, dtype=np.intc) for k in (1, 1, 3))
        work = np.empty(4 * n)
        # Range "I" selects by index (1.._N_LOW_STATES); abstol 0 is LAPACK's
        # default, the call eigh_tridiagonal makes.
        zero = ctypes.byref(ctypes.c_double(0.0))
        calls.append((
            b"I", b"E", ctypes.byref(ctypes.c_int(n)), zero, zero,
            ctypes.byref(ctypes.c_int(1)), ctypes.byref(ctypes.c_int(_N_LOW_STATES)), zero,
            diag.ctypes.data_as(_DOUBLE), off.ctypes.data_as(_DOUBLE),
            ctypes.byref(found), ctypes.byref(nsplit), energies.ctypes.data_as(_DOUBLE),
            iblock.ctypes.data_as(_INT), isplit.ctypes.data_as(_INT),
            work.ctypes.data_as(_DOUBLE), iwork.ctypes.data_as(_INT), ctypes.byref(info),
        ))
        outputs.append((diag, off, found, energies, info))
    cpus = other_cpus() if len(calls) > 1 else set()
    if cpus:
        others = threading.Thread(target=_stebz_each, args=(calls[1:], cpus))
        others.start()
        try:
            _STEBZ(*calls[0])
        finally:
            others.join()
    else:
        _stebz_each(calls, cpus)
    return [Bisection(diag, off, found.value, energies, info.value)
            for diag, off, found, energies, info in outputs]


def _stebz_each(calls, cpus: set[int]) -> None:
    if cpus:
        with contextlib.suppress(OSError):  # a mask changed since: stay put
            os.sched_setaffinity(0, cpus)
    for args in calls:
        _STEBZ(*args)


def lowest_doublet(
    bisection: Bisection, grid: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four lowest energies of a bisected single-particle Hamiltonian on
    ``grid``; return (energies, psi_s, psi_a).

    psi_s and psi_a come from the even and odd sectors of the half grid, so
    each has its parity by construction; they are normalized with the
    grid's trapezoid rule, and signs are fixed deterministically:
    psi_s(0) > 0, central-difference psi_a'(0) > 0.  Raises
    :class:`SolverError` when the bisection failed, or when either precision
    guard of the module docstring fails.
    """
    diag, off = bisection.diag, bisection.off
    if bisection.info != 0 or bisection.found != _N_LOW_STATES:
        raise SolverError(f"tridiagonal bisection failed (stebz info {bisection.info})")
    energies = bisection.energies[:_N_LOW_STATES].copy()
    splitting = float(energies[1] - energies[0])
    bound = 2.0 * _EPS * float(np.max(np.abs(diag)) + 2.0 * abs(off[0]))
    if not bound <= SPLITTING_RTOL * splitting:
        raise SolverError(
            f"doublet splitting {splitting:.3e} is below {1 / SPLITTING_RTOL:.0e} "
            f"times the bisection error bound {bound:.3e}; the tunneling "
            "amplitude is too small to resolve in float64 on this grid"
        )

    # Grid index of x = 0; interior arrays start one node later, at mid - 1.
    mid = grid.n_points // 2
    even_off = off[mid - 1:].copy()
    even_off[0] *= _SQRT2
    even, rq_even = _sector_ground_state(diag[mid - 1:], even_off, energies[0])
    odd, rq_odd = _sector_ground_state(diag[mid:], off[mid:], energies[1])
    for name, rq, energy in (("even", rq_even, energies[0]), ("odd", rq_odd, energies[1])):
        if not abs(rq - energy) <= 0.5 * splitting:
            raise SolverError(
                f"{name} sector state has Rayleigh quotient {rq!r}, off its energy "
                f"{energy!r} by {abs(rq - energy):.3e}, more than half the doublet "
                f"splitting {splitting:.3e}"
            )

    # The symmetrized even sector stores u(0) / sqrt(2).
    even[0] *= _SQRT2
    psi_s = np.zeros(grid.n_points)
    psi_s[mid:-1] = even
    psi_s[1:mid] = even[:0:-1]
    psi_a = np.zeros(grid.n_points)
    psi_a[mid + 1:-1] = odd
    psi_a[1:mid] = -odd[::-1]
    psi_s = _normalize(psi_s, grid)
    psi_a = _normalize(psi_a, grid)

    if psi_s[mid] < 0.0:
        psi_s = -psi_s
    # Central difference for the odd state's slope at x = 0.
    if psi_a[mid + 1] - psi_a[mid - 1] < 0.0:
        psi_a = -psi_a
    return energies, psi_s, psi_a


def solve_doublet(
    bisection: Bisection, grid: Grid, min_gap_ratio: float
) -> DoubletModes:
    """Localize and validate the doublet of a bisected Hamiltonian on ``grid``.

    psi_right = (psi_s + psi_a) / sqrt(2), which concentrates on x > 0 under
    the sign conventions of :func:`lowest_doublet`; psi_left is its exact
    mirror, so the pair is orthonormal whenever the doublet is.  The checks
    read the built record's ``gap_ratio`` and ``right_mass()``, the values
    the CLI and the manifest report.  Raises :class:`SolverError` if
    :func:`lowest_doublet` cannot resolve the doublet, if it is not isolated
    (gap ratio below ``min_gap_ratio``), or if psi_right holds no more than
    RIGHT_MASS_MIN of its weight on x > 0.
    """
    energies, psi_s, psi_a = lowest_doublet(bisection, grid)
    psi_right = _SQRT_HALF * (psi_s + psi_a)
    modes = DoubletModes(
        grid=grid,
        energies=energies,
        psi_s=psi_s,
        psi_a=psi_a,
        psi_left=psi_right[::-1].copy(),
        psi_right=psi_right,
    )
    if modes.gap_ratio < min_gap_ratio:
        raise SolverError(
            f"doublet is not isolated: gap ratio {modes.gap_ratio:.3g} < "
            f"{min_gap_ratio:.3g}; the two-mode truncation is invalid here"
        )
    mass = modes.right_mass()
    if mass <= RIGHT_MASS_MIN:
        raise SolverError(
            f"localized mode holds only {mass:.3f} of its weight on x > 0; "
            "the trap does not produce well-separated left/right modes"
        )
    return modes
