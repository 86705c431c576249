import os
import re
import threading
from importlib import resources
from unittest import mock

import numpy as np
import pytest
import scipy
from scipy.linalg import eigh_tridiagonal, lapack

from dwmix import model
from dwmix import modes as modes_module
from dwmix.config import parse_config
from dwmix.errors import SolverError
from dwmix.model import build_potential, resolve_x_max
from dwmix.modes import bisect_lowest, build_sp_hamiltonian, lowest_doublet, solve_doublet
from dwmix.potential import DoubleSquareWell, Grid, sample_on_grid
from dwmix.units import SpeciesConstants

KAPPA = 0.196980985999906
KAPPA_FERMION = 0.19582905040926324


def bisected(kappa, v, grid):
    """The bisection of one species' Hamiltonian, solved alone."""
    (bisection,) = bisect_lowest([build_sp_hamiltonian(kappa, v, grid)])
    return bisection


def doublet(kappa, v, grid):
    return lowest_doublet(bisected(kappa, v, grid), grid)


def modes_of(kappa, v, grid):
    return solve_doublet(bisected(kappa, v, grid), grid, min_gap_ratio=10.0)


def test_particle_in_a_box_oracle():
    """Flat potential: eigenvalues must match kappa (n pi / L)^2 analytically.

    The box states alternate even/odd but are not a tunneling doublet, so
    this goes through lowest_doublet directly (no gap-ratio gate).
    """
    grid = Grid(x_max=1.0, n_points=2001)
    v = np.zeros(grid.n_points)
    energies, psi_s, psi_a = doublet(KAPPA, v, grid)
    box_length = 2.0 * grid.x_max
    for n, e in enumerate(energies, start=1):
        exact = KAPPA * (n * np.pi / box_length) ** 2
        assert e == pytest.approx(exact, rel=1e-5)
    # Ground state even and nodeless, first excited odd.
    assert np.array_equal(psi_s, psi_s[::-1])
    assert np.array_equal(psi_a, -psi_a[::-1])


def test_too_few_interior_nodes_fail_before_lapack(capfd):
    grid = Grid(x_max=1.0, n_points=5)
    with pytest.raises(SolverError, match="3 interior nodes"):
        bisected(KAPPA, np.zeros(grid.n_points), grid)
    # LAPACK's error handler would print its complaint on the process's output.
    assert capfd.readouterr() == ("", "")


TRAP = DoubleSquareWell(separation=1.55, well_width=1.2, depth=31.14, smoothing=0.08)


@pytest.fixture(scope="module")
def trap_modes():
    grid = Grid(x_max=2.375, n_points=1601)
    v = sample_on_grid(TRAP, grid)
    return modes_of(KAPPA, v, grid), grid


def test_doublet_normalization_and_orthogonality(trap_modes):
    modes, grid = trap_modes
    assert grid.inner(modes.psi_s, modes.psi_s) == pytest.approx(1.0, abs=1e-12)
    assert grid.inner(modes.psi_a, modes.psi_a) == pytest.approx(1.0, abs=1e-12)
    assert grid.inner(modes.psi_s, modes.psi_a) == pytest.approx(0.0, abs=1e-12)


def test_sign_conventions(trap_modes):
    modes, grid = trap_modes
    mid = grid.n_points // 2
    assert modes.psi_s[mid] > 0.0
    assert modes.psi_a[mid + 1] - modes.psi_a[mid - 1] > 0.0
    # Parity holds by construction: each state is mirrored from its own
    # half-grid sector, not projected afterwards.
    assert np.array_equal(modes.psi_s, modes.psi_s[::-1])
    assert np.array_equal(modes.psi_a, -modes.psi_a[::-1])


def test_localized_modes(trap_modes):
    modes, grid = trap_modes
    # Mirror identity is exact by construction.
    assert np.array_equal(modes.psi_left, modes.psi_right[::-1])
    assert modes.right_mass() > 0.999
    assert grid.inner(modes.psi_left, modes.psi_right) == pytest.approx(0.0, abs=1e-10)
    assert grid.inner(modes.psi_right, modes.psi_right) == pytest.approx(1.0, abs=1e-12)


def test_doublet_energetics(trap_modes):
    modes, _ = trap_modes
    assert modes.splitting > 0.0
    assert modes.gap_ratio > 100.0
    assert modes.tunneling_amplitude == pytest.approx(0.5 * modes.splitting)
    assert modes.mean_energy == pytest.approx(
        0.5 * (modes.energies[0] + modes.energies[1])
    )
    assert np.all(np.diff(modes.energies) > 0.0)


def test_heavier_species_tunnels_slower(default_context):
    # Same trap, larger mass: smaller splitting.
    assert (
        default_context.fermion_modes.splitting
        < default_context.boson_modes.splitting
    )


def test_flat_potential_fails_doublet_gate():
    grid = Grid(x_max=1.0, n_points=801)
    v = np.zeros(grid.n_points)
    with pytest.raises(SolverError, match="not isolated"):
        modes_of(KAPPA, v, grid)


def test_nonpositive_kappa_rejected():
    grid = Grid(x_max=1.0, n_points=11)
    with pytest.raises(SolverError):
        modes_of(0.0, np.zeros(grid.n_points), grid)


def scan_geometry(separation, n_points):
    """The geometry_scan trap: smoothing 0.12 and a box 1 past the outer edge."""
    well = DoubleSquareWell(separation=separation, well_width=1.2,
                            depth=31.142529704999994, smoothing=0.12)
    grid = Grid(x_max=(separation + 1.2) / 2.0 + 1.0, n_points=n_points)
    return grid, sample_on_grid(well, grid)


@pytest.mark.parametrize("kappa, separation, n_points", [
    (KAPPA, 1.65, 401),
    (KAPPA_FERMION, 1.62, 4001),
    (KAPPA, 1.80, 8001),
    (KAPPA_FERMION, 1.80, 8001),
])
def test_energies_match_the_full_eigensolver_bitwise(kappa, separation, n_points):
    grid, v = scan_geometry(separation, n_points)
    diag, off = build_sp_hamiltonian(kappa, v, grid)
    expected, _ = eigh_tridiagonal(diag, off, select="i", select_range=(0, 3))
    energies, _, _ = doublet(kappa, v, grid)
    assert np.array_equal(energies, expected)


# psi_s and psi_a at half-grid offsets k from x = 0, from a 60-digit solve of
# the same float64 tridiagonal problem: inverse iteration in each mirror
# sector (exact sqrt(2) centre coupling), trapezoid normalization, the sign
# rules of lowest_doublet.  Separation 1.88 on 8001 points lies past the
# point where a full-grid solve followed by a parity classifier reported "no
# definite parity" for the fermions, and below the splitting guard.  The
# float64 floor is about eps * ||T|| / gap: 1e-14 at 401 points, 1e-11 at 8001.
PINNED_STATES = [
    (KAPPA, 1.65, 401, 5.0e-14, {
        0: (0.018306407237806357507, 0.0),
        1: (0.01851140634351298391, 0.0027253056148208650929),
        25: (0.27410962879265214872, 0.2725510554831029137),
        50: (0.75532863199323932529, 0.75499958821552225303),
        100: (0.52131654208652085898, 0.52186523410980514202),
        150: (0.0011372395831676433322, 0.0011387157045631843033),
        198: (3.9117556671543845333e-7, 3.9175138362207158683e-7),
    }),
    (KAPPA_FERMION, 1.88, 8001, 1.0e-11, {
        0: (0.0043382535711691549911, 0.0),
        1: (0.0043383876196770200894, 0.000034088637741976875848),
        500: (0.10703537989287586979, 0.10690849407857639512),
        1000: (0.64904673496195629333, 0.64900964758490488994),
        2000: (0.6128028510132553071, 0.61283886089739238624),
        3000: (0.0015913233565883233021, 0.0015914426786216721738),
        3998: (1.9286762481794586093e-8, 1.928840975681927779e-8),
    }),
]


@pytest.mark.parametrize("kappa, separation, n_points, atol, pinned", PINNED_STATES)
def test_states_match_an_extended_precision_solve(kappa, separation, n_points, atol,
                                                  pinned):
    grid, v = scan_geometry(separation, n_points)
    _, psi_s, psi_a = doublet(kappa, v, grid)
    mid = n_points // 2
    offsets = list(pinned)
    np.testing.assert_allclose(psi_s[[mid + k for k in offsets]],
                               [pinned[k][0] for k in offsets], rtol=0.0, atol=atol)
    np.testing.assert_allclose(psi_a[[mid + k for k in offsets]],
                               [pinned[k][1] for k in offsets], rtol=0.0, atol=atol)


def test_states_solve_the_full_grid_problem(trap_modes):
    # The even sector couples x = 0 with sqrt(2) * e and stores u(0) / sqrt(2).
    # Dropping either factor of sqrt(2) leaves a residual above 3e-4 * ||T||
    # at the centre rows; the correct states leave about eps * ||T||.
    modes, grid = trap_modes
    diag, off = build_sp_hamiltonian(KAPPA, sample_on_grid(TRAP, grid), grid)
    norm = float(np.max(np.abs(diag)) + 2.0 * abs(off[0]))
    for psi, energy in ((modes.psi_s, modes.energies[0]), (modes.psi_a, modes.energies[1])):
        u = psi[1:-1]
        residual = (diag - energy) * u
        residual[:-1] += off * u[1:]
        residual[1:] += off * u[:-1]
        assert np.max(np.abs(residual)) < 1.0e-13 * norm


def test_unresolvable_splitting_is_refused():
    # On 401 points the splitting at separation 2.5 is 4.6e-8, under 1e5 times
    # the bisection error bound of 1.7e-12.  A full-grid solve with a parity
    # classifier failed here too, but as "no definite parity".
    grid, v = scan_geometry(2.5, 401)
    with pytest.raises(SolverError,
                       match=r"doublet splitting 4\.57\de-08 .* error bound 1\.73\de-12"):
        doublet(KAPPA, v, grid)


@pytest.mark.parametrize("n_points, first_failure", [(4001, (2.00, 2.01)),
                                                     (8001, (1.88, 1.89))])
def test_splitting_guard_fails_from_one_separation_on(n_points, first_failure):
    # The splitting falls with the separation while the bound depends on the
    # grid alone, so the guard fails on a half line of separations.
    lo, hi = first_failure
    separations = np.round(np.arange(lo - 0.03, hi + 0.05, 0.005), 3)
    failed = []
    for separation in separations:
        grid, v = scan_geometry(separation, n_points)
        try:
            for kappa in (KAPPA, KAPPA_FERMION):
                doublet(kappa, v, grid)
        except SolverError as exc:
            assert "splitting" in str(exc) and "bound" in str(exc)
            failed.append(True)
        else:
            failed.append(False)
    first = failed.index(True)
    assert all(failed[first:])
    assert lo <= separations[first] <= hi


def _solve_without_inverse_iteration():
    # A tridiagonal solve that returns its right-hand side leaves each sector
    # vector at the all-ones start, far from any eigenvector.
    grid, v = scan_geometry(1.65, 401)
    with mock.patch("dwmix.modes.dgtsv", lambda dl, d, du, b: (dl, d, du, b, 0)):
        with pytest.raises(SolverError, match="even sector state has Rayleigh quotient"):
            doublet(KAPPA, v, grid)


def test_rayleigh_quotient_guard():
    _solve_without_inverse_iteration()


def test_rayleigh_quotient_guard_under_optimize(run_python):
    # python -O strips assert statements; the guard must not be one.
    proc = run_python("-O", "-c", "import test_modes; "
                      "test_modes._solve_without_inverse_iteration()")
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def region2_trap():
    """(species constants, sampled potential, grid) of the region2 preset."""
    config = parse_config(resources.files("dwmix").joinpath("presets/region2.cfg").read_text())
    potential = build_potential(config)
    grid = Grid(x_max=resolve_x_max(config, potential), n_points=config.grid.n_points)
    species = SpeciesConstants.from_amu(boson_mass_amu=config.species.boson_mass_amu,
                                        fermion_mass_amu=config.species.fermion_mass_amu)
    return species, sample_on_grid(potential, grid), grid


def assert_same_outputs(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert type(a) is type(b)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


def assert_same_bisection(bisection, diag, off):
    # (m, w[:m], info) of the pointer call against scipy.linalg.lapack's wrapper.
    m, w, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, 4, 0.0, "E")
    assert (type(bisection.found), type(bisection.info)) == (type(m), type(info))
    assert (bisection.found, bisection.info) == (m, info)
    assert bisection.energies[:m].tobytes() == w[:m].tobytes()


@pytest.mark.parametrize("kappa", ["kappa_boson", "kappa_fermion"])
def test_loaded_lapack_matches_scipy_linalg_bitwise(region2_trap, kappa):
    # The routines modes.py calls against the ones scipy.linalg.lapack
    # re-exports, on the calls lowest_doublet makes: the full-grid bisection
    # of both species at once, this one in the calling thread and the other
    # in the second, then inverse iteration in both mirror sectors.
    species, v, grid = region2_trap
    other = {"kappa_boson": "kappa_fermion", "kappa_fermion": "kappa_boson"}[kappa]
    hamiltonians = [build_sp_hamiltonian(getattr(species, k), v, grid) for k in (kappa, other)]
    bisections = bisect_lowest(hamiltonians)
    for bisection, (diag, off) in zip(bisections, hamiltonians, strict=True):
        assert_same_bisection(bisection, diag, off)
    diag, off = hamiltonians[0]
    energies = bisections[0].energies
    mid = grid.n_points // 2
    even_off = off[mid - 1:].copy()
    even_off[0] *= np.sqrt(2.0)
    for sector_diag, sector_off, energy in ((diag[mid - 1:], even_off, energies[0]),
                                            (diag[mid:], off[mid:], energies[1])):
        args = (sector_off, sector_diag - energy, sector_off, np.ones(sector_diag.size))
        solved = modes_module.dgtsv(*args)
        assert solved[-1] == 0
        assert_same_outputs(solved, lapack.dgtsv(*args))


def test_concurrent_bisections_match_scipy_linalg_bitwise(rng):
    # Random symmetric tridiagonals of unlike sizes, so that the two threads'
    # calls overlap at different points of their work.
    for _ in range(8):
        hamiltonians = [(rng.normal(size=n) * 100.0, rng.normal(size=n - 1))
                        for n in rng.integers(1000, 4000, size=2)]
        for bisection, (diag, off) in zip(bisect_lowest(hamiltonians), hamiltonians,
                                          strict=True):
            assert_same_bisection(bisection, diag, off)


def test_off_diagonal_length_is_checked():
    with pytest.raises(ValueError, match="10 diagonal entries need 9 off-diagonals, not 10"):
        bisect_lowest([(np.ones(10), np.ones(10))])


@pytest.fixture
def pinned():
    """Pin this thread to its lowest allowed CPU for the test (skipped where
    the affinity mask holds one CPU); yield that CPU and the next one."""
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        pytest.skip("needs an affinity mask of at least 2 CPUs")
    allowed = os.sched_getaffinity(0)
    here, other = sorted(allowed)[:2]
    os.sched_setaffinity(0, {here})
    try:
        yield here, other
    finally:
        os.sched_setaffinity(0, allowed)


@pytest.fixture
def stebz_calls(monkeypatch):
    """Each stebz call's thread, that thread's affinity and the matrix size,
    in call order."""
    stebz, affinity, calls = modes_module._STEBZ, os.sched_getaffinity, []

    def recorded(*args):
        calls.append((threading.get_ident(), affinity(0), args[2]._obj.value))
        return stebz(*args)

    monkeypatch.setattr(modes_module, "_STEBZ", recorded)
    return calls


def test_other_cpus_leave_out_the_callers(pinned, monkeypatch):
    here, other = pinned
    assert modes_module.other_cpus() == set()  # the real mask, pinned to one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {here, other})
    assert modes_module.other_cpus() == {other}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {here})
    assert modes_module.other_cpus() == set()


def test_second_thread_leaves_the_callers_cpu(pinned, stebz_calls, monkeypatch, rng):
    here, other = pinned
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {here, other})
    bisect_lowest([(rng.normal(size=n), rng.normal(size=n - 1)) for n in (2000, 3000)])
    # The two threads' calls may come in either order.
    calls = {ident: cpus for ident, cpus, _ in stebz_calls}
    assert calls.pop(threading.get_ident()) == {here}
    assert list(calls.values()) == [{other}]


def test_one_cpu_bisects_in_the_caller_in_order(pinned, stebz_calls, monkeypatch, rng):
    # The same bytes as the two-thread bisection, from no thread at all.
    here, other = pinned
    hamiltonians = [(rng.normal(size=n) * 100.0, rng.normal(size=n - 1)) for n in (3000, 2000)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {here, other})
    threaded = bisect_lowest(hamiltonians)
    assert len({ident for ident, _, _ in stebz_calls}) == 2

    def no_thread(*args, **kwargs):
        raise AssertionError("bisect_lowest started a thread on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {here})
    monkeypatch.setattr(modes_module.threading, "Thread", no_thread)
    stebz_calls.clear()
    inline = bisect_lowest(hamiltonians)
    caller = threading.get_ident()
    assert [(ident, n) for ident, _, n in stebz_calls] == [(caller, 3000), (caller, 2000)]
    for one, two in zip(inline, threaded, strict=True):
        assert (one.found, one.info) == (two.found, two.info) == (4, 0)
        assert one.energies[:4].tobytes() == two.energies[:4].tobytes()
    assert inline[0].energies[:4].tobytes() != inline[1].energies[:4].tobytes()


def test_build_context_solves_each_species_in_the_calling_thread(monkeypatch, config_factory):
    # Both bisections run at once; every doublet solve, and so every check
    # and every traced span, runs in the caller, the bosons' first.
    calls = []
    solve = model.solve_doublet

    def recorded(bisection, grid, **kwargs):
        calls.append((threading.get_ident(), float(-bisection.off[0] * grid.spacing**2)))
        return solve(bisection, grid, **kwargs)

    monkeypatch.setattr(model, "solve_doublet", recorded)
    before = threading.active_count()
    context = model.build_context(config_factory(**{"grid.n_points": 801}))
    assert threading.active_count() == before
    species = context.species
    assert [ident for ident, _ in calls] == [threading.get_ident()] * 2
    assert [kappa for _, kappa in calls] == pytest.approx(
        [species.kappa_boson, species.kappa_fermion], rel=1e-12)


def test_no_thread_outlives_a_refused_model(config_factory):
    # On 801 points the splitting guard refuses separation 2.3, after both
    # bisections have run.
    before = threading.active_count()
    with pytest.raises(SolverError, match="doublet splitting"):
        model.build_context(config_factory(**{"grid.n_points": 801,
                                              "potential.separation": 2.3}))
    assert threading.active_count() == before


def test_loader_names_the_directory_it_searched(tmp_path):
    with pytest.raises(ImportError) as info:
        modes_module._load_flapack(tmp_path)
    message = str(info.value)
    assert str(tmp_path / "linalg") in message
    assert re.search(rf"scipy {re.escape(scipy.__version__)}\b", message)
