import numpy as np
import pytest
from scipy.signal import find_peaks
from conftest import full_matrix
from spatial_oracle import density_profile

from dwmix.errors import ConfigError, InvariantError
from dwmix.dynamics import (
    TimeSeries,
    _local_maxima,
    default_time_grid,
    evolve,
    initial_state_rr,
    regime_metrics,
    return_probability,
    return_series,
)
from dwmix.manybody import (
    BOSONS,
    FERMIONS,
    CouplingParams,
    HamiltonianBlocks,
    enumerate_bases,
)
from dwmix.observables import species_entropies


@pytest.fixture(scope="module")
def free_run(coarse_context):
    """Zero-coupling trajectory over three bare periods."""
    h = coarse_context.blocks.compose(CouplingParams())
    psi0 = initial_state_rr(coarse_context.basis)
    times = default_time_grid(coarse_context.min_splitting, n_samples=1024)
    return coarse_context, h, psi0, times


def test_initial_state(coarse_context):
    psi0 = initial_state_rr(coarse_context.basis)
    assert return_probability(psi0, coarse_context.basis, BOSONS) == 1.0
    assert return_probability(psi0, coarse_context.basis, FERMIONS) == 1.0


def test_return_probability_reduces_each_row(coarse_context, rng):
    basis = coarse_context.basis
    rows = rng.normal(size=(5, basis.dim)) + 1j * rng.normal(size=(5, basis.dim))
    both_right = {
        BOSONS: [basis.index_of("RR", f) for f in basis.fermion_labels],
        FERMIONS: [basis.index_of(b, "RRs") for b in basis.boson_labels],
    }
    for species, index in both_right.items():
        batch = return_probability(rows, basis, species)
        np.testing.assert_allclose(batch, np.sum(np.abs(rows[:, index]) ** 2, axis=1),
                                   rtol=1e-15, atol=0.0)
        assert return_probability(rows[2], basis, species) == batch[2]


def test_noninteracting_return_is_cos4(free_run):
    """Independent particles: P_RR(tau) = cos(Omega tau / 2)^4 per species,
    each with its own splitting."""
    ctx, h, psi0, times = free_run
    series = return_series(h, psi0, times)
    for splitting, values in (
        (ctx.boson_modes.splitting, series.p_rr_bosons),
        (ctx.fermion_modes.splitting, series.p_rr_fermions),
    ):
        oracle = np.cos(splitting * times / 2.0) ** 4
        assert np.max(np.abs(values - oracle)) < 1e-8


def test_norm_and_energy_are_conserved(free_run):
    ctx, _, psi0, times = free_run
    params = CouplingParams(lambda_bb=9e-4, lambda_ff=3.2e-4, lambda_bf=9e-4)
    states = evolve(ctx.blocks.compose(params), psi0, times[::64])
    assert states.shape == (times[::64].size, ctx.basis.dim)
    matrix = full_matrix(ctx.blocks, params)
    e0 = np.real(np.vdot(psi0, matrix @ psi0))
    for s in states:
        assert abs(np.linalg.norm(s) - 1.0) < 1e-10
        e = np.real(np.vdot(s, matrix @ s))
        assert abs(e - e0) < 1e-10


def test_evolution_matches_an_extended_precision_propagation(coarse_context):
    # The region2 couplings over three bare periods.  The expected values come
    # from a 40-digit mpmath propagation of H = h0 + sum_k c_k h_k, built
    # exactly from the float64 blocks and couplings (and symmetrized exactly:
    # h_ff is asymmetric by 1e-19), diagonalized by mpmath.eigsy; the
    # entropy is that of the boson reduced density matrix, from mpmath.eighe.
    # That H is the one the sector projection evolves: it reads 6e-15 here.
    # Composing the 12x12 in float64 first rounds its diagonal offset (about
    # 4.35), and the phases multiply that rounding by tau: 1.3e-13.
    ctx = coarse_context
    h = ctx.blocks.compose(CouplingParams(lambda_bb=9e-4, lambda_ff=3.2e-4, lambda_bf=9e-4))
    times = default_time_grid(ctx.min_splitting, n_samples=5)[1:]
    states = evolve(h, initial_state_rr(ctx.basis), times)
    exact = {
        "p_rr_bosons": [0.31965574484823567, 0.19726589532137456,
                        0.32294826859347925, 0.4560724830160753],
        "p_rr_fermions": [0.2548981528337354, 0.13214773183262596,
                          0.3246151048708133, 0.44503595126568846],
        "entropy": [0.6061062040830112, 1.1578307512006407,
                    1.3567271497788986, 1.135417385173702],
    }
    s_bosons, s_fermions = species_entropies(states, ctx.basis)
    for values, expected in (
        (return_probability(states, ctx.basis, BOSONS), exact["p_rr_bosons"]),
        (return_probability(states, ctx.basis, FERMIONS), exact["p_rr_fermions"]),
        (s_bosons, exact["entropy"]),
        (s_fermions, exact["entropy"]),
    ):
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-13)


def test_evolution_keeps_the_global_phase(free_run):
    # Observables cannot see a global phase, so this checks the coefficients
    # themselves against e^{-iH tau} from a full eigendecomposition of H.
    ctx, _, psi0, times = free_run
    params = CouplingParams(lambda_bb=9e-4, lambda_ff=3.2e-4, lambda_bf=9e-4)
    energies, vectors = np.linalg.eigh(full_matrix(ctx.blocks, params))
    exact = (vectors @ ((vectors.T @ psi0)[:, None] * np.exp(-1j * np.outer(energies, times)))).T
    assert np.max(np.abs(evolve(ctx.blocks.compose(params), psi0, times) - exact)) < 1e-10


def test_asymmetric_hamiltonian_is_refused():
    basis = enumerate_bases()
    matrix = np.diag(np.arange(float(basis.dim)))
    matrix[0, 1] += 1e-9
    zero = np.zeros_like(matrix)
    blocks = HamiltonianBlocks(basis=basis, h0=matrix, h_bb=zero, h_ff=zero, h_bf=zero)
    psi0 = initial_state_rr(basis)
    with pytest.raises(InvariantError, match="not symmetric"):
        evolve(blocks.compose(CouplingParams()), psi0, np.array([0.0, 1.0]))


def test_asymmetric_hamiltonian_is_refused_under_optimize(run_python):
    # python -O strips assert statements; the symmetry check must not be one.
    proc = run_python("-O", "-c", "from test_dynamics import "
                      "test_asymmetric_hamiltonian_is_refused as t; t()")
    assert proc.returncode == 0, proc.stderr


def test_time_grid_validation():
    with pytest.raises(ConfigError):
        default_time_grid(0.0)
    with pytest.raises(ConfigError):
        default_time_grid(1.0, n_samples=1)


def test_times_must_be_ascending_and_finite(free_run):
    _, h, psi0, _ = free_run
    with pytest.raises(ConfigError, match="ascending"):
        evolve(h, psi0, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ConfigError, match="finite"):
        evolve(h, psi0, np.array([0.0, np.inf]))
    with pytest.raises(ConfigError):
        evolve(h, psi0, np.array([]))


class TestEvolveInput:
    """evolve takes psi0 as a unit-norm coefficient vector over h.basis."""

    def test_norm_enforced(self, free_run):
        _, h, _, times = free_run
        with pytest.raises(ConfigError, match="norm"):
            evolve(h, np.ones(12), times)

    def test_shape_enforced(self, free_run):
        _, h, _, times = free_run
        with pytest.raises(ConfigError):
            evolve(h, np.ones(5) / np.sqrt(5.0), times)


@pytest.mark.parametrize("values", [
    [],
    [1.0],
    [1.0, 2.0],
    [3.0, 1.0, 2.0],
    [0.0, 2.0, 2.0, 2.0, 2.0, 1.0],
    [0.0, 2.0, 2.0, 1.0, 3.0, 3.0, 3.0, 0.0],
    [0.0, 1.0, 1.0],
    [2.0, 2.0, 1.0, 2.0, 2.0],
    [0.0, 2.0, 2.0, 3.0, 1.0],
    [5.0, 5.0, 5.0],
])
def test_local_maxima_match_find_peaks(values):
    values = np.array(values)
    np.testing.assert_array_equal(_local_maxima(values), find_peaks(values)[0])


def test_local_maxima_match_find_peaks_on_random_plateaus(rng):
    for _ in range(2000):
        values = rng.integers(0, 4, size=rng.integers(0, 30)).astype(float)
        np.testing.assert_array_equal(_local_maxima(values), find_peaks(values)[0])


class TestRegimeMetrics:
    def run(self, times, b, f, min_splitting=0.01):
        series = TimeSeries(times=times, p_rr_bosons=b, p_rr_fermions=f)
        return regime_metrics(series, min_splitting)

    def test_pure_oscillation(self):
        omega = 0.01
        times = np.linspace(0.0, 3 * 2 * np.pi / omega, 2048)
        values = np.cos(omega * times / 2.0) ** 4
        report = self.run(times, values, values, min_splitting=omega)
        for m in (report.bosons, report.fermions):
            assert m.damping_estimate < 1e-6
            assert m.period_estimate == pytest.approx(2 * np.pi / omega, rel=0.01)
            assert m.plateau_intervals == []

    def test_damped_oscillation(self):
        omega, gamma = 0.01, 2e-4
        times = np.linspace(0.0, 3 * 2 * np.pi / omega, 4096)
        values = np.exp(-gamma * times) * np.cos(omega * times / 2.0) ** 4
        report = self.run(times, values, values, min_splitting=omega)
        assert report.bosons.damping_estimate == pytest.approx(gamma, rel=0.5)

    def test_plateau_detection(self):
        times = np.linspace(0.0, 2000.0, 4096)
        # Descend to a half-filled shelf, hold it, then release.
        values = np.where(
            times < 400.0,
            0.75 + 0.25 * np.cos(times * np.pi / 400.0),
            np.where(times < 900.0, 0.5, 0.5 * np.cos((times - 900.0) * 0.005) ** 2),
        )
        report = self.run(times, values, values)
        assert len(report.bosons.plateau_intervals) >= 1
        start, end = report.bosons.plateau_intervals[0]
        assert start == pytest.approx(400.0, abs=100.0)
        assert end == pytest.approx(900.0, abs=100.0)

    def test_shelf_outside_band_is_ignored(self):
        times = np.linspace(0.0, 2000.0, 2048)
        values = np.full_like(times, 0.97)
        values[:200] = np.linspace(1.0, 0.97, 200)
        report = self.run(times, values, values)
        assert report.bosons.plateau_intervals == []

    def test_rejects_non_uniform_grid(self):
        times = np.concatenate([np.linspace(0, 1000, 1000), [3000.0]])
        values = np.full_like(times, 0.5)
        with pytest.raises(ConfigError, match="uniform"):
            self.run(times, values, values, min_splitting=0.05)

    def test_rejects_short_window(self):
        times = np.linspace(0.0, 10.0, 64)
        values = np.full_like(times, 0.5)
        with pytest.raises(ConfigError, match="three bare periods"):
            self.run(times, values, values, min_splitting=0.01)

    def test_as_dict_shape(self):
        omega = 0.01
        times = np.linspace(0.0, 3 * 2 * np.pi / omega, 1024)
        values = np.cos(omega * times / 2.0) ** 4
        d = self.run(times, values, values, min_splitting=omega).as_dict()
        assert set(d) == {"bosons", "fermions"}
        assert set(d["bosons"]) == {
            "period_estimate",
            "damping_estimate",
            "plateau_intervals",
        }


class TestDensityProfile:
    def test_total_mass_is_one(self, free_run):
        ctx, _, psi0, _ = free_run
        profiles = density_profile(psi0, ctx.basis, ctx.boson_modes, ctx.fermion_modes,
                                   stride=2)
        assert profiles.integral(BOSONS) == pytest.approx(1.0, abs=1e-6)
        assert profiles.integral(FERMIONS) == pytest.approx(1.0, abs=1e-6)

    def test_quadrant_mass_tracks_mode_projection(self, free_run):
        ctx, h, psi0, times = free_run
        psi = evolve(h, psi0, times[:200:100])[-1]
        profiles = density_profile(psi, ctx.basis, ctx.boson_modes, ctx.fermion_modes,
                                   stride=2)
        for species in (BOSONS, FERMIONS):
            spatial = profiles.quadrant_probability(species)
            modal = return_probability(psi, ctx.basis, species)
            assert abs(spatial - modal) < 2e-2

    def test_stride_must_divide_grid(self, free_run):
        ctx, _, psi0, _ = free_run
        with pytest.raises(ConfigError, match="stride"):
            density_profile(psi0, ctx.basis, ctx.boson_modes, ctx.fermion_modes, stride=3)


def test_series_probability_bounds():
    times = np.linspace(0.0, 1.0, 8)
    good = np.full(8, 0.5)
    with pytest.raises(ConfigError, match="leaves"):
        TimeSeries(times=times, p_rr_bosons=good + 1.0, p_rr_fermions=good)
    with pytest.raises(ConfigError, match="length"):
        TimeSeries(times=times, p_rr_bosons=good[:4], p_rr_fermions=good)
