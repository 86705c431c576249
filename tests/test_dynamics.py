from importlib import resources

import numpy as np
import pytest
from scipy.signal import find_peaks
from conftest import full_matrix, model_terms, partial_trace_entropies
from spatial_oracle import density_profile

from dwmix.config import parse_config
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
from dwmix.model import build_context
from dwmix.observables import species_entropies


@pytest.fixture(scope="module")
def free_run(coarse_context):
    """Zero-coupling trajectory over three bare periods."""
    h = coarse_context.blocks.compose(CouplingParams())
    psi0 = initial_state_rr(coarse_context.basis)
    times = default_time_grid(coarse_context.min_splitting, periods=3.0, n_samples=1024)
    return coarse_context, h, psi0, times


def test_initial_state(coarse_context):
    psi0 = initial_state_rr(coarse_context.basis)
    assert return_probability(psi0, coarse_context.basis, BOSONS) == 1.0
    assert return_probability(psi0, coarse_context.basis, FERMIONS) == 1.0


def both_right_indices(basis, species):
    """Composite indices whose species part is the both-right state."""
    if species == BOSONS:
        return [basis.index_of("RR", f) for f in basis.fermion_labels]
    return [basis.index_of(b, "RRs") for b in basis.boson_labels]


def test_return_probability_reduces_each_row(coarse_context, rng):
    basis = coarse_context.basis
    rows = rng.normal(size=(5, basis.dim)) + 1j * rng.normal(size=(5, basis.dim))
    for species in (BOSONS, FERMIONS):
        index = both_right_indices(basis, species)
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
    matrix = full_matrix(model_terms(ctx), params)
    e0 = np.real(np.vdot(psi0, matrix @ psi0))
    for s in states:
        assert abs(np.linalg.norm(s) - 1.0) < 1e-10
        e = np.real(np.vdot(s, matrix @ s))
        assert abs(e - e0) < 1e-10


# The region2 couplings on the 801-point grid over three bare periods.  The
# values come from a 40-digit mpmath propagation of H = h0 + sum_k c_k h_k,
# built exactly from the float64 blocks and couplings (and symmetrized
# exactly: h_ff is asymmetric by 1e-19), diagonalized by mpmath.eigsy; the
# entropy is that of the boson reduced density matrix, from mpmath.eighe.
# tests/make_pins.py regenerates them.
PROPAGATION_PINS = {
    "p_rr_bosons": [0.3196557448469583, 0.1972658953133067,
                    0.322948268601656, 0.4560724830106809],
    "p_rr_fermions": [0.2548981528328692, 0.13214773182509762,
                      0.3246151048760288, 0.44503595125998135],
    "entropy": [0.6061062040680983, 1.1578307511805217,
                1.3567271497799989, 1.1354173852073246],
}


def test_evolution_matches_an_extended_precision_propagation(coarse_context):
    # The H of PROPAGATION_PINS is the one the sector projection evolves: it
    # reads 3.6e-15 here.  Composing the 12x12 in float64 first rounds its
    # diagonal offset (about 4.35), and the phases multiply that rounding by
    # tau: 9.3e-13.
    ctx = coarse_context
    h = ctx.blocks.compose(CouplingParams(lambda_bb=9e-4, lambda_ff=3.2e-4, lambda_bf=9e-4))
    times = default_time_grid(ctx.min_splitting, periods=3.0, n_samples=5)[1:]
    states = evolve(h, initial_state_rr(ctx.basis), times)
    exact = PROPAGATION_PINS
    for values, expected in (
        (return_probability(states, ctx.basis, BOSONS), exact["p_rr_bosons"]),
        (return_probability(states, ctx.basis, FERMIONS), exact["p_rr_fermions"]),
        (species_entropies(states, ctx.basis), exact["entropy"]),
    ):
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-13)


def test_evolution_keeps_the_global_phase(free_run):
    # Observables cannot see a global phase, so this checks the coefficients
    # themselves against e^{-iH tau} from a full eigendecomposition of H.
    ctx, _, psi0, times = free_run
    params = CouplingParams(lambda_bb=9e-4, lambda_ff=3.2e-4, lambda_bf=9e-4)
    energies, vectors = np.linalg.eigh(full_matrix(model_terms(ctx), params))
    exact = (vectors @ ((vectors.T @ psi0)[:, None] * np.exp(-1j * np.outer(energies, times)))).T
    assert np.max(np.abs(evolve(ctx.blocks.compose(params), psi0, times) - exact)) < 1e-10


def test_asymmetric_hamiltonian_is_refused():
    basis = enumerate_bases(0)
    matrix = np.diag(np.arange(float(basis.dim)))
    matrix[0, 1] += 1e-9
    zero = np.zeros_like(matrix)
    blocks = HamiltonianBlocks.project(basis, matrix, (zero,) * 3)
    psi0 = initial_state_rr(basis)
    with pytest.raises(InvariantError, match="not symmetric"):
        evolve(blocks.compose(CouplingParams()), psi0, np.array([0.0, 1.0]))


def test_asymmetric_hamiltonian_is_refused_under_optimize(run_python):
    # python -O strips assert statements; the symmetry check must not be one.
    proc = run_python("-O", "-c", "from test_dynamics import "
                      "test_asymmetric_hamiltonian_is_refused as t; t()")
    assert proc.returncode == 0, proc.stderr


def test_time_grid_validation(config_factory):
    # The sample count comes from the config, which needs at least 16.
    with pytest.raises(ConfigError, match="dynamics.n_samples must be at least 16"):
        config_factory(**{"dynamics.n_samples": 1})


def test_times_must_be_ascending_and_finite(free_run):
    _, h, psi0, _ = free_run
    with pytest.raises(InvariantError, match="ascending"):
        evolve(h, psi0, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(InvariantError, match="finite"):
        evolve(h, psi0, np.array([0.0, np.inf]))
    with pytest.raises(InvariantError, match="non-empty"):
        evolve(h, psi0, np.array([]))


class TestEvolveInput:
    """evolve takes psi0 as a unit-norm coefficient vector over h.blocks.basis."""

    def test_norm_enforced(self, free_run):
        _, h, _, times = free_run
        with pytest.raises(InvariantError, match="norm"):
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
    def run(self, times, b, f):
        series = TimeSeries(times=times, p_rr_bosons=b, p_rr_fermions=f)
        return regime_metrics(series)

    def test_pure_oscillation(self):
        omega = 0.01
        times = np.linspace(0.0, 3 * 2 * np.pi / omega, 2048)
        values = np.cos(omega * times / 2.0) ** 4
        report = self.run(times, values, values)
        for m in (report["bosons"], report["fermions"]):
            assert m["damping_estimate"] < 1e-6
            assert m["period_estimate"] == pytest.approx(2 * np.pi / omega, rel=0.01)
            assert m["plateau_intervals"] == []

    @pytest.mark.parametrize("periods", [3.0, 4.0])
    def test_tapered_period_of_a_pure_tone(self, periods):
        # A pure tone over a window of a few periods.  The Hann taper leaves
        # the interpolated peak 1.2e-3 (three periods) and 3.8e-4 (four) off;
        # a Hamming taper, whose sidelobes do not fall away, -4.2e-3 and -2.5e-3.
        period = 1000.0
        times = np.linspace(0.0, periods * period, 2048)
        values = 0.5 + 0.5 * np.cos(2.0 * np.pi * times / period)
        report = self.run(times, values, values)
        assert report["bosons"]["period_estimate"] == pytest.approx(period, rel=2.0e-3)

    def test_damped_oscillation(self):
        omega, gamma = 0.01, 2e-4
        times = np.linspace(0.0, 3 * 2 * np.pi / omega, 4096)
        values = np.exp(-gamma * times) * np.cos(omega * times / 2.0) ** 4
        report = self.run(times, values, values)
        assert report["bosons"]["damping_estimate"] == pytest.approx(gamma, rel=0.5)

    def test_plateau_detection(self):
        times = np.linspace(0.0, 2000.0, 4096)
        # Descend to a half-filled shelf, hold it, then release.
        values = np.where(
            times < 400.0,
            0.75 + 0.25 * np.cos(times * np.pi / 400.0),
            np.where(times < 900.0, 0.5, 0.5 * np.cos((times - 900.0) * 0.005) ** 2),
        )
        report = self.run(times, values, values)
        assert len(report["bosons"]["plateau_intervals"]) >= 1
        start, end = report["bosons"]["plateau_intervals"][0]
        assert start == pytest.approx(400.0, abs=100.0)
        assert end == pytest.approx(900.0, abs=100.0)

    def test_plateaus_of_known_length_and_slope(self):
        # Piecewise-linear on a unit time step, so np.gradient reads each
        # stretch's slope exactly inside it, and a steep ramp at each knot.
        # A stretch from knot a to knot b is flat on [a + 1, b - 1].
        knots = [(0, 0.9), (10, 0.5), (67, 0.5 + 57 * 0.5e-4),  # 55 long, slope 0.5e-4
                 (77, 0.3), (177, 0.3 + 100 * 1.5e-4),  # 98 long, slope 1.5e-4
                 (187, 0.6), (234, 0.6),  # flat, 45 long
                 (244, 0.7), (446, 0.7 - 202 * 0.9e-4),  # 200 long, slope -0.9e-4
                 (456, 0.95), (600, 0.95)]  # flat above the band
        times = np.arange(601.0)
        values = np.interp(times, *zip(*knots))
        report = self.run(times, values, values)
        # Slopes below PLATEAU_SLOPE_THRESHOLD, lengths at least PLATEAU_MIN_LENGTH.
        assert report["bosons"]["plateau_intervals"] == [[11.0, 66.0], [245.0, 445.0]]

    def test_damping_fit_stops_ninety_percent_down(self):
        # Pulses every 100 time units under an envelope that falls as
        # exp(-2e-3 t) down to 0.24 (80 percent of the way from 1 to the tail
        # 0.05), then three times as fast, then holds at 0.05.  The fit runs
        # over the peaks up to the first one 90 percent of the way down, the
        # tenth, so the faster fall moves it off 2e-3.
        peak_t = 100.0 * np.arange(40)
        peak_v = np.exp(-2.0e-3 * peak_t)
        peak_v[9:] = peak_v[8] * np.exp(-6.0e-3 * (peak_t[9:] - peak_t[8]))
        peak_v = np.maximum(peak_v, 0.05)
        times = np.arange(4000.0)
        values = np.zeros_like(times)
        for t, v in zip(peak_t, peak_v):
            values += v * np.maximum(0.0, 1.0 - np.abs(times - t) / 40.0)
        assert peak_v[8] <= 0.05 + 0.2 * 0.95 < peak_v[7]
        assert peak_v[9] <= 0.05 + 0.1 * 0.95 < peak_v[8]
        expected = -np.polyfit(peak_t[:10], np.log(peak_v[:10]), 1)[0]
        report = self.run(times, values, values)
        assert report["bosons"]["damping_estimate"] == pytest.approx(expected, rel=1e-9)
        assert expected > 1.1 * 2.0e-3

    def test_shelf_outside_band_is_ignored(self):
        times = np.linspace(0.0, 2000.0, 2048)
        values = np.full_like(times, 0.97)
        values[:200] = np.linspace(1.0, 0.97, 200)
        report = self.run(times, values, values)
        assert report["bosons"]["plateau_intervals"] == []

    def test_rejects_non_uniform_grid(self):
        times = np.concatenate([np.linspace(0, 1000, 1000), [3000.0]])
        values = np.full_like(times, 0.5)
        with pytest.raises(InvariantError, match="uniform"):
            self.run(times, values, values)
        # A descending grid would give a negative frequency step, and period.
        with pytest.raises(InvariantError, match="uniform ascending"):
            self.run(times[-2::-1], values[1:], values[1:])

    def test_rejects_short_window(self, config_factory):
        # evolve's window is dynamics.periods bare periods long, and the
        # config holds it to three.
        with pytest.raises(ConfigError, match="dynamics.periods must be at least 3"):
            config_factory(**{"dynamics.periods": 2.0})

    def test_as_dict_shape(self):
        omega = 0.01
        times = np.linspace(0.0, 3 * 2 * np.pi / omega, 1024)
        values = np.cos(omega * times / 2.0) ** 4
        d = self.run(times, values, values)
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
    with pytest.raises(InvariantError, match="leaves"):
        TimeSeries(times=times, p_rr_bosons=good + 1.0, p_rr_fermions=good)
    with pytest.raises(InvariantError, match="length"):
        TimeSeries(times=times, p_rr_bosons=good[:4], p_rr_fermions=good)


@pytest.fixture(scope="module", params=["region1", "region2", "region3"])
def preset_run(request):
    """A region preset's model, start state and ``evolve`` time grid."""
    name = request.param
    config = parse_config(resources.files("dwmix").joinpath(f"presets/{name}.cfg").read_text())
    context = build_context(config)
    times = default_time_grid(context.min_splitting, periods=config.dynamics.periods,
                              n_samples=config.dynamics.n_samples)
    return name, context.hamiltonian(), initial_state_rr(context.basis), times


def test_return_probability_matches_its_line_sum(preset_run):
    # H and psi0 are real, so with a = V^T psi0 over the eigenvectors V of
    # HamiltonianBlocks.eigenpairs and M the species' both-right mask,
    # P_RR(t) = sum_mn a_m a_n (v_m^T M v_n) cos((E_m - E_n) t): no sampling
    # of the trajectory, no complex phases.
    _, h, psi0, times = preset_run
    series = return_series(h, psi0, times)
    energies, vectors = h.blocks.eigenpairs(h.couplings)
    a = vectors.T @ psi0.real
    phases = np.cos(np.multiply.outer(times, energies[:, None] - energies[None, :]))
    for species, p_rr in ((BOSONS, series.p_rr_bosons), (FERMIONS, series.p_rr_fermions)):
        mask = both_right_indices(h.blocks.basis, species)
        weights = np.outer(a, a) * (vectors[mask].T @ vectors[mask])
        lines = phases.reshape(times.size, -1) @ weights.ravel()
        np.testing.assert_allclose(p_rr, lines, rtol=0.0, atol=1.0e-13)


def test_entropies_match_both_partial_traces(preset_run):
    _, h, psi0, times = preset_run
    states = evolve(h, psi0, times)
    basis = h.blocks.basis
    entropy = species_entropies(states, basis)
    for reference in partial_trace_entropies(states, basis):
        np.testing.assert_allclose(entropy, reference, rtol=0.0, atol=1e-13)


# Sample index and Schmidt entropy of each preset's trajectory where either
# partial trace's eigvalsh misses most (by 1.05e-14 to 1.23e-14).  The values
# are 40-digit mpmath entropies of the float64 coefficients ``evolve`` gives
# there, from mpmath.eighe of M M^H and over the weights above ENTROPY_FLOOR.
# The test below holds ``species_entropies`` to them within 5e-15, which
# tells the Schmidt path from eigvalsh only while eigvalsh misses the pinned
# sample by more than that: ``tests/make_pins.py --check`` fails where it
# does not, and prints the sample where eigvalsh misses most today;
# ``tests/make_pins.py`` regenerates them.
SMALL_ENTROPY_SAMPLES = {
    "region1": (4, 5.293923580100974e-13),
    "region2": (3, 6.936945761790803e-12),
    "region3": (4, 1.1998201181228726e-10),
}


def test_small_entropies_match_an_extended_precision_spectrum(preset_run):
    name, h, psi0, times = preset_run
    k, exact = SMALL_ENTROPY_SAMPLES[name]
    assert abs(species_entropies(evolve(h, psi0, times), h.blocks.basis)[k] - exact) < 5.0e-15
