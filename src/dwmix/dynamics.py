"""Time evolution and the return-probability observables.

Evolution is spectral (hbar = 1 in these units), with the spectrum from the
model's one symmetry-sector projection, the one sweeps read, solved at the
run's coupling row by ``SectorBlocks.eigenpairs``; no full H is composed.
Phases e^{-i E tau} of the energies of H - shift * I are followed by one
factor e^{-i shift tau} per time, so the rounding of shift * tau is a global
phase no observable sees.  An evolved trajectory is a (T, dim) complex array
of coefficients over the composite basis, one row per time.  The return
probability P_RR is a mode projection: the total weight of composite basis
states whose species component is the both-right state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .manybody import (
    BOSONS,
    FERMIONS,
    CompositeBasis,
    ManyBodyHamiltonian,
    _check_unit_norms,
)

PLATEAU_SLOPE_THRESHOLD = 1.0e-4
PLATEAU_BAND = (0.2, 0.8)
PLATEAU_MIN_LENGTH = 50.0
DEFAULT_TIME_SAMPLES = 4096
DEFAULT_PERIODS = 3.0
PROBABILITY_SLACK = 1.0e-10

_RETURN_LABEL = {BOSONS: "RR", FERMIONS: "RRs"}


def initial_state_rr(basis: CompositeBasis) -> np.ndarray:
    """Coefficients of |RR> x |RR singlet>: both species start on the right."""
    c = np.zeros(basis.dim, dtype=complex)
    c[basis.index_of("RR", "RRs")] = 1.0
    return c


def _species_mask(basis: CompositeBasis, species: str) -> np.ndarray:
    """Boolean mask over composite indices whose species part is both-right."""
    try:
        label = _RETURN_LABEL[species]
    except KeyError:
        raise ConfigError(
            f"species must be {BOSONS!r} or {FERMIONS!r}, got {species!r}"
        ) from None
    if species == BOSONS:
        if label not in basis.boson_labels:
            raise ConfigError(f"basis has no boson state {label!r}")
        i = basis.boson_labels.index(label)
        mask = np.zeros(basis.dim, dtype=bool)
        mask[i * basis.fermion_dim : (i + 1) * basis.fermion_dim] = True
        return mask
    if label not in basis.fermion_labels:
        raise ConfigError(
            f"basis has no fermion state {label!r}; the return probability "
            "is defined on the antisymmetric spin-0 sector"
        )
    j = basis.fermion_labels.index(label)
    mask = np.zeros(basis.dim, dtype=bool)
    mask[j :: basis.fermion_dim] = True
    return mask


def return_probability(
    coefficients: np.ndarray, basis: CompositeBasis, species: str
) -> np.ndarray:
    """Weight of the both-right mode configuration for one species, per row."""
    mask = _species_mask(basis, species)
    return np.sum(np.abs(coefficients[..., mask]) ** 2, axis=-1)


def _validate_times(times: np.ndarray) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ConfigError("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(t)):
        raise ConfigError("times must be finite")
    if t[0] < 0.0 or np.any(np.diff(t) < 0.0):
        raise ConfigError("times must be non-negative and ascending")
    return t


def evolve(h: ManyBodyHamiltonian, psi0: np.ndarray, times) -> np.ndarray:
    """Coefficients of psi0 evolved under h, shape (T, dim), one row per time.

    psi0 is a unit-norm coefficient vector over ``h.basis``.  One sector
    solve serves every time; raises InvariantError if h is not symmetric or
    couples its symmetry sectors.
    """
    c0 = np.asarray(psi0, dtype=complex)
    if c0.shape != (h.basis.dim,):
        raise ConfigError(
            f"state has {c0.shape} coefficients for a basis of dimension {h.basis.dim}"
        )
    _check_unit_norms(c0[None])
    t = _validate_times(times)
    energies, vectors = h.sectors.eigenpairs(h.couplings)
    phases = np.exp(-1j * np.outer(energies, t))
    rotated = (vectors @ ((vectors.T @ c0)[:, None] * phases)).T
    return rotated * np.exp(-1j * h.sectors.shift * t)[:, None]


@dataclass(frozen=True)
class TimeSeries:
    """Return probabilities for both species on a common time grid."""

    times: np.ndarray
    p_rr_bosons: np.ndarray
    p_rr_fermions: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p_rr_bosons", "p_rr_fermions"):
            v = getattr(self, name)
            if v.shape != self.times.shape:
                raise ConfigError(f"{name} length does not match the time grid")
            if v.min() < -PROBABILITY_SLACK or v.max() > 1.0 + PROBABILITY_SLACK:
                raise ConfigError(f"{name} leaves [0, 1] beyond tolerance")


def return_series(h: ManyBodyHamiltonian, psi0: np.ndarray, times) -> TimeSeries:
    """P_RR(tau) for both species from one :func:`evolve` pass."""
    coefficients = evolve(h, psi0, times)
    return TimeSeries(
        times=np.asarray(times, dtype=float),
        p_rr_bosons=return_probability(coefficients, h.basis, BOSONS),
        p_rr_fermions=return_probability(coefficients, h.basis, FERMIONS),
    )


def default_time_grid(
    min_splitting: float,
    periods: float = DEFAULT_PERIODS,
    n_samples: int = DEFAULT_TIME_SAMPLES,
) -> np.ndarray:
    """Uniform grid covering ``periods`` single-particle oscillations."""
    if min_splitting <= 0.0:
        raise ConfigError("tunneling splitting must be positive for a time grid")
    if n_samples < 2:
        raise ConfigError("need at least two time samples")
    return np.linspace(0.0, periods * 2.0 * np.pi / min_splitting, n_samples)


@dataclass(frozen=True)
class RegimeMetrics:
    period_estimate: float
    damping_estimate: float
    plateau_intervals: list[tuple[float, float]]


@dataclass(frozen=True)
class RegimeReport:
    bosons: RegimeMetrics
    fermions: RegimeMetrics

    def as_dict(self) -> dict:
        return {
            species: {
                "period_estimate": m.period_estimate,
                "damping_estimate": m.damping_estimate,
                "plateau_intervals": [list(p) for p in m.plateau_intervals],
            }
            for species, m in ((BOSONS, self.bosons), (FERMIONS, self.fermions))
        }


def _dominant_period(times: np.ndarray, values: np.ndarray) -> float:
    """Period of the dominant oscillation via the power spectrum.

    The series is Hann-windowed before the transform: on a window holding
    only a few periods the bare rectangular window leaks enough to tilt the
    zero-padded main lobe and bias the interpolated peak by about a percent.
    With the taper, an 8x zero-pad and parabolic refinement resolve the
    frequency of a three-period window to well under 1%.
    """
    v = values - values.mean()
    n = v.size
    padded = 8 * n
    power = np.abs(np.fft.rfft(v * np.hanning(n), n=padded)) ** 2
    freqs = np.fft.rfftfreq(padded, d=float(times[1] - times[0]))
    k = int(np.argmax(power[1:])) + 1
    if 1 <= k < power.size - 1:
        y0, y1, y2 = power[k - 1 : k + 2]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    df = freqs[1] - freqs[0]
    f_peak = freqs[k] + shift * df
    if f_peak <= 0.0:
        raise ConfigError("series has no resolvable oscillation frequency")
    return float(1.0 / f_peak)


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of the strict local maxima of a 1-d series.

    Runs of equal values count as one sample; a run is a peak when it is
    strictly higher than both neighbouring runs, and a flat top is reported
    at its middle, rounded down.  Runs touching either end are never peaks
    (the convention of ``scipy.signal.find_peaks``).
    """
    if values.size < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    ends = np.r_[starts[1:], values.size] - 1
    level = values[starts]
    peak = np.zeros(starts.size, dtype=bool)
    peak[1:-1] = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    return (starts[peak] + ends[peak]) // 2


def _damping_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Decay rate of the oscillation envelope.

    The envelope of a return-probability series typically falls from its
    initial level to an asymptotic one and then stays there.  Fitting the
    whole peak sequence would let a long flat tail swamp the fall, so the
    log-linear fit runs only over the leading peaks, up to the first one
    that has dropped 90 percent of the way to the tail level (median of
    the later peaks).  A flat or rising envelope maps to 0.  The boundary
    sample counts as a peak when the series starts on a maximum (the usual
    case for return probabilities).
    """
    idx = _local_maxima(values)
    peak_t = times[idx]
    peak_v = values[idx]
    if values.size >= 2 and values[0] >= values[1]:
        peak_t = np.concatenate([[times[0]], peak_t])
        peak_v = np.concatenate([[values[0]], peak_v])
    if peak_v.size < 2:
        return 0.0
    tail = float(np.median(peak_v[peak_v.size // 2 :]))
    threshold = tail + 0.1 * (peak_v[0] - tail)
    below = np.nonzero(peak_v <= threshold)[0]
    stop = int(below[0]) if below.size and below[0] > 0 else peak_v.size - 1
    stop = max(stop, 1)
    logs = np.log(np.maximum(peak_v[: stop + 1], 1.0e-9))
    slope = np.polyfit(peak_t[: stop + 1], logs, 1)[0]
    return float(max(-slope, 0.0))


def _plateaus(times: np.ndarray, values: np.ndarray) -> list[tuple[float, float]]:
    """Maximal flat stretches inside the intermediate-probability band."""
    low, high = PLATEAU_BAND
    slope = np.gradient(values, times)
    ok = (np.abs(slope) < PLATEAU_SLOPE_THRESHOLD) & (values >= low) & (values <= high)
    intervals: list[tuple[float, float]] = []
    start = None
    for k, flag in enumerate(ok):
        if flag and start is None:
            start = k
        elif not flag and start is not None:
            intervals.append((float(times[start]), float(times[k - 1])))
            start = None
    if start is not None:
        intervals.append((float(times[start]), float(times[-1])))
    return [(a, b) for a, b in intervals if b - a >= PLATEAU_MIN_LENGTH]


def regime_metrics(series: TimeSeries, min_splitting: float) -> RegimeReport:
    """Period, damping, and plateau intervals for both species.

    The series must span at least three periods of the slower species'
    bare oscillation (2 pi / min_splitting) on a uniform grid.
    """
    t = series.times
    if t.size < 16:
        raise ConfigError("series too short for regime metrics")
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1.0e-9, atol=0.0):
        raise ConfigError("regime metrics require a uniform time grid")
    if min_splitting <= 0.0:
        raise ConfigError("min_splitting must be positive")
    needed = 3.0 * 2.0 * np.pi / min_splitting
    if t[-1] - t[0] < needed * (1.0 - 1.0e-9):
        raise ConfigError(
            f"series spans {t[-1] - t[0]:.6g} but three bare periods need "
            f"{needed:.6g}"
        )
    bosons, fermions = (
        RegimeMetrics(
            period_estimate=_dominant_period(t, values),
            damping_estimate=_damping_rate(t, values),
            plateau_intervals=_plateaus(t, values),
        )
        for values in (series.p_rr_bosons, series.p_rr_fermions)
    )
    return RegimeReport(bosons=bosons, fermions=fermions)
