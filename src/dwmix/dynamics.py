"""Time evolution and the return-probability observables.

Evolution is spectral (hbar = 1 in these units), with the spectrum from the
model's one symmetry-sector projection, the one sweeps read, solved at the
run's coupling row by ``HamiltonianBlocks.eigenpairs``; no full H is composed.
Phases e^{-i E tau} of the energies of H - shift * I are followed by one
factor e^{-i shift tau} per time, so the rounding of shift * tau is a global
phase no observable sees.  An evolved trajectory is a (T, dim) complex array
of coefficients over the composite basis, one row per time.  The return
probability P_RR is a mode projection: the squared norm of the both-right
row (bosons) or column (fermions) of the state's boson x fermion coefficient
matrix, ``CompositeBasis.coefficient_matrices``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvariantError, Record
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
PROBABILITY_SLACK = 1.0e-10


def initial_state_rr(basis: CompositeBasis) -> np.ndarray:
    """Coefficients of |RR> x |RR singlet>: both species start on the right."""
    c = np.zeros(basis.dim, dtype=complex)
    c[basis.index_of("RR", "RRs")] = 1.0
    return c


def return_probability(
    coefficients: np.ndarray, basis: CompositeBasis, species: str
) -> np.ndarray:
    """Weight of the both-right mode configuration for one species, per row:
    the squared norm of the both-right row (bosons) or column (fermions) of
    each row's boson x fermion coefficient matrix."""
    i, j = divmod(basis.index_of("RR", "RRs"), basis.fermion_dim)
    m = basis.coefficient_matrices(coefficients)
    if species == BOSONS:
        both_right = m[..., i, :]
    elif species == FERMIONS:
        both_right = m[..., :, j]
    else:
        raise ConfigError(f"species must be {BOSONS!r} or {FERMIONS!r}, got {species!r}")
    return np.sum(np.abs(both_right) ** 2, axis=-1)


def _validate_times(times: np.ndarray) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvariantError("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(t)):
        raise InvariantError("times must be finite")
    if t[0] < 0.0 or np.any(np.diff(t) < 0.0):
        raise InvariantError("times must be non-negative and ascending")
    return t


def evolve(h: ManyBodyHamiltonian, psi0: np.ndarray, times) -> np.ndarray:
    """Coefficients of psi0 evolved under h, shape (T, dim), one row per time.

    psi0 is a unit-norm coefficient vector over ``h.blocks.basis``.  One
    sector solve serves every time; raises InvariantError if psi0's norm is
    not 1.  h needs no check here: ``HamiltonianBlocks.project`` refused any
    piece of it that is not symmetric or couples its symmetry sectors.
    """
    c0 = np.asarray(psi0, dtype=complex)
    if c0.shape != (h.blocks.basis.dim,):
        raise ConfigError(
            f"state has {c0.shape} coefficients for a basis of dimension {h.blocks.basis.dim}"
        )
    _check_unit_norms(c0[None])
    t = _validate_times(times)
    energies, vectors = h.blocks.eigenpairs(h.couplings)
    phases = np.exp(-1j * np.outer(energies, t))
    rotated = (vectors @ ((vectors.T @ c0)[:, None] * phases)).T
    return rotated * np.exp(-1j * h.blocks.shift * t)[:, None]


class TimeSeries(Record):
    """Return probabilities for both species on a common time grid."""

    times: np.ndarray
    p_rr_bosons: np.ndarray
    p_rr_fermions: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p_rr_bosons", "p_rr_fermions"):
            v = getattr(self, name)
            if v.shape != self.times.shape:
                raise InvariantError(f"{name} length does not match the time grid")
            if v.min() < -PROBABILITY_SLACK or v.max() > 1.0 + PROBABILITY_SLACK:
                raise InvariantError(f"{name} leaves [0, 1] beyond tolerance")


def return_series(h: ManyBodyHamiltonian, psi0: np.ndarray, times) -> TimeSeries:
    """P_RR(tau) for both species from one :func:`evolve` pass."""
    coefficients = evolve(h, psi0, times)
    return TimeSeries(
        times=np.asarray(times, dtype=float),
        p_rr_bosons=return_probability(coefficients, h.blocks.basis, BOSONS),
        p_rr_fermions=return_probability(coefficients, h.blocks.basis, FERMIONS),
    )


def default_time_grid(min_splitting: float, periods: float, n_samples: int) -> np.ndarray:
    """Uniform grid covering ``periods`` single-particle oscillations
    (``lowest_doublet``'s splitting guard holds ``min_splitting`` positive)."""
    return np.linspace(0.0, periods * 2.0 * np.pi / min_splitting, n_samples)


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
    # k >= 1 and |shift| <= 1/2, so the peak lies at df / 2 > 0 or above.
    return float(1.0 / (freqs[k] + shift * df))


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
    # The later peaks' median, without np.median, whose first call imports numpy.ma.
    later = np.sort(peak_v[peak_v.size // 2 :])
    tail = float(np.mean(later[(later.size - 1) // 2 : later.size // 2 + 1]))
    threshold = tail + 0.1 * (peak_v[0] - tail)
    below = np.nonzero(peak_v <= threshold)[0]
    stop = int(below[0]) if below.size and below[0] > 0 else peak_v.size - 1
    stop = max(stop, 1)
    logs = np.log(np.maximum(peak_v[: stop + 1], 1.0e-9))
    slope = np.polyfit(peak_t[: stop + 1], logs, 1)[0]
    return float(max(-slope, 0.0))


def _plateaus(times: np.ndarray, values: np.ndarray) -> list[list[float]]:
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
    return [[a, b] for a, b in intervals if b - a >= PLATEAU_MIN_LENGTH]


def regime_metrics(series: TimeSeries) -> dict:
    """Period, damping, and plateau intervals for both species, as the dict
    ``regimes.json`` and the manifest's ``results`` hold: species ->
    ``period_estimate``, ``damping_estimate``, ``plateau_intervals`` (a list
    of [start, end] pairs).

    The series must lie on a uniform ascending grid and should span at least
    three periods of the slower species' bare oscillation;
    ``RunConfig.validate`` holds ``dynamics.periods`` to three.
    """
    t = series.times
    steps = np.diff(t)
    if not (steps[0] > 0.0 and np.allclose(steps, steps[0], rtol=1.0e-9, atol=0.0)):
        raise InvariantError("regime metrics require a uniform ascending time grid")
    return {
        species: {
            "period_estimate": _dominant_period(t, values),
            "damping_estimate": _damping_rate(t, values),
            "plateau_intervals": _plateaus(t, values),
        }
        for species, values in ((BOSONS, series.p_rr_bosons), (FERMIONS, series.p_rr_fermions))
    }
