"""Artifact writers: CSV emission, run manifests, and content hashing.

All floats are written as ``repr`` writes them, which round-trips in IEEE
double and keeps output bytes independent of locale and numpy print options.
The fidelity column's digits are computed in numpy (``_repr_digits``), with
the same bytes.  The manifest lists every emitted file with its SHA-256 so
that a rerun can be compared hash for hash.
"""

from __future__ import annotations

import functools
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import TimeSeries
from .model import ModelContext
from .sweep import EntropyCurve, FidelitySurface
from .units import ATOMIC_MASS_KG, ENERGY_J, HBAR_JS, LENGTH_M, PLANCK_H_JS, TIME_S

MODES_HEADER = "x_um,psi_s,psi_a,psi_L,psi_R"
TIMESERIES_HEADER = "tau,p_rr_b,p_rr_f"
FIDELITY_HEADER = "lambda_x,lambda_y,fidelity,degenerate_flag"
ENTROPY_HEADER = "lambda_ff,s_bosons,s_fermions,degenerate_flag"
ENTROPY_T_HEADER = "tau,s_bosons,s_fermions"


def _floats(values) -> list[str]:
    """repr of each value as a Python float, in row-major order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _flags(values) -> list[str]:
    return ["1" if flag else "0" for flag in np.asarray(values, dtype=bool).ravel().tolist()]


def _write_columns(path: str | Path, header: str, columns) -> Path:
    """Write a CSV from a tuple of formatted columns of equal length."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("".join(f"{','.join(row)}\n" for row in zip(*columns, strict=True)))
    return path


def write_modes_csv(path: str | Path, modes, grid) -> Path:
    return _write_columns(path, MODES_HEADER, (
        _floats(grid.points()), _floats(modes.psi_s), _floats(modes.psi_a),
        _floats(modes.psi_left), _floats(modes.psi_right),
    ))


def write_timeseries_csv(path: str | Path, series: TimeSeries) -> Path:
    return _write_columns(path, TIMESERIES_HEADER, (
        _floats(series.times), _floats(series.p_rr_bosons), _floats(series.p_rr_fermions),
    ))


# The fidelity column's digits, computed in numpy.  For x in (1/16, 1), let
# v = x * 10**17.  A 17-place decimal N / 10**17 reads back as x exactly
# when |N - v| < h, half the gap between x and its neighbours scaled by
# 10**17 (5.55 on (1/2, 1), 0.69 on (1/16, 1/8)); no integer N lies on that
# edge, and the powers of two, whose gap below is half the gap above, are
# left out.  repr writes the N with the most trailing zeros, the nearest to v
# among those (Steele & White, PLDI 1990; Adams, PLDI 2018).  Since h > 1/2
# the nearest integer qualifies; since 2h < 100 at most one multiple of 100
# does, and any multiple of a higher power of ten that qualifies is that one.
# So the nearest integer, multiple of 10 and multiple of 100 decide every x;
# where two candidates tie, x is left to repr.  v is formed exactly as
# n + e, n an int64 and |e| <= 1/2, by Dekker's two-product (Numer. Math.
# 18, 1971), as numpy has no fma.
_SCALE = 1e17  # 2**17 * 5**17, exact
_SPLITTER = 2.0**27 + 1.0


def _split(a):
    """``a`` as high + low exactly, each of at most 26 significant bits."""
    t = a * _SPLITTER
    high = t - (t - a)
    return high, a - high


_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)


@functools.cache  # built on the first fidelity write, not at import
def _digit_table() -> np.ndarray:
    """ASCII words: 0000-9999; the same with trailing zeros as NUL (0 all
    NUL); then "0.0" to "0.9", each with a NUL."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    text = digits + 48
    kept = np.logical_or.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]
    lead = np.array([[48, 46, 48 + d, 0] for d in range(10)], dtype=np.uint8)
    return np.concatenate([text, text * kept, lead]).view(np.uint32).ravel()


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**17 exactly, as n + e: n an int64 and |e| <= 1/2."""
    product = x * _SCALE  # an integer above 2**52
    high, low = _split(x)
    error = ((high * _SCALE_HIGH - product) + high * _SCALE_LOW
             + low * _SCALE_HIGH) + low * _SCALE_LOW
    whole = np.rint(error)
    return product.astype(np.int64) + whole.astype(np.int64), error - whole


def _nearest(above: np.ndarray, step: int, half_gap: np.ndarray) -> tuple:
    """For v lying ``above`` a multiple of ``step``: whether the nearest
    multiple lies within ``half_gap`` of v, whether it is the next one up,
    and whether the two are equally near."""
    down, up = np.abs(above), step - above
    return np.minimum(down, up) < half_gap, up < down, up == down


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The N that repr writes for each x, and where two candidates tie."""
    n, e = _scaled(x)
    half_gap = ((x.view(np.int64) + 1).view(np.float64) - x) * (_SCALE / 2)
    hundreds = n // 100
    units = (n - 100 * hundreds).astype(float)
    tens = np.floor(units / 10) * 10
    at_10, up_10, tie_10 = _nearest(units - tens + e, 10, half_gap)
    at_100, up_100, _ = _nearest(units + e, 100, half_gap)
    last = np.where(at_100, 100 * up_100, np.where(at_10, tens + 10 * up_10, units))
    tie = np.where(at_10, tie_10, np.abs(e) == 0.5) & ~at_100
    return 100 * hundreds + last.astype(np.int64), tie


def _digit_words(n: np.ndarray) -> np.ndarray:
    """Each N below 10**17 as "0." and its 17 digits, in five words."""
    table = _digit_table()
    words = np.empty((n.size, 5), np.uint32)
    trailing = np.ones(n.size, dtype=bool)  # every later group is zero
    for column in (4, 3, 2, 1):
        high = n // 10000
        group = n - 10000 * high
        words[:, column] = table[group + 10000 * trailing]
        trailing &= group == 0
        n = high
    words[:, 0] = table[20000 + n]
    return words


def _repr_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """repr of the float64 ``values`` it can settle, and the mask of those.

    Rows of 20 ASCII bytes: "0.", the first digit, a NUL, and four groups of
    four digits, trailing zeros NUL.  The row of a value it leaves (outside
    (1/16, 1), a power of two, a tie) is all NUL.
    """
    settled = ((values > 0.0625) & (values < 1.0)
               & (values != 0.125) & (values != 0.25) & (values != 0.5))
    where = np.flatnonzero(settled)
    n, tie = _shortest(values[where])
    words = _digit_words(n)
    words[tie] = 0
    settled[where[tie]] = False
    if where.size == values.size:
        return words.view(np.uint8), settled
    chars = np.zeros((values.size, 20), np.uint8)
    chars[where] = words.view(np.uint8)
    return chars, settled


def _ascii_rows(texts: list[str]) -> np.ndarray:
    """Each text as a row of ASCII bytes, NUL-padded to the longest."""
    return np.array([text.encode("ascii") for text in texts]).view(np.uint8).reshape(
        len(texts), -1)


def _repr_bytes(values) -> np.ndarray:
    """repr of each value as a Python float, as NUL-padded ASCII rows."""
    values = np.asarray(values, dtype=float).ravel()
    chars, settled = _repr_digits(values)
    rest = np.flatnonzero(~settled)
    if rest.size:
        texts = _ascii_rows(_floats(values[rest]))
        chars = np.pad(chars, ((0, 0), (0, max(0, texts.shape[1] - chars.shape[1]))))
        chars[rest, :texts.shape[1]] = texts
    return chars


# Cells per block of rows.  A block's rows are one uint8 matrix, about 70
# bytes a cell, so a map's write peaks under 1 MB however large the map.
WRITE_BLOCK_CELLS = 4096
_FLAG_BYTES = np.frombuffer(b",0\n,1\n", dtype=np.uint8).reshape(2, 3)


def write_fidelity_csv(path: str | Path, surface: FidelitySurface) -> Path:
    # Each row's pieces, "x,", "y,", the fidelity and ",flag\n", are columns
    # of NUL-padded ASCII, put side by side for a block of cells at a time;
    # the NULs are dropped as the block is written.  Each axis value is
    # formatted once.
    path = Path(path)
    xs = _ascii_rows([f"{x}," for x in _floats(surface.x_values)])
    ys = _ascii_rows([f"{y}," for y in _floats(surface.y_values)])
    fidelity = np.asarray(surface.fidelity, dtype=float)
    degenerate = np.asarray(surface.degenerate, dtype=bool)
    if not fidelity.shape == degenerate.shape == (len(xs), len(ys)):
        raise ValueError(f"fidelity {fidelity.shape} and flags {degenerate.shape} "
                         f"do not span the {len(xs)}x{len(ys)} axes")
    fidelity, degenerate = fidelity.ravel(), degenerate.ravel()
    with path.open("wb") as fh:
        fh.write(FIDELITY_HEADER.encode("ascii") + b"\n")
        for start in range(0, fidelity.size, WRITE_BLOCK_CELLS):
            block = slice(start, min(start + WRITE_BLOCK_CELLS, fidelity.size))
            digits = _repr_bytes(fidelity[block])
            x_index, y_index = np.divmod(np.arange(block.start, block.stop), len(ys))
            # One expression, so that each piece is freed once it is used.
            fh.write(np.concatenate((
                xs.take(x_index, axis=0), ys.take(y_index, axis=0), digits,
                _FLAG_BYTES.take(degenerate[block], axis=0),
            ), axis=1).tobytes().translate(None, b"\0"))
    return path


# A pure state's one entropy is written, formatted once, as both the
# s_bosons and the s_fermions column.
def write_entropy_csv(path: str | Path, curve: EntropyCurve) -> Path:
    entropy = _floats(curve.entropy)
    return _write_columns(path, ENTROPY_HEADER, (
        _floats(curve.lambda_ff), entropy, entropy, _flags(curve.degenerate),
    ))


def write_entropy_timeseries_csv(path: str | Path, times, entropy) -> Path:
    entropy = _floats(entropy)
    return _write_columns(path, ENTROPY_T_HEADER, (_floats(times), entropy, entropy))


def write_regimes_json(path: str | Path, report: dict) -> Path:
    import json  # here, not at module load: validate-config writes no file
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def sha256_of(path: str | Path) -> str:
    import hashlib  # here, not at module load: only runs that write files hash

    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    context: ModelContext,
    outputs: dict[str, Path],
    wall_times: dict[str, float],
    results: dict,
) -> dict:
    """Everything needed to reproduce and check a run, in stable key order."""
    cfg = context.config
    flat_config = {
        k: (("true" if v else "false") if isinstance(v, bool) else v)
        for k, v in cfg.to_flat_dict().items()
    }
    mb, mf = context.boson_modes, context.fermion_modes
    manifest = {
        "tool": "dwmix",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": flat_config,
        "constants": {
            "hbar_js": HBAR_JS,
            "planck_h_js": PLANCK_H_JS,
            "atomic_mass_kg": ATOMIC_MASS_KG,
            "length_m": LENGTH_M,
            "energy_j": ENERGY_J,
            "time_s": TIME_S,
            "kappa_boson": context.species.kappa_boson,
            "kappa_fermion": context.species.kappa_fermion,
        },
        "derived": {
            "omega_1_boson": mb.splitting,
            "omega_1_fermion": mf.splitting,
            "gap_ratio_boson": mb.gap_ratio,
            "gap_ratio_fermion": mf.gap_ratio,
            "right_mass_boson": mb.right_mass(),
            "right_mass_fermion": mf.right_mass(),
            "basis_labels": context.basis.labels,
            "boson_tensor": context.overlaps.boson.distinct,
            "fermion_tensor": context.overlaps.fermion.distinct,
            "cross_tensor": context.overlaps.cross.distinct,
            "quadrature_error_boson": context.overlaps.boson.quadrature_error_estimate,
            "quadrature_error_fermion": context.overlaps.fermion.quadrature_error_estimate,
            "quadrature_error_cross": context.overlaps.cross.quadrature_error_estimate,
        },
        "results": results,
        "wall_time_s": {k: float(v) for k, v in wall_times.items()},
        "outputs": {
            name: {
                "path": path.name,
                "sha256": sha256_of(path),
                "bytes": path.stat().st_size,
            }
            for name, path in outputs.items()
        },
    }
    return manifest


def write_manifest(path: str | Path, manifest: dict) -> Path:
    import json  # here, not at module load: validate-config writes no file
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path
