"""Artifact writers: CSV emission, run manifests, and content hashing.

All floats are written with ``repr``, which round-trips in IEEE double and
keeps output bytes independent of locale and numpy print options.  The
manifest lists every emitted file with its SHA-256 so that a rerun can be
compared hash for hash.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import RegimeReport, TimeSeries
from .model import ModelContext
from .overlaps import distinct_elements
from .sweep import EntropyCurve, FidelitySurface
from .units import ATOMIC_MASS_KG, DEFAULT_UNITS, HBAR_JS, PLANCK_H_JS

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


def _write_blocks(path: str | Path, header: str, blocks) -> Path:
    """Write a CSV whose rows come in blocks, each a tuple of formatted columns.

    Only one block's strings are alive at a time, which bounds the memory a
    large sweep's CSV takes.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            fh.write("".join(f"{','.join(row)}\n" for row in zip(*columns, strict=True)))
    return path


def write_modes_csv(path: str | Path, modes, grid) -> Path:
    return _write_blocks(path, MODES_HEADER, [(
        _floats(grid.points()), _floats(modes.psi_s), _floats(modes.psi_a),
        _floats(modes.psi_left), _floats(modes.psi_right),
    )])


def write_timeseries_csv(path: str | Path, series: TimeSeries) -> Path:
    return _write_blocks(path, TIMESERIES_HEADER, [(
        _floats(series.times), _floats(series.p_rr_bosons), _floats(series.p_rr_fermions),
    )])


def write_fidelity_csv(path: str | Path, surface: FidelitySurface) -> Path:
    # One block per x value; each axis value is formatted once.
    ys = _floats(surface.y_values)
    blocks = (
        ([x] * len(ys), ys, _floats(fidelity), _flags(degenerate))
        for x, fidelity, degenerate in zip(
            _floats(surface.x_values), surface.fidelity, surface.degenerate, strict=True
        )
    )
    return _write_blocks(path, FIDELITY_HEADER, blocks)


def write_entropy_csv(path: str | Path, curve: EntropyCurve) -> Path:
    return _write_blocks(path, ENTROPY_HEADER, [(
        _floats(curve.lambda_ff), _floats(curve.s_bosons),
        _floats(curve.s_fermions), _flags(curve.degenerate),
    )])


def write_entropy_timeseries_csv(path: str | Path, times, s_bosons, s_fermions) -> Path:
    return _write_blocks(path, ENTROPY_T_HEADER, [(
        _floats(times), _floats(s_bosons), _floats(s_fermions),
    )])


def write_regimes_json(path: str | Path, report: RegimeReport) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8")
    return path


def sha256_of(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    context: ModelContext,
    outputs: dict[str, Path],
    wall_times: dict[str, float] | None = None,
    results: dict | None = None,
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
            "length_m": DEFAULT_UNITS.length_m,
            "energy_j": DEFAULT_UNITS.energy_j,
            "time_s": DEFAULT_UNITS.time_s,
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
            "boson_tensor": distinct_elements(context.overlaps.boson, pair_symmetric=True),
            "fermion_tensor": distinct_elements(context.overlaps.fermion, pair_symmetric=True),
            "cross_tensor": distinct_elements(context.overlaps.cross, pair_symmetric=False),
            "quadrature_error_boson": context.overlaps.boson.quadrature_error_estimate,
            "quadrature_error_fermion": context.overlaps.fermion.quadrature_error_estimate,
            "quadrature_error_cross": context.overlaps.cross.quadrature_error_estimate,
        },
        "results": results or {},
        "wall_time_s": {k: float(v) for k, v in (wall_times or {}).items()},
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
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, default=_json_default) + "\n",
                    encoding="utf-8")
    return path


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__} in a manifest")
