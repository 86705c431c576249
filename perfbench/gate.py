"""Output gate: checks each op's artifacts against stored reference values.

The checks use physical tolerances, not byte hashes, so that an
implementation that differs from the reference at the ulp level (a batched
eigensolver, another summation order) still passes, while a change to the
model does not.  Long arrays are stored on a sub-lattice: a reference array
of m points is compared with every ((n - 1) / (m - 1))-th point of an
artifact of n points, so one reference serves the full and the tiny sizes.

Reference-free invariants are checked on every op as well: P_RR in [0, 1],
fidelity in (0, 1], equal boson and fermion entropies, the criterion-7
entropy-line argmax, and that every manifest hash matches its file.

This module reads artifacts with numpy and the standard library only; it
never imports dwmix.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

ARGMAX_LAMBDA_FF = 2.765e-3  # criterion-7 line peak, at 2001 points

_VALIDATE_LINE = re.compile(
    r"^(boson|fermion)\s+splitting=(\S+) gap_ratio=(\S+) right_mass=(\S+)$", re.M
)
_SOLVE_LINE = re.compile(r"^splitting: boson (\S+), fermion (\S+)$", re.M)


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def extract(op, stdout: str) -> dict:
    """The checked quantities of one op, at full resolution."""
    if op.kind == "validate-config":
        found = {m[0]: m[1:] for m in _VALIDATE_LINE.findall(stdout)}
        if set(found) != {"boson", "fermion"} or not stdout.startswith("config OK"):
            raise ValueError("validate-config output lacks the mode report")
        modes = {}
        for species, (split, gap, mass) in found.items():
            modes[f"{species}_splitting"] = float(split)
            modes[f"{species}_gap_ratio"] = float(gap)
            modes[f"{species}_right_mass"] = float(mass)
        return {"modes": modes}

    out = Path(op.out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    derived = manifest["derived"]
    values: dict = {
        "modes": {
            "boson_splitting": derived["omega_1_boson"],
            "fermion_splitting": derived["omega_1_fermion"],
            "boson_gap_ratio": derived["gap_ratio_boson"],
            "fermion_gap_ratio": derived["gap_ratio_fermion"],
        },
        "manifest": manifest,
    }
    if op.kind == "solve-modes":
        split = _SOLVE_LINE.search(stdout)
        if split is None:
            raise ValueError("solve-modes output lacks the splitting line")
        values["printed_splitting"] = [float(split[1]), float(split[2])]
        for species in ("boson", "fermion"):
            table = _csv(out / f"modes_{species}.csv")
            values[f"{species}_psi_L"] = table[:, 3]
            values[f"{species}_psi_R"] = table[:, 4]
    elif op.kind == "evolve":
        table = _csv(out / "p_rr.csv")
        values["tau"] = table[:, 0]
        values["p_rr_b"] = table[:, 1]
        values["p_rr_f"] = table[:, 2]
        values["regimes"] = json.loads((out / "regimes.json").read_text(encoding="utf-8"))
        if "entropy_t" in manifest["outputs"]:
            table = _csv(out / "entropy_t.csv")
            values["s_bosons"] = table[:, 1]
            values["s_fermions"] = table[:, 2]
    elif op.kind == "fidelity-map":
        table = _csv(out / "fidelity_map.csv")
        n = op.sub_count
        if table.shape[0] != n * n:
            raise ValueError(f"fidelity map has {table.shape[0]} rows, expected {n * n}")
        values["fidelity"] = table[:, 2].reshape(n, n)
        values["reference_energy"] = manifest["results"]["reference_energy"]
    elif op.kind == "entropy-scan":
        table = _csv(out / "entropy_scan.csv")
        if table.shape[0] != op.sub_count:
            raise ValueError(f"entropy line has {table.shape[0]} rows, expected {op.sub_count}")
        values["lambda_ff"] = table[:, 0]
        values["s_bosons"] = table[:, 1]
        values["s_fermions"] = table[:, 2]
    return values


def sublattice(values: np.ndarray, m: int) -> np.ndarray:
    """Every stride-th point along each axis, so that m points remain."""
    sl = []
    for n in values.shape:
        if m < 2 or (n - 1) % (m - 1):
            raise ValueError(f"cannot take {m} evenly spaced points out of {n}")
        sl.append(slice(None, None, (n - 1) // (m - 1)))
    return values[tuple(sl)]


def _close(name: str, got, want, rtol: float, atol: float, errors: list[str]) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{name}: shape {got.shape} != reference {want.shape}")
        return
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if bad.any():
        k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        errors.append(f"{name}: {int(bad.sum())} values off the reference, "
                      f"first at {tuple(int(i) for i in k)}: {got[k]!r} vs {want[k]!r}")


def _compare_modes(got: dict, want: dict, tol: dict, errors: list[str]) -> None:
    # Printed values carry their own rounding: gap ratios to 0.1, right-side
    # masses to 1e-6; splittings are printed in full.
    for key, ref in want.items():
        if key not in got:
            errors.append(f"modes: {key} missing")
            continue
        atol = 0.1 if key.endswith("gap_ratio") else 1.0e-6 if key.endswith("right_mass") else 0.0
        _close(f"modes.{key}", got[key], ref, tol["mode_rtol"], atol, errors)


def _compare_regimes(got: dict, want: dict, dt: float, tol: dict, errors: list[str]) -> None:
    for species, ref in want.items():
        cur = got.get(species, {})
        for key in ("period_estimate", "damping_estimate"):
            _close(f"regimes.{species}.{key}", cur.get(key, np.nan), ref[key],
                   tol["regime_rtol"], 1.0e-12, errors)
        plateaus = cur.get("plateau_intervals", [])
        ref_plateaus = ref["plateau_intervals"]
        if len(plateaus) != len(ref_plateaus):
            errors.append(f"regimes.{species}: {len(plateaus)} plateaus, "
                          f"reference has {len(ref_plateaus)}")
        else:
            # An ulp-level change may move a threshold crossing by a sample.
            _close(f"regimes.{species}.plateau_intervals", plateaus, ref_plateaus,
                   0.0, 2.0 * dt, errors)


def _invariants(op, values: dict, tol: dict, errors: list[str]) -> None:
    slack = tol["unit_slack"]
    manifest = values.get("manifest")
    if manifest is not None:
        out = Path(op.out)
        for name, item in manifest["outputs"].items():
            path = out / item["path"]
            if not path.is_file():
                errors.append(f"manifest lists {name} but {path.name} is missing")
            elif _sha256(path) != item["sha256"] or path.stat().st_size != item["bytes"]:
                errors.append(f"manifest sha256 or size of {path.name} does not match the file")
    for key in ("p_rr_b", "p_rr_f"):
        if key in values:
            v = values[key]
            if v.min() < -slack or v.max() > 1.0 + slack:
                errors.append(f"{key} leaves [0, 1]: [{v.min()!r}, {v.max()!r}]")
    if "fidelity" in values:
        f = values["fidelity"]
        if not (f.min() > 0.0 and f.max() <= 1.0 + slack):
            errors.append(f"fidelity leaves (0, 1]: [{f.min()!r}, {f.max()!r}]")
    if "s_bosons" in values:
        gap = float(np.max(np.abs(values["s_bosons"] - values["s_fermions"])))
        if not gap <= tol["entropy_pair_atol"]:
            errors.append(f"s_bosons and s_fermions differ by {gap:.3e}")
    if op.ref == "line:criterion7":
        lam = values["lambda_ff"]
        argmax = float(lam[int(np.argmax(values["s_bosons"]))])
        on_grid = np.abs(lam - ARGMAX_LAMBDA_FF) < 1.0e-12
        step = float(lam[1] - lam[0])
        ok = (abs(argmax - ARGMAX_LAMBDA_FF) < 1.0e-12 if on_grid.any()
              else abs(argmax - ARGMAX_LAMBDA_FF) <= step)
        if not ok:
            errors.append(f"entropy-line argmax {argmax!r}, expected {ARGMAX_LAMBDA_FF!r}")
        reported = manifest["results"]["argmax_lambda_ff"]
        if reported != argmax:
            errors.append(f"manifest argmax {reported!r} != CSV argmax {argmax!r}")


def check(op, stdout: str, reference: dict) -> list[str]:
    """Every way the op's artifacts miss the reference; empty when correct."""
    tol = reference["tolerances"]
    try:
        values = extract(op, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    errors: list[str] = []
    _invariants(op, values, tol, errors)
    want = reference["cases"].get(op.ref)
    if want is None:
        return errors + [f"no reference entry {op.ref!r}"]
    for key, ref in want.items():
        if key == "modes":
            _compare_modes(values["modes"], ref, tol, errors)
        elif key == "regimes":
            dt = float(values["tau"][1] - values["tau"][0])
            _compare_regimes(values["regimes"], ref, dt, tol, errors)
        elif key in ("printed_splitting", "reference_energy"):
            _close(key, values.get(key, np.nan), ref, tol["mode_rtol"], 0.0, errors)
        elif key not in values:
            errors.append(f"{key} missing from the artifacts")
        else:
            m = np.asarray(ref).shape[0]
            atol = tol["mode_function_atol"] if "psi" in key else tol["probability_atol"]
            try:
                got = sublattice(np.asarray(values[key]), m)
            except ValueError as exc:
                errors.append(f"{key}: {exc}")
                continue
            _close(key, got, ref, 0.0, atol, errors)
    return errors
