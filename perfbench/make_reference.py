#!/usr/bin/env python3
"""Regenerate ``reference.json``, the values the output gate checks against.

Run from the repository root, only when the model is meant to change (a
new stencil, a new potential default), and say so where the change is
recorded:

    python3 perfbench/make_reference.py

It runs every op any workload can draw, at the benchmark sizes, through
``dwmix.cli.main`` and stores what ``gate.extract`` reads from the
artifacts, with long arrays cut to a sub-lattice.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import gate
import run
import workloads
from workloads import BENCH, N_SAMPLES, Op

# Gate tolerances.  Physical, not bitwise: an eigensolver that differs at the
# ulp level moves none of these quantities by more than about 1e-12, while
# the finite-difference discretization error of a splitting is about 3e-5.
TOLERANCES = {
    "mode_rtol": 1.0e-7,  # splittings, gap ratios, reference energies
    "mode_function_atol": 1.0e-7,  # localized mode amplitudes
    "probability_atol": 1.0e-9,  # P_RR, fidelity, entropies (bits)
    "regime_rtol": 1.0e-6,  # period and damping estimates
    "entropy_pair_atol": 1.0e-9,  # |s_bosons - s_fermions| of a pure state
    "unit_slack": 1.0e-12,  # rounding allowed outside [0, 1]
}

# Arrays stored per subcommand, and the most points kept per axis.  The
# self-test's tiny map (16 x 16) and line (21 points) must be sub-lattices.
STORED = {
    "fidelity-map": (("fidelity",), 16),
    "entropy-scan": (("s_bosons",), 21),
    "evolve": (("p_rr_b", "p_rr_f", "s_bosons"), 64),
    "solve-modes": (("boson_psi_L", "boson_psi_R", "fermion_psi_L", "fermion_psi_R"), 41),
}


def sublattice_points(n: int, cap: int) -> int:
    return max(m for m in range(2, cap + 1) if (n - 1) % (m - 1) == 0)


def reference_entry(values: dict, counts: dict) -> dict:
    """What the reference file stores for one op."""
    entry: dict = {"modes": values["modes"]}
    for key, count in counts.items():
        if key in values:
            entry[key] = gate.sublattice(np.asarray(values[key]), count).tolist()
    for key in ("printed_splitting", "reference_energy", "regimes"):
        if key in values:
            entry[key] = values[key]
    return entry


def every_op(work) -> tuple[dict, list[Op]]:
    inputs, ops = {}, []
    cli_cold = workloads.build("cli_cold", 0, BENCH, work)
    ops += cli_cold.next_round()
    for plane in workloads.PLANES:
        inputs[f"map-{plane}.cfg"] = workloads.map_config(plane, BENCH.map_count)
        ops.append(Op("fidelity-map", str(work / "inputs" / f"map-{plane}.cfg"),
                      f"map:{plane}", 0, out=str(work / "out" / plane),
                      sub_count=BENCH.map_count))
    for name in ("sweep_large", "trajectory", "geometry_scan"):
        wl = workloads.build(name, 0, BENCH, work)
        inputs.update(wl.inputs)
    inputs["line.cfg"] = workloads.line_config(BENCH.line_count)
    ops.append(Op("entropy-scan", str(work / "inputs" / "line.cfg"), "line:criterion7", 0,
                  out=str(work / "out" / "line"), sub_count=BENCH.line_count))
    for region in BENCH.regions:
        for tag in (region, region + "+entropy"):
            ops.append(Op("evolve", str(work / "inputs" / f"{tag}.cfg"), f"evolve:{tag}",
                          N_SAMPLES, out=str(work / "out" / tag)))
    for n_points in sorted(set(BENCH.grids)):
        for sep in workloads.SEPARATIONS:
            ops.append(Op("validate-config",
                          str(work / "inputs" / f"g{sep:.2f}-{n_points}.cfg"),
                          workloads.geometry_key(sep, n_points), 1))
    return inputs, ops


def main() -> int:
    work = run.WORK_ROOT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    cli = run.import_cli()
    inputs, ops = every_op(work)
    for file_name, values in inputs.items():
        (work / "inputs" / file_name).write_text(workloads.config_text(values), encoding="utf-8")
    cases = {}
    for op in ops:
        _, code, stdout, stderr = run.run_in_process(cli, op)
        if code != 0:
            print(f"{op.ref}: exit {code}: {stderr}", file=sys.stderr)
            return 1
        values = gate.extract(op, stdout)
        keys, cap = STORED.get(op.kind, ((), 0))
        counts = {key: sublattice_points(len(values[key]), cap) for key in keys if key in values}
        cases[op.ref] = reference_entry(values, counts)
    shutil.rmtree(work, ignore_errors=True)
    reference = {"tolerances": TOLERANCES, "cases": dict(sorted(cases.items()))}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
