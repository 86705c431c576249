"""Compare what the CLI of two dwmix checkouts writes, byte for byte.

Run from anywhere:

    python tests/compare_artifacts.py PARENT CHANGE
    python tests/compare_artifacts.py PARENT CHANGE --config map.cfg fidelity-map

PARENT and CHANGE are checkout roots, each holding ``src/dwmix``.  Every
shipped preset runs through all five subcommands, and ``fidelity-map`` runs
four times more on the phase_maps geometry: at 128x128, a plane of four
sweep chunks that is solved in two processes where two CPUs are free, and on
each of the three planes at 256x256, the maps of the benchmark's
``sweep_large`` workload (65536 cells each).  Three more runs write the other
CSVs over more than one write block (``dwmix.manifest.WRITE_BLOCK_CELLS``
rows): ``solve-modes`` at 8001 grid points, ``evolve`` with 9000 samples and
the entropy track, and ``entropy-scan`` over 4500 points.  The presets all
build spin sector 0, so the phase_maps geometry runs once more in each
polarized sector (``model.spin_sector`` = 1 and -1) through
``fidelity-map``, ``entropy-scan`` and ``evolve``, which refuses it with
exit code 2.  That makes 33 runs; each extra ``--config FILE SUBCOMMAND``
pair adds one run.  A subcommand that writes gets ``--out`` and
``--plot``; ``validate-config``, which writes nothing, gets ``--config``
alone.  Each run is ``python -m dwmix.cli`` in a fresh interpreter with the
checkout's ``src`` first on PYTHONPATH.
For each run it compares:

- stdout, with the run's output directory masked;
- stderr, with the output directory and the checkout root masked (a warning
  names its source file), and the exit code;
- every file in the output directory, by its bytes, except that
  ``manifest.json`` is compared without ``created_utc``, the values of
  ``wall_time_s`` (its stage names are compared) and
  ``config.output.directory``, and a differing manifest is reported by the
  dotted keys that differ (``results.min_gap``), and a differing CSV by
  each column's largest move: absolute, relative (to the larger magnitude)
  and in ulps, the count of doubles between the two values.

Each difference is printed; the exit code is 1 if there is any, else 0.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PRESETS = ("region1", "region2", "region3", "phase_maps")
SUBCOMMANDS = ("solve-modes", "evolve", "fidelity-map", "entropy-scan", "validate-config")
MANIFEST = "manifest.json"
# A plane through the phase_maps reference point, as perfbench/workloads.py
# map_config writes it.
MAP = """\
potential.separation = 1.65
potential.smoothing = 0.12
couplings.lambda_bb = 5.0e-4
couplings.lambda_ff = 5.0e-4
couplings.lambda_bf = 5.0e-4
sweep.plane = {plane}
sweep.x_min = 0.0
sweep.x_max = 1.0e-3
sweep.x_count = {count}
sweep.y_min = 0.0
sweep.y_max = 1.0e-3
sweep.y_count = {count}
sweep.reference_bb = 5.0e-4
sweep.reference_ff = 5.0e-4
sweep.reference_bf = 5.0e-4
"""
# At 128x128 a plane is four chunks of dwmix.sweep.CHUNK_CELLS; at 256x256,
# sixteen.
MAPS = (("ff_bf", 128), ("ff_bf", 256), ("bb_bf", 256), ("bb_ff", 256))
# Writers whose preset files fit in one write block, each over three blocks.
BLOCKS = (("modes", "solve-modes", "grid.n_points = 8001\n"),
          ("entropy_t", "evolve", "dynamics.n_samples = 9000\ndynamics.with_entropy = true\n"),
          ("line", "entropy-scan", "sweep.line_count = 4500\n"))

# The phase_maps preset in each polarized spin sector, and what runs it.
SECTORS = (1, -1)
SECTOR_COMMANDS = ("fidelity-map", "entropy-scan", "evolve")


def run(checkout: Path, config: str, command: str, out: Path) -> dict[str, object]:
    """One CLI run's masked streams, exit code and output files."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    flags = () if command == "validate-config" else ("--out", str(out), "--plot")
    done = subprocess.run(
        [sys.executable, "-m", "dwmix.cli", command, "--config", config, *flags],
        cwd=out.parent, env=env, capture_output=True, text=True, check=False,
    )

    def masked(text: str) -> str:
        return text.replace(str(out), "<out>").replace(str(checkout), "<checkout>")

    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        if path.name == MANIFEST:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest.pop("created_utc", None)
            manifest["wall_time_s"] = list(manifest.get("wall_time_s", {}))
            manifest.get("config", {}).pop("output.directory", None)
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return {"exit code": done.returncode, "stdout": masked(done.stdout),
            "stderr": masked(done.stderr), "files": files}


def dotted(value: object, prefix: str = "") -> dict[str, object]:
    """A JSON object's leaves by dotted key; a list or an empty object is a leaf."""
    if not isinstance(value, dict) or not value:
        return {prefix: value}
    leaves = {}
    for key, item in value.items():
        leaves.update(dotted(item, f"{prefix}.{key}" if prefix else key))
    return leaves


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """How many doubles lie from each a to its b, counting b; -0.0 and 0.0
    are one."""
    def place(x):  # each double's place in the order of all doubles
        bits = x.view(np.int64)
        return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)

    low, high = np.minimum(place(a), place(b)), np.maximum(place(a), place(b))
    return high.view(np.uint64) - low.view(np.uint64)  # exact, in modular arithmetic


def column_moves(before: bytes, after: bytes) -> str:
    """Each column's largest move between two CSVs of one layout, or why
    they cannot be compared so."""
    (header, *rows), (new_header, *new_rows) = before.splitlines(), after.splitlines()
    if header != new_header or len(rows) != len(new_rows):
        return f"header or row count differs ({len(rows)} -> {len(new_rows)} rows)"
    old, new = (np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, ndmin=2)
                for text in (before, after))
    moves = []
    for name, a, b in zip(header.decode().split(","), old.T, new.T):
        moved = (a != b) & ~(np.isnan(a) & np.isnan(b))
        if moved.any():
            a, b = a[moved], b[moved]
            with np.errstate(invalid="ignore"):  # inf against inf or nan
                move = np.abs(b - a)
                relative = move / np.maximum(np.abs(a), np.abs(b))
            moves.append(f"{name} by {move.max():.2g} ({relative.max():.2g} relative, "
                         f"{ulps_apart(a, b).max()} ulps)")
    return ", ".join(moves) or "bytes differ, values equal"


def differences(parent: dict[str, object], change: dict[str, object]) -> list[str]:
    found = [f"{name} differs" for name in ("exit code", "stdout", "stderr")
             if parent[name] != change[name]]
    before, after = parent["files"], change["files"]
    for name in sorted(set(before) | set(after)):
        if name not in before or name not in after:
            found.append(f"{name} written by one checkout only")
        elif name == MANIFEST:
            old, new = dotted(before[name]), dotted(after[name])
            keys = sorted(key for key in old.keys() | new.keys()
                          if key not in old or key not in new or old[key] != new[key])
            if keys:
                found.append(f"{name} differs at {', '.join(keys)}")
        elif before[name] != after[name]:
            moves = column_moves(before[name], after[name]) if name.endswith(".csv") else ""
            found.append(f"{name} differs" + (f": {moves}" if moves else ""))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--config", nargs=2, action="append", default=[],
                        metavar=("FILE", "SUBCOMMAND"), help="an extra run to compare")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in checkouts.values():
        if not (root / "src" / "dwmix" / "cli.py").is_file():
            parser.error(f"{root} holds no src/dwmix/cli.py")
    runs = [(preset, command) for preset in PRESETS for command in SUBCOMMANDS]
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        for plane, count in MAPS:
            config = Path(scratch, f"{plane}_{count}.cfg")
            config.write_text(MAP.format(plane=plane, count=count), encoding="utf-8")
            runs.append((str(config), "fidelity-map"))
        for label, command, text in BLOCKS:
            config = Path(scratch, f"{label}_blocks.cfg")
            config.write_text(text, encoding="utf-8")
            runs.append((str(config), command))
        for sector in SECTORS:
            config = Path(scratch, f"phase_maps_sector{sector}.cfg")
            config.write_text(MAP.format(plane="ff_bf", count=64)
                              + f"model.spin_sector = {sector}\n", encoding="utf-8")
            runs += [(str(config), command) for command in SECTOR_COMMANDS]
        runs += [(str(Path(config).resolve()), command) for config, command in args.config]
        for k, (config, command) in enumerate(runs):
            results = {}
            for side, root in checkouts.items():
                out = Path(scratch, side, str(k))
                out.parent.mkdir(parents=True, exist_ok=True)
                results[side] = run(root, config, command, out)
            found = differences(results["parent"], results["change"])
            status = "; ".join(found) if found else "identical"
            print(f"{command} --config {config} "
                  f"(exit {results['change']['exit code']}, "
                  f"{len(results['change']['files'])} files): {status}")
            failures += bool(found)
    print(f"{len(runs) - failures} of {len(runs)} runs identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
