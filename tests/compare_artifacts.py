"""Compare what the CLI of two dwmix checkouts writes, byte for byte.

Run from anywhere:

    python tests/compare_artifacts.py PARENT CHANGE
    python tests/compare_artifacts.py PARENT CHANGE --config map.cfg fidelity-map

PARENT and CHANGE are checkout roots, each holding ``src/dwmix``.  Every
shipped preset runs through all five subcommands, and ``fidelity-map`` runs
four times more on the phase_maps geometry: at 128x128, a plane of four
sweep chunks that is solved in two processes where two CPUs are free, and on
each of the three planes at 256x256, the maps of the benchmark's
``sweep_large`` workload (65536 cells each).  That makes 24 runs; each extra
``--config FILE SUBCOMMAND`` pair adds one run.  A subcommand that writes gets
``--out`` and ``--plot``; ``validate-config``, which writes nothing, gets
``--config`` alone.  Each run is ``python -m dwmix.cli`` in a fresh
interpreter with the checkout's ``src`` first on PYTHONPATH.
For each run it compares:

- stdout, with the run's output directory masked;
- stderr, with the output directory and the checkout root masked (a warning
  names its source file), and the exit code;
- every file in the output directory, by its bytes, except that
  ``manifest.json`` is compared without ``created_utc``, the values of
  ``wall_time_s`` (its stage names are compared) and
  ``config.output.directory``, and a differing manifest is reported by the
  dotted keys that differ (``results.min_gap``).

Each difference is printed; the exit code is 1 if there is any, else 0.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
            found.append(f"{name} differs")
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
