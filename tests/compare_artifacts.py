"""Compare what the CLI of two dwmix checkouts writes, byte for byte.

Run from anywhere:

    python tests/compare_artifacts.py PARENT CHANGE
    python tests/compare_artifacts.py PARENT CHANGE --config map.cfg fidelity-map

PARENT and CHANGE are checkout roots, each holding ``src/dwmix``.  Every
shipped preset runs through all five subcommands with ``--plot``, and so
does each extra ``--config FILE SUBCOMMAND`` pair, as ``python -m dwmix.cli``
in a fresh interpreter with the checkout's ``src`` first on PYTHONPATH.
For each run it compares:

- stdout, with the run's output directory masked;
- stderr, with the output directory and the checkout root masked (a warning
  names its source file), and the exit code;
- every file in the output directory, by its bytes, except that
  ``manifest.json`` is compared without ``created_utc``, ``wall_time_s``
  and ``config.output.directory``.

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


def run(checkout: Path, config: str, command: str, out: Path) -> dict[str, object]:
    """One CLI run's masked streams, exit code and output files."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "dwmix.cli", command, "--config", config,
         "--out", str(out), "--plot"],
        cwd=out.parent, env=env, capture_output=True, text=True, check=False,
    )

    def masked(text: str) -> str:
        return text.replace(str(out), "<out>").replace(str(checkout), "<checkout>")

    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        if path.name == MANIFEST:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            for key in ("created_utc", "wall_time_s"):
                manifest.pop(key, None)
            manifest.get("config", {}).pop("output.directory", None)
            files[path.name] = json.dumps(manifest, indent=2).encode()
        else:
            files[path.name] = path.read_bytes()
    return {"exit code": done.returncode, "stdout": masked(done.stdout),
            "stderr": masked(done.stderr), "files": files}


def differences(parent: dict[str, object], change: dict[str, object]) -> list[str]:
    found = [f"{name} differs" for name in ("exit code", "stdout", "stderr")
             if parent[name] != change[name]]
    before, after = parent["files"], change["files"]
    for name in sorted(set(before) | set(after)):
        if name not in before or name not in after:
            found.append(f"{name} written by one checkout only")
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
    runs += [(str(Path(config).resolve()), command) for config, command in args.config]
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        for k, (config, command) in enumerate(runs):
            results = {}
            for side, root in checkouts.items():
                out = Path(scratch, side, str(k))
                out.parent.mkdir(parents=True, exist_ok=True)
                results[side] = run(root, config, command, out)
            found = differences(results["parent"], results["change"])
            status = "; ".join(found) if found else "identical"
            print(f"{command} --config {config} (exit {results['change']['exit code']}, "
                  f"{len(results['change']['files'])} files): {status}")
            failures += bool(found)
    print(f"{len(runs) - failures} of {len(runs)} runs identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
