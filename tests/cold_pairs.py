"""Time cold dwmix processes in alternated parent/change pairs.

Run from anywhere:

    python tests/cold_pairs.py PARENT CHANGE --pairs 10 --out BENCH_cold.json

PARENT and CHANGE are checkout roots, each holding ``src/dwmix``.  The
commands are ``python -c "import dwmix.cli"`` and every shipped preset
through its subcommand (``CLI_COMMANDS`` of ``perfbench/workloads.py``), the
writing ones with ``--out``.  Each run is a fresh interpreter with PYTHONPATH
set to the side's ``src`` alone, started in an empty temporary directory and
reaped with ``os.wait4``, which gives its wall time to the microsecond and
its peak RSS.  Pair k runs every command once on each side, command by
command, the parent first in even pairs and the change first in odd ones
(repeated, alternated runs against one parent: Kalibera & Jones, ISMM 2013;
order effects: Mytkowicz et al., ASPLOS 2009).  Before timing, each side
imports ``dwmix.cli`` once, untimed, to check where it comes from and to
write its bytecode caches.

The output holds both commits (and source digests), each side's environment
record, and for each command its per-side median, interquartile range and
values of the wall time and of the peak RSS, with the pairs the change won.
It reports and does not gate.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import SIDES, summarize

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from envinfo import environment  # noqa: E402
from workloads import CLI_COMMANDS  # noqa: E402

IMPORT = "import dwmix.cli"


def commands() -> dict[str, list[str]]:
    """Label -> the interpreter's arguments, for each timed command."""
    timed = {IMPORT: ["-c", IMPORT]}
    for kind, preset in CLI_COMMANDS:
        out = [] if kind == "validate-config" else ["--out", "out"]
        timed[f"{kind} {preset}"] = ["-m", "dwmix.cli", kind, "--config", preset, *out]
    return timed


def wait4_run(argv: list[str], env: dict[str, str], cwd: str) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one fresh process, reaped with
    ``os.wait4`` as soon as it exits."""
    with tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        child = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if child.returncode != 0:
            err.seek(0)
            raise SystemExit(f"{' '.join(argv)} exited {child.returncode}:\n"
                             + err.read().decode(errors="replace")[-2000:])
    return seconds, usage.ru_maxrss / 1024.0  # Linux reports kB


def measure(roots: dict[str, Path], pairs: int, run=wait4_run) -> dict:
    """Each command's wall time (``wall_s``) and peak RSS (``peak_rss_mb``),
    summarized over ``pairs`` alternated pairs, and every run in order;
    ``run(argv, env, cwd)`` returns a process's seconds and MB."""
    envs = {side: {**os.environ, "PYTHONPATH": str(roots[side] / "src")} for side in SIDES}
    timed = commands()
    wall, rss, runs = [], [], []
    for k in range(pairs):
        wall_s, rss_mb = {side: {} for side in SIDES}, {side: {} for side in SIDES}
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for label, args in timed.items():
            for side in order:
                with tempfile.TemporaryDirectory() as cwd:
                    seconds, mb = run([sys.executable, *args], envs[side], cwd)
                wall_s[side][label], rss_mb[side][label] = seconds, mb
                runs.append({"pair": k, "side": side, "command": label,
                             "wall_s": seconds, "peak_rss_mb": mb})
        wall.append(tuple({"metrics": wall_s[side]} for side in SIDES))
        rss.append(tuple({"metrics": rss_mb[side]} for side in SIDES))
    better = dict.fromkeys(timed, "lower")
    return {"wall_s": summarize(wall, better), "peak_rss_mb": summarize(rss, better),
            "runs": runs}


def check_origin(root: Path) -> None:
    """Import ``dwmix.cli`` as the timed runs do, and check that it comes
    from ``root``'s ``src``."""
    done = subprocess.run([sys.executable, "-c", f"{IMPORT}; print(dwmix.cli.__file__)"],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, check=False)
    origin = Path(done.stdout.strip() or ".").resolve().parent
    if done.returncode != 0 or origin != (root / "src" / "dwmix").resolve():
        raise SystemExit(f"dwmix.cli did not import from {root / 'src'}: {done.stderr[-2000:]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        check_origin(root)

    summary = measure(roots, args.pairs)
    environments = {side: environment(root, root / "src") for side, root in roots.items()}
    bench = {
        "pairs": args.pairs,
        "commands": {label: ["python", *a] for label, a in commands().items()},
        "commits": {side: {"git_commit": env["git_commit"],
                           "source_sha256": env["source_sha256"]}
                    for side, env in environments.items()},
        "environment": environments,
        **summary,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for label, entry in bench["wall_s"].items():
        print(f"{label}: parent {entry['parent']['median']:.4f} s "
              f"(IQR {entry['parent']['iqr']:.4f}), change {entry['change']['median']:.4f} s "
              f"(IQR {entry['change']['iqr']:.4f}), {entry['relative_change']:+.1%}, "
              f"change won {entry['change_wins']} of {entry['pairs']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
