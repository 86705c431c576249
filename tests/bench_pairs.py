"""Run the benchmark in alternated parent/change pairs and write a BENCH file.

Run from anywhere:

    python tests/bench_pairs.py PARENT CHANGE --workload sweep_large \\
        --pairs 10 --seconds 20 --out BENCH.json

PARENT and CHANGE are checkout roots, each holding ``perfbench/run.py``.
Pair k runs ``perfbench/run.py --workload W --seed SEED+k --seconds S
--trace 0`` in both checkouts, the parent first in even pairs and the change
first in odd ones, so that neither side always runs on a warmer or a cooler
machine (repeated, alternated runs against one parent: Kalibera & Jones,
ISMM 2013; order effects: Mytkowicz et al., ASPLOS 2009).  Each run's
result is read from the checkout's ``.perfbench_out/W-seed<n>-trace0.json``
and its op verdicts from its last stdout line.  After each run, the
workload's set-up (``perfbench/run.py --setup-only``) is timed SETUP_REPEATS
times in fresh processes, each reaped with ``os.wait4``, which times to the
microsecond where ``setup_s`` waits by polling.

The output holds both commits (and source digests), each side's environment
record, every end-to-end metric's per-side median, interquartile range and
values, the pairs the change won, each run's op verdicts, and the set-up
times.  It reports and does not gate: ``perfbench/gate.py`` checks the
artifacts.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
SETUP_REPEATS = 5


def read_record(root: Path, workload: str, seed: int) -> dict:
    """The result file ``perfbench/run.py --trace 0`` wrote in ``root``."""
    path = root / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def spread(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles) of ``values``."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric, each side's spread over the (parent, change) record pairs
    and the pairs the change won; ``better`` maps a metric to "lower" or
    "higher".  A tie is no win."""
    summary = {}
    for name, direction in better.items():
        before = [parent["metrics"][name] for parent, _ in pairs]
        after = [change["metrics"][name] for _, change in pairs]
        won = [(a < b) if direction == "lower" else (a > b) for b, a in zip(before, after)]
        parent, change = spread(before), spread(after)
        summary[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "relative_change": (change["median"] - parent["median"]) / parent["median"],
            "change_wins": sum(won),
            "pairs": len(pairs),
        }
    return summary


def run_benchmark(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``root``: its result record and op verdicts."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {root}:\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    verdict = json.loads(lines[-1])
    return {
        "record": read_record(root, workload, seed),
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "failures": [line for line in lines if line.startswith("FAILED ")],
    }


def setup_seconds(root: Path, workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh ``--setup-only`` processes, each reaped
    with ``os.wait4`` as soon as it exits."""
    cmd = [sys.executable, "perfbench/run.py", "--setup-only", "--workload", workload,
           "--seed", str(seed), "--seconds", "0"]
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=root, stdout=subprocess.DEVNULL)
        _, status, _ = os.wait4(child.pid, 0)
        times.append(time.perf_counter() - started)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if child.returncode != 0:
            raise SystemExit(f"--setup-only failed in {root} (exit {child.returncode})")
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=201, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH file to write")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} holds no perfbench/run.py")
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}

    pairs, runs = [], []
    setups: dict[str, list[float]] = {side: [] for side in SIDES}
    for k in range(args.pairs):
        seed = args.seed + k
        records = {}
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_benchmark(roots[side], args.workload, seed, args.seconds)
            setup = setup_seconds(roots[side], args.workload, seed, SETUP_REPEATS)
            setups[side] += setup
            records[side] = result.pop("record")
            runs.append({"pair": k, "side": side, "seed": seed, "first": side == order[0],
                         **result, "setup_wait4_s": setup, "metrics": records[side]["metrics"]})
            print(f"pair {k} {side}: " + ", ".join(
                f"{name} {value:.6g}" for name, value in records[side]["metrics"].items()),
                flush=True)
        pairs.append((records["parent"], records["change"]))

    environments = {side: pairs[0][i]["environment"] for i, side in enumerate(SIDES)}
    bench = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "commits": {side: {"git_commit": env.get("git_commit"),
                           "source_sha256": env.get("source_sha256")}
                    for side, env in environments.items()},
        "environment": environments,
        "metrics": summarize(pairs, better),
        "setup_wait4_s": {side: spread(times) for side, times in setups.items()},
        "all_ops_correct": all(run["correct"] for run in runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for name, entry in bench["metrics"].items():
        print(f"{name}: parent {entry['parent']['median']:.6g} "
              f"(IQR {entry['parent']['iqr']:.3g}), change {entry['change']['median']:.6g} "
              f"(IQR {entry['change']['iqr']:.3g}), {entry['relative_change']:+.1%}, "
              f"change won {entry['change_wins']} of {entry['pairs']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
