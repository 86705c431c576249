#!/usr/bin/env python3
"""dwmix benchmark: runs one workload and prints one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_large --seed 1 --seconds 15 --trace 0

The program is driven only through its public entry points: ``python -m
dwmix.cli`` in a fresh interpreter (``cli_cold``) or ``dwmix.cli.main``
in-process (the other workloads).  One closed-loop client issues the ops
one after another; the sweep workload's ``--workers 2`` op is the only
place the program runs more than one worker.  Each op's artifacts are
checked against ``reference.json`` (see ``gate.py``).

With ``--trace 0`` the result holds the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` the run replays the same ops with
spans around every layer call and reports the per-layer metrics instead
(see ``tracing.py``).  The last stdout line is the JSON result; the lines
above it record the environment, the seed and the metrics that only some
workloads have (tail latency, the workload's own throughput name).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from envinfo import environment  # noqa: E402
from tracing import PROBED_LAYERS, Tracer, layer_metrics  # noqa: E402

COLD_TIMEOUT_S = 120
IMPORT_REPEATS = 3
TAIL_MIN_OPS = 20
TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile
MAX_FAILURES_SHOWN = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_cli():
    """``dwmix.cli`` from this checkout's sources, never another install."""
    sys.path.insert(0, str(SRC))
    import dwmix.cli

    if Path(dwmix.cli.__file__).resolve().parent != (SRC / "dwmix").resolve():
        raise SystemExit(f"imported dwmix from {dwmix.cli.__file__}, not from {SRC}")
    return dwmix.cli


def run_in_process(cli, op) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv())
        except Exception:  # an escaped exception fails the op, not the run
            code = -1
            traceback.print_exc(file=err)
    return time.perf_counter() - started, code, out.getvalue(), err.getvalue()


def run_cold(op) -> tuple[float, int, str, str]:
    started = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "dwmix.cli", *op.argv()],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=COLD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, -1, "", f"timed out after {COLD_TIMEOUT_S} s"
    return time.perf_counter() - started, done.returncode, done.stdout, done.stderr


def judge(op, code: int, stdout: str, stderr: str, reference: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    return gate.check(op, stdout, reference)


def setup(name: str, seed: int, sizes, work: Path):
    """Everything a run does before its first timed op.

    Imports the program, writes the workload's inputs and runs the warm-up
    ops.  ``setup_s`` times this in fresh interpreters.
    """
    cli = import_cli()
    wl = workloads.build(name, seed, sizes, work)
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    for file_name, values in wl.inputs.items():
        (work / "inputs" / file_name).write_text(workloads.config_text(values), encoding="utf-8")
    for op in wl.warmup:
        _, code, _, stderr = run_in_process(cli, op)
        if code != 0:
            raise SystemExit(f"warm-up op {op.argv()} failed: {stderr.strip()}")
    return cli, wl


def timed_setups(args) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(args.sizes.setup_repeats):
        started = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=COLD_TIMEOUT_S)
        times.append(time.perf_counter() - started)
    return times


def measure(wl, execute, seconds: float) -> tuple[list, int]:
    """Whole rounds of ops, as many as bring the run closest to ``seconds``.

    Another round starts while it is expected to end less than half a round
    past ``seconds``, so that the measured time falls on either side of
    ``seconds`` instead of always short of it, by up to a whole round.
    """
    records = []
    started = time.perf_counter()
    rounds = 0
    while True:
        for op in wl.next_round():
            records.append(execute(op))
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / rounds > seconds:
            return records, rounds


def tail_latency(latencies: list[float]) -> dict | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return {"percentile": pct, "value": ordered[math.ceil(pct / 100.0 * n) - 1],
                    "samples": n}
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def import_metrics() -> dict:
    """Interpreter start-up and ``import dwmix.cli`` cost, from fresh processes."""
    bare, cumulative = [], {}
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=COLD_TIMEOUT_S)
        bare.append(time.perf_counter() - started)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dwmix.cli"],
                              env=child_env(), cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=COLD_TIMEOUT_S)
        seen: dict[str, float] = {}
        for line in done.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, module = line.split("|")
                if cum.strip().isdigit():
                    seen.setdefault(module.strip(), int(cum) * 1e-6)
        for module in ("dwmix.cli", "numpy", "scipy.linalg", "scipy.signal"):
            # A module the program no longer imports costs nothing.
            cumulative.setdefault(module, []).append(seen.get(module, 0.0))
    return {
        "import.python_bare_s": statistics.median(bare),
        "import.dwmix_cli_s": statistics.median(cumulative["dwmix.cli"]),
        "import.numpy_s": statistics.median(cumulative["numpy"]),
        "import.scipy_linalg_s": statistics.median(cumulative["scipy.linalg"]),
        "import.scipy_signal_s": statistics.median(cumulative["scipy.signal"]),
    }


def executor(cli, reference: dict, in_process: bool):
    """Runs one op and checks its artifacts: (op, seconds, errors)."""
    def execute(op):
        seconds, code, out, err = run_in_process(cli, op) if in_process else run_cold(op)
        return op, seconds, judge(op, code, out, err, reference)

    return execute


def steady_throughput(records) -> float:
    """Work over summed latencies, each latency taken as its op class's median.

    Every round has the same mix of classes, so this is the work of a typical
    round over its time; a slow spell of the shared machine that hits a few
    ops moves it far less than it moves a plain sum.
    """
    by_group: dict[str, list[float]] = {}
    for op, seconds, _ in records:
        by_group.setdefault(op.latency_group, []).append(seconds)
    medians = {group: statistics.median(times) for group, times in by_group.items()}
    work = sum(op.work for op, _, _ in records)
    return work / sum(medians[op.latency_group] for op, _, _ in records)


def end_to_end(args, cli, wl, reference: dict) -> tuple[dict, dict, list]:
    setup_times = timed_setups(args)
    records, rounds = measure(wl, executor(cli, reference, wl.in_process), args.seconds)
    latencies = [seconds for _, seconds, _ in records]
    throughput = steady_throughput(records)
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "throughput_per_s": throughput,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_times),
    }
    extra = {
        "rounds": rounds,
        "latency_tail_s": tail_latency(latencies),
        wl.throughput_name: throughput,
        "setup_samples_s": setup_times,
    }
    return metrics, extra, records


def traced(args, cli, wl, reference: dict) -> tuple[dict, dict, list]:
    imports = import_metrics()
    untraced = executor(cli, reference, True)
    tracer = Tracer()
    workload_ids, probe_ids = set(), set()

    def traced_op(op, op_id: str):
        tracer.op_id = op_id
        with tracer.installed(), tracer.span("cli.main") as record:
            _, code, out, err = run_in_process(cli, op)
        return op, record[2] - record[1], judge(op, code, out, err, reference)

    def both(op):
        # Each op runs untraced, then traced, back to back, so that drift in
        # machine speed and warm-up effects hit both runs alike.
        op_id = f"op{len(workload_ids)}"
        workload_ids.add(op_id)
        return untraced(op), traced_op(op, op_id)

    pairs, rounds = measure(wl, both, args.seconds)
    records = [record for pair in pairs for record in pair]
    reached = {s[0] for s in tracer.spans}
    if not reached.issuperset(PROBED_LAYERS):
        inputs, probes = workloads.probe_ops(args.work)
        for file_name, values in inputs.items():
            (args.work / "inputs" / file_name).write_text(
                workloads.config_text(values), encoding="utf-8")
        for j, op in enumerate(probes):
            probe_ids.add(f"probe{j}")
            records.append(traced_op(op, f"probe{j}"))
    tracer.time_cells()
    tracer.write(OUT_ROOT / f"{args.workload}-seed{args.seed}.spans.jsonl")

    untraced_s = sum(a[1] for a, _ in pairs)
    traced_s = sum(b[1] for _, b in pairs)
    metrics = {**imports, **layer_metrics(tracer, workload_ids, probe_ids)}
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    extra = {"rounds": rounds, "traced_ops": len(pairs), "probe_ops": len(probe_ids),
             "spans": len(tracer.spans)}
    return metrics, extra, records


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks: toy problem sizes, and a substitute reference file.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.sizes = workloads.TINY if args.tiny else workloads.BENCH
    args.work = WORK_ROOT / args.workload
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dwmix" / "cli.py").is_file():
        print(f"no dwmix sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed, args.sizes, args.work)
        return 0

    # Build: byte-compile the package once, so no timed op compiles it.
    if not compileall.compile_dir(str(SRC / "dwmix"), quiet=1):
        print("byte-compiling the dwmix sources failed", file=sys.stderr)
        return 2
    reference = json.loads(args.reference.read_text(encoding="utf-8"))
    declared = declared_metrics(bool(args.trace))
    cli, wl = setup(args.workload, args.seed, args.sizes, args.work)
    run = traced if args.trace else end_to_end
    metrics, extra, records = run(args, cli, wl, reference)
    shutil.rmtree(args.work, ignore_errors=True)

    if set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} differ "
                         "from those BENCHMARK.json declares")
    failures = [(op, errors) for op, _, errors in records if errors]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "ops": len(records),
        "failed_fraction": len(failures) / len(records), **extra,
        "metrics": metrics, "environment": environment(ROOT, SRC),
    }
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("environment " + json.dumps(record["environment"]))
    print("run " + json.dumps({k: v for k, v in record.items()
                               if k not in ("metrics", "environment")}))
    for op, errors in failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {op.ref} ({' '.join(op.argv())}): {'; '.join(errors)}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {declared[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
