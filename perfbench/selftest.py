#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Checks that every workload, untraced and traced, emits every metric that
BENCHMARK.json declares, with its unit; that a deliberately wrong reference
value is counted as a failed op; and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"
WORKLOADS = ("cli_cold", "sweep_large", "trajectory", "geometry_scan")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done, result


def declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def test_every_metric_is_emitted_with_its_unit():
    for trace in (0, 1):
        want = declared(trace)
        for workload in WORKLOADS:
            done, result = bench(workload, trace)
            assert result is not None, f"{workload} trace {trace}: {done.stderr[-2000:]}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, done.stdout[-2000:]
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == set(want), (workload, trace)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == want[name], (workload, name)
                assert isinstance(metric["value"], (int, float))
                assert math.isfinite(metric["value"]), (workload, name)


def test_wrong_reference_value_counts_as_failed_op():
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    reference["cases"]["line:criterion7"]["s_bosons"][5] += 1.0e-3
    SCRATCH.mkdir(parents=True, exist_ok=True)
    wrong = SCRATCH / "wrong_reference.json"
    wrong.write_text(json.dumps(reference), encoding="utf-8")
    done, result = bench("sweep_large", 0, "--reference", str(wrong))
    assert result is not None, done.stderr[-2000:]
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED line:criterion7" in done.stdout


def test_refuses_without_program_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, _ = bench("geometry_scan", 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
