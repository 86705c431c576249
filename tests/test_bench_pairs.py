"""The summary that tests/bench_pairs.py writes, from synthetic benchmark records."""

import json

import pytest

from bench_pairs import read_record, summarize


def _write_record(root, seed, latency, throughput):
    out = root / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": "sweep_large", "seed": seed,
              "metrics": {"latency_p50_s": latency, "throughput_per_s": throughput}}
    (out / f"sweep_large-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_summary_pins_medians_iqrs_and_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # Four seeds; the change is faster in three pairs, ties in latency at seed
    # 4 (no win), and has higher throughput in two.
    for seed, before, after in ((1, (0.20, 300.0), (0.15, 400.0)),
                                (2, (0.18, 320.0), (0.14, 310.0)),
                                (3, (0.22, 280.0), (0.16, 420.0)),
                                (4, (0.19, 330.0), (0.19, 330.0))):
        _write_record(parent, seed, *before)
        _write_record(change, seed, *after)
    pairs = [(read_record(parent, "sweep_large", seed), read_record(change, "sweep_large", seed))
             for seed in (1, 2, 3, 4)]
    summary = summarize(pairs, {"latency_p50_s": "lower", "throughput_per_s": "higher"})

    latency = summary["latency_p50_s"]
    assert latency["parent"]["median"] == pytest.approx(0.195)
    assert latency["parent"]["iqr"] == pytest.approx(0.2050 - 0.1875)
    assert latency["change"]["median"] == pytest.approx(0.155)
    assert latency["change"]["iqr"] == pytest.approx(0.1675 - 0.1475)
    assert latency["relative_change"] == pytest.approx(0.155 / 0.195 - 1.0)
    assert (latency["change_wins"], latency["pairs"]) == (3, 4)

    throughput = summary["throughput_per_s"]
    assert throughput["parent"]["median"] == pytest.approx(310.0)
    assert throughput["parent"]["iqr"] == pytest.approx(322.5 - 295.0)
    assert throughput["change"]["median"] == pytest.approx(365.0)
    assert throughput["change"]["iqr"] == pytest.approx(405.0 - 325.0)
    assert throughput["change_wins"] == 2
