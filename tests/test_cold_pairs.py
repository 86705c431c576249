"""The summary that tests/cold_pairs.py writes, from a stub process runner."""

from pathlib import Path

import pytest

import cold_pairs


def test_alternated_pairs_pin_medians_and_wins(monkeypatch):
    monkeypatch.setattr(cold_pairs, "CLI_COMMANDS", (("validate-config", "region1"),
                                                     ("evolve", "region2")))
    roots = {"parent": Path("/p"), "change": Path("/c")}
    # Per (side, command), the seconds of pairs 0-3; the change wins the
    # import in every pair, ties validate-config in pair 3 (no win) and loses
    # evolve in pair 2.
    seconds = {
        ("/p/src", "import dwmix.cli"): [0.050, 0.052, 0.054, 0.051],
        ("/c/src", "import dwmix.cli"): [0.030, 0.031, 0.033, 0.032],
        ("/p/src", "validate-config region1"): [0.20, 0.22, 0.21, 0.23],
        ("/c/src", "validate-config region1"): [0.19, 0.20, 0.20, 0.23],
        ("/p/src", "evolve region2"): [0.30, 0.31, 0.29, 0.33],
        ("/c/src", "evolve region2"): [0.28, 0.30, 0.35, 0.30],
    }
    calls = []

    def stub(argv, env, cwd):
        label = "import dwmix.cli" if argv[1] == "-c" else f"{argv[3]} {argv[5]}"
        key = (env["PYTHONPATH"], label)
        pair = sum(1 for call in calls if call[:2] == key)
        calls.append((*key, argv, cwd))
        return seconds[key][pair], 40.0 + pair + (env["PYTHONPATH"] == "/p/src")

    summary = cold_pairs.measure(roots, 4, run=stub)

    # Every command runs on both sides in each pair, the parent first in
    # even pairs, each from a fresh directory.
    assert [side for side, *_ in calls][:6] == ["/p/src", "/c/src"] * 3
    assert [side for side, *_ in calls][6:12] == ["/c/src", "/p/src"] * 3
    assert len({cwd for *_, cwd in calls}) == len(calls) == 24
    assert calls[0][2][1:] == ["-c", "import dwmix.cli"]
    assert calls[2][2][1:] == ["-m", "dwmix.cli", "validate-config", "--config", "region1"]
    assert calls[4][2][1:] == ["-m", "dwmix.cli", "evolve", "--config", "region2",
                               "--out", "out"]

    wall = summary["wall_s"]
    assert list(wall) == ["import dwmix.cli", "validate-config region1", "evolve region2"]
    imp = wall["import dwmix.cli"]
    assert imp["parent"]["median"] == pytest.approx(0.0515)
    assert imp["parent"]["iqr"] == pytest.approx(0.0525 - 0.05075)
    assert imp["change"]["median"] == pytest.approx(0.0315)
    assert (imp["change_wins"], imp["pairs"]) == (4, 4)
    assert wall["validate-config region1"]["change_wins"] == 3
    assert wall["evolve region2"]["parent"]["median"] == pytest.approx(0.305)
    assert wall["evolve region2"]["change"]["median"] == pytest.approx(0.30)
    assert wall["evolve region2"]["change_wins"] == 3

    rss = summary["peak_rss_mb"]["evolve region2"]
    assert (rss["parent"]["median"], rss["change"]["median"]) == (42.5, 41.5)
    assert rss["change_wins"] == 4
    assert len(summary["runs"]) == 24
