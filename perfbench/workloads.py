"""Workload definitions: the inputs each workload writes and the ops it runs.

An op is one dwmix CLI invocation, described by its argv.  The in-process
workloads hand that argv to ``dwmix.cli.main``; ``cli_cold`` runs it as
``python -m dwmix.cli`` in a fresh interpreter.  Every op names the
reference entry its artifacts are checked against (see ``gate.py``) and the
units of work it does, from which each workload's throughput is computed.

All randomness comes from ``random.Random(seed)``: the seed fixes the op
order within each round, the separations drawn by ``geometry_scan`` and the
coupling plane used by ``sweep_large``.  The amount of work per round does
not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PLANES = ("ff_bf", "bb_bf", "bb_ff")

# Separations scanned by geometry_scan: 1.50, 1.51, ..., 1.80.  On the
# 8001-point grid the doublet solve fails its parity check from separation
# 1.8775 on (the float64 edge: the splitting nears the eigensolver's noise
# floor), and at 2.03 on the 4001-point grid.  The range stops well short of
# both, so no timed op fails, nor would one under a stricter precision guard.
SEPARATIONS = tuple(round(1.50 + 0.01 * k, 2) for k in range(31))

# Explicit copies of the region presets, so that the trajectory workload can
# switch dynamics.with_entropy (a preset cannot be combined with overrides).
REGIONS = {
    "region1": {"potential.separation": 1.62, "potential.smoothing": 0.12,
                "couplings.lambda_bb": 1.0e-4, "couplings.lambda_ff": 1.0e-4,
                "couplings.lambda_bf": 1.0e-4},
    "region2": {"potential.separation": 1.62, "potential.smoothing": 0.12,
                "couplings.lambda_bb": 9.0e-4, "couplings.lambda_ff": 3.2e-4,
                "couplings.lambda_bf": 9.0e-4},
    "region3": {"potential.separation": 1.50, "potential.smoothing": 0.12,
                "couplings.lambda_bb": 1.0e-3, "couplings.lambda_ff": 1.0e-3,
                "couplings.lambda_bf": 9.0e-3},
}

# Every shipped preset through its subcommand, as the README runs them.
CLI_COMMANDS = (
    ("validate-config", "region1"),
    ("validate-config", "region2"),
    ("validate-config", "region3"),
    ("validate-config", "phase_maps"),
    ("solve-modes", "region2"),
    ("evolve", "region1"),
    ("evolve", "region2"),
    ("evolve", "region3"),
    ("fidelity-map", "phase_maps"),
    ("entropy-scan", "phase_maps"),
)

# Fixed by each preset and checked against the reference sub-lattices.
PRESET_MAP_COUNT = 64
PRESET_LINE_COUNT = 101
N_SAMPLES = 4096


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the self-test swaps in a tiny set."""

    map_count: int = 256
    line_count: int = 2001
    cli_commands: tuple = CLI_COMMANDS
    regions: tuple = ("region1", "region2", "region3")
    grids: tuple = (4001, 4001, 8001)
    setup_repeats: int = 5


BENCH = Sizes()
TINY = Sizes(
    map_count=16,
    line_count=21,
    cli_commands=(("validate-config", "region1"), ("entropy-scan", "phase_maps")),
    regions=("region1",),
    grids=(4001, 8001),
    setup_repeats=2,
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output is checked against."""

    kind: str  # the dwmix subcommand
    config: str  # preset name or config file path
    ref: str  # key into the reference file
    work: int  # runs, cells, samples or models, per the workload's throughput
    out: str | None = None
    workers: int | None = None
    sub_count: int | None = None  # sweep axis or line length, for the gate
    group: str | None = None  # ops timed as one class; None: same ref and workers

    @property
    def latency_group(self) -> str:
        return self.group or f"{self.ref}/w{self.workers}"

    def argv(self) -> list[str]:
        args = [self.kind, "--config", self.config]
        if self.out is not None:
            args += ["--out", self.out]
        if self.workers is not None:
            args += ["--workers", str(self.workers)]
        return args


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                   for key, value in values.items())


def map_config(plane: str, count: int) -> dict:
    """A fidelity plane through the phase_maps reference point."""
    return {
        "potential.separation": 1.65, "potential.smoothing": 0.12,
        "couplings.lambda_bb": 5.0e-4, "couplings.lambda_ff": 5.0e-4,
        "couplings.lambda_bf": 5.0e-4,
        "sweep.plane": plane,
        "sweep.x_min": 0.0, "sweep.x_max": 1.0e-3, "sweep.x_count": count,
        "sweep.y_min": 0.0, "sweep.y_max": 1.0e-3, "sweep.y_count": count,
        "sweep.reference_bb": 5.0e-4, "sweep.reference_ff": 5.0e-4,
        "sweep.reference_bf": 5.0e-4,
    }


def line_config(count: int) -> dict:
    """The acceptance suite's criterion-7 entropy line on the default geometry."""
    return {
        "couplings.lambda_bb": 1.0e-3, "couplings.lambda_bf": 9.0e-3,
        "sweep.plane": "line_ff",
        "sweep.line_min": 0.0, "sweep.line_max": 1.0e-2, "sweep.line_count": count,
    }


def geometry_config(separation: float, n_points: int) -> dict:
    return {"potential.separation": separation, "potential.smoothing": 0.12,
            "grid.n_points": n_points}


def region_config(region: str, with_entropy: bool) -> dict:
    return {**REGIONS[region], "dynamics.with_entropy": "true" if with_entropy else "false"}


def geometry_key(separation: float, n_points: int) -> str:
    return f"geom:{separation:.2f}:{n_points}"


@dataclass
class Workload:
    """Inputs to write before timing, plus the ops of each round."""

    name: str
    throughput_name: str
    next_round: Callable[[], list[Op]]
    inputs: dict[str, dict] = field(default_factory=dict)  # file name -> config
    warmup: list[Op] = field(default_factory=list)
    in_process: bool = True


def build(name: str, seed: int, sizes: Sizes, work: Path) -> Workload:
    """The named workload, with every path inside ``work``."""
    rng = random.Random(seed)
    out = work / "out"

    def cfg(file_name: str) -> str:
        return str(work / "inputs" / file_name)

    def shuffled(base: list[Op]) -> Callable[[], list[Op]]:
        return lambda: rng.sample(base, len(base))

    if name == "cli_cold":
        base = [
            Op(kind, preset, f"cli:{kind}:{preset}", 1,
               out=None if kind == "validate-config" else str(out / f"{kind}-{preset}"),
               sub_count={"fidelity-map": PRESET_MAP_COUNT,
                          "entropy-scan": PRESET_LINE_COUNT}.get(kind))
            for kind, preset in sizes.cli_commands
        ]
        return Workload(name, "cli_runs_per_s", shuffled(base), in_process=False)

    if name == "sweep_large":
        plane = rng.choice(PLANES)
        n, m = sizes.map_count, sizes.line_count
        inputs = {"map.cfg": map_config(plane, n), "line.cfg": line_config(m),
                  "warm_map.cfg": map_config(plane, 4), "warm_line.cfg": line_config(5)}
        # Three 1-worker maps per round: the median op is then one of them,
        # and they take about three quarters of the measured time, so the
        # median is drawn from most of the run.  The 2-worker map is not the
        # median class: it needs both cores, so a busy neighbour on either
        # one slows it, and its run-to-run spread is the larger.
        base = [
            Op("fidelity-map", cfg("map.cfg"), f"map:{plane}", n * n,
               out=str(out / "map_w2"), workers=2, sub_count=n),
            Op("entropy-scan", cfg("line.cfg"), "line:criterion7", m,
               out=str(out / "line"), workers=1, sub_count=m),
        ] + [
            Op("fidelity-map", cfg("map.cfg"), f"map:{plane}", n * n,
               out=str(out / "map_w1"), workers=1, sub_count=n),
        ] * 3
        # The same code paths at toy size, so lazy imports (the process
        # pool's among them) happen during set-up and not in the first op.
        warmup = [
            Op("fidelity-map", cfg("warm_map.cfg"), "", 16, out=str(out / "warm"), workers=1),
            Op("fidelity-map", cfg("warm_map.cfg"), "", 16, out=str(out / "warm"), workers=2),
            Op("entropy-scan", cfg("warm_line.cfg"), "", 5, out=str(out / "warm"), workers=1),
        ]
        return Workload(name, "cells_per_s", shuffled(base), inputs, warmup)

    if name == "trajectory":
        inputs: dict[str, dict] = {}
        base = []
        for region in sizes.regions:
            for with_entropy in (False, True):
                tag = region + ("+entropy" if with_entropy else "")
                inputs[f"{tag}.cfg"] = region_config(region, with_entropy)
                op = Op("evolve", cfg(f"{tag}.cfg"), f"evolve:{tag}", N_SAMPLES,
                        out=str(out / tag))
                # Two runs without entropy per run with it, so that the
                # median op sits inside one class instead of between them.
                base += [op] if with_entropy else [op, op]
        return Workload(name, "samples_per_s", shuffled(base), inputs, [base[0], base[2]])

    if name == "geometry_scan":
        inputs = {f"g{sep:.2f}-{n_points}.cfg": geometry_config(sep, n_points)
                  for n_points in sorted(set(sizes.grids)) for sep in SEPARATIONS}

        def op_for(sep: float, n_points: int) -> Op:
            return Op("validate-config", cfg(f"g{sep:.2f}-{n_points}.cfg"),
                      geometry_key(sep, n_points), 1, group=f"grid{n_points}")

        def next_round() -> list[Op]:
            # With the bench sizes, two 4001-point models per 8001-point one:
            # the median op then falls inside one grid class rather than
            # between the two.
            ops = [op_for(rng.choice(SEPARATIONS), n_points) for n_points in sizes.grids]
            rng.shuffle(ops)
            return ops

        warmup = [op_for(SEPARATIONS[0], n_points) for n_points in sorted(set(sizes.grids))]
        return Workload(name, "models_per_s", next_round, inputs, warmup)

    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cli_cold", "sweep_large", "trajectory", "geometry_scan")


def probe_ops(work: Path) -> tuple[dict[str, dict], list[Op]]:
    """Ops the traced run adds when a workload's own ops miss a layer.

    Shipped presets as the README runs them, plus region2 with entropy
    tracking on, so that every traced run reports every layer.
    """
    out = work / "out" / "probe"
    inputs = {"probe_region2+entropy.cfg": region_config("region2", True)}
    ops = [
        Op("evolve", "region2", "cli:evolve:region2", N_SAMPLES, out=str(out / "e")),
        Op("evolve", str(work / "inputs" / "probe_region2+entropy.cfg"),
           "evolve:region2+entropy", N_SAMPLES, out=str(out / "ee")),
        Op("fidelity-map", "phase_maps", "cli:fidelity-map:phase_maps",
           PRESET_MAP_COUNT ** 2, out=str(out / "f1"), workers=1,
           sub_count=PRESET_MAP_COUNT),
        Op("fidelity-map", "phase_maps", "cli:fidelity-map:phase_maps",
           PRESET_MAP_COUNT ** 2, out=str(out / "f2"), workers=2,
           sub_count=PRESET_MAP_COUNT),
        Op("entropy-scan", "phase_maps", "cli:entropy-scan:phase_maps",
           PRESET_LINE_COUNT, out=str(out / "s"), workers=1,
           sub_count=PRESET_LINE_COUNT),
    ]
    return inputs, ops
