"""Spans around the calls into each dwmix layer, and per-layer metrics.

The traced run replays each op through ``dwmix.cli.main`` with the public
layer functions that ``cli._cmd_*`` and ``model.build_context`` call
replaced by thin wrappers, looked up where those callers look them up.  Each
wrapper records a span (name, start, end, parent, op id) in memory; the
spans are written out when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.  No timer lives inside
``src/dwmix``; a wrapper whose target has gone raises, so a renamed layer
function fails the traced run instead of silently dropping a metric.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  A name ending in "*" is completed by the
# wrapper from the call's arguments.
INSTRUMENTED = (
    ("cli", "load_config", "config.load"),
    ("cli", "parse_config", "config.load"),
    ("cli", "build_context", "model.build_context"),
    ("model", "sample_on_grid", "potential.sample"),
    ("model", "solve_doublet", "modes.solve_doublet_*"),
    ("model", "overlap_tensor", "overlaps.tensors"),
    ("model", "cross_species_tensor", "overlaps.tensors"),
    ("model", "enumerate_bases", "manybody.blocks"),
    ("model", "hamiltonian_blocks", "manybody.blocks"),
    ("cli", "fidelity_map", "sweep.fidelity_map_w*"),
    ("cli", "entropy_scan", "sweep.entropy_scan"),
    ("cli", "return_series", "dynamics.return_series"),
    ("cli", "evolve", "dynamics.evolve"),
    ("cli", "return_probability", "dynamics.return_probability"),
    ("cli", "regime_metrics", "dynamics.regime_metrics"),
    ("cli", "species_entropies", "observables.species_entropies"),
    ("cli", "write_modes_csv", "manifest.csv_write"),
    ("cli", "write_timeseries_csv", "manifest.csv_write"),
    ("cli", "write_fidelity_csv", "manifest.csv_write"),
    ("cli", "write_entropy_csv", "manifest.csv_write"),
    ("cli", "write_entropy_timeseries_csv", "manifest.csv_write"),
    ("cli", "write_regimes_json", "manifest.csv_write"),
    ("cli", "build_manifest", "manifest.build_manifest"),
    ("cli", "write_manifest", "manifest.build_manifest"),
)

# Layers some workloads never reach; the traced run then adds probe ops.
PROBED_LAYERS = (
    "sweep.fidelity_map_w1", "sweep.fidelity_map_w2", "sweep.entropy_scan",
    "dynamics.return_series", "dynamics.evolve", "dynamics.return_probability",
    "dynamics.regime_metrics", "observables.species_entropies",
    "manifest.csv_write", "manifest.build_manifest",
)

CELL_SAMPLE = 1024  # sweep cells replayed one by one to time compose and eigh


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = ""
        self.sweeps: list[tuple] = []  # (span name, blocks, spec) per traced sweep

    @contextmanager
    def span(self, name: str, count: int = 0):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.op_id, count]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _name(self, name: str, args: tuple, kwargs: dict) -> str:
        if name == "modes.solve_doublet_*":
            # build_context solves the bosons first, then the fermions.
            parent = self._stack[-1] if self._stack else -1
            done = sum(1 for s in self.spans[parent + 1:]
                       if s[3] == parent and s[0].startswith("modes.solve_doublet"))
            return "modes.solve_doublet_" + ("boson" if done == 0 else "fermion")
        if name == "sweep.fidelity_map_w*":
            return f"sweep.fidelity_map_w{kwargs.get('workers', 1)}"
        return name

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(self._name(name, args, kwargs)) as record:
                result = fn(*args, **kwargs)
                if name.startswith("sweep."):
                    blocks, spec = args[:2]
                    record[5] = spec.x_axis.count * (spec.y_axis.count if spec.y_axis else 1)
                    self.sweeps.append((record[0], blocks, spec))
                elif name in ("dynamics.return_series", "dynamics.evolve"):
                    record[5] = len(args[2])
                elif name.startswith("manifest.") and isinstance(result, Path):
                    record[5] = result.stat().st_size
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every instrumented layer function for the duration."""
        from dwmix import cli, model

        modules = {"cli": cli, "model": model}
        saved = []
        try:
            for module_name, attr, name in INSTRUMENTED:
                module = modules[module_name]
                if not hasattr(module, attr):
                    raise RuntimeError(
                        f"dwmix.{module_name}.{attr} is gone; update the layer map "
                        "in perfbench/tracing.py"
                    )
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def time_cells(self) -> None:
        """Replay sampled cells of the first traced map through the per-cell layers.

        Runs outside any op, so the op timings stay comparable with the
        untraced pass.  Each cell is ``ground_state(blocks.compose(params))``,
        as the sweep evaluates it.
        """
        from dwmix.manybody import ground_state

        maps = [s for s in self.sweeps if s[0] == "sweep.fidelity_map_w1"]
        _, blocks, spec = (maps or self.sweeps)[0]
        xs = spec.x_axis.values()
        ys = spec.y_axis.values() if spec.y_axis is not None else [None]
        cells = [(x, y) for x in xs for y in ys]
        stride = max(1, len(cells) // CELL_SAMPLE)
        self.op_id = "cells"
        for x, y in cells[::stride]:
            params = spec.couplings_at(x, y)
            with self.span("manybody.compose"):
                h = blocks.compose(params)
            with self.span("manybody.ground_state"):
                ground_state(h)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op_id, count in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - covered[i] for i, s in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "count": count}) + "\n")


def layer_metrics(tracer: Tracer, workload_ops: set[str], probe_ops: set[str]) -> dict:
    """Per-layer figures from the spans of one traced run.

    A ``_s`` figure is the median, over the ops that reach the layer, of the
    layer's self time within the op; a count is the median per such op.
    Layers the workload's own ops never reach are read from the probe ops.
    """
    self_times = tracer.self_times()
    op_times: dict[str, dict[str, list[float]]] = {}
    counts: dict[str, dict[str, int]] = {}
    calls: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, self_times):
        name, op_id, count = span[0], span[4], span[5]
        calls.setdefault(name, []).append(own)
        op_times.setdefault(name, {}).setdefault(op_id, []).append(own)
        counts.setdefault(name, {})
        counts[name][op_id] = counts[name].get(op_id, 0) + count

    def per_op(table: dict, name: str) -> list:
        by_op = table.get(name, {})
        ops = [o for o in by_op if o in workload_ops] or [o for o in by_op if o in probe_ops]
        if not ops:
            raise RuntimeError(f"no traced op reached layer {name}")
        return [by_op[o] for o in ops]

    def seconds(name: str) -> float:
        return statistics.median(sum(times) for times in per_op(op_times, name))

    def count(name: str) -> int:
        return statistics.median_low(per_op(counts, name))

    out = {name + "_s": seconds(name) for name in (
        "config.load", "potential.sample", "modes.solve_doublet_boson",
        "modes.solve_doublet_fermion", "overlaps.tensors", "manybody.blocks",
        "model.build_context", "sweep.fidelity_map_w1", "sweep.fidelity_map_w2",
        "sweep.entropy_scan", "dynamics.return_series", "dynamics.evolve",
        "dynamics.return_probability", "dynamics.regime_metrics",
        "observables.species_entropies", "manifest.csv_write",
        "manifest.build_manifest",
    )}
    out["cli.glue_s"] = seconds("cli.main")
    out["manybody.compose_us"] = statistics.median(calls["manybody.compose"]) * 1e6
    out["manybody.ground_state_us"] = statistics.median(calls["manybody.ground_state"]) * 1e6
    out["sweep.w2_speedup"] = out["sweep.fidelity_map_w1_s"] / out["sweep.fidelity_map_w2_s"]
    out["sweep.cells"] = count("sweep.fidelity_map_w1")
    out["sweep.overhead_us_per_cell"] = (
        out["sweep.fidelity_map_w1_s"] / out["sweep.cells"] * 1e6
        - out["manybody.compose_us"] - out["manybody.ground_state_us"]
    )
    out["dynamics.samples"] = max(count(n) for n in ("dynamics.return_series", "dynamics.evolve"))
    out["manifest.bytes_written"] = count("manifest.csv_write") + count("manifest.build_manifest")
    return out
