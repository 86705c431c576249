"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``solve-modes`` stops
after the single-particle doublet, ``evolve`` runs a trajectory, the two
sweep subcommands scan coupling space, and ``validate-config`` is their dry
run.  Every run goes through one lifecycle, ``_run``: it validates the config
once, with ``--out`` (which overrides ``output.directory``) applied; checks
the subcommand's own rule (``fidelity-map``'s two-axis plane, ``evolve``'s
both-right start state); makes the output directory; builds the model with
the parts the subcommand reads, under the ``build`` timer; runs the
subcommand's step under its own stage timer; writes the step's artifacts,
the ``--plot`` script and the manifest; and prints what it wrote.
``validate-config`` checks every config rule (``RunConfig.validate`` checks
every key for every subcommand), stops after building the doublet modes and
composite basis, and prints its report: it builds no overlap tensor or
Hamiltonian block, solves nothing beyond the doublet, and writes nothing, so
it takes ``--config`` alone.

Exit codes are a stable scripting contract: 0 success, 2 configuration
error (an output directory that cannot be made included), 3 model-validity
error (localization or gap failures), 4 internal invariant or sweep failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from collections.abc import Callable
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import PLANE_AXES, RunConfig, load_config, parse_config
from .dynamics import (
    TimeSeries,
    default_time_grid,
    evolve,
    initial_state_rr,
    regime_metrics,
    return_probability,
    return_series,
)
from .errors import ConfigError, InvariantError, ModelValidityError, SweepError
from .manifest import (
    build_manifest,
    write_entropy_csv,
    write_entropy_timeseries_csv,
    write_fidelity_csv,
    write_manifest,
    write_modes_csv,
    write_regimes_json,
    write_timeseries_csv,
)
from .manybody import BOSONS, FERMIONS, CouplingParams
from .model import ModelContext, build_context
from .observables import species_entropies
from .sweep import AxisSpec, EntropyCurve, FidelitySurface, SweepSpec, entropy_scan, fidelity_map

PRESET_NAMES = ("region1", "region2", "region3", "phase_maps")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_INTERNAL = 4


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config of --config (a file path or a shipped preset name), with
    --out, where the subcommand takes it, overriding ``output.directory``,
    validated once."""
    overrides: dict[str, object] = {}
    if getattr(args, "out", None) is not None:
        overrides["output.directory"] = args.out
    if args.config is None:
        return parse_config("", overrides)
    if Path(args.config).is_file():
        return load_config(args.config, overrides)
    if args.config in PRESET_NAMES:
        text = (
            resources.files("dwmix")
            .joinpath(f"presets/{args.config}.cfg")
            .read_text(encoding="utf-8")
        )
        return parse_config(text, overrides)
    raise ConfigError(
        f"--config {args.config!r} is neither a readable file nor a "
        f"preset name (presets: {', '.join(PRESET_NAMES)})"
    )


def _make_directory(config: RunConfig) -> Path:
    directory = Path(config.output.directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"output.directory = {directory} cannot be made: {exc.strerror}"
        ) from None
    return directory


def _evolve_rule(config: RunConfig) -> None:
    if config.model.spin_sector != 0:  # the only sector with RR|RRs
        raise ConfigError(
            "evolve starts from the both-right state RR|RRs, which needs "
            f"model.spin_sector = 0 (got {config.model.spin_sector})"
        )


def _fidelity_spec(config: RunConfig) -> SweepSpec:
    s = config.sweep
    planes = [name for name, (_, y_name, _) in PLANE_AXES.items() if y_name is not None]
    if s.plane not in planes:
        raise ConfigError(
            "fidelity-map needs a two-axis plane; set sweep.plane to one of "
            + ", ".join(planes)
        )
    (fixed_name,) = PLANE_AXES[s.plane][2]
    return SweepSpec(
        plane=s.plane,
        x_axis=AxisSpec(s.x_min, s.x_max, s.x_count),
        y_axis=AxisSpec(s.y_min, s.y_max, s.y_count),
        fixed={fixed_name: getattr(config.couplings, fixed_name)},
        reference=CouplingParams(s.reference_bb, s.reference_ff, s.reference_bf),
    )


def _entropy_spec(config: RunConfig) -> SweepSpec:
    s = config.sweep
    return SweepSpec(
        plane="line_ff",
        x_axis=AxisSpec(s.line_min, s.line_max, s.line_count),
        fixed={name: getattr(config.couplings, name) for name in PLANE_AXES["line_ff"][2]},
    )


def _sweep_health(sweep: FidelitySurface | EntropyCurve) -> tuple[int, float, list[int], float]:
    """A sweep's health in its manifest ``results``: the count of degenerate
    cells, the smallest gap and its grid indices (one per axis), and the
    largest ground-pair residual."""
    cell = np.unravel_index(int(np.argmin(sweep.gap)), sweep.gap.shape)
    return (int(sweep.degenerate.sum()), float(sweep.gap[cell]), [int(k) for k in cell],
            sweep.max_residual)


# A subcommand's step computes, under its stage timer, and returns the artifacts to
# write once the timer stops, each (file name, writer, data...), and its ``results``.
_Step = Callable[[ModelContext, SweepSpec | None, argparse.Namespace], tuple[list[tuple], dict]]


def _cmd_solve_modes(context: ModelContext, spec: None, args: argparse.Namespace):
    return [
        ("modes_boson.csv", write_modes_csv, context.boson_modes, context.grid),
        ("modes_fermion.csv", write_modes_csv, context.fermion_modes, context.grid),
    ], {}


def _cmd_evolve(context: ModelContext, spec: None, args: argparse.Namespace):
    dynamics = context.config.dynamics
    h = context.hamiltonian()
    psi0 = initial_state_rr(context.basis)
    times = default_time_grid(
        context.min_splitting, periods=dynamics.periods, n_samples=dynamics.n_samples
    )
    artifacts = []
    if dynamics.with_entropy:
        coefficients = evolve(h, psi0, times)
        series = TimeSeries(
            times=times,
            p_rr_bosons=return_probability(coefficients, context.basis, BOSONS),
            p_rr_fermions=return_probability(coefficients, context.basis, FERMIONS),
        )
        entropies = species_entropies(coefficients, context.basis)
        artifacts.append(("entropy_t.csv", write_entropy_timeseries_csv, times, entropies))
    else:
        series = return_series(h, psi0, times)
    report = regime_metrics(series)
    artifacts += [("p_rr.csv", write_timeseries_csv, series),
                  ("regimes.json", write_regimes_json, report)]
    return artifacts, report


def _cmd_fidelity_map(context: ModelContext, spec: SweepSpec, args: argparse.Namespace):
    surface = fidelity_map(context.blocks, spec, workers=args.workers)
    degenerate, min_gap, cell, max_residual = _sweep_health(surface)
    return [("fidelity_map.csv", write_fidelity_csv, surface)], {
        "reference_energy": surface.reference_energy,
        "degenerate_cells": degenerate,
        "min_fidelity": float(surface.fidelity.min()),
        "min_gap": min_gap,
        "min_gap_cell": cell,
        "max_residual": max_residual,
    }


def _cmd_entropy_scan(context: ModelContext, spec: SweepSpec, args: argparse.Namespace):
    curve = entropy_scan(context.blocks, spec)
    degenerate, min_gap, (point,), max_residual = _sweep_health(curve)
    return [("entropy_scan.csv", write_entropy_csv, curve)], {
        "argmax_lambda_ff": curve.argmax_lambda,
        "max_s_bosons": float(curve.entropy.max()),
        "degenerate_cells": degenerate,
        "min_gap": min_gap,
        "min_gap_point": point,
        "max_residual": max_residual,
    }


def _splittings(context: ModelContext) -> str:
    mb, mf = context.boson_modes, context.fermion_modes
    return f"splitting: boson {mb.splitting!r}, fermion {mf.splitting!r}"


def _validation_report(context: ModelContext) -> str:
    config, mb, mf = context.config, context.boson_modes, context.fermion_modes
    return "\n".join((
        "config OK",
        f"potential: {config.potential.shape}",
        f"grid: n_points={context.grid.n_points} x_max={context.grid.x_max!r}",
        f"boson   splitting={mb.splitting!r} gap_ratio={mb.gap_ratio:.1f} "
        f"right_mass={mb.right_mass():.6f}",
        f"fermion splitting={mf.splitting!r} gap_ratio={mf.gap_ratio:.1f} "
        f"right_mass={mf.right_mass():.6f}",
        f"couplings: bb={config.couplings.lambda_bb!r} "
        f"ff={config.couplings.lambda_ff!r} bf={config.couplings.lambda_bf!r}",
        f"basis: {context.basis.dim} states (antisymmetric)",
    ))


_PLOT_SCRIPTS = {
    "modes": """\
#!/usr/bin/env python3
\"\"\"Plot the doublet and left/right modes from modes_*.csv.\"\"\"
import csv
import matplotlib.pyplot as plt

for species in ("boson", "fermion"):
    with open(f"modes_{species}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    x = [float(r["x_um"]) for r in rows]
    fig, ax = plt.subplots()
    for col in ("psi_s", "psi_a", "psi_L", "psi_R"):
        ax.plot(x, [float(r[col]) for r in rows], label=col)
    ax.set_xlabel("x (um)")
    ax.set_ylabel("amplitude")
    ax.legend()
    fig.savefig(f"modes_{species}.png", dpi=150)
    plt.close(fig)
""",
    "p_rr": """\
#!/usr/bin/env python3
\"\"\"Plot both species' return probabilities from p_rr.csv.\"\"\"
import csv
import matplotlib.pyplot as plt

with open("p_rr.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
tau = [float(r["tau"]) for r in rows]
fig, ax = plt.subplots()
ax.plot(tau, [float(r["p_rr_b"]) for r in rows], label="bosons")
ax.plot(tau, [float(r["p_rr_f"]) for r in rows], label="fermions")
ax.set_xlabel("tau")
ax.set_ylabel("P_RR")
ax.set_ylim(0.0, 1.05)
ax.legend()
fig.savefig("p_rr.png", dpi=150)
""",
    "fidelity": """\
#!/usr/bin/env python3
\"\"\"Heat map of the ground-state fidelity surface from fidelity_map.csv.\"\"\"
import csv
import matplotlib.pyplot as plt

xs, ys, cells = [], [], {}
with open("fidelity_map.csv", newline="") as fh:
    for r in csv.DictReader(fh):
        x, y = float(r["lambda_x"]), float(r["lambda_y"])
        if x not in xs:
            xs.append(x)
        if y not in ys:
            ys.append(y)
        cells[(x, y)] = float(r["fidelity"])
grid = [[cells[(x, y)] for x in xs] for y in ys]
fig, ax = plt.subplots()
im = ax.pcolormesh(xs, ys, grid, shading="nearest", vmin=min(min(g) for g in grid), vmax=1.0)
fig.colorbar(im, ax=ax, label="fidelity")
ax.set_xlabel("lambda_x")
ax.set_ylabel("lambda_y")
fig.savefig("fidelity_map.png", dpi=150)
""",
    "entropy": """\
#!/usr/bin/env python3
\"\"\"Line plot of the entanglement entropy scan from entropy_scan.csv.\"\"\"
import csv
import matplotlib.pyplot as plt

with open("entropy_scan.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
lam = [float(r["lambda_ff"]) for r in rows]
fig, ax = plt.subplots()
ax.plot(lam, [float(r["s_bosons"]) for r in rows], label="S bosons")
ax.plot(lam, [float(r["s_fermions"]) for r in rows], linestyle="--", label="S fermions")
ax.set_xlabel("lambda_ff")
ax.set_ylabel("entanglement entropy")
ax.legend()
fig.savefig("entropy_scan.png", dpi=150)
""",
}


def _write_plot_script(directory: Path, kind: str) -> Path:
    path = directory / f"plot_{kind}.py"
    path.write_text(_PLOT_SCRIPTS[kind], encoding="utf-8")
    return path


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {value})")
    return value


class _Command(NamedTuple):
    """What a subcommand adds to the lifecycle that every subcommand shares."""

    help: str
    step: _Step | None  # None: a dry run, which stops after the build (no --out, no --plot)
    rule: Callable[[RunConfig], SweepSpec | None] | None = None  # checked before the build
    reads: tuple[str, ...] = ()  # the model parts built, and timed, with it
    stage: str | None = None  # the step's wall_time_s key; "sweep" takes --workers
    plot: str = ""  # the --plot script's kind
    report: Callable[[ModelContext], str] | None = None  # printed last


_COMMANDS = {
    "solve-modes": _Command(
        "solve the doublet and write mode CSVs", _cmd_solve_modes,
        reads=("overlaps",), plot="modes", report=_splittings,
    ),
    "evolve": _Command(
        "propagate the both-right state", _cmd_evolve, rule=_evolve_rule,
        reads=("blocks",), stage="evolve", plot="p_rr",  # the sector projection included
    ),
    "fidelity-map": _Command(
        "ground-state fidelity over a coupling plane", _cmd_fidelity_map, rule=_fidelity_spec,
        reads=("blocks",), stage="sweep", plot="fidelity",
    ),
    "entropy-scan": _Command(
        "entanglement entropy along a coupling line", _cmd_entropy_scan, rule=_entropy_spec,
        reads=("blocks",), stage="sweep", plot="entropy",
    ),
    "validate-config": _Command(
        "check a config and report mode validity", None, report=_validation_report,
    ),
}


def _run(args: argparse.Namespace) -> int:
    """The lifecycle every subcommand shares, from its config to its ``wrote`` lines."""
    command = _COMMANDS[args.command]
    config = _resolve_config(args)
    spec = command.rule(config) if command.rule is not None else None
    directory = _make_directory(config) if command.step is not None else None
    started = time.perf_counter()
    context = build_context(config)
    for name in command.reads:
        getattr(context, name)
    wall_times = {"build": time.perf_counter() - started}
    if command.step is not None:
        started = time.perf_counter()
        artifacts, results = command.step(context, spec, args)
        if command.stage is not None:
            wall_times[command.stage] = time.perf_counter() - started
        outputs = {}
        for name, writer, *data in artifacts:
            outputs[Path(name).stem] = writer(directory / name, *data)
        if args.plot:
            outputs["plot_script"] = _write_plot_script(directory, command.plot)
        manifest = build_manifest(context, outputs, wall_times=wall_times, results=results)
        manifest_path = write_manifest(directory / "manifest.json", manifest)
        for path in (*outputs.values(), manifest_path):
            print(f"wrote {path}")
    if command.report is not None:
        print(command.report(context))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwmix",
        description="Two-mode double-well dynamics for a boson-fermion mixture.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument(
            "--config",
            help="config file path, or a preset name "
            f"({', '.join(PRESET_NAMES)}); omit for defaults",
        )
        if command.step is not None:
            p.add_argument("--out", help="output directory (overrides output.directory)")
            p.add_argument("--plot", action="store_true",
                           help="also emit a matplotlib script next to the CSVs (never executed)")
        if command.stage == "sweep":
            p.add_argument(
                "--workers", type=_worker_count, default=1, metavar="N",
                help="accepted for older scripts and ignored: a sweep of more than "
                "one chunk uses two processes where two CPUs are free, and its "
                "output does not depend on N (default 1)",
            )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves a parser unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelValidityError as exc:
        print(f"model validity error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (SweepError, InvariantError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
