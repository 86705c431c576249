"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``solve-modes`` stops
after the single-particle doublet, ``evolve`` runs a trajectory, the two
sweep subcommands scan coupling space, and ``validate-config`` is their dry
run: it checks every config rule (``RunConfig.validate`` checks every key for
every subcommand) and builds the model up to its doublet modes and composite
basis, but builds no overlap tensor or Hamiltonian block, solves nothing
beyond the doublet, and writes nothing.  A run validates its config once,
with the flags that override its keys applied.  A subcommand's own rule
(``fidelity-map``'s two-axis plane, ``evolve``'s both-right start state) is
checked before its build.

Exit codes are a stable scripting contract: 0 success, 2 configuration
error, 3 model-validity error (localization or gap failures), 4 internal
invariant or sweep failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ANTISYMMETRIC, FERMION_VARIANTS, PLANE_AXES, RunConfig, load_config, parse_config
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
    the flags that override its keys applied, validated once."""
    overrides: dict[str, object] = {}
    if args.out is not None:
        overrides["output.directory"] = args.out
    if getattr(args, "fermion_basis", None) is not None:
        overrides["model.fermion_basis"] = args.fermion_basis
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


def _build(config: RunConfig, *reads: str) -> tuple[ModelContext, float]:
    """The run's model with the parts it reads (``overlaps``, ``blocks``),
    which a context builds on first read, and the seconds it took to build."""
    started = time.perf_counter()
    context = build_context(config)
    for name in reads:
        getattr(context, name)
    return context, time.perf_counter() - started


def _out_dir(config: RunConfig) -> Path:
    directory = Path(config.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


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
        fixed={
            "lambda_bb": config.couplings.lambda_bb,
            "lambda_bf": config.couplings.lambda_bf,
        },
    )


def _sweep_health(sweep: FidelitySurface | EntropyCurve) -> tuple[int, float, list[int], float]:
    """A sweep's health in its manifest ``results``: the count of degenerate
    cells, the smallest gap and its grid indices (one per axis), and the
    largest ground-pair residual."""
    cell = np.unravel_index(int(np.argmin(sweep.gap)), sweep.gap.shape)
    return (int(sweep.degenerate.sum()), float(sweep.gap[cell]), [int(k) for k in cell],
            sweep.max_residual)


def _finish(
    context: ModelContext,
    directory: Path,
    outputs: dict[str, Path],
    wall_times: dict[str, float],
    results: dict,
) -> None:
    manifest = build_manifest(context, outputs, wall_times=wall_times, results=results)
    manifest_path = write_manifest(directory / "manifest.json", manifest)
    for path in outputs.values():
        print(f"wrote {path}")
    print(f"wrote {manifest_path}")


def _cmd_solve_modes(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    context, build_s = _build(config, "overlaps")
    directory = _out_dir(config)
    outputs = {
        "modes_boson": write_modes_csv(
            directory / "modes_boson.csv", context.boson_modes, context.grid
        ),
        "modes_fermion": write_modes_csv(
            directory / "modes_fermion.csv", context.fermion_modes, context.grid
        ),
    }
    if args.plot:
        outputs["plot_script"] = _write_plot_script(directory, "modes")
    _finish(context, directory, outputs, {"build": build_s}, results={})
    print(
        f"splitting: boson {context.boson_modes.splitting!r}, "
        f"fermion {context.fermion_modes.splitting!r}"
    )
    return EXIT_OK


def _cmd_evolve(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    m = config.model
    if (m.fermion_basis, m.spin_sector) != (ANTISYMMETRIC, 0):  # the only basis with RR|RRs
        raise ConfigError(
            "evolve starts from the both-right state RR|RRs, which needs model.fermion_basis = "
            f"{ANTISYMMETRIC} and model.spin_sector = 0 "
            f"(got {m.fermion_basis} and {m.spin_sector})"
        )
    context, build_s = _build(config, "blocks")
    started = time.perf_counter()  # the sector projection is evolve's first step
    h = context.hamiltonian()
    psi0 = initial_state_rr(context.basis)
    times = default_time_grid(
        context.min_splitting,
        periods=config.dynamics.periods,
        n_samples=config.dynamics.n_samples,
    )
    directory = _out_dir(config)
    outputs: dict[str, Path] = {}
    if config.dynamics.with_entropy:
        coefficients = evolve(h, psi0, times)
        series = TimeSeries(
            times=times,
            p_rr_bosons=return_probability(coefficients, h.basis, BOSONS),
            p_rr_fermions=return_probability(coefficients, h.basis, FERMIONS),
        )
        outputs["entropy_t"] = write_entropy_timeseries_csv(
            directory / "entropy_t.csv", times, species_entropies(coefficients, h.basis)
        )
    else:
        series = return_series(h, psi0, times)
    report = regime_metrics(series)
    evolve_s = time.perf_counter() - started
    outputs["p_rr"] = write_timeseries_csv(directory / "p_rr.csv", series)
    outputs["regimes"] = write_regimes_json(directory / "regimes.json", report)
    if args.plot:
        outputs["plot_script"] = _write_plot_script(directory, "p_rr")
    _finish(
        context,
        directory,
        outputs,
        {"build": build_s, "evolve": evolve_s},
        results=report,
    )
    return EXIT_OK


def _cmd_fidelity_map(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    spec = _fidelity_spec(config)
    context, build_s = _build(config, "blocks")
    started = time.perf_counter()
    surface = fidelity_map(context.blocks, spec, workers=args.workers)
    sweep_s = time.perf_counter() - started
    directory = _out_dir(config)
    outputs = {
        "fidelity_map": write_fidelity_csv(directory / "fidelity_map.csv", surface)
    }
    if args.plot:
        outputs["plot_script"] = _write_plot_script(directory, "fidelity")
    degenerate, min_gap, cell, max_residual = _sweep_health(surface)
    results = {
        "reference_energy": surface.reference_energy,
        "degenerate_cells": degenerate,
        "min_fidelity": float(surface.fidelity.min()),
        "min_gap": min_gap,
        "min_gap_cell": cell,
        "max_residual": max_residual,
    }
    _finish(context, directory, outputs, {"build": build_s, "sweep": sweep_s}, results=results)
    return EXIT_OK


def _cmd_entropy_scan(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    spec = _entropy_spec(config)
    context, build_s = _build(config, "blocks")
    started = time.perf_counter()
    curve = entropy_scan(context.blocks, spec)
    sweep_s = time.perf_counter() - started
    directory = _out_dir(config)
    outputs = {
        "entropy_scan": write_entropy_csv(directory / "entropy_scan.csv", curve)
    }
    if args.plot:
        outputs["plot_script"] = _write_plot_script(directory, "entropy")
    degenerate, min_gap, (point,), max_residual = _sweep_health(curve)
    results = {
        "argmax_lambda_ff": curve.argmax_lambda,
        "max_s_bosons": float(curve.entropy.max()),
        "degenerate_cells": degenerate,
        "min_gap": min_gap,
        "min_gap_point": point,
        "max_residual": max_residual,
    }
    _finish(context, directory, outputs, {"build": build_s, "sweep": sweep_s}, results=results)
    return EXIT_OK


def _cmd_validate_config(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    context, _ = _build(config)
    mb, mf = context.boson_modes, context.fermion_modes
    print("config OK")
    print(f"potential: {config.potential.shape}")
    print(f"grid: n_points={context.grid.n_points} x_max={context.grid.x_max!r}")
    print(f"boson   splitting={mb.splitting!r} gap_ratio={mb.gap_ratio:.1f} "
          f"right_mass={mb.right_mass():.6f}")
    print(f"fermion splitting={mf.splitting!r} gap_ratio={mf.gap_ratio:.1f} "
          f"right_mass={mf.right_mass():.6f}")
    print(f"couplings: bb={config.couplings.lambda_bb!r} "
          f"ff={config.couplings.lambda_ff!r} bf={config.couplings.lambda_bf!r}")
    print(f"basis: {context.basis.dim} states ({config.model.fermion_basis})")
    return EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwmix",
        description="Two-mode double-well dynamics for a boson-fermion mixture.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, workers: bool = False) -> None:
        p.add_argument(
            "--config",
            help="config file path, or a preset name "
            f"({', '.join(PRESET_NAMES)}); omit for defaults",
        )
        p.add_argument("--out", help="output directory (overrides output.directory)")
        p.add_argument(
            "--fermion-basis",
            choices=FERMION_VARIANTS,
            help="override model.fermion_basis",
        )
        p.add_argument(
            "--plot",
            action="store_true",
            help="also emit a matplotlib script next to the CSVs (never executed)",
        )
        if workers:
            p.add_argument(
                "--workers", type=_worker_count, default=1, metavar="N",
                help="accepted for older scripts; the sweep runs on one thread and "
                "its output does not depend on N (default 1)",
            )

    p = sub.add_parser("solve-modes", help="solve the doublet and write mode CSVs")
    add_common(p)
    p.set_defaults(handler=_cmd_solve_modes)

    p = sub.add_parser("evolve", help="propagate the both-right state")
    add_common(p)
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("fidelity-map", help="ground-state fidelity over a coupling plane")
    add_common(p, workers=True)
    p.set_defaults(handler=_cmd_fidelity_map)

    p = sub.add_parser("entropy-scan", help="entanglement entropy along a coupling line")
    add_common(p, workers=True)
    p.set_defaults(handler=_cmd_entropy_scan)

    p = sub.add_parser("validate-config", help="check a config and report mode validity")
    add_common(p)
    p.set_defaults(handler=_cmd_validate_config)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves a parser unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
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
