"""Run configuration: flat ``section.key = value`` text, strictly parsed.

The format is deliberately dumb: one assignment per line, full-line comments
with ``#`` or ``;``, no interpolation, no nesting.  Unknown keys are errors
(with a nearest-key suggestion), as are duplicates and malformed values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .manybody import ANTISYMMETRIC, FERMION_VARIANTS, PAPER_FOUR_STATE, check_couplings
from .sweep import PLANE_AXES
from .units import check_masses

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}

POTENTIAL_SHAPES = ("double_square_well", "quartic", "tabulated")
SWEEP_PLANES = tuple(PLANE_AXES)
# Sweep keys that set a coupling, checked as couplings are.
_SWEEP_COUPLINGS = ("x_min", "x_max", "y_min", "y_max", "line_min", "line_max",
                    "reference_bb", "reference_ff", "reference_bf")


def _as_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc


def _as_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc


def _as_bool(raw: str, key: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError as exc:
        raise ConfigError(f"{key}: expected true/false, got {raw!r}") from exc


def _as_str(raw: str, key: str) -> str:
    return raw.strip()


@dataclass(frozen=True)
class PotentialConfig:
    shape: str = "double_square_well"
    separation: float = 1.55
    well_width: float = 1.2
    depth: float = 31.142529704999994
    smoothing: float = 0.08
    minimum_pos: float = 1.0
    barrier: float = 10.0
    table_path: str = ""


@dataclass(frozen=True)
class GridConfig:
    x_max: float = 0.0  # 0 means "derive from the potential"
    n_points: int = 4001


@dataclass(frozen=True)
class SpeciesConfig:
    boson_mass_amu: float = 170.0
    fermion_mass_amu: float = 171.0


@dataclass(frozen=True)
class CouplingConfig:
    lambda_bb: float = 0.0
    lambda_ff: float = 0.0
    lambda_bf: float = 0.0


@dataclass(frozen=True)
class DynamicsConfig:
    periods: float = 3.0
    n_samples: int = 4096
    with_entropy: bool = False


@dataclass(frozen=True)
class SweepConfig:
    plane: str = "ff_bf"
    x_min: float = 0.0
    x_max: float = 1.0e-3
    x_count: int = 64
    y_min: float = 0.0
    y_max: float = 1.0e-3
    y_count: int = 64
    line_min: float = 0.0
    line_max: float = 1.0e-2
    line_count: int = 101
    reference_bb: float = 5.0e-4
    reference_ff: float = 5.0e-4
    reference_bf: float = 5.0e-4


@dataclass(frozen=True)
class ModelConfig:
    fermion_basis: str = ANTISYMMETRIC
    spin_sector: int = 0
    min_gap_ratio: float = 10.0


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "."


_SECTIONS = {
    "potential": PotentialConfig,
    "grid": GridConfig,
    "species": SpeciesConfig,
    "couplings": CouplingConfig,
    "dynamics": DynamicsConfig,
    "sweep": SweepConfig,
    "model": ModelConfig,
    "output": OutputConfig,
}

_CASTERS = {"float": _as_float, "int": _as_int, "bool": _as_bool, "str": _as_str}

# flat key -> (section, field name, caster)
_SCHEMA: dict[str, tuple[str, str, object]] = {}
for _section, _cls in _SECTIONS.items():
    for _f in fields(_cls):
        _type_name = _f.type if isinstance(_f.type, str) else _f.type.__name__
        _SCHEMA[f"{_section}.{_f.name}"] = (_section, _f.name, _CASTERS[_type_name])


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, resolved and type-checked."""

    potential: PotentialConfig
    grid: GridConfig
    species: SpeciesConfig
    couplings: CouplingConfig
    dynamics: DynamicsConfig
    sweep: SweepConfig
    model: ModelConfig
    output: OutputConfig

    @classmethod
    def default(cls) -> "RunConfig":
        return cls(**{name: sec() for name, sec in _SECTIONS.items()})

    def replace_values(self, **flat: object) -> "RunConfig":
        """Copy with flat ``section.key`` entries overridden (already typed)."""
        staged: dict[str, dict[str, object]] = {}
        for key, value in flat.items():
            if key not in _SCHEMA:
                raise ConfigError(_unknown_key_message(key))
            section, name, _ = _SCHEMA[key]
            staged.setdefault(section, {})[name] = value
        parts = {}
        for name, cls in _SECTIONS.items():
            current = getattr(self, name)
            overrides = staged.get(name, {})
            if overrides:
                values = {f.name: getattr(current, f.name) for f in fields(cls)}
                values.update(overrides)
                parts[name] = cls(**values)
            else:
                parts[name] = current
        return RunConfig(**parts)

    def to_flat_dict(self) -> dict[str, object]:
        """Stable-order flat dump, used by manifests and presets."""
        out: dict[str, object] = {}
        for name, cls in _SECTIONS.items():
            section = getattr(self, name)
            for f in fields(cls):
                out[f"{name}.{f.name}"] = getattr(section, f.name)
        return out

    def validate(self) -> None:
        """Every rule on a config key, checked here alone and for every
        subcommand; no solver runs, and no code downstream checks them again."""
        for key, value in self.to_flat_dict().items():
            if _SCHEMA[key][2] is _as_float and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite")
        if self.potential.shape not in POTENTIAL_SHAPES:
            raise ConfigError(
                f"potential.shape must be one of {POTENTIAL_SHAPES}, "
                f"got {self.potential.shape!r}"
            )
        if self.potential.shape == "tabulated" and not self.potential.table_path:
            raise ConfigError("potential.table_path is required for a tabulated potential")
        if self.grid.x_max < 0.0:
            raise ConfigError("grid.x_max must be positive (or 0 to derive it)")
        if self.grid.n_points < 7 or self.grid.n_points % 2 == 0:
            raise ConfigError(
                f"grid.n_points must be odd and at least 7, got {self.grid.n_points}: "
                "x = 0 must be a node, and the four lowest states need at least "
                "four interior nodes"
            )
        if self.sweep.plane not in SWEEP_PLANES:
            raise ConfigError(
                f"sweep.plane must be one of {SWEEP_PLANES}, got {self.sweep.plane!r}"
            )
        if self.model.fermion_basis not in FERMION_VARIANTS:
            raise ConfigError(
                f"model.fermion_basis must be one of {FERMION_VARIANTS}, "
                f"got {self.model.fermion_basis!r}"
            )
        if self.model.spin_sector not in (-1, 0, 1):
            raise ConfigError("model.spin_sector must be -1, 0, or +1")
        if self.model.fermion_basis == PAPER_FOUR_STATE and self.model.spin_sector != 0:
            raise ConfigError(f"model.spin_sector must be 0 with model.fermion_basis = "
                              f"{PAPER_FOUR_STATE} (got {self.model.spin_sector})")
        check_masses(asdict(self.species), prefix="species.")
        check_couplings(asdict(self.couplings), prefix="couplings.")
        sweep = self.sweep
        check_couplings({name: getattr(sweep, name) for name in _SWEEP_COUPLINGS}, prefix="sweep.")
        for axis in ("x", "y", "line"):
            low, high, count = (getattr(sweep, f"{axis}_{end}") for end in ("min", "max", "count"))
            if count < 1:
                raise ConfigError(f"sweep.{axis}_count must be at least 1")
            if high < low:
                raise ConfigError(f"sweep.{axis}_max = {high} is below sweep.{axis}_min = {low}")
            if high == low and count > 1:
                raise ConfigError(f"sweep.{axis}_count must be 1 when sweep.{axis}_min "
                                  f"equals sweep.{axis}_max (got {count})")
        if self.model.min_gap_ratio <= 0.0:
            raise ConfigError("model.min_gap_ratio must be positive")
        if self.dynamics.periods < 3.0:
            raise ConfigError(f"dynamics.periods must be at least 3 (got {self.dynamics.periods}),"
                              " the bare periods the regime metrics need")
        if self.dynamics.n_samples < 16:
            raise ConfigError("dynamics.n_samples must be at least 16")


def _unknown_key_message(key: str) -> str:
    import difflib  # only an unknown key needs it, so no import of dwmix pays for it

    close = difflib.get_close_matches(key, _SCHEMA.keys(), n=1, cutoff=0.5)
    if close:
        return f"unknown config key {key!r} (did you mean {close[0]!r}?)"
    return f"unknown config key {key!r}"


def parse_config(text: str, overrides: dict[str, object] | None = None) -> RunConfig:
    """Parse flat config text into a validated RunConfig.

    ``overrides`` maps flat keys to typed values that replace the text's own
    (a front end's flags); the config is validated once, with them applied.
    """
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: {_unknown_key_message(key)}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        _, _, caster = _SCHEMA[key]
        values[key] = caster(raw_value, key)
    values.update(overrides or {})
    config = RunConfig.default().replace_values(**values)
    config.validate()
    return config


def load_config(path: str | Path, overrides: dict[str, object] | None = None) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return parse_config(text, overrides)
