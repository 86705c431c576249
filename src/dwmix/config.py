"""Run configuration: flat ``section.key = value`` text, strictly parsed.

The format is deliberately dumb: one assignment per line, full-line comments
with ``#`` or ``;``, no interpolation, no nesting.  Unknown keys are errors
(with a nearest-key suggestion), as are duplicates and malformed values.

``DEFAULTS`` is the one table of keys: it maps each flat key to its default,
a key's type is the type of its default, and the table's order is the
manifest's key order.  Every rule on a key's value lives in
``RunConfig.validate``, next to the tables it reads (the coupling bound, the
fermion variants, the sweep planes), so this module imports no other dwmix
module but ``errors``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

from .errors import ConfigError

COUPLING_MAX = 0.1
COUPLING_NAMES = ("lambda_bb", "lambda_ff", "lambda_bf")

ANTISYMMETRIC = "antisymmetric"
PAPER_FOUR_STATE = "paper_four_state"
FERMION_VARIANTS = (ANTISYMMETRIC, PAPER_FOUR_STATE)

# plane tag -> (x axis coupling, y axis coupling, fixed couplings)
PLANE_AXES: dict[str, tuple[str, str | None, tuple[str, ...]]] = {
    "ff_bf": ("lambda_ff", "lambda_bf", ("lambda_bb",)),
    "bb_bf": ("lambda_bb", "lambda_bf", ("lambda_ff",)),
    "bb_ff": ("lambda_bb", "lambda_ff", ("lambda_bf",)),
    "line_ff": ("lambda_ff", None, ("lambda_bb", "lambda_bf")),
}

POTENTIAL_SHAPES = ("double_square_well", "quartic", "tabulated")

DEFAULTS: dict[str, object] = {
    "potential.shape": "double_square_well",
    "potential.separation": 1.55,
    "potential.well_width": 1.2,
    "potential.depth": 31.142529704999994,
    "potential.smoothing": 0.08,
    "potential.minimum_pos": 1.0,
    "potential.barrier": 10.0,
    "potential.table_path": "",
    "grid.x_max": 0.0,  # 0 means "derive from the potential"
    "grid.n_points": 4001,
    "species.boson_mass_amu": 170.0,
    "species.fermion_mass_amu": 171.0,
    "couplings.lambda_bb": 0.0,
    "couplings.lambda_ff": 0.0,
    "couplings.lambda_bf": 0.0,
    "dynamics.periods": 3.0,
    "dynamics.n_samples": 4096,
    "dynamics.with_entropy": False,
    "sweep.plane": "ff_bf",
    "sweep.x_min": 0.0,
    "sweep.x_max": 1.0e-3,
    "sweep.x_count": 64,
    "sweep.y_min": 0.0,
    "sweep.y_max": 1.0e-3,
    "sweep.y_count": 64,
    "sweep.line_min": 0.0,
    "sweep.line_max": 1.0e-2,
    "sweep.line_count": 101,
    "sweep.reference_bb": 5.0e-4,
    "sweep.reference_ff": 5.0e-4,
    "sweep.reference_bf": 5.0e-4,
    "model.fermion_basis": ANTISYMMETRIC,
    "model.spin_sector": 0,
    "model.min_gap_ratio": 10.0,
    "output.directory": ".",
}

# Keys that set a coupling, checked as couplings are.
_COUPLING_KEYS = tuple(f"couplings.{name}" for name in COUPLING_NAMES) + tuple(
    f"sweep.{name}" for name in ("x_min", "x_max", "y_min", "y_max", "line_min", "line_max",
                                 "reference_bb", "reference_ff", "reference_bf"))

# section -> read-only record of its keys, so ``config.grid.n_points`` reads a value
_FIELDS: dict[str, list[str]] = {}
for _key in DEFAULTS:
    _section, _, _name = _key.partition(".")
    _FIELDS.setdefault(_section, []).append(_name)
_RECORDS = {section: namedtuple(section, names) for section, names in _FIELDS.items()}

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


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


_CASTERS = {float: _as_float, int: _as_int, bool: _as_bool, str: _as_str}


class RunConfig:
    """Everything one run needs: a value for every key of ``DEFAULTS``.

    Each section reads as a record (``config.grid.n_points``).  A config
    compares by value and is read-only; ``replace_values`` makes a changed copy.
    """

    __slots__ = ("_flat", *_RECORDS)

    def __init__(self, flat: dict[str, object]) -> None:
        object.__setattr__(self, "_flat", flat)
        for section, record in _RECORDS.items():
            object.__setattr__(self, section, record._make(
                flat[f"{section}.{name}"] for name in record._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a RunConfig is read-only; replace_values sets {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunConfig):
            return NotImplemented
        return self._flat == other._flat

    @classmethod
    def default(cls) -> "RunConfig":
        return cls(DEFAULTS)

    def replace_values(self, **flat: object) -> "RunConfig":
        """Copy with flat ``section.key`` entries overridden (already typed)."""
        for key in flat:
            if key not in DEFAULTS:
                raise ConfigError(_unknown_key_message(key))
        return RunConfig({**self._flat, **flat})

    def to_flat_dict(self) -> dict[str, object]:
        """Flat dump in ``DEFAULTS`` order, used by manifests and presets."""
        return dict(self._flat)

    def validate(self) -> None:
        """Every rule on a config key, the trap geometry's included, checked
        here alone and for every subcommand; each message names its key.  No
        solver runs, and no code downstream checks them again."""
        for key, value in self._flat.items():
            if type(DEFAULTS[key]) is float and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite")
        pot, grid, sweep, model = self.potential, self.grid, self.sweep, self.model
        if pot.shape not in POTENTIAL_SHAPES:
            raise ConfigError(
                f"potential.shape must be one of {POTENTIAL_SHAPES}, got {pot.shape!r}"
            )
        if pot.shape == "tabulated" and not pot.table_path:
            raise ConfigError("potential.table_path is required for a tabulated potential")
        if grid.x_max < 0.0:
            raise ConfigError("grid.x_max must be positive (or 0 to derive it)")
        if grid.n_points < 7 or grid.n_points % 2 == 0:
            raise ConfigError(
                f"grid.n_points must be odd and at least 7, got {grid.n_points}: "
                "x = 0 must be a node, and the four lowest states need at least "
                "four interior nodes"
            )
        if pot.shape != "tabulated":
            _check_geometry(pot, grid.x_max)
        if sweep.plane not in PLANE_AXES:
            raise ConfigError(
                f"sweep.plane must be one of {tuple(PLANE_AXES)}, got {sweep.plane!r}"
            )
        if model.fermion_basis not in FERMION_VARIANTS:
            raise ConfigError(
                f"model.fermion_basis must be one of {FERMION_VARIANTS}, "
                f"got {model.fermion_basis!r}"
            )
        if model.spin_sector not in (-1, 0, 1):
            raise ConfigError("model.spin_sector must be -1, 0, or +1")
        if model.fermion_basis == PAPER_FOUR_STATE and model.spin_sector != 0:
            raise ConfigError(f"model.spin_sector must be 0 with model.fermion_basis = "
                              f"{PAPER_FOUR_STATE} (got {model.spin_sector})")
        _check_masses(self.species)
        for key in _COUPLING_KEYS:
            value = self._flat[key]
            if value < 0.0:
                raise ConfigError(f"{key} must be non-negative (got {value})")
            if value > COUPLING_MAX:
                raise ConfigError(f"{key} = {value} exceeds {COUPLING_MAX}, beyond any "
                                  "defensible two-mode regime")
        for axis in ("x", "y", "line"):
            low, high, count = (getattr(sweep, f"{axis}_{end}") for end in ("min", "max", "count"))
            if count < 1:
                raise ConfigError(f"sweep.{axis}_count must be at least 1")
            if high < low:
                raise ConfigError(f"sweep.{axis}_max = {high} is below sweep.{axis}_min = {low}")
            if high == low and count > 1:
                raise ConfigError(f"sweep.{axis}_count must be 1 when sweep.{axis}_min "
                                  f"equals sweep.{axis}_max (got {count})")
        if model.min_gap_ratio <= 0.0:
            raise ConfigError("model.min_gap_ratio must be positive")
        if self.dynamics.periods < 3.0:
            raise ConfigError(f"dynamics.periods must be at least 3 (got {self.dynamics.periods}),"
                              " the bare periods the regime metrics need")
        if self.dynamics.n_samples < 16:
            raise ConfigError("dynamics.n_samples must be at least 16")


def _check_geometry(pot, x_max: float) -> None:
    """The square wells' or the quartic well's keys, and an explicit box
    (``grid.x_max`` other than 0), which must reach past the outer edge of a
    square well or the minimum of a quartic one: a smaller box would set the
    tunneling by its walls instead of the barrier."""
    square = pot.shape == "double_square_well"
    for name in ("separation", "well_width") if square else ("minimum_pos", "barrier"):
        if not getattr(pot, name) > 0.0:
            raise ConfigError(f"potential.{name} must be positive (got {getattr(pot, name)})")
    if square:
        for name in ("depth", "smoothing"):
            if getattr(pot, name) < 0.0:
                raise ConfigError(
                    f"potential.{name} must be non-negative (got {getattr(pot, name)})")
        inner_edge = 0.5 * (pot.separation - pot.well_width)
        if inner_edge <= 0.0:
            raise ConfigError(
                f"potential.separation = {pot.separation} must exceed potential.well_width "
                f"= {pot.well_width}, or the wells overlap"
            )
        limit = min(pot.well_width, 2.0 * inner_edge) / 2.0
        if pot.smoothing >= limit:
            raise ConfigError(
                f"potential.smoothing = {pot.smoothing} must be below {limit}, half the "
                "narrower of a well (potential.well_width) and the barrier between them"
            )
        extent, what = 0.5 * (pot.separation + pot.well_width), "outer well edge"
    else:
        extent, what = pot.minimum_pos, "quartic minimum"
    if 0.0 < x_max <= extent:
        raise ConfigError(
            f"grid.x_max = {x_max} does not contain the wells: it must exceed "
            f"the {what} at {extent}"
        )


def _check_masses(species) -> None:
    """Both masses positive, and the fermion at least as heavy as the boson,
    the isotope ordering the modelling assumes."""
    for name, value in zip(species._fields, species):
        if not value > 0.0:
            raise ConfigError(f"species.{name} must be positive (got {value})")
    if species.fermion_mass_amu < species.boson_mass_amu:
        raise ConfigError(
            f"species.fermion_mass_amu = {species.fermion_mass_amu} is below "
            f"species.boson_mass_amu = {species.boson_mass_amu}; the fermion "
            "species must not be lighter than the boson"
        )


def _unknown_key_message(key: str) -> str:
    import difflib  # only an unknown key needs it, so no import of dwmix pays for it

    close = difflib.get_close_matches(key, DEFAULTS.keys(), n=1, cutoff=0.5)
    if close:
        return f"unknown config key {key!r} (did you mean {close[0]!r}?)"
    return f"unknown config key {key!r}"


def parse_config(text: str, overrides: dict[str, object] | None = None) -> RunConfig:
    """Parse flat config text into a validated RunConfig.

    ``overrides`` maps flat keys to typed values that replace the text's own
    (a front end's flags); the config is validated once, with them applied.
    """
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: {_unknown_key_message(key)}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _CASTERS[type(DEFAULTS[key])](raw_value.strip(), key)
    config = RunConfig.default().replace_values(**{**values, **(overrides or {})})
    config.validate()
    return config


def load_config(path: str | Path, overrides: dict[str, object] | None = None) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return parse_config(text, overrides)
