"""Two-mode simulator for a 2-boson + 2-fermion mixture in a 1D double well."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DwmixError,
    ModelValidityError,
    SolverError,
    SweepError,
)

__all__ = [
    "ConfigError",
    "DwmixError",
    "ModelValidityError",
    "SolverError",
    "SweepError",
    "__version__",
]
