"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI lives in :mod:`dwmix.cli`; the classes here
only encode *what went wrong*, not how a front end should report it.
"""

from __future__ import annotations


class DwmixError(Exception):
    """Base class for all package-specific errors.

    A check over a batch sets ``index`` to the position of its first failure.
    """

    def __init__(self, message: str = "", index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class ConfigError(DwmixError):
    """A run configuration is malformed, incomplete, or self-contradictory."""


class ModelValidityError(DwmixError):
    """Inputs parse fine but describe a model outside the regime we trust.

    Examples: couplings beyond the perturbative bound, a potential whose two
    lowest modes are not an isolated doublet, fermions lighter than bosons.
    """


class SolverError(ModelValidityError):
    """A numerical routine failed to produce a usable result.

    Subclass of :class:`ModelValidityError` because the practical meaning is
    the same for callers: the requested model cannot be solved as posed.
    """


class InvariantError(DwmixError):
    """An assembled object broke a structural invariant (an internal fault)."""


class SweepError(DwmixError):
    """A parameter sweep failed; the message names the grid point."""
