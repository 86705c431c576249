"""Exception hierarchy shared across the package, and the records' base.

Exit-code mapping used by the CLI lives in :mod:`dwmix.cli`; the classes here
only encode *what went wrong*, not how a front end should report it.
"""

from __future__ import annotations


class Record:
    """A read-only record.  Its fields are its class annotations, in order,
    set by position or by keyword; a class attribute is that field's default.
    ``__post_init__`` runs last.  Records compare by identity, and keep a
    ``__dict__`` for ``cached_property``."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        values = dict(zip(self._fields, args), **kwargs)
        if (len(values) < len(args) + len(kwargs) or values.keys() - self._fields
                or not all(name in values or hasattr(self, name) for name in self._fields)):
            raise TypeError(f"{type(self).__name__} takes each of its fields "
                            f"({', '.join(self._fields)}) once, by position or by keyword")
        self.__dict__.update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"a {type(self).__name__} is read-only; {name!r} stays as built")

    __delattr__ = __setattr__


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
