"""Exception hierarchy shared by all crosscap modules, and ``float_contract``,
the one floating-point guard of the public entry points.

Exit-code mapping used by the CLI: UsageError -> 2, DomainError (and
subclasses) -> 3, ConsistencyError -> 4.
"""

import functools

import numpy as np


class CrosscapError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(CrosscapError):
    """Malformed input: bad DSL source, wrong arities, invalid options."""


class DomainError(CrosscapError):
    """Mathematically undefined request (sqrt of negative, 1/0, ...)."""


class DegeneracyError(DomainError):
    """A genericity hypothesis of the reduction fails (rank, 2-jet, c2=0)."""


class GenericityError(DomainError):
    """The deformation parameter cannot be normalized (d f33/ds (0,0) = 0)."""


class ConsistencyError(CrosscapError):
    """Two independent computation routes disagree beyond tolerance."""


def float_contract(fn):
    """Run ``fn`` with numpy's overflow, invalid and divide errors raised;
    they, and Python's float OverflowError, become a DomainError."""
    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*args, **kwargs)
        except (FloatingPointError, OverflowError) as exc:
            raise DomainError(f"non-finite value beyond the float range: {exc}") from None

    return guarded
