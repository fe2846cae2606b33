"""Exception types shared across the package.

Each type carries the exit code that the CLI returns for it: 2 for a
UsageError (a bad invocation), 4 for an InvalidRegimeError or a
ConvergenceError (a closed form or a series asked to operate where it
breaks down), and 3 for every other error (data and domain problems).
require_finite is the one finiteness check that every prior, every
non-informative known value and every law of distributions goes through.
"""

import math

__all__ = [
    "TailBayesError",
    "UsageError",
    "DataError",
    "DomainError",
    "NoInformationError",
    "InvalidRegimeError",
    "ConvergenceError",
    "CoverageError",
    "UnsupportedMappingError",
    "require_finite",
]


class TailBayesError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3


class UsageError(TailBayesError):
    """Bad invocation: unknown flags, missing required arguments."""

    exit_code = 2


class DataError(TailBayesError):
    """Unreadable or malformed input data (bad file, bad row, bad field)."""


class DomainError(TailBayesError):
    """A value lies outside the domain of a distribution or operation."""


class NoInformationError(TailBayesError):
    """No data and no prior weight: the posterior stays improper."""


class InvalidRegimeError(TailBayesError):
    """Parameter regime where the closed forms stop being valid."""

    exit_code = 4


class ConvergenceError(TailBayesError):
    """A series or quadrature failed to reach its accuracy target."""

    exit_code = 4


class CoverageError(TailBayesError):
    """A numerical grid missed the posterior mass entirely."""


class UnsupportedMappingError(TailBayesError):
    """Asked to map a distribution with no generalized-Pareto form."""


def require_finite(values) -> None:
    """Raise DomainError unless every value of the name -> number mapping
    is finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
