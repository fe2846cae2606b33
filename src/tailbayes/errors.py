"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 2, data and domain
problems exit 3, numeric-regime problems (a closed form asked to operate
where it breaks down) exit 4.  require_finite is the one finiteness check
that every prior and every non-informative known value goes through.
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


class UsageError(TailBayesError):
    """Bad invocation: unknown flags, missing required arguments."""


class DataError(TailBayesError):
    """Unreadable or malformed input data (bad file, bad row, bad field)."""


class DomainError(TailBayesError):
    """A value lies outside the domain of a distribution or operation."""


class NoInformationError(TailBayesError):
    """No data and no prior weight: the posterior stays improper."""


class InvalidRegimeError(TailBayesError):
    """Parameter regime where the closed forms stop being valid."""


class ConvergenceError(TailBayesError):
    """A series or quadrature failed to reach its accuracy target."""


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
