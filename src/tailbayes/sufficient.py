"""Sufficient statistics: one streaming-friendly summary for every update.

A single pass over the data yields everything any conjugate update in this
package needs: count, extremes, sum and sum of logs.  The log sum is only
defined when every datum is strictly positive; otherwise it is carried as
absent and updates that need it refuse.  Merging summaries is associative
and commutative, so batches can be combined in any order.  No summary has
a fractional count, a non-finite value or a log sum its data lack.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["SuffStats", "suff_stats", "merge"]


@dataclass(frozen=True)
class SuffStats:
    """Streaming summary of a data batch.

    ``min``/``max`` are None when ``n == 0``.  ``sum_log`` is None when any
    datum was non-positive (the log moment does not exist there).
    """

    n: int
    min: float | None
    max: float | None
    sum: float
    sum_log: float | None

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise DomainError(f"count must be an integer >= 0, got {self.n!r}")
        if self.n == 0 and (self.min is not None or self.max is not None):
            raise DomainError("empty summary cannot carry bounds")
        if self.n > 0 and (self.min is None or self.max is None):
            raise DomainError("non-empty summary must carry bounds")
        finite = math.isfinite
        if not (finite(self.sum)
                and (self.n == 0 or finite(self.min) and finite(self.max))
                and (self.sum_log is None or finite(self.sum_log))):
            raise DomainError(f"summary values must be finite, got {self}")
        if self.n > 0 and self.min > self.max:
            raise DomainError(f"summary min {self.min!r} exceeds max {self.max!r}")
        if (self.sum_log is None) == (self.n == 0 or self.min > 0):
            raise DomainError("sum_log must be present exactly when every "
                              "datum is positive")

    def require_sum_log(self) -> float:
        if self.sum_log is None:
            raise DomainError(
                "log moments unavailable: the batch contained non-positive values"
            )
        return self.sum_log


EMPTY = SuffStats(n=0, min=None, max=None, sum=0.0, sum_log=0.0)

# below this bound on n * max|x| no partial sum can overflow
_SAFE_SUM = sys.float_info.max / 2


def _batch(data) -> np.ndarray:
    """data as a 1-d float array.  A 0-d input is one value; input of more
    than one dimension is refused with DomainError rather than flattened."""
    x = np.asarray(data, dtype=float)
    if x.ndim > 1:
        raise DomainError(f"a batch is a 1-d sequence of values, got "
                          f"{x.ndim} dimensions")
    return x.reshape(-1)


def suff_stats(data) -> SuffStats:
    """Summarize a batch of real values in one pass."""
    x = _batch(data)
    if x.size == 0:
        return EMPTY
    # NaN propagates through min and max, so both are finite exactly when
    # every datum is
    lo, hi = float(x.min()), float(x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("data must be finite")
    if x.size * max(hi, -lo) < _SAFE_SUM:
        total = float(x.sum())
    else:
        # a partial sum may leave float range; SuffStats refuses the inf
        with np.errstate(over="ignore"):
            total = float(x.sum())
    slog = float(np.log(x).sum()) if lo > 0 else None
    return SuffStats(n=int(x.size), min=lo, max=hi, sum=total, sum_log=slog)


def merge(a: SuffStats, b: SuffStats) -> SuffStats:
    """Combine two summaries as if their batches were concatenated."""
    if a.n == 0:
        return b
    if b.n == 0:
        return a
    if a.sum_log is None or b.sum_log is None:
        slog = None
    else:
        slog = a.sum_log + b.sum_log
    return SuffStats(
        n=a.n + b.n,
        min=min(a.min, b.min),
        max=max(a.max, b.max),
        sum=a.sum + b.sum,
        sum_log=slog,
    )
