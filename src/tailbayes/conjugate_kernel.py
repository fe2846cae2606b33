"""The one conjugate kernel behind the Pareto, shifted-exponential and power families.

The three families are one shifted-exponential model seen through an axis
t: t(x) = log x (Pareto), x (shifted exponential) or -log x (power).  An
Axis record says how a family maps onto t; the bound and exponent updates,
their non-informative limits and the exponent link predictive are written
here once.  Each sum keeps the grouping of the family formulas, so every
family gets bit-for-bit the numbers of its own closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, InvalidRegimeError, NoInformationError
from .distributions import Gamma
from .sufficient import SuffStats

__all__ = ["Axis", "GammaPosterior", "extrapolation_factor", "bound", "exponent",
           "joint", "noninformative", "discount", "link_predictive"]


def extrapolation_factor(n_eff: float) -> float:
    """Record-discount factor c = n_eff / (n_eff + 1)."""
    if n_eff <= 0:
        raise NoInformationError("no effective observations to extrapolate from")
    return n_eff / (n_eff + 1.0)


@dataclass(frozen=True)
class GammaPosterior:
    """Gamma(shape, rate) posterior over a positive rate-like parameter."""

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape < 0 or self.rate < 0:
            raise DomainError("Gamma posterior parameters cannot be negative")
        if not (math.isfinite(self.shape) and math.isfinite(self.rate)):
            raise InvalidRegimeError(f"Gamma posterior leaves float range: {self}")

    @property
    def is_proper(self) -> bool:
        return self.shape > 0 and self.rate > 0

    def distribution(self) -> Gamma:
        if not self.is_proper:
            raise NoInformationError("posterior over the exponent is improper")
        return Gamma(self.shape, self.rate)

    def mean(self) -> float:
        if not self.is_proper:
            raise NoInformationError("posterior over the exponent is improper")
        return self.shape / self.rate


@dataclass(frozen=True)
class Axis:
    """How one family sees the kernel.

    t(b) is a bound on the axis and sum_t(stats) is sum t(x_i); lower says
    the data minimum pins the bound (else the maximum); positive says the
    data must be strictly positive.  link, location and joint are the
    family's classes; bound_case names its non-informative bound case,
    bound_word names the bound in messages, regime is the message for a
    joint rate that is not positive, and flat_residual keeps Pareto's
    leftover pseudo-count 1/alpha in the flat-bound limit.
    """

    t: Callable[[float], float]
    sum_t: Callable[[SuffStats], float]
    lower: bool
    positive: bool
    link: type
    location: type
    joint: type
    bound_case: str
    bound_word: str
    regime: str
    flat_residual: bool = False


def _require_data(axis: Axis, stats: SuffStats) -> None:
    if axis.positive and stats.n > 0 and stats.min <= 0:
        raise DomainError("data on a log axis must be strictly positive")


def _pooled(axis: Axis, b0: float, stats: SuffStats) -> float:
    if stats.n == 0:
        return b0
    return min(b0, stats.min) if axis.lower else max(b0, stats.max)


def bound(axis: Axis, b0: float, n0: float, alpha: float, stats: SuffStats):
    """Bound block with alpha known: pooled extreme, count n0 + n."""
    _require_data(axis, stats)
    if n0 == 0 and stats.n == 0:
        raise NoInformationError("flat prior and no data: nothing to update")
    return axis.location(_pooled(axis, b0, stats), alpha, n0 + stats.n)


def exponent(axis: Axis, n0: float, rate0: float, stats: SuffStats,
             b: float | None = None) -> GammaPosterior:
    """Exponent block: Gamma(n0 + n, rate0 + (sum t(x) - n*t(b))), or with
    the bound estimated too (b None) Gamma(n0 + n, rate0 + sum t(x))."""
    _require_data(axis, stats)
    if b is not None and stats.n > 0 and (
            stats.min < b if axis.lower else stats.max > b):
        side = "below" if axis.lower else "above"
        raise DomainError(f"datum {side} the known {axis.bound_word}")
    shape = n0 + stats.n
    rate = rate0
    if stats.n > 0:
        rate += (axis.sum_t(stats) if b is None
                 else axis.sum_t(stats) - stats.n * axis.t(b))
    if shape == 0:
        raise NoInformationError("flat prior and no data: nothing to update")
    if rate <= 0:
        if b is None:
            raise InvalidRegimeError(axis.regime)
        raise DomainError(
            f"degenerate update: every datum sits at the {axis.bound_word} "
            "and the prior carries no weight"
        )
    return GammaPosterior(shape=shape, rate=rate)


def joint(axis: Axis, b0: float, n0: float, n0_shape: float, rate0: float,
          stats: SuffStats):
    """Both blocks: pooled extreme with count n0 + n, and the exponent
    block with prior count n0_shape and the bound estimated."""
    gamma = exponent(axis, n0_shape, rate0, stats)
    return axis.joint(_pooled(axis, b0, stats), n0 + stats.n, gamma)


def noninformative(axis: Axis, case: str, stats: SuffStats,
                   alpha: float | None, b: float | None):
    """Posterior under the non-informative limit of the matching prior:
    the bound case pins the data extreme with count n (+ 1/alpha on a flat
    residual axis), the shape case is the exponent block with n0 = rate0 =
    0.  With no data the posterior is returned improper: the bound sits
    where t is infinite, the Gamma block is (0, 0)."""
    if case == axis.bound_case:
        if alpha is None or alpha <= 0:
            raise DomainError(f"case {case!r} needs a positive known alpha")
        _require_data(axis, stats)
        n_eff = stats.n + (1.0 / alpha if axis.flat_residual else 0.0)
        flat = math.inf if axis.lower else 0.0
        return axis.location(_pooled(axis, flat, stats), alpha, n_eff)
    if case == "shape":
        if b is None or (axis.positive and not b > 0):
            raise DomainError(f"case 'shape' needs a valid known {axis.bound_word}")
        if stats.n == 0:
            return GammaPosterior(shape=0.0, rate=0.0)
        return exponent(axis, 0.0, 0.0, stats, b)
    raise DomainError(
        f"unknown case {case!r}; expected {axis.bound_case!r} or 'shape'")


def discount(post, n_eff: float | None = None) -> float:
    """Record discount c = n_eff / (n_eff + 1) of a posterior that can
    predict; c = 1 when n_eff is None (the bound is known)."""
    if not post.is_proper:
        raise NoInformationError("cannot predict from an improper posterior")
    return 1.0 if n_eff is None else extrapolation_factor(n_eff)


def link_predictive(axis: Axis, gamma: GammaPosterior, anchor: float,
                    c: float):
    """Predictive with t(x) - t(anchor) + rate ~ Pareto(shape, c**(1/shape)
    * rate): with c < 1 the support edge moves past the anchor."""
    return axis.link(shape=gamma.shape, scale=c ** (1.0 / gamma.shape) * gamma.rate,
                     offset=gamma.rate, anchor=anchor)
