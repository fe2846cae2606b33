"""Conjugate updates for power-law data on (0, u]: the finite-maximum family.

Model: data follow Power(u, alpha), density alpha*x^(alpha-1)/u^alpha on
(0, u].  This family is dual to the Pareto one under x -> 1/x, so it is the
natural carrier for upper bound estimation:

* upper bound u with alpha known; Pareto prior and posterior over u,
* shape alpha with u known; Gamma prior and posterior over alpha,
* both jointly; Pareto conditional over u times a Gamma marginal.

Shape priors are anchored by a guess g0 in (0, 1) of the geometric mean
of x/u, entering the Gamma rate as -n0*log(g0) > 0.  Predictives carry
the record-discount factor c = (n+n0)/(n+n0+1); for upper bounds the
discount pushes the predictive bound above the posterior one (dividing by
c**(1/alpha) rather than multiplying).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conjugate_pareto import GammaPosterior, extrapolation_factor
from .distributions import Pareto, Power
from .errors import DomainError, InvalidRegimeError, NoInformationError
from .predictives import ParetoNegLogLink
from .special_functions import upper_inc_gamma_neg
from .sufficient import SuffStats

__all__ = [
    "PowerPriorU",
    "PowerPriorAlpha",
    "PowerJointPrior",
    "UpperBoundPosterior",
    "PowerJointPosterior",
    "posterior_u",
    "predictive_u",
    "posterior_alpha",
    "predictive_alpha",
    "posterior_joint",
    "predictive_joint",
    "expected_value_joint",
    "noninformative",
]


@dataclass(frozen=True)
class PowerPriorU:
    """Pareto(alpha*n0, u0) prior over the upper bound; alpha known."""

    u0: float
    n0: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.u0) and self.u0 > 0):
            raise DomainError("prior bound u0 must be finite and positive")
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")


@dataclass(frozen=True)
class PowerPriorAlpha:
    """Gamma(n0, -n0*log g0) prior over the shape; bound u known.

    g0 in (0, 1) is the prior guess of the geometric mean of x/u.
    """

    g0: float
    n0: float
    u: float

    def __post_init__(self):
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")
        if not 0.0 < self.g0 < 1.0:
            raise DomainError(
                "geometric-mean guess g0 must lie in (0, 1): it is the "
                "typical value of x relative to the bound u"
            )
        if self.u <= 0:
            raise DomainError("known bound u must be positive")


@dataclass(frozen=True)
class PowerJointPrior:
    """Pareto over the bound times Gamma(n0_shape, -n0_shape*log g0) over the shape."""

    u0: float
    n0: float
    g0: float
    n0_shape: float

    def __post_init__(self):
        if not (math.isfinite(self.u0) and self.u0 > 0):
            raise DomainError("prior bound u0 must be finite and positive")
        if self.n0 < 0 or self.n0_shape < 0:
            raise DomainError("pseudo-counts cannot be negative")
        if self.n0_shape > 0 and not 0.0 < self.g0 < 1.0:
            raise DomainError("geometric-mean guess g0 must lie in (0, 1)")


@dataclass(frozen=True)
class UpperBoundPosterior:
    """Pareto(alpha*n_eff, u_n) posterior over the upper bound."""

    u_n: float
    alpha: float
    n_eff: float

    @property
    def is_proper(self) -> bool:
        return self.u_n > 0 and self.n_eff > 0

    def distribution(self) -> Pareto:
        if not self.is_proper:
            raise NoInformationError("posterior over the upper bound is improper")
        return Pareto(self.alpha * self.n_eff, self.u_n)


@dataclass(frozen=True)
class PowerJointPosterior:
    """Joint posterior: Pareto conditional over u, Gamma marginal over alpha."""

    u_n: float
    n_eff_bound: float
    shape_posterior: GammaPosterior

    @property
    def is_proper(self) -> bool:
        return (
            self.u_n > 0
            and self.n_eff_bound > 0
            and self.shape_posterior.is_proper
        )

    def conditional_bound(self, alpha: float) -> Pareto:
        if alpha <= 0:
            raise DomainError("alpha must be positive")
        if not self.is_proper:
            raise NoInformationError("joint posterior is improper")
        return Pareto(alpha * self.n_eff_bound, self.u_n)


def _require_positive_data(stats: SuffStats) -> None:
    if stats.n > 0 and stats.min <= 0:
        raise DomainError("power-law data must be strictly positive")


def posterior_u(prior: PowerPriorU, stats: SuffStats) -> UpperBoundPosterior:
    """Update the bound block: u_n = max(u0, data max), count n0 + n."""
    _require_positive_data(stats)
    if prior.n0 == 0 and stats.n == 0:
        raise NoInformationError("flat prior and no data: nothing to update")
    u_n = prior.u0 if stats.n == 0 else max(prior.u0, stats.max)
    return UpperBoundPosterior(u_n=u_n, alpha=prior.alpha, n_eff=prior.n0 + stats.n)


def predictive_u(post: UpperBoundPosterior) -> Power:
    """Predictive Power(c**(-1/alpha) * u_n, alpha); bound pushed outward."""
    if not post.is_proper:
        raise NoInformationError("cannot predict from an improper posterior")
    c = extrapolation_factor(post.n_eff)
    return Power(c ** (-1.0 / post.alpha) * post.u_n, post.alpha)


def posterior_alpha(prior: PowerPriorAlpha, stats: SuffStats) -> GammaPosterior:
    """Update the shape block: shape n0 + n, rate -(n0+n)*log(pooled geo mean)."""
    _require_positive_data(stats)
    if stats.n > 0 and stats.max > prior.u:
        raise DomainError("datum above the known bound u")
    shape = prior.n0 + stats.n
    rate = -prior.n0 * math.log(prior.g0)
    if stats.n > 0:
        rate += stats.n * math.log(prior.u) - stats.require_sum_log()
    if shape == 0:
        raise NoInformationError("flat prior and no data: nothing to update")
    if rate <= 0:
        raise DomainError(
            "degenerate update: every datum sits at the bound and the prior "
            "carries no weight"
        )
    return GammaPosterior(shape=shape, rate=rate)


def predictive_alpha(post: GammaPosterior, u: float) -> ParetoNegLogLink:
    """Predictive with log(u/x) + rate Pareto-distributed; support (0, u]."""
    if not post.is_proper:
        raise NoInformationError("cannot predict from an improper posterior")
    if u <= 0:
        raise DomainError("known bound u must be positive")
    return ParetoNegLogLink(shape=post.shape, scale=post.rate, offset=post.rate,
                            anchor=u)


def posterior_joint(prior: PowerJointPrior, stats: SuffStats) -> PowerJointPosterior:
    """Update both blocks; the shape block pools log data on the absolute scale."""
    _require_positive_data(stats)
    u_n = prior.u0 if stats.n == 0 else max(prior.u0, stats.max)
    shape = prior.n0_shape + stats.n
    rate = -prior.n0_shape * math.log(prior.g0)
    if stats.n > 0:
        rate -= stats.require_sum_log()
    if shape == 0:
        raise NoInformationError("flat prior and no data: nothing to update")
    if rate <= 0:
        raise InvalidRegimeError(
            "pooled geometric mean is at or above 1 on the absolute scale, "
            "so the shape posterior is invalid; divide the data by a scale "
            "that brings them below 1 and refit"
        )
    return PowerJointPosterior(
        u_n=u_n,
        n_eff_bound=prior.n0 + stats.n,
        shape_posterior=GammaPosterior(shape=shape, rate=rate),
    )


def predictive_joint(post: PowerJointPosterior) -> ParetoNegLogLink:
    """Predictive with log(u_n/x) + rate Pareto-distributed, scale discounted.

    The discounted scale c**(1/A)*B < B pushes the support edge above u_n:
    the next observation is allowed to set a new record.
    """
    if not post.is_proper:
        raise NoInformationError("cannot predict from an improper posterior")
    c = extrapolation_factor(post.n_eff_bound)
    shape = post.shape_posterior.shape
    rate = post.shape_posterior.rate
    return ParetoNegLogLink(
        shape=shape,
        scale=c ** (1.0 / shape) * rate,
        offset=rate,
        anchor=post.u_n,
    )


def expected_value_joint(pred: ParetoNegLogLink) -> float:
    """Mean of a ParetoNegLogLink predictive, via the incomplete gamma tail.

    With shape A, scale s, offset B, anchor u the mean is
    A * s**A * u * exp(B) * Gamma(-A, s), where Gamma is the upper
    incomplete gamma function continued to negative order.
    """
    a = pred.shape
    return (a * pred.scale ** a * pred.anchor * math.exp(pred.offset)
            * upper_inc_gamma_neg(-a, pred.scale))


def noninformative(case: str, stats: SuffStats, *, alpha: float | None = None,
                   u: float | None = None):
    """Posterior under the non-informative limit of the matching prior.

    case "bound" (alpha required): posterior Pareto(alpha*n, data max).
    case "shape" (u required): posterior Gamma(n, -n*log(geo mean of x/u)).
    With no data the posterior stays improper and is returned flagged as
    such (u_n = 0 marks the flat bound limit).
    """
    if case == "bound":
        if alpha is None or alpha <= 0:
            raise DomainError("case 'bound' needs a positive known alpha")
        _require_positive_data(stats)
        if stats.n == 0:
            return UpperBoundPosterior(u_n=0.0, alpha=alpha, n_eff=0.0)
        return UpperBoundPosterior(u_n=stats.max, alpha=alpha, n_eff=float(stats.n))
    if case == "shape":
        if u is None or u <= 0:
            raise DomainError("case 'shape' needs a positive known bound u")
        if stats.n == 0:
            return GammaPosterior(shape=0.0, rate=0.0)
        _require_positive_data(stats)
        if stats.max > u:
            raise DomainError("datum above the known bound u")
        rate = stats.n * math.log(u) - stats.require_sum_log()
        if rate <= 0:
            raise DomainError(
                "degenerate update: every datum sits at the bound and the "
                "prior carries no weight"
            )
        return GammaPosterior(shape=float(stats.n), rate=rate)
    raise DomainError(f"unknown case {case!r}; expected 'bound' or 'shape'")

