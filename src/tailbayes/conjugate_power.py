"""Conjugate updates for power-law data on (0, u]: the finite-maximum family.

Model: data follow Power(u, alpha), density alpha*x^(alpha-1)/u^alpha on
(0, u].  This family is dual to the Pareto one under x -> 1/x, so it is the
natural carrier for upper bound estimation.  Every update is
conjugate_kernel's on the axis -log x, where the bound is a lower onset:

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

from . import conjugate_kernel as kernel
from .conjugate_kernel import GammaPosterior
from .distributions import Pareto, Power
from .errors import DomainError, NoInformationError, require_finite
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
        require_finite(vars(self))
        if self.u0 <= 0:
            raise DomainError("prior bound u0 must be positive")
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
        require_finite(vars(self))
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
        require_finite(vars(self))
        if self.u0 <= 0:
            raise DomainError("prior bound u0 must be positive")
        if self.n0 < 0 or self.n0_shape < 0:
            raise DomainError("pseudo-counts cannot be negative")
        if not 0.0 < self.g0 < 1.0:
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


def posterior_u(prior: PowerPriorU, stats: SuffStats) -> UpperBoundPosterior:
    """Update the bound block: u_n = max(u0, data max), count n0 + n."""
    return kernel.bound(_AXIS, prior.u0, prior.n0, prior.alpha, stats)


def predictive_u(post: UpperBoundPosterior) -> Power:
    """Predictive Power(c**(-1/alpha) * u_n, alpha); bound pushed outward."""
    c = kernel.discount(post, post.n_eff)
    return Power(c ** (-1.0 / post.alpha) * post.u_n, post.alpha)


def posterior_alpha(prior: PowerPriorAlpha, stats: SuffStats) -> GammaPosterior:
    """Update the shape block: shape n0 + n, rate -(n0+n)*log(pooled geo mean)."""
    return kernel.exponent(_AXIS, prior.n0, -prior.n0 * math.log(prior.g0),
                           stats, prior.u)


def predictive_alpha(post: GammaPosterior, u: float) -> ParetoNegLogLink:
    """Predictive with log(u/x) + rate Pareto-distributed; support (0, u]."""
    return kernel.link_predictive(_AXIS, post, u, kernel.discount(post))


def posterior_joint(prior: PowerJointPrior, stats: SuffStats) -> PowerJointPosterior:
    """Update both blocks; the shape block pools log data on the absolute scale."""
    return kernel.joint(_AXIS, prior.u0, prior.n0, prior.n0_shape,
                        -prior.n0_shape * math.log(prior.g0), stats)


def predictive_joint(post: PowerJointPosterior) -> ParetoNegLogLink:
    """Predictive with log(u_n/x) + rate Pareto-distributed, scale discounted.

    The discounted scale c**(1/A)*B < B pushes the support edge above u_n:
    the next observation is allowed to set a new record.
    """
    c = kernel.discount(post, post.n_eff_bound)
    return kernel.link_predictive(_AXIS, post.shape_posterior, post.u_n, c)


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
    return kernel.noninformative(_AXIS, case, stats, alpha, u)


_AXIS = kernel.Axis(
    t=lambda b: -math.log(b), sum_t=lambda stats: -stats.require_sum_log(),
    lower=False, positive=True, link=ParetoNegLogLink,
    location=UpperBoundPosterior, joint=PowerJointPosterior,
    bound_case="bound", bound_word="bound u",
    regime="pooled geometric mean is at or above 1 on the absolute scale, "
           "so the shape posterior is invalid; divide the data by a scale "
           "that brings them below 1 and refit")
