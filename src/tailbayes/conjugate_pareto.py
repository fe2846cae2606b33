"""Conjugate updates for Pareto data: lower bound, tail exponent, or both.

Model: data follow Pareto(alpha, l).  Three estimation cases are covered,
each with closed-form posterior and posterior predictive:

* lower bound l with alpha known; Power-law prior and posterior over l,
* tail exponent alpha with l known; Gamma prior and posterior over alpha,
* both jointly; Power conditional over l times a Gamma marginal over alpha.

Posterior predictive laws discount the fresh-record probability through
the factor c = (n + n0) / (n + n0 + 1): the predictive support edge sits
strictly below the posterior bound, acknowledging that a future draw can
set a new record.  Every update is conjugate_kernel's on the axis log x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import conjugate_kernel as kernel
from .conjugate_kernel import GammaPosterior, extrapolation_factor
from .distributions import Pareto, Power
from .errors import DomainError, NoInformationError, require_finite
from .predictives import ParetoLogLink
from .sufficient import SuffStats

__all__ = [
    "ParetoPriorL",
    "ParetoPriorAlpha",
    "ParetoJointPrior",
    "LowerBoundPosterior",
    "GammaPosterior",
    "ParetoJointPosterior",
    "posterior_l",
    "predictive_l",
    "posterior_alpha",
    "predictive_alpha",
    "posterior_joint",
    "predictive_joint",
    "noninformative",
    "extrapolation_factor",
]


@dataclass(frozen=True)
class ParetoPriorL:
    """Power(l0, alpha*n0) prior over the lower bound; alpha known.

    n0 acts as a pseudo-count and may be any non-negative real; n0 = 0 is
    the improper flat limit, usable once data arrive.
    """

    l0: float
    n0: float
    alpha: float

    def __post_init__(self):
        require_finite(vars(self))
        if self.l0 <= 0:
            raise DomainError("prior bound l0 must be positive")
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")


@dataclass(frozen=True)
class ParetoPriorAlpha:
    """Gamma(n0, n0*log(g0)) prior over the tail exponent; l known.

    g0 > 1 is the prior guess of the relative geometric mean of x/l, so
    the Gamma rate n0*log(g0) is positive whenever n0 > 0.
    """

    g0: float
    n0: float
    l: float

    def __post_init__(self):
        require_finite(vars(self))
        if self.g0 <= 1.0:
            raise DomainError("prior geometric mean g0 must exceed 1")
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")
        if self.l <= 0:
            raise DomainError("known bound l must be positive")


@dataclass(frozen=True)
class ParetoJointPrior:
    """Product prior: Power(l0, alpha*n0) over l, Gamma over alpha.

    The two blocks carry separate pseudo-counts: n0 weighs the bound
    block, n0_shape the exponent block, and g0 > 1 is the prior guess of
    the absolute geometric mean of the data.
    """

    l0: float
    n0: float
    g0: float
    n0_shape: float

    def __post_init__(self):
        require_finite(vars(self))
        if self.l0 <= 0:
            raise DomainError("prior bound l0 must be positive")
        if self.n0 < 0 or self.n0_shape < 0:
            raise DomainError("pseudo-counts cannot be negative")
        if self.g0 <= 1.0:
            raise DomainError("prior geometric mean g0 must exceed 1")


@dataclass(frozen=True)
class LowerBoundPosterior:
    """Power(l_n, alpha*n_eff) posterior over a lower support point.

    l_n is +inf when nothing (no data, improper prior) pins the bound
    down; the posterior is then still improper and cannot predict.
    """

    l_n: float
    alpha: float
    n_eff: float

    @property
    def is_proper(self) -> bool:
        return math.isfinite(self.l_n) and self.n_eff > 0

    def distribution(self) -> Power:
        if not self.is_proper:
            raise NoInformationError("posterior over the bound is improper")
        return Power(self.l_n, self.alpha * self.n_eff)


@dataclass(frozen=True)
class ParetoJointPosterior:
    """Joint posterior: Power conditional over l, Gamma marginal over alpha."""

    l_n: float
    n_eff_bound: float
    shape_posterior: GammaPosterior

    @property
    def is_proper(self) -> bool:
        return (
            math.isfinite(self.l_n)
            and self.n_eff_bound > 0
            and self.shape_posterior.is_proper
        )

    def conditional_bound(self, alpha: float) -> Power:
        """Posterior over l for a fixed exponent value."""
        if alpha <= 0:
            raise DomainError("alpha must be positive")
        if not self.is_proper:
            raise NoInformationError("joint posterior is improper")
        return Power(self.l_n, alpha * self.n_eff_bound)


def posterior_l(prior: ParetoPriorL, stats: SuffStats) -> LowerBoundPosterior:
    """Update the lower-bound block: l_n = min(l0, data min), count n0 + n."""
    return kernel.bound(_AXIS, prior.l0, prior.n0, prior.alpha, stats)


def predictive_l(post: LowerBoundPosterior) -> Pareto:
    """Predictive Pareto(alpha, c**(1/alpha) * l_n); edge strictly below l_n."""
    c = kernel.discount(post, post.n_eff)
    return Pareto(post.alpha, c ** (1.0 / post.alpha) * post.l_n)


def posterior_alpha(prior: ParetoPriorAlpha, stats: SuffStats) -> GammaPosterior:
    """Update the exponent block: shape n0 + n, rate n0*log g0 + sum log(x/l)."""
    return kernel.exponent(_AXIS, prior.n0, prior.n0 * math.log(prior.g0),
                           stats, prior.l)


def predictive_alpha(post: GammaPosterior, l: float) -> ParetoLogLink:
    """Predictive with log(x/l) + rate Pareto-distributed; support x > l."""
    return kernel.link_predictive(_AXIS, post, l, kernel.discount(post))


def posterior_joint(prior: ParetoJointPrior, stats: SuffStats) -> ParetoJointPosterior:
    """Update both blocks; the exponent rate uses the absolute geometric mean."""
    return kernel.joint(_AXIS, prior.l0, prior.n0, prior.n0_shape,
                        prior.n0_shape * math.log(prior.g0), stats)


def predictive_joint(post: ParetoJointPosterior) -> ParetoLogLink:
    """Predictive with log(x/l_n) + rate Pareto-distributed, scale discounted.

    The Pareto scale is c**(1/shape) * rate with c the record-discount of
    the bound block, so the support edge sits strictly below l_n.
    """
    c = kernel.discount(post, post.n_eff_bound)
    return kernel.link_predictive(_AXIS, post.shape_posterior, post.l_n, c)


def noninformative(case: str, stats: SuffStats, *, alpha: float | None = None,
                   l: float | None = None):
    """Posterior under the non-informative limit of the matching prior.

    case "location" (alpha required): the flat-bound limit keeps a residual
    pseudo-count of 1/alpha, giving Power(data min, alpha*n + 1).
    case "shape" (l required): the scale-free limit gives
    Gamma(n, sum log(x/l)).  With no data the posterior stays improper and
    is returned flagged as such.
    """
    return kernel.noninformative(_AXIS, case, stats, alpha, l)


_AXIS = kernel.Axis(
    link=ParetoLogLink, location=LowerBoundPosterior, joint=ParetoJointPosterior,
    bound_case="location", bound_word="bound l", flat_residual=True,
    regime="pooled geometric mean g_n is at or below 1, so the exponent "
           "posterior rate is non-positive; rescale the data to sit above 1")
