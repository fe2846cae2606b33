"""Conjugate updates for shifted exponential data: onset, rate, or both.

Model: data follow ShiftedExp(alpha, l), the exponential law started at
l.  This is the log image of the Pareto model (if x is Pareto(alpha, l)
then log x is ShiftedExp(alpha, log l)).  Its axis is x itself, so every
update here is conjugate_kernel's with t(x) = x:

* onset l with alpha known; LogPower prior and posterior over l,
* rate alpha with l known; Gamma prior and posterior over alpha,
* both jointly; LogPower conditional over l times a Gamma marginal.

The joint prior's Gamma rate block is n0_rate * mu0 with no "- l" term:
the onset is unknown there, so the prior mean guess mu0 is taken on the
absolute scale.  The record-discount factor c = (n+n0)/(n+n0+1) enters
every predictive through the onset block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import conjugate_kernel as kernel
from .conjugate_kernel import GammaPosterior
from .distributions import LogPower, ShiftedExp
from .errors import DomainError, NoInformationError, require_finite
from .predictives import ParetoShiftLink
from .sufficient import SuffStats

__all__ = [
    "ExpPriorL",
    "ExpPriorAlpha",
    "ExpJointPrior",
    "OnsetPosterior",
    "ExpJointPosterior",
    "posterior_l",
    "predictive_l",
    "posterior_alpha",
    "predictive_alpha",
    "posterior_joint",
    "predictive_joint",
    "noninformative",
]


@dataclass(frozen=True)
class ExpPriorL:
    """LogPower(l0, alpha*n0) prior over the onset; alpha known."""

    l0: float
    n0: float
    alpha: float

    def __post_init__(self):
        require_finite(vars(self))
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")


@dataclass(frozen=True)
class ExpPriorAlpha:
    """Gamma(n0, n0*(mu0 - l)) prior over the rate; onset l known.

    mu0 > l is the prior guess of the data mean, so the rate block is
    positive whenever n0 > 0.
    """

    mu0: float
    n0: float
    l: float

    def __post_init__(self):
        require_finite(vars(self))
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")
        if not self.mu0 > self.l:
            raise DomainError("prior mean mu0 must exceed the onset l")


@dataclass(frozen=True)
class ExpJointPrior:
    """LogPower over the onset times Gamma(n0_rate, n0_rate*mu0) over the rate."""

    l0: float
    n0: float
    mu0: float
    n0_rate: float

    def __post_init__(self):
        require_finite(vars(self))
        if self.n0 < 0 or self.n0_rate < 0:
            raise DomainError("pseudo-counts cannot be negative")
        if self.n0_rate > 0 and self.mu0 <= 0:
            raise DomainError(
                "prior mean mu0 must be positive (it enters the rate block "
                "on the absolute scale)"
            )


@dataclass(frozen=True)
class OnsetPosterior:
    """LogPower(l_n, alpha*n_eff) posterior over the onset point."""

    l_n: float
    alpha: float
    n_eff: float

    @property
    def is_proper(self) -> bool:
        return math.isfinite(self.l_n) and self.n_eff > 0

    def distribution(self) -> LogPower:
        if not self.is_proper:
            raise NoInformationError("posterior over the onset is improper")
        return LogPower(self.l_n, self.alpha * self.n_eff)


@dataclass(frozen=True)
class ExpJointPosterior:
    """Joint posterior: LogPower conditional over l, Gamma marginal over alpha."""

    l_n: float
    n_eff_onset: float
    rate_posterior: GammaPosterior

    @property
    def is_proper(self) -> bool:
        return (
            math.isfinite(self.l_n)
            and self.n_eff_onset > 0
            and self.rate_posterior.is_proper
        )

    def conditional_onset(self, alpha: float) -> LogPower:
        if alpha <= 0:
            raise DomainError("alpha must be positive")
        if not self.is_proper:
            raise NoInformationError("joint posterior is improper")
        return LogPower(self.l_n, alpha * self.n_eff_onset)


def posterior_l(prior: ExpPriorL, stats: SuffStats) -> OnsetPosterior:
    """Update the onset block: l_n = min(l0, data min), count n0 + n."""
    return kernel.bound(_AXIS, prior.l0, prior.n0, prior.alpha, stats)


def predictive_l(post: OnsetPosterior) -> ShiftedExp:
    """Predictive ShiftedExp(alpha, l_n + log(c)/alpha); log(c) < 0."""
    c = kernel.discount(post, post.n_eff)
    return ShiftedExp(post.alpha, post.l_n + math.log(c) / post.alpha)


def posterior_alpha(prior: ExpPriorAlpha, stats: SuffStats) -> GammaPosterior:
    """Update the rate block: shape n0 + n, rate (n+n0)*(mu_n - l)."""
    return kernel.exponent(_AXIS, prior.n0, prior.n0 * (prior.mu0 - prior.l),
                           stats, prior.l)


def predictive_alpha(post: GammaPosterior, l: float) -> ParetoShiftLink:
    """Predictive with x + rate - l Pareto-distributed; support x > l."""
    return kernel.link_predictive(_AXIS, post, l, kernel.discount(post))


def posterior_joint(prior: ExpJointPrior, stats: SuffStats) -> ExpJointPosterior:
    """Update both blocks; the rate block pools means on the absolute scale."""
    return kernel.joint(_AXIS, prior.l0, prior.n0, prior.n0_rate,
                        prior.n0_rate * prior.mu0, stats)


def predictive_joint(post: ExpJointPosterior) -> ParetoShiftLink:
    """Predictive with x + rate - l_n Pareto-distributed, scale discounted."""
    c = kernel.discount(post, post.n_eff_onset)
    return kernel.link_predictive(_AXIS, post.rate_posterior, post.l_n, c)


def noninformative(case: str, stats: SuffStats, *, alpha: float | None = None,
                   l: float | None = None):
    """Posterior under the non-informative limit of the matching prior.

    case "location" (alpha required): flat onset prior, posterior
    LogPower(data min, alpha*n).  case "shape" (l required): scale-free
    rate prior, posterior Gamma(n, sum(x) - n*l).  With no data the
    posterior stays improper and is returned flagged as such.
    """
    return kernel.noninformative(_AXIS, case, stats, alpha, l)


_AXIS = kernel.Axis(
    link=ParetoShiftLink, location=OnsetPosterior, joint=ExpJointPosterior,
    bound_case="location", bound_word="onset l",
    regime="pooled mean mu_n is non-positive, so the rate posterior is "
           "invalid; shift the data to a positive scale")
