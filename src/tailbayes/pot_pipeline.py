"""Peaks-over-threshold pipeline: one entry point over the four families.

The flow is: collect sufficient statistics (or pick a threshold and keep
the exceedances), describe the model in a ModelSpec, then fit, predict,
and report support bounds through one (family, case) table, CELLS.  A
sequential update refits the original spec on the merged statistics, so
it reproduces the batch result exactly in every case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import import_module
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, UsageError, require_finite
from .sufficient import SuffStats, _batch, merge, suff_stats

__all__ = [
    "SuffStats",
    "suff_stats",
    "merge",
    "ModelSpec",
    "FittedModel",
    "SupportReport",
    "Cell",
    "CELLS",
    "FAMILIES",
    "fit",
    "predict",
    "support",
    "select_threshold",
    "pot_fit",
    "holdout_log_predictive",
    "sequential_update",
]


@dataclass(frozen=True)
class Cell:
    """One (family, case) model, written down once.

    module names the cell's conjugate module in this package, and
    prior_name its prior class there.  The module is imported by name the
    first time the cell is used (by fit, predict, support or cell.prior)
    and kept on the cell as ``conjugate``, its prior class as ``prior``;
    importing the package loads no family.  The other names are read off
    that module at call time, so wrappers installed on it are seen:
    update(prior, stats) and predictive(posterior, *anchor values) name
    its functions, and noninformative names the case that its
    noninformative(case, stats, **known) takes (None where no limit
    exists).  known names the parameters that a prior carries and a
    non-informative fit needs, and anchor those of them that the
    predictive takes after the posterior.  support(fitted) reads the
    posterior bound and the effective count, and direction says on which
    side of the data the bound sits.
    """

    module: str
    prior_name: str
    known: tuple[str, ...]
    update: str
    noninformative: str | None
    predictive: str
    support: Callable
    direction: str
    anchor: tuple[str, ...] = ()

    @cached_property
    def conjugate(self):
        return import_module(f"{__package__}.{self.module}")

    @cached_property
    def prior(self) -> type:
        return getattr(self.conjugate, self.prior_name)


CELLS = {
    ("pareto", "location"): Cell(
        "conjugate_pareto", "ParetoPriorL", ("alpha",), "posterior_l", "location",
        "predictive_l", lambda f: (f.posterior.l_n, f.posterior.n_eff), "lower"),
    ("pareto", "shape"): Cell(
        "conjugate_pareto", "ParetoPriorAlpha", ("l",), "posterior_alpha", "shape",
        "predictive_alpha", lambda f: (f.known["l"], f.posterior.shape), "lower", ("l",)),
    ("pareto", "joint"): Cell(
        "conjugate_pareto", "ParetoJointPrior", (), "posterior_joint", None,
        "predictive_joint", lambda f: (f.posterior.l_n, f.posterior.n_eff_bound), "lower"),
    ("shifted_exp", "location"): Cell(
        "conjugate_exponential", "ExpPriorL", ("alpha",), "posterior_l", "location",
        "predictive_l", lambda f: (f.posterior.l_n, f.posterior.n_eff), "lower"),
    ("shifted_exp", "shape"): Cell(
        "conjugate_exponential", "ExpPriorAlpha", ("l",), "posterior_alpha", "shape",
        "predictive_alpha", lambda f: (f.known["l"], f.posterior.shape), "lower", ("l",)),
    ("shifted_exp", "joint"): Cell(
        "conjugate_exponential", "ExpJointPrior", (), "posterior_joint", None,
        "predictive_joint", lambda f: (f.posterior.l_n, f.posterior.n_eff_onset), "lower"),
    ("power", "location"): Cell(
        "conjugate_power", "PowerPriorU", ("alpha",), "posterior_u", "bound",
        "predictive_u", lambda f: (f.posterior.u_n, f.posterior.n_eff), "upper"),
    ("power", "shape"): Cell(
        "conjugate_power", "PowerPriorAlpha", ("u",), "posterior_alpha", "shape",
        "predictive_alpha", lambda f: (f.known["u"], f.posterior.shape), "upper", ("u",)),
    ("power", "joint"): Cell(
        "conjugate_power", "PowerJointPrior", (), "posterior_joint", None,
        "predictive_joint", lambda f: (f.posterior.u_n, f.posterior.n_eff_bound), "upper"),
    # the width bound is reported as a width, its predictive edge as an
    # absolute upper end
    ("uniform", "width"): Cell(
        "conjugate_uniform", "UniformPriorW", ("l",), "posterior_w", "width",
        "predictive_w", lambda f: (f.posterior.w_n, f.posterior.n_eff), "upper"),
    ("uniform", "lower"): Cell(
        "conjugate_uniform", "UniformPriorL", ("w",), "posterior_location", "lower",
        "predictive_location", lambda f: (f.posterior.high, float(f.stats.n)), "lower"),
    ("uniform", "joint"): Cell(
        "conjugate_uniform", "UniformJointPrior", (), "posterior_joint", None,
        "predictive_joint", lambda f: (f.posterior.u_n, f.posterior.n_eff), "upper"),
}

FAMILIES = {fam: tuple(case for f, case in CELLS if f == fam) for fam, _ in CELLS}


@dataclass(frozen=True)
class ModelSpec:
    """What to fit: family, case, and either a proper prior or the
    non-informative limit with the case's known parameters.

    view records whether threshold exceedances enter raw or as excesses
    x - threshold; threshold echoes the value used, when any.  New data
    enter a model with a threshold through exceedances, as the data it
    was fitted to did.
    """

    family: str
    case: str
    prior: object | None = None
    noninformative: bool = False
    known: Mapping[str, float] = field(default_factory=dict)
    view: str = "raw"
    threshold: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}")
        if self.case not in FAMILIES[self.family]:
            raise UsageError(
                f"family {self.family!r} has cases {FAMILIES[self.family]}, "
                f"not {self.case!r}"
            )
        if self.view not in ("raw", "excess"):
            raise UsageError(f"view must be 'raw' or 'excess', not {self.view!r}")
        if (self.prior is None) == (not self.noninformative):
            raise UsageError("give exactly one of a prior or noninformative=True, "
                             f"not noninformative={self.noninformative!r} with "
                             f"prior {self.prior!r}")

    def exceedances(self, data):
        """The values of data that this model reads: with a threshold, those
        strictly above it, less the threshold under view="excess"; with
        none, data unchanged."""
        if self.threshold is None:
            return data
        arr = np.asarray(data, dtype=float)
        arr = arr[arr > self.threshold]
        return arr - self.threshold if self.view == "excess" else arr


@dataclass(frozen=True)
class FittedModel:
    """A posterior plus everything needed to keep using it: the spec that
    produced it, the cumulative sufficient statistics, and the resolved
    known parameters."""

    spec: ModelSpec
    posterior: object
    stats: SuffStats
    known: Mapping[str, float]

    @property
    def predictive(self):
        """The posterior predictive, built on first use and then kept.

        Cached by hand: before Python 3.12, functools.cached_property takes
        a lock on each first read, which on the streaming path cost about
        what the cache saves."""
        pred = self.__dict__.get("_predictive")
        if pred is None:
            cell = CELLS[(self.spec.family, self.spec.case)]
            pred = getattr(cell.conjugate, cell.predictive)(
                self.posterior, *[self.known[k] for k in cell.anchor])
            object.__setattr__(self, "_predictive", pred)   # a cache, not a field
        return pred


@dataclass(frozen=True)
class SupportReport:
    """Estimated support bound and its predictive extrapolation.

    posterior_bound is the fitted bound parameter (l_n, u_n, or the width
    w_n for the uniform width case); predictive_bound is the matching
    edge of the posterior predictive's support, always on the data axis.
    direction says which side of the data the bound sits on.
    """

    family: str
    case: str
    posterior_bound: float
    predictive_bound: float
    n_effective: float
    direction: str


def fit(spec: ModelSpec, stats: SuffStats) -> FittedModel:
    """Run the conjugate update of spec's cell on the given statistics."""
    cell = CELLS[(spec.family, spec.case)]
    if spec.noninformative:
        if cell.noninformative is None:
            raise DomainError(f"no non-informative limit is provided for "
                              f"{spec.family}/{spec.case}; supply a proper prior")
        missing = [k for k in cell.known if k not in spec.known]
        if missing:
            raise UsageError(f"{spec.family}/{spec.case} non-informative fit "
                             f"needs known parameter(s) {missing}")
        known = {k: float(spec.known[k]) for k in cell.known}
        require_finite(known)
        post = cell.conjugate.noninformative(cell.noninformative, stats, **known)
    else:
        if not isinstance(spec.prior, cell.prior):
            raise UsageError(f"{spec.family}/{spec.case} expects a "
                             f"{cell.prior.__name__} prior, "
                             f"got {type(spec.prior).__name__}")
        known = {k: getattr(spec.prior, k) for k in cell.known}
        post = getattr(cell.conjugate, cell.update)(spec.prior, stats)
    return FittedModel(spec=spec, posterior=post, stats=stats, known=known)


def predict(fitted: FittedModel):
    """Posterior predictive for a fitted model."""
    return fitted.predictive


def support(fitted: FittedModel) -> SupportReport:
    """Posterior bound and predictive support edge for a fitted model.

    Shape-only cases report the known bound on both sides (nothing is
    estimated, nothing extrapolates).  The uniform width case reports the
    posterior bound as a width and the predictive bound as an absolute
    upper end, matching how each is naturally read.  The uniform joint
    predictive has no finite support edge, so its predictive bound is
    infinite.
    """
    fam, case = fitted.spec.family, fitted.spec.case
    cell = CELLS[(fam, case)]
    bound, count = cell.support(fitted)
    lo, hi = fitted.predictive.support()
    edge = lo if cell.direction == "lower" else hi
    return SupportReport(fam, case, bound, edge, count, cell.direction)


def select_threshold(data, k: int):
    """Top-k threshold: theta is the k-th largest value; exceedances are
    every value strictly above theta, kept in input order (ties at theta
    are excluded).  data is a batch as suff_stats reads it: a 0-d input
    is one value, and more than one dimension or a non-finite value is
    DomainError."""
    arr = _batch(data)
    n = arr.size
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise DomainError("data must be finite")
    if not 1 <= k <= n:
        raise DomainError(f"k must be in [1, {n}], got {k}")
    # the (n - k)-th order statistic, as a full sort would place it
    theta = float(np.partition(arr, n - k)[n - k])
    return theta, arr[arr > theta]


def pot_fit(data, k: int, spec: ModelSpec):
    """Select a threshold, fit the exceedances, and echo the pieces.

    Exceedances enter raw or as excesses over the threshold, per
    spec.view, as ModelSpec.exceedances reads them.  Returns (fitted
    model, theta, fitted values).
    """
    theta, exceed = select_threshold(data, k)
    spec = replace(spec, threshold=theta)
    values = spec.exceedances(exceed)
    return fit(spec, suff_stats(values)), theta, values


def holdout_log_predictive(predictive, holdout) -> float:
    """Summed log predictive density of held-out points.

    -inf signals that some point falls outside the predictive support,
    i.e. the model is rejected by the holdout.  The holdout is a batch as
    suff_stats reads it, and a non-finite point raises DomainError, as it
    does in suff_stats.  The sum is computed with exact accumulation, so
    it is invariant under permutation.
    """
    arr = _batch(holdout)
    if arr.size == 0:
        return 0.0
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise DomainError("holdout points must be finite")
    logs = np.asarray(predictive.log_pdf(arr)).tolist()
    if -math.inf in logs:
        return -math.inf
    return math.fsum(logs)


def sequential_update(fitted: FittedModel, new_stats: SuffStats) -> FittedModel:
    """Absorb a new batch: refit the original spec on the merged statistics.

    The result is the batch fit on the merged statistics by construction,
    in every case, the uniform joint one included.
    """
    return fit(fitted.spec, merge(fitted.stats, new_stats))
