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
from typing import Callable, Mapping

import numpy as np

from . import conjugate_exponential as cexp
from . import conjugate_pareto as cpar
from . import conjugate_power as cpow
from . import conjugate_uniform as cuni
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

    update(prior, stats) and noninformative(stats, known) produce the
    posterior (noninformative is None where no limit exists); known names
    the parameters that a prior carries and a non-informative fit needs;
    predictive(fitted) builds the posterior predictive; support(fitted)
    reads the posterior bound and the effective count, and direction says
    on which side of the data the bound sits.  The functions look the
    conjugate modules up at call time, so wrappers installed on a module
    are seen.
    """

    prior: type
    known: tuple[str, ...]
    update: Callable
    noninformative: Callable | None
    predictive: Callable
    support: Callable
    direction: str


CELLS = {
    ("pareto", "location"): Cell(
        cpar.ParetoPriorL, ("alpha",),
        lambda p, s: cpar.posterior_l(p, s),
        lambda s, k: cpar.noninformative("location", s, **k),
        lambda f: cpar.predictive_l(f.posterior),
        lambda f: (f.posterior.l_n, f.posterior.n_eff), "lower"),
    ("pareto", "shape"): Cell(
        cpar.ParetoPriorAlpha, ("l",),
        lambda p, s: cpar.posterior_alpha(p, s),
        lambda s, k: cpar.noninformative("shape", s, **k),
        lambda f: cpar.predictive_alpha(f.posterior, f.known["l"]),
        lambda f: (f.known["l"], f.posterior.shape), "lower"),
    ("pareto", "joint"): Cell(
        cpar.ParetoJointPrior, (),
        lambda p, s: cpar.posterior_joint(p, s), None,
        lambda f: cpar.predictive_joint(f.posterior),
        lambda f: (f.posterior.l_n, f.posterior.n_eff_bound), "lower"),
    ("shifted_exp", "location"): Cell(
        cexp.ExpPriorL, ("alpha",),
        lambda p, s: cexp.posterior_l(p, s),
        lambda s, k: cexp.noninformative("location", s, **k),
        lambda f: cexp.predictive_l(f.posterior),
        lambda f: (f.posterior.l_n, f.posterior.n_eff), "lower"),
    ("shifted_exp", "shape"): Cell(
        cexp.ExpPriorAlpha, ("l",),
        lambda p, s: cexp.posterior_alpha(p, s),
        lambda s, k: cexp.noninformative("shape", s, **k),
        lambda f: cexp.predictive_alpha(f.posterior, f.known["l"]),
        lambda f: (f.known["l"], f.posterior.shape), "lower"),
    ("shifted_exp", "joint"): Cell(
        cexp.ExpJointPrior, (),
        lambda p, s: cexp.posterior_joint(p, s), None,
        lambda f: cexp.predictive_joint(f.posterior),
        lambda f: (f.posterior.l_n, f.posterior.n_eff_onset), "lower"),
    ("power", "location"): Cell(
        cpow.PowerPriorU, ("alpha",),
        lambda p, s: cpow.posterior_u(p, s),
        lambda s, k: cpow.noninformative("bound", s, **k),
        lambda f: cpow.predictive_u(f.posterior),
        lambda f: (f.posterior.u_n, f.posterior.n_eff), "upper"),
    ("power", "shape"): Cell(
        cpow.PowerPriorAlpha, ("u",),
        lambda p, s: cpow.posterior_alpha(p, s),
        lambda s, k: cpow.noninformative("shape", s, **k),
        lambda f: cpow.predictive_alpha(f.posterior, f.known["u"]),
        lambda f: (f.known["u"], f.posterior.shape), "upper"),
    ("power", "joint"): Cell(
        cpow.PowerJointPrior, (),
        lambda p, s: cpow.posterior_joint(p, s), None,
        lambda f: cpow.predictive_joint(f.posterior),
        lambda f: (f.posterior.u_n, f.posterior.n_eff_bound), "upper"),
    # the width bound is reported as a width, its predictive edge as an
    # absolute upper end
    ("uniform", "width"): Cell(
        cuni.UniformPriorW, ("l",),
        lambda p, s: cuni.posterior_w(p, s),
        lambda s, k: cuni.noninformative("width", s, **k),
        lambda f: cuni.predictive_w(f.posterior),
        lambda f: (f.posterior.w_n, f.posterior.n_eff), "upper"),
    ("uniform", "lower"): Cell(
        cuni.UniformPriorL, ("w",),
        lambda p, s: cuni.posterior_location(p, s),
        lambda s, k: cuni.noninformative("lower", s, **k),
        lambda f: cuni.predictive_location(f.posterior),
        lambda f: (f.posterior.high, float(f.stats.n)), "lower"),
    ("uniform", "joint"): Cell(
        cuni.UniformJointPrior, (),
        lambda p, s: cuni.posterior_joint(p, s), None,
        lambda f: cuni.predictive_joint(f.posterior),
        lambda f: (f.posterior.u_n, f.posterior.n_eff), "upper"),
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
            pred = CELLS[(self.spec.family, self.spec.case)].predictive(self)
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
    name = f"{spec.family}/{spec.case}"
    if spec.noninformative:
        if cell.noninformative is None:
            raise DomainError(f"no non-informative limit is provided for "
                              f"{name}; supply a proper prior")
        missing = [k for k in cell.known if k not in spec.known]
        if missing:
            raise UsageError(f"{name} non-informative fit needs known "
                             f"parameter(s) {missing}")
        known = {k: float(spec.known[k]) for k in cell.known}
        require_finite(known)
        post = cell.noninformative(stats, known)
    else:
        if not isinstance(spec.prior, cell.prior):
            raise UsageError(f"{name} expects a {cell.prior.__name__} prior, "
                             f"got {type(spec.prior).__name__}")
        known = {k: getattr(spec.prior, k) for k in cell.known}
        post = cell.update(spec.prior, stats)
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
    is one value, and more than one dimension is DomainError."""
    arr = _batch(data)
    n = arr.size
    if not 1 <= k <= n:
        raise DomainError(f"k must be in [1, {n}], got {k}")
    theta = float(np.sort(arr)[n - k])
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
    if not np.isfinite(arr).all():
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
