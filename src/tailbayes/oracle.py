"""Independent numerical cross-checks for the closed-form posteriors.

Dense-grid quadrature (prior times likelihood, trapezoid masses) and seeded
Monte Carlo summaries give reference answers that never reuse the conjugate
update algebra.  The command-line ``verify`` report reads one table of
cells: each row names a (family, case), a prior, the data, the parameter
on the grid and its spacing.  The likelihood is the family's log density,
written here once from the law's definition and summed over the data; the
prior is the law its prior class names; the closed form under test is
``pot_pipeline.fit``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import conjugate_exponential as cexp
from . import conjugate_pareto as cpar
from . import conjugate_power as cpow
from . import conjugate_uniform as cuni
from .distributions import Gamma, LogPower, Pareto, Power, Uniform, as_generator
from .errors import CoverageError, DomainError, UsageError
from .pot_pipeline import ModelSpec, fit, support
from .sufficient import suff_stats

__all__ = ["GridSpec", "GridPosterior", "grid_posterior", "compare_posterior",
           "window", "auto_grid", "mc_check", "grid_marginal", "DiagnosticRow",
           "Scenario", "single_parameter_scenarios", "run_scenario",
           "diagnostic_table", "diagnostic_notes"]


@dataclass(frozen=True)
class GridSpec:
    """Evaluation window for a one-dimensional parameter grid.

    cells counts trapezoid intervals, so the grid carries cells + 1 points.
    """

    lo: float
    hi: float
    cells: int = 100_000
    spacing: str = "linear"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise UsageError("grid window must be finite")
        if not self.lo < self.hi:
            raise UsageError("grid window needs lo < hi")
        if self.cells < 100:
            raise UsageError("grid needs at least 100 cells")
        if self.spacing not in ("linear", "log"):
            raise UsageError("grid spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.lo <= 0:
            raise UsageError("log-spaced grid needs lo > 0")

    def points(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.cells + 1)
        return np.linspace(self.lo, self.hi, self.cells + 1)


@dataclass(frozen=True, eq=False)
class GridPosterior:
    """Discrete posterior: one mass per interval between consecutive points."""

    points: np.ndarray
    masses: np.ndarray

    def cdf_values(self) -> np.ndarray:
        return np.cumsum(self.masses)


def grid_posterior(log_likelihood: Callable, log_prior: Callable,
                   grid: GridSpec) -> GridPosterior:
    """Normalized discrete posterior by trapezoid integration.

    Both callables must accept a numpy array of parameter values and return
    log densities, -inf where the density vanishes.  Additive constants do
    not matter because the result is renormalized on the window.
    """
    pts = grid.points()
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = (np.asarray(log_likelihood(pts), dtype=float)
                + np.asarray(log_prior(pts), dtype=float))
    return _normalized(pts, logp)


def _normalized(pts: np.ndarray, logp: np.ndarray) -> GridPosterior:
    """Trapezoid masses of the density exp(logp) over pts, summing to one."""
    # fmax reads NaN (inf - inf where cutoffs meet) as -inf: zero density
    logp = np.fmax(logp, -np.inf)
    peak = np.max(logp)
    if not np.isfinite(peak):
        raise CoverageError("posterior mass is zero everywhere on the grid")
    dens = np.exp(logp - peak)
    masses = 0.5 * (dens[1:] + dens[:-1]) * np.diff(pts)
    total = masses.sum()
    if total <= 0:
        raise CoverageError("posterior mass is zero everywhere on the grid")
    return GridPosterior(points=pts, masses=masses / total)


def compare_posterior(closed_form, grid: GridPosterior) -> dict:
    """Total-variation distance and worst CDF gap over the grid's cells.

    The closed form only needs a vectorized cdf.  Its mass is renormalized
    to the window, so a quantile-sized window costs about the tail mass it
    excludes rather than a systematic offset.
    """
    closed_cdf = np.asarray(closed_form.cdf(grid.points), dtype=float)
    span = closed_cdf[-1] - closed_cdf[0]
    if not span > 0:
        raise DomainError("closed form carries no mass on the grid window; "
                          "parameter domains do not overlap")
    closed_masses = np.diff(closed_cdf) / span
    tv = 0.5 * float(np.abs(closed_masses - grid.masses).sum())
    gap = float(np.max(np.abs(np.cumsum(closed_masses) - grid.cdf_values())))
    return {"tv_distance": min(tv, 1.0), "max_cdf_gap": min(gap, 1.0)}


def window(closed_form, tail: float = 1e-6) -> tuple[float, float]:
    """Grid window from closed-form quantiles, clipping tail mass per end."""
    return float(closed_form.quantile(tail)), float(closed_form.quantile(1.0 - tail))


def auto_grid(closed_form, spacing: str, cells: int = 100_000,
              tail: float = 1e-6) -> GridSpec:
    lo, hi = window(closed_form, tail)
    return GridSpec(lo=lo, hi=hi, cells=cells, spacing=spacing)


def mc_check(predictive, n_samples: int = 10_000, seed: int = 0) -> dict:
    """Seeded sampling summary plus a K-S statistic against predictive.cdf."""
    if n_samples < 1:
        raise UsageError("mc_check needs at least one sample")
    rng = as_generator(seed)
    draws = np.sort(np.asarray(predictive.sample(rng, size=n_samples), dtype=float))
    probs = np.asarray(predictive.cdf(draws), dtype=float)
    steps = np.arange(n_samples, dtype=float)
    ks = float(max(np.max(probs - steps / n_samples),
                   np.max((steps + 1.0) / n_samples - probs)))
    return {
        "ks_statistic": ks,
        "sample_min": float(draws[0]),
        "sample_max": float(draws[-1]),
        "sample_mean": float(draws.mean()),
    }


def grid_marginal(log_joint: Callable, outer: GridSpec,
                  inner: GridSpec) -> GridPosterior:
    """Marginal over the outer parameter of a two-parameter posterior.

    log_joint(theta, inner_points) must return the joint log density along
    the inner grid for one outer value theta.  Each slice is integrated by
    trapezoid in per-slice scaled space, then the outer direction is
    normalized exactly as in grid_posterior.
    """
    opts = outer.points()
    ipts = inner.points()
    # trapezoid weights of the inner grid: a slice's area is one dot product
    half = 0.5 * np.diff(ipts)
    weights = np.append(half, 0.0) + np.append(0.0, half)
    log_slice = np.full(opts.shape, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, theta in enumerate(opts):
            row = np.asarray(log_joint(float(theta), ipts), dtype=float)
            row = np.fmax(row, -np.inf)     # NaN to -inf, as in _normalized
            peak = np.max(row)
            if not np.isfinite(peak):
                continue
            area = float(np.exp(row - peak) @ weights)
            if area > 0:
                log_slice[i] = peak + math.log(area)
    return _normalized(opts, log_slice)


@dataclass(frozen=True)
class DiagnosticRow:
    case: str
    tv_distance: float
    max_cdf_gap: float


@dataclass(frozen=True, eq=False)
class Scenario:
    """One fixed closed-form-vs-grid comparison case."""

    name: str
    closed: object
    log_likelihood: Callable
    log_prior: Callable
    spacing: str


# One log density per family, written from the law's definition and
# vectorised over the datum x and the parameters alike.  Each support is
# closed at both ends, so a bound may sit on a datum, as it does at the
# edge of the joint inner grids.
def _pareto(x, alpha, l):
    body = np.log(alpha) + alpha * np.log(l) - (alpha + 1.0) * np.log(x)
    return np.where(x >= l, body, -np.inf)


def _shifted_exp(x, alpha, l):
    return np.where(x >= l, np.log(alpha) - alpha * (x - l), -np.inf)


def _power(x, alpha, u):
    body = np.log(alpha) + (alpha - 1.0) * np.log(x) - alpha * np.log(u)
    return np.where((x > 0) & (x <= u), body, -np.inf)


def _uniform(x, l, w):
    return np.where((x >= l) & (x <= l + w), -np.log(w), -np.inf)


_LOG_PDF = {"pareto": _pareto, "shifted_exp": _shifted_exp,
            "power": _power, "uniform": _uniform}

# The law each prior class names, over the parameter its cell varies; a
# joint cell's entry is its exponent block, and its bound block is the
# location law.  A bound's law takes the exponent alpha: the prior's own
# in a location cell, the outer grid's in a joint cell.
_PRIOR_LAW = {
    ("pareto", "location"): lambda p, alpha: Power(p.l0, alpha * p.n0),
    ("pareto", "shape"): lambda p, alpha: Gamma(p.n0, p.n0 * math.log(p.g0)),
    ("pareto", "joint"):
        lambda p, alpha: Gamma(p.n0_shape, p.n0_shape * math.log(p.g0)),
    ("shifted_exp", "location"): lambda p, alpha: LogPower(p.l0, alpha * p.n0),
    ("shifted_exp", "shape"): lambda p, alpha: Gamma(p.n0, p.n0 * (p.mu0 - p.l)),
    ("shifted_exp", "joint"): lambda p, alpha: Gamma(p.n0_rate, p.n0_rate * p.mu0),
    ("power", "location"): lambda p, alpha: Pareto(alpha * p.n0, p.u0),
    ("power", "shape"): lambda p, alpha: Gamma(p.n0, -p.n0 * math.log(p.g0)),
    ("power", "joint"):
        lambda p, alpha: Gamma(p.n0_shape, -p.n0_shape * math.log(p.g0)),
    ("uniform", "width"): lambda p, alpha: Pareto(p.n0, p.w0),
    ("uniform", "lower"): lambda p, alpha: Uniform(p.u0 - p.w, p.l0),
}


def _prior_log_pdf(law, t):
    """law.log_pdf with the support closed at its upper end: a bound's
    prior reaches the bound itself, where a joint inner grid stops."""
    top = law.support()[1]
    return law.log_pdf(np.where(t == top, np.nextafter(top, -np.inf), t))


class _Cell(NamedTuple):
    family: str
    case: str
    prior: object
    data: tuple
    param: str              # on the grid; a joint cell's is the exponent
    spacing: str
    inner: tuple = ()       # a joint cell's bound: name, spacing, reach, cells


# Fixed sample with minimum exactly 80 for the lower-bound showcase case.
_PARETO_L_DATA = (80.0, 95.0, 112.0, 86.5, 102.0, 127.0, 90.0, 84.0, 151.0,
                  98.0, 88.0, 130.0, 83.0, 93.5, 108.0, 145.0, 120.0, 99.0,
                  85.5, 105.0)

# A joint cell's inner grid runs from the posterior bound to the bound
# times reach (log spacing) or plus reach (linear spacing).
_CELLS = (
    _Cell("pareto", "location", cpar.ParetoPriorL(l0=100.0, n0=1.0, alpha=1.2),
          _PARETO_L_DATA, "l", "linear"),
    _Cell("pareto", "shape", cpar.ParetoPriorAlpha(g0=math.e, n0=1.0, l=1.0),
          (2.0, 3.0, 5.0), "alpha", "log"),
    _Cell("shifted_exp", "location", cexp.ExpPriorL(l0=0.5, n0=1.0, alpha=2.0),
          (0.7, 1.3, 0.9), "l", "linear"),
    _Cell("shifted_exp", "shape", cexp.ExpPriorAlpha(mu0=1.2, n0=2.0, l=0.2),
          (0.5, 0.8, 1.1, 0.4), "alpha", "log"),
    _Cell("power", "location", cpow.PowerPriorU(u0=1.0, n0=1.0, alpha=1.5),
          (0.4, 0.9, 1.3), "u", "log"),
    _Cell("power", "shape", cpow.PowerPriorAlpha(g0=0.5, n0=1.0, u=2.0),
          (0.3, 1.2, 0.8), "alpha", "log"),
    _Cell("uniform", "width", cuni.UniformPriorW(w0=5.0, n0=2.0, l=1.0),
          (2.5, 7.2, 4.0), "w", "log"),
    _Cell("uniform", "lower", cuni.UniformPriorL(l0=2.0, u0=8.0, w=10.0),
          (3.0, 7.0), "l", "linear"),
    _Cell("pareto", "joint",
          cpar.ParetoJointPrior(l0=1.1, n0=1.0, g0=3.0, n0_shape=1.0),
          (1.05, 1.6, 2.4, 1.3), "alpha", "log", ("l", "log", 1e-6, 8000)),
    _Cell("shifted_exp", "joint",
          cexp.ExpJointPrior(l0=0.1, n0=1.0, mu0=1.5, n0_rate=1.0),
          (0.7, 1.3, 0.9), "alpha", "log", ("l", "linear", -120.0, 12_000)),
    _Cell("power", "joint",
          cpow.PowerJointPrior(u0=1.0, n0=1.0, g0=0.4, n0_shape=1.0),
          (0.3, 1.05, 0.8), "alpha", "log", ("u", "log", 1e5, 8000)),
)


def _fit(cell: _Cell):
    return fit(ModelSpec(cell.family, cell.case, prior=cell.prior),
               suff_stats(cell.data))


def _log_likelihood(cell: _Cell, **params):
    """The family's log density summed over the cell's data."""
    log_pdf = _LOG_PDF[cell.family]
    return sum(log_pdf(x, **params) for x in cell.data)


def _scenario(cell: _Cell) -> Scenario:
    fitted = _fit(cell)
    law = _PRIOR_LAW[(cell.family, cell.case)](cell.prior,
                                               fitted.known.get("alpha"))
    return Scenario(
        f"{cell.family}_{cell.case}", fitted.posterior.distribution(),
        lambda t: _log_likelihood(cell, **fitted.known, **{cell.param: t}),
        lambda t: _prior_log_pdf(law, t), cell.spacing)


def single_parameter_scenarios() -> tuple[Scenario, ...]:
    """The eight fixed single-parameter comparison cases."""
    return tuple(_scenario(cell) for cell in _CELLS if not cell.inner)


def run_scenario(scenario: Scenario, cells: int = 100_000,
                 tail: float = 1e-6) -> DiagnosticRow:
    grid = grid_posterior(
        scenario.log_likelihood, scenario.log_prior,
        auto_grid(scenario.closed, scenario.spacing, cells=cells, tail=tail))
    answer = compare_posterior(scenario.closed, grid)
    return DiagnosticRow(scenario.name, answer["tv_distance"],
                         answer["max_cdf_gap"])


def _joint_row(cell: _Cell) -> DiagnosticRow:
    """Exponent marginal of a joint cell against an honest 2-D grid.

    The closed marginal drops an exponent-dependent factor that appears
    when the bound block is renormalized at the updated bound instead of
    the prior bound, so a visible gap here is expected behavior, not a bug.
    """
    fitted = _fit(cell)
    post = fitted.posterior
    exponent = getattr(post, "shape_posterior", None) or post.rate_posterior
    closed = exponent.distribution()
    outer = auto_grid(closed, cell.spacing, cells=1000)
    bound, spacing, reach, inner_cells = cell.inner
    cut = support(fitted).posterior_bound   # the last bound data and prior allow
    far = cut * reach if spacing == "log" else cut + reach
    inner = GridSpec(lo=min(cut, far), hi=max(cut, far), cells=inner_cells,
                     spacing=spacing)
    # the exponent's prior, evaluated once over the outer grid
    alphas = outer.points()
    exponent_law = _PRIOR_LAW[(cell.family, "joint")](cell.prior, None)
    log_exponent_prior = dict(zip(alphas, exponent_law.log_pdf(alphas)))
    bound_law = _PRIOR_LAW[(cell.family, "location")]

    def log_joint(alpha, bounds):
        return (log_exponent_prior[alpha]
                + _prior_log_pdf(bound_law(cell.prior, alpha), bounds)
                + _log_likelihood(cell, alpha=alpha, **{bound: bounds}))

    answer = compare_posterior(closed, grid_marginal(log_joint, outer, inner))
    return DiagnosticRow(f"{cell.family}_joint_shape", answer["tv_distance"],
                         answer["max_cdf_gap"])


def _uniform_joint_row(cells: int = 10_000) -> DiagnosticRow:
    """Width marginal of the uniform joint case against a 1-D grid that
    keeps the width-prior offset w0 distinct from the prior span u0 - l0.

    The closed form reuses w0 where the honest integral has u0 - l0, so
    the reported gap grows with their separation and vanishes when the two
    agree.  The location direction integrates to an interval length, which
    the grid integrand carries exactly.
    """
    prior = cuni.UniformJointPrior(w0=0.5, n0=1.0, l0=0.2, u0=0.9)
    stats = suff_stats((0.3, 0.95, 0.5))
    post = cuni.posterior_joint(prior, stats)
    w_n = post.w_n
    span0 = prior.u0 - prior.l0
    prior_cut = max(prior.w0, span0)
    n = stats.n

    def log_likelihood(w):
        return np.where(w > w_n, -n * np.log(w) + np.log(w - w_n), -np.inf)

    def log_prior(w):
        body = -(prior.n0 + 1.0) * np.log(w) - np.log(w - span0)
        return np.where(w > prior_cut, body, -np.inf)

    sigma_hi = (post.n_eff * post.c_n * 1e-6) ** (-1.0 / post.n_eff)
    grid = GridSpec(lo=w_n, hi=w_n * sigma_hi, cells=cells, spacing="log")
    marginal = grid_posterior(log_likelihood, log_prior, grid)
    answer = compare_posterior(SimpleNamespace(cdf=post.width_cdf), marginal)
    return DiagnosticRow("uniform_joint_width", answer["tv_distance"],
                         answer["max_cdf_gap"])


def diagnostic_table(cells: int = 100_000) -> list[DiagnosticRow]:
    """All twelve comparison rows.

    The eight single-parameter rows check conjugate updates that should
    agree with the grid to discretization error.  The four joint rows
    measure how far each closed joint marginal sits from the honest
    numerical marginal; they are reported, not asserted.
    """
    rows = [run_scenario(sc, cells=cells) for sc in single_parameter_scenarios()]
    rows += [_joint_row(cell) for cell in _CELLS if cell.inner]
    rows.append(_uniform_joint_row())
    return rows


def diagnostic_notes() -> list[str]:
    """Commentary for the verify report: places where two closed forms of
    the same quantity disagree, with the rejected one's value stated so
    the choice is auditable."""
    prior = cuni.UniformPriorL(l0=2.0, u0=8.0, w=10.0)
    post = cuni.posterior_location(prior, suff_stats((3.0, 7.0)))
    trap = cuni.predictive_location(post)
    l_n, u_n, w = post.high, post.low + post.width, post.width
    rejected = (l_n - u_n) / (w * (l_n - u_n + w))
    w_n = 1.0
    ev = cuni.evidence_C(2.0, 0.5, w_n)
    return [
        "note: uniform lower-bound predictive keeps the flat-segment density "
        f"1/w = {trap.height!r}; the alternative closed form "
        f"(l_n-u_n)/(w*(l_n-u_n+w)) evaluates to {rejected!r} on the embedded "
        "example and is rejected because it is negative and breaks "
        "normalization.",
        "note: uniform joint evidence constant at (n_eff=2, w0=0.5, w_n=1): "
        f"positive-term series {ev.value!r}; the printed incomplete-beta form "
        f"equals -w_n times it, {-w_n * ev.value!r} (sign-inconsistent; the "
        "series is authoritative).",
    ]
