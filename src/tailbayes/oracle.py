"""Independent numerical cross-checks for the closed-form posteriors.

Dense-grid quadrature (prior times likelihood, trapezoid masses) and seeded
Monte Carlo summaries give reference answers that never reuse the conjugate
update algebra.  The embedded scenarios double as the data source for the
command-line ``verify`` report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import conjugate_exponential
from . import conjugate_pareto
from . import conjugate_power
from . import conjugate_uniform
from .distributions import as_generator
from .errors import CoverageError, DomainError, UsageError
from .sufficient import suff_stats

try:
    _trapezoid = np.trapezoid
except AttributeError:
    _trapezoid = np.trapz


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
    # inf - inf from disjoint cutoffs means zero density, not undefined
    logp = np.where(np.isnan(logp), -np.inf, logp)
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
    log_slice = np.full(opts.shape, -np.inf)
    for i, theta in enumerate(opts):
        with np.errstate(divide="ignore", invalid="ignore"):
            row = np.asarray(log_joint(float(theta), ipts), dtype=float)
        row = np.where(np.isnan(row), -np.inf, row)
        peak = np.max(row)
        if not np.isfinite(peak):
            continue
        area = _trapezoid(np.exp(row - peak), ipts)
        if area > 0:
            log_slice[i] = peak + math.log(area)
    peak = np.max(log_slice)
    if not np.isfinite(peak):
        raise CoverageError("joint posterior mass is zero everywhere on the grid")
    dens = np.exp(log_slice - peak)
    masses = 0.5 * (dens[1:] + dens[:-1]) * np.diff(opts)
    total = masses.sum()
    if total <= 0:
        raise CoverageError("joint posterior mass is zero everywhere on the grid")
    return GridPosterior(points=opts, masses=masses / total)


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


# Fixed sample with minimum exactly 80 for the lower-bound showcase case.
_PARETO_L_DATA = (80.0, 95.0, 112.0, 86.5, 102.0, 127.0, 90.0, 84.0, 151.0,
                  98.0, 88.0, 130.0, 83.0, 93.5, 108.0, 145.0, 120.0, 99.0,
                  85.5, 105.0)


def _pareto_location() -> Scenario:
    alpha, l0, n0 = 1.2, 100.0, 1.0
    stats = suff_stats(_PARETO_L_DATA)
    prior = conjugate_pareto.ParetoPriorL(l0=l0, n0=n0, alpha=alpha)
    post = conjugate_pareto.posterior_l(prior, stats)
    lik_slope = stats.n * alpha
    prior_slope = alpha * n0 - 1.0
    lo_cut = stats.min

    def log_likelihood(l):
        return np.where(l <= lo_cut, lik_slope * np.log(l), -np.inf)

    def log_prior(l):
        return np.where(l <= l0, prior_slope * np.log(l), -np.inf)

    return Scenario("pareto_location", post.distribution(),
                    log_likelihood, log_prior, "linear")


def _pareto_shape() -> Scenario:
    l, g0, n0 = 1.0, math.e, 1.0
    data = (2.0, 3.0, 5.0)
    stats = suff_stats(data)
    prior = conjugate_pareto.ParetoPriorAlpha(g0=g0, n0=n0, l=l)
    post = conjugate_pareto.posterior_alpha(prior, stats)
    rel_sum = stats.sum_log - stats.n * math.log(l)
    n = stats.n

    def log_likelihood(a):
        return n * np.log(a) - (a + 1.0) * rel_sum

    def log_prior(a):
        return (n0 - 1.0) * np.log(a) - n0 * math.log(g0) * a

    return Scenario("pareto_shape", post.distribution(),
                    log_likelihood, log_prior, "log")


def _shifted_exp_location() -> Scenario:
    alpha, l0, n0 = 2.0, 0.5, 1.0
    data = (0.7, 1.3, 0.9)
    stats = suff_stats(data)
    prior = conjugate_exponential.ExpPriorL(l0=l0, n0=n0, alpha=alpha)
    post = conjugate_exponential.posterior_l(prior, stats)
    lik_slope = stats.n * alpha
    prior_slope = alpha * n0
    lo_cut = stats.min

    def log_likelihood(l):
        return np.where(l <= lo_cut, lik_slope * l, -np.inf)

    def log_prior(l):
        return np.where(l <= l0, prior_slope * l, -np.inf)

    return Scenario("shifted_exp_location", post.distribution(),
                    log_likelihood, log_prior, "linear")


def _shifted_exp_shape() -> Scenario:
    l, mu0, n0 = 0.2, 1.2, 2.0
    data = (0.5, 0.8, 1.1, 0.4)
    stats = suff_stats(data)
    prior = conjugate_exponential.ExpPriorAlpha(mu0=mu0, n0=n0, l=l)
    post = conjugate_exponential.posterior_alpha(prior, stats)
    excess_sum = stats.sum - stats.n * l
    n = stats.n

    def log_likelihood(a):
        return n * np.log(a) - a * excess_sum

    def log_prior(a):
        return (n0 - 1.0) * np.log(a) - a * n0 * (mu0 - l)

    return Scenario("shifted_exp_shape", post.distribution(),
                    log_likelihood, log_prior, "log")


def _power_location() -> Scenario:
    alpha, u0, n0 = 1.5, 1.0, 1.0
    data = (0.4, 0.9, 1.3)
    stats = suff_stats(data)
    prior = conjugate_power.PowerPriorU(u0=u0, n0=n0, alpha=alpha)
    post = conjugate_power.posterior_u(prior, stats)
    lik_slope = stats.n * alpha
    prior_slope = alpha * n0 + 1.0
    hi_cut = stats.max

    def log_likelihood(u):
        return np.where(u >= hi_cut, -lik_slope * np.log(u), -np.inf)

    def log_prior(u):
        return np.where(u >= u0, -prior_slope * np.log(u), -np.inf)

    return Scenario("power_location", post.distribution(),
                    log_likelihood, log_prior, "log")


def _power_shape() -> Scenario:
    u, g0, n0 = 2.0, 0.5, 1.0
    data = (0.3, 1.2, 0.8)
    stats = suff_stats(data)
    prior = conjugate_power.PowerPriorAlpha(g0=g0, n0=n0, u=u)
    post = conjugate_power.posterior_alpha(prior, stats)
    rel_sum = stats.n * math.log(u) - stats.sum_log
    n = stats.n

    def log_likelihood(a):
        return n * np.log(a) - a * rel_sum

    def log_prior(a):
        return (n0 - 1.0) * np.log(a) + a * n0 * math.log(g0)

    return Scenario("power_shape", post.distribution(),
                    log_likelihood, log_prior, "log")


def _uniform_width() -> Scenario:
    l, w0, n0 = 1.0, 5.0, 2.0
    data = (2.5, 7.2, 4.0)
    stats = suff_stats(data)
    prior = conjugate_uniform.UniformPriorW(w0=w0, n0=n0, l=l)
    post = conjugate_uniform.posterior_w(prior, stats)
    lo_cut = stats.max - l
    n = stats.n

    def log_likelihood(w):
        return np.where(w >= lo_cut, -n * np.log(w), -np.inf)

    def log_prior(w):
        return np.where(w >= w0, -(n0 + 1.0) * np.log(w), -np.inf)

    return Scenario("uniform_width", post.distribution(),
                    log_likelihood, log_prior, "log")


def _uniform_lower() -> Scenario:
    l0, u0, w = 2.0, 8.0, 10.0
    data = (3.0, 7.0)
    stats = suff_stats(data)
    prior = conjugate_uniform.UniformPriorL(l0=l0, u0=u0, w=w)
    post = conjugate_uniform.posterior_location(prior, stats)
    lo_cut = stats.max - w
    hi_cut = stats.min

    def log_likelihood(l):
        return np.where((l >= lo_cut) & (l <= hi_cut), 0.0, -np.inf)

    def log_prior(l):
        return np.where((l >= u0 - w) & (l <= l0), 0.0, -np.inf)

    return Scenario("uniform_lower", post.distribution(),
                    log_likelihood, log_prior, "linear")


def single_parameter_scenarios() -> tuple[Scenario, ...]:
    """The eight fixed single-parameter comparison cases."""
    return (
        _pareto_location(),
        _pareto_shape(),
        _shifted_exp_location(),
        _shifted_exp_shape(),
        _power_location(),
        _power_shape(),
        _uniform_width(),
        _uniform_lower(),
    )


def run_scenario(scenario: Scenario, cells: int = 100_000,
                 tail: float = 1e-6) -> DiagnosticRow:
    grid = grid_posterior(
        scenario.log_likelihood, scenario.log_prior,
        auto_grid(scenario.closed, scenario.spacing, cells=cells, tail=tail))
    answer = compare_posterior(scenario.closed, grid)
    return DiagnosticRow(scenario.name, answer["tv_distance"],
                         answer["max_cdf_gap"])


def _pareto_joint_row(outer_cells: int = 1000,
                      inner_cells: int = 8000) -> DiagnosticRow:
    """Shape marginal of the pareto joint case against an honest 2-D grid.

    The closed marginal drops a shape-dependent factor that appears when
    the bound block is renormalized at the updated bound instead of the
    prior bound, so a visible gap here is expected behavior, not a bug.
    """
    l0, n0, g0, n0_shape = 1.1, 1.0, 3.0, 1.0
    data = (1.05, 1.6, 2.4, 1.3)
    stats = suff_stats(data)
    prior = conjugate_pareto.ParetoJointPrior(l0=l0, n0=n0, g0=g0,
                                              n0_shape=n0_shape)
    post = conjugate_pareto.posterior_joint(prior, stats)
    closed = post.shape_posterior.distribution()
    sum_log = stats.sum_log
    n = stats.n
    log_g0 = math.log(g0)
    cut = min(l0, stats.min)

    def log_joint(alpha, ls):
        prior_shape = (n0_shape - 1.0) * math.log(alpha) - n0_shape * log_g0 * alpha
        bound = (math.log(alpha * n0) + (alpha * n0 - 1.0) * np.log(ls)
                 - alpha * n0 * math.log(l0))
        lik = (n * math.log(alpha) + n * alpha * np.log(ls)
               - (alpha + 1.0) * sum_log)
        return np.where(ls <= cut, prior_shape + bound + lik, -np.inf)

    outer = auto_grid(closed, "log", cells=outer_cells)
    inner = GridSpec(lo=cut * 1e-6, hi=cut, cells=inner_cells, spacing="log")
    answer = compare_posterior(closed, grid_marginal(log_joint, outer, inner))
    return DiagnosticRow("pareto_joint_shape", answer["tv_distance"],
                         answer["max_cdf_gap"])


def _shifted_exp_joint_row(outer_cells: int = 1000,
                           inner_cells: int = 12_000) -> DiagnosticRow:
    """Rate marginal of the shifted-exponential joint case vs a 2-D grid.

    Same caveat as the pareto joint row: the onset-block normalizer is
    rate-dependent and the closed marginal ignores the l0-to-l_n move.
    """
    l0, n0, mu0, n0_rate = 0.1, 1.0, 1.5, 1.0
    data = (0.7, 1.3, 0.9)
    stats = suff_stats(data)
    prior = conjugate_exponential.ExpJointPrior(l0=l0, n0=n0, mu0=mu0,
                                                n0_rate=n0_rate)
    post = conjugate_exponential.posterior_joint(prior, stats)
    closed = post.rate_posterior.distribution()
    total = stats.sum
    n = stats.n
    cut = min(l0, stats.min)

    def log_joint(alpha, ls):
        prior_rate = (n0_rate - 1.0) * math.log(alpha) - n0_rate * mu0 * alpha
        onset = math.log(alpha * n0) + alpha * n0 * (ls - l0)
        lik = n * math.log(alpha) - alpha * (total - n * ls)
        return np.where(ls <= cut, prior_rate + onset + lik, -np.inf)

    outer = auto_grid(closed, "log", cells=outer_cells)
    inner = GridSpec(lo=cut - 120.0, hi=cut, cells=inner_cells, spacing="linear")
    answer = compare_posterior(closed, grid_marginal(log_joint, outer, inner))
    return DiagnosticRow("shifted_exp_joint_shape", answer["tv_distance"],
                         answer["max_cdf_gap"])


def _power_joint_row(outer_cells: int = 1000,
                     inner_cells: int = 8000) -> DiagnosticRow:
    """Shape marginal of the power joint case vs a 2-D grid."""
    u0, n0, g0, n0_shape = 1.0, 1.0, 0.4, 1.0
    data = (0.3, 1.05, 0.8)
    stats = suff_stats(data)
    prior = conjugate_power.PowerJointPrior(u0=u0, n0=n0, g0=g0,
                                            n0_shape=n0_shape)
    post = conjugate_power.posterior_joint(prior, stats)
    closed = post.shape_posterior.distribution()
    sum_log = stats.sum_log
    n = stats.n
    log_g0 = math.log(g0)
    cut = max(u0, stats.max)

    def log_joint(alpha, us):
        prior_shape = (n0_shape - 1.0) * math.log(alpha) + n0_shape * log_g0 * alpha
        bound = (math.log(alpha * n0) + alpha * n0 * math.log(u0)
                 - (alpha * n0 + 1.0) * np.log(us))
        lik = (n * math.log(alpha) + (alpha - 1.0) * sum_log
               - n * alpha * np.log(us))
        return np.where(us >= cut, prior_shape + bound + lik, -np.inf)

    outer = auto_grid(closed, "log", cells=outer_cells)
    inner = GridSpec(lo=cut, hi=cut * 1e5, cells=inner_cells, spacing="log")
    answer = compare_posterior(closed, grid_marginal(log_joint, outer, inner))
    return DiagnosticRow("power_joint_shape", answer["tv_distance"],
                         answer["max_cdf_gap"])


class _WidthMarginal:
    """cdf adapter so compare_posterior can consume the width marginal."""

    def __init__(self, post):
        self._post = post

    def cdf(self, w):
        return self._post.width_cdf(w)


def _uniform_joint_row(cells: int = 10_000) -> DiagnosticRow:
    """Width marginal of the uniform joint case against a 1-D grid that
    keeps the width-prior offset w0 distinct from the prior span u0 - l0.

    The closed form reuses w0 where the honest integral has u0 - l0, so
    the reported gap grows with their separation and vanishes when the two
    agree.  The location direction integrates to an interval length, which
    the grid integrand carries exactly.
    """
    prior = conjugate_uniform.UniformJointPrior(w0=0.5, n0=1.0, l0=0.2, u0=0.9)
    data = (0.3, 0.95, 0.5)
    stats = suff_stats(data)
    post = conjugate_uniform.posterior_joint(prior, stats)
    w_n = post.w_n
    span0 = prior.u0 - prior.l0
    prior_cut = max(prior.w0, span0)
    n = stats.n

    def log_likelihood(w):
        with np.errstate(divide="ignore", invalid="ignore"):
            body = -n * np.log(w) + np.log(w - w_n)
        return np.where(w > w_n, body, -np.inf)

    def log_prior(w):
        with np.errstate(divide="ignore", invalid="ignore"):
            body = -(prior.n0 + 1.0) * np.log(w) - np.log(w - span0)
        return np.where(w > prior_cut, body, -np.inf)

    sigma_hi = (post.n_eff * post.c_n * 1e-6) ** (-1.0 / post.n_eff)
    grid = GridSpec(lo=w_n, hi=w_n * sigma_hi, cells=cells, spacing="log")
    marginal = grid_posterior(log_likelihood, log_prior, grid)
    answer = compare_posterior(_WidthMarginal(post), marginal)
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
    rows.append(_pareto_joint_row())
    rows.append(_shifted_exp_joint_row())
    rows.append(_power_joint_row())
    rows.append(_uniform_joint_row())
    return rows


def diagnostic_notes() -> list[str]:
    """Commentary for the verify report: places where two closed forms of
    the same quantity disagree, with the rejected one's value stated so
    the choice is auditable."""
    prior = conjugate_uniform.UniformPriorL(l0=2.0, u0=8.0, w=10.0)
    post = conjugate_uniform.posterior_location(prior, suff_stats((3.0, 7.0)))
    trap = conjugate_uniform.predictive_location(post)
    l_n, u_n, w = post.high, post.low + post.width, post.width
    rejected = (l_n - u_n) / (w * (l_n - u_n + w))
    w_n = 1.0
    ev = conjugate_uniform.evidence_C(2.0, 0.5, w_n)
    return [
        "note: uniform lower-bound predictive keeps the flat-segment density "
        f"1/w = {trap.height!r}; the alternative closed form "
        f"(l_n-u_n)/(w*(l_n-u_n+w)) evaluates to {rejected!r} on the embedded "
        "example and is rejected because it is negative and breaks "
        "normalization.",
        "note: uniform joint evidence constant at (n_eff=2, w0=0.5, w_n=1): "
        f"quadrature {ev.value!r}; the printed incomplete-beta form equals "
        f"-w_n times it, {-w_n * ev.value!r} (sign-inconsistent; quadrature "
        "is authoritative).",
    ]
