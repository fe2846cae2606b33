"""Closed-form distributions with densities, CDFs, quantiles and samplers.

Every distribution is a frozen dataclass exposing the same small surface:
``log_pdf``, ``pdf``, ``cdf``, ``quantile``, ``sample`` and ``support``.
A subclass supplies ``support`` and its array math only: ``_log_pdf``,
``_cdf`` and the inverse CDF ``_inv``, each taking and returning a float
array.  ``Distribution`` writes the public evaluators once: they accept
scalars or numpy arrays, evaluate a scalar as a one-point array, so that
it gets the same bits as the same point inside an array, and return a
float for a scalar.  Densities are computed in log space and
exponentiated at the boundary of the call, through ``_pdf``; a law whose
density is primary overrides ``_pdf`` and takes its log for ``_log_pdf``.

Support intervals are closed on the left and open on the right: the pdf at
an exact finite left endpoint returns its limiting value, the pdf at the
right endpoint returns 0.  Samplers draw through the inverse CDF from an
explicit ``numpy.random.Generator`` (or an integer seed) and never touch
global RNG state.

``Gamma`` uses the shape/rate parameterization (density proportional to
``x**(shape-1) * exp(-rate*x)``) everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedMappingError, require_finite

__all__ = [
    "XI_ZERO_TOL",
    "Distribution",
    "GPParams",
    "Pareto",
    "Lomax",
    "ShiftedExp",
    "Power",
    "LogPower",
    "Uniform",
    "Gamma",
    "GPMapping",
    "to_gp",
    "inverted_pareto",
]

# Below this magnitude the tail index is treated as exactly zero (the
# exponential branch); keeps the xi -> 0 limit continuous in float math.
XI_ZERO_TOL = 1e-12


def as_generator(rng) -> np.random.Generator:
    """Accept an integer seed or a Generator; return a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _uniforms(rng, size):
    u = as_generator(rng).random(size)
    # keep u strictly positive so inverse CDFs stay finite
    return np.maximum(u, 1e-300)


def _points(x):
    """x as a float array of at least one dimension: a scalar is a
    one-point array."""
    xa = np.asarray(x, dtype=float)
    return xa.reshape(1) if xa.ndim == 0 else xa


def _ret(x, out):
    """The float array out, or its one value when x was a scalar."""
    return out.item() if np.ndim(x) == 0 else out


def _check_prob(p):
    """p as _points gives it; DomainError unless every entry lies strictly
    inside (0, 1).  NaN propagates through min and max, so it is refused."""
    p = _points(p)
    if p.size and not (0.0 < p.min() and p.max() < 1.0):
        raise DomainError("probability must lie strictly inside (0, 1)")
    return p


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


class Distribution:
    """Evaluation surface shared by every law here, in ``predictives`` and
    in ``conjugate_uniform``.

    A subclass supplies ``support`` and the array methods ``_log_pdf``,
    ``_cdf`` and the inverse CDF ``_inv``, and ``_pdf`` where its density
    is primary; the public evaluators convert their input once, through
    ``_points`` or ``_check_prob``, and give a float back for a scalar.
    """

    def log_pdf(self, x):
        return _ret(x, self._log_pdf(_points(x)))

    def pdf(self, x):
        return _ret(x, self._pdf(_points(x)))

    def _pdf(self, xa):
        return np.exp(self._log_pdf(xa))

    def cdf(self, x):
        return _ret(x, self._cdf(_points(x)))

    def quantile(self, p):
        return _ret(p, self._inv(_check_prob(p)))

    def sample(self, rng, size=None):
        out = self._inv(_uniforms(rng, 1 if size is None else size))
        return out.item() if size is None else out


@dataclass(frozen=True)
class GPParams(Distribution):
    """Generalized Pareto with location theta, scale sigma, tail index xi.

    Support is [theta, inf) for xi >= 0 and [theta, theta - sigma/xi) for
    xi < 0.  The xi = 0 branch is the shifted exponential.
    """

    theta: float
    sigma: float
    xi: float

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.sigma > 0, "sigma must be positive")

    def support(self) -> tuple[float, float]:
        if self.xi < -XI_ZERO_TOL:
            return (self.theta, self.theta - self.sigma / self.xi)
        return (self.theta, math.inf)

    def _log_pdf(self, xa):
        z = (xa - self.theta) / self.sigma
        if abs(self.xi) < XI_ZERO_TOL:
            return np.where(z >= 0, -z - math.log(self.sigma), -np.inf)
        t = 1.0 + self.xi * z
        with np.errstate(divide="ignore", invalid="ignore"):
            # log1p keeps the xi -> 0 region free of cancellation
            body = -math.log(self.sigma) - (1.0 / self.xi + 1.0) * np.log1p(
                np.where(t > 0, self.xi * z, 0.0)
            )
        return np.where((z >= 0) & (t > 0), body, -np.inf)

    def _cdf(self, xa):
        z = (xa - self.theta) / self.sigma
        if abs(self.xi) < XI_ZERO_TOL:
            return np.where(z >= 0, -np.expm1(-np.maximum(z, 0.0)), 0.0)
        # z held to 0 below the support, which reads 0 anyway: there the
        # tail would overflow
        xz = self.xi * np.maximum(z, 0.0)
        t = np.maximum(1.0 + xz, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # beyond the finite upper endpoint of xi < 0 the tail is 0, so
            # the CDF saturates at 1
            tail = np.where(
                t > 0,
                np.exp(-np.log1p(np.where(t > 0, xz, 0.0)) / self.xi),
                0.0 if self.xi < 0 else 1.0,
            )
        return np.where(z >= 0, 1.0 - tail, 0.0)

    def _inv(self, p):
        if abs(self.xi) < XI_ZERO_TOL:
            return self.theta - self.sigma * np.log1p(-p)
        z = np.expm1(-self.xi * np.log1p(-p)) / self.xi
        return self.theta + self.sigma * z


@dataclass(frozen=True)
class Pareto(Distribution):
    """Density alpha * l**alpha / x**(alpha+1) on x > l."""

    alpha: float
    l: float

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.alpha > 0, "alpha must be positive")
        _require(self.l > 0, "lower bound l must be positive")

    def support(self) -> tuple[float, float]:
        return (self.l, math.inf)

    def _log_pdf(self, xa):
        # fmax lifts x (NaN included) to l, where its log is finite; the
        # points it lifts lie below the support and read -inf
        body = (
            math.log(self.alpha)
            + self.alpha * math.log(self.l)
            - (self.alpha + 1.0) * np.log(np.fmax(xa, self.l))
        )
        return np.where(xa >= self.l, body, -np.inf)

    def _cdf(self, xa):
        # the ratio is 1 below l, so the cdf is exactly 0 there
        ratio = np.divide(self.l, xa, out=np.ones(xa.shape), where=xa >= self.l)
        return 1.0 - ratio**self.alpha

    def _inv(self, p):
        return self.l * (1.0 - p) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class Lomax(Distribution):
    """Pareto shifted to start at zero: alpha * l**alpha / (x+l)**(alpha+1)."""

    alpha: float
    l: float

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.alpha > 0, "alpha must be positive")
        _require(self.l > 0, "scale l must be positive")

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def _log_pdf(self, xa):
        body = (
            math.log(self.alpha)
            + self.alpha * math.log(self.l)
            - (self.alpha + 1.0) * np.log(np.abs(xa) + self.l)
        )
        return np.where(xa >= 0, body, -np.inf)

    def _cdf(self, xa):
        return np.where(xa >= 0, 1.0 - (self.l / (np.abs(xa) + self.l)) ** self.alpha, 0.0)

    def _inv(self, p):
        return self.l * ((1.0 - p) ** (-1.0 / self.alpha) - 1.0)


@dataclass(frozen=True)
class ShiftedExp(Distribution):
    """Exponential with rate alpha started at l: alpha * exp(-alpha*(x-l))."""

    alpha: float
    l: float

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.alpha > 0, "alpha must be positive")

    def support(self) -> tuple[float, float]:
        return (self.l, math.inf)

    def _log_pdf(self, xa):
        body = math.log(self.alpha) - self.alpha * (xa - self.l)
        return np.where(xa >= self.l, body, -np.inf)

    def _cdf(self, xa):
        return np.where(xa >= self.l, -np.expm1(-self.alpha * np.maximum(xa - self.l, 0.0)), 0.0)

    def _inv(self, p):
        return self.l - np.log1p(-p) / self.alpha


@dataclass(frozen=True)
class Power(Distribution):
    """Density b * x**(b-1) / a**b on 0 < x < a (upper bound a)."""

    a: float
    b: float

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.a > 0, "upper bound a must be positive")
        _require(self.b > 0, "exponent b must be positive")

    def support(self) -> tuple[float, float]:
        return (0.0, self.a)

    def _log_pdf(self, xa):
        log_x = 0.0   # b - 1 = 0 leaves no x term (nor 0 * log 0)
        if self.b != 1.0:
            # x held to [0, a], so log x is finite but at 0, where -inf
            # times b - 1 is the density's own limit, -inf or +inf
            with np.errstate(divide="ignore"):
                log_x = np.log(xa.clip(0.0, self.a))
        body = (
            math.log(self.b)
            + (self.b - 1.0) * log_x
            - self.b * math.log(self.a)
        )
        return np.where((xa >= 0.0) & (xa < self.a), body, -np.inf)

    def _cdf(self, xa):
        return (xa / self.a).clip(0.0, 1.0) ** self.b

    def _inv(self, p):
        return self.a * p ** (1.0 / self.b)


@dataclass(frozen=True)
class LogPower(Distribution):
    """Density b * exp(b*(x-a)) on x < a; the log of a Power variate."""

    a: float
    b: float

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.b > 0, "rate b must be positive")

    def support(self) -> tuple[float, float]:
        return (-math.inf, self.a)

    def _log_pdf(self, xa):
        body = math.log(self.b) + self.b * (xa - self.a)
        return np.where(xa < self.a, body, -np.inf)

    def _cdf(self, xa):
        out = np.exp(self.b * np.minimum(xa - self.a, 0.0))
        return np.where(xa >= self.a, 1.0, out)

    def _inv(self, p):
        return self.a + np.log(p) / self.b


@dataclass(frozen=True)
class Uniform(Distribution):
    """Flat density 1/(u-l) on [l, u)."""

    l: float
    u: float

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.u > self.l, "need l < u")

    def support(self) -> tuple[float, float]:
        return (self.l, self.u)

    def _log_pdf(self, xa):
        body = -math.log(self.u - self.l)
        return np.where((xa >= self.l) & (xa < self.u), body, -np.inf)

    def _cdf(self, xa):
        return ((xa - self.l) / (self.u - self.l)).clip(0.0, 1.0)

    def _inv(self, p):
        return self.l + (self.u - self.l) * p


@dataclass(frozen=True)
class Gamma(Distribution):
    """Gamma in shape/rate form: density ~ x**(shape-1) * exp(-rate*x).

    scipy is imported inside the methods that need it, so that importing
    this package, and starting the CLI, does not pay for loading it.
    """

    shape: float
    rate: float

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.shape > 0, "shape must be positive")
        _require(self.rate > 0, "rate must be positive")

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def _log_pdf(self, xa):
        from scipy import special

        with np.errstate(divide="ignore", invalid="ignore"):
            body = (
                self.shape * math.log(self.rate)
                + (self.shape - 1.0) * np.log(np.where(xa > 0, xa, 1.0))
                - self.rate * xa
                - special.gammaln(self.shape)
            )
            at_zero = (
                -np.inf
                if self.shape > 1.0
                else (math.log(self.rate) if self.shape == 1.0 else np.inf)
            )
        out = np.where(xa > 0, body, -np.inf)
        return np.where(xa == 0.0, at_zero, out)

    def _cdf(self, xa):
        from scipy import special

        return special.gammainc(self.shape, self.rate * np.maximum(xa, 0.0))

    def _inv(self, p):
        from scipy import special

        return special.gammaincinv(self.shape, p) / self.rate

    def mean(self) -> float:
        return self.shape / self.rate


def inverted_pareto(alpha: float, l: float) -> Power:
    """Law of 1/X for X Pareto(alpha, l); identical to Power(1/l, alpha)."""
    _require(alpha > 0, "alpha must be positive")
    _require(l > 0, "lower bound l must be positive")
    return Power(1.0 / l, alpha)


@dataclass(frozen=True)
class GPMapping:
    """Result of mapping a subclass law onto generalized Pareto form.

    ``transform`` sends the subclass variable onto the GP-distributed one;
    orientation records which transform that is: "identity" (x), "negated"
    (-x) or "reciprocal" (-1/x, used for the reciprocal of a Pareto
    variate, whose image lives on a negative interval).
    """

    gp: GPParams
    orientation: str

    def transform(self, x):
        xa = _points(x)
        if self.orientation == "identity":
            out = xa
        elif self.orientation == "negated":
            out = -xa
        else:
            out = -1.0 / xa
        return _ret(x, out)

    def jacobian(self, x):
        """|d transform / dx|, for change-of-variables checks."""
        xa = _points(x)
        if self.orientation == "reciprocal":
            out = 1.0 / xa**2
        else:
            out = np.ones_like(xa)
        return _ret(x, out)


def to_gp(dist, *, inverted: bool = False) -> GPMapping:
    """Map a subclass law onto its generalized Pareto parameters.

    With ``inverted=True`` a Pareto input is mapped through its reciprocal
    representation instead of the direct one: the transformed variable
    -1/x follows the returned GP law on [-1/l, 0).
    """
    if inverted:
        if not isinstance(dist, Pareto):
            raise UnsupportedMappingError(
                "the reciprocal route applies to Pareto inputs only"
            )
        a, l = dist.alpha, dist.l
        return GPMapping(GPParams(-1.0 / l, 1.0 / (l * a), -1.0 / a), "reciprocal")
    if isinstance(dist, Pareto):
        return GPMapping(
            GPParams(dist.l, dist.l / dist.alpha, 1.0 / dist.alpha), "identity"
        )
    if isinstance(dist, Lomax):
        return GPMapping(
            GPParams(0.0, dist.l / dist.alpha, 1.0 / dist.alpha), "identity"
        )
    if isinstance(dist, ShiftedExp):
        return GPMapping(GPParams(dist.l, 1.0 / dist.alpha, 0.0), "identity")
    if isinstance(dist, Power):
        return GPMapping(
            GPParams(-dist.a, dist.a / dist.b, -1.0 / dist.b), "negated"
        )
    if isinstance(dist, Uniform):
        return GPMapping(GPParams(dist.l, dist.u - dist.l, -1.0), "identity")
    raise UnsupportedMappingError(
        f"{type(dist).__name__} has no generalized Pareto form"
    )
