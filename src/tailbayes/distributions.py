"""Closed-form distributions with densities, CDFs, quantiles and samplers.

Every distribution is a frozen dataclass exposing the same small surface:
``log_pdf``, ``pdf``, ``cdf``, ``quantile``, ``sample`` and ``support``,
with ``pdf``, ``quantile`` and ``sample`` written once in ``Distribution``.
All evaluators accept scalars or numpy arrays.  Densities are computed in
log space and exponentiated at the boundary of the call.

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

from .errors import DomainError, UnsupportedMappingError

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


def _ret(x, out):
    out = np.asarray(out, dtype=float)
    return out.item() if np.ndim(x) == 0 else out


def _check_prob(p):
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise DomainError("probability must lie strictly inside (0, 1)")
    return p


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


class Distribution:
    """Evaluation surface shared by every law here and in ``predictives``.

    A subclass supplies ``log_pdf``, ``cdf``, ``support`` and the inverse
    CDF ``_inv``; the density, quantile and sampler follow from them.
    """

    def pdf(self, x):
        return _ret(x, np.exp(self.log_pdf(x)))

    def quantile(self, p):
        return _ret(p, self._inv(_check_prob(p)))

    def sample(self, rng, size=None):
        u = _uniforms(rng, size)
        return _ret(u if size is not None else 0.0, self._inv(u))


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
        _require(self.sigma > 0, "sigma must be positive")

    def support(self) -> tuple[float, float]:
        if self.xi < -XI_ZERO_TOL:
            return (self.theta, self.theta - self.sigma / self.xi)
        return (self.theta, math.inf)

    def log_pdf(self, x):
        xa = np.asarray(x, dtype=float)
        z = (xa - self.theta) / self.sigma
        if abs(self.xi) < XI_ZERO_TOL:
            out = np.where(z >= 0, -z - math.log(self.sigma), -np.inf)
            return _ret(x, out)
        t = 1.0 + self.xi * z
        with np.errstate(divide="ignore", invalid="ignore"):
            # log1p keeps the xi -> 0 region free of cancellation
            body = -math.log(self.sigma) - (1.0 / self.xi + 1.0) * np.log1p(
                np.where(t > 0, self.xi * z, 0.0)
            )
        out = np.where((z >= 0) & (t > 0), body, -np.inf)
        return _ret(x, out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        z = (xa - self.theta) / self.sigma
        if abs(self.xi) < XI_ZERO_TOL:
            out = np.where(z >= 0, -np.expm1(-np.maximum(z, 0.0)), 0.0)
            return _ret(x, out)
        t = np.maximum(1.0 + self.xi * z, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(
                t > 0,
                np.exp(-np.log1p(np.where(t > 0, self.xi * z, 0.0)) / self.xi),
                0.0 if self.xi < 0 else 1.0,
            )
        if self.xi < 0:
            # beyond the finite upper endpoint the CDF saturates at 1
            tail = np.where(t > 0, tail, 0.0)
        out = np.where(z >= 0, 1.0 - tail, 0.0)
        return _ret(x, out)

    def _inv(self, p):
        p = np.asarray(p, dtype=float)
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
        _require(self.alpha > 0, "alpha must be positive")
        _require(self.l > 0, "lower bound l must be positive")

    def support(self) -> tuple[float, float]:
        return (self.l, math.inf)

    def log_pdf(self, x):
        xa = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = (
                math.log(self.alpha)
                + self.alpha * math.log(self.l)
                - (self.alpha + 1.0) * np.log(np.where(xa > 0, xa, 1.0))
            )
        out = np.where(xa >= self.l, body, -np.inf)
        return _ret(x, out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        ratio = np.where(xa >= self.l, self.l / np.where(xa > 0, xa, 1.0), 1.0)
        out = 1.0 - ratio**self.alpha
        return _ret(x, np.where(xa >= self.l, out, 0.0))

    def _inv(self, p):
        return self.l * (1.0 - np.asarray(p, dtype=float)) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class Lomax(Distribution):
    """Pareto shifted to start at zero: alpha * l**alpha / (x+l)**(alpha+1)."""

    alpha: float
    l: float

    def __post_init__(self):
        _require(self.alpha > 0, "alpha must be positive")
        _require(self.l > 0, "scale l must be positive")

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def log_pdf(self, x):
        xa = np.asarray(x, dtype=float)
        body = (
            math.log(self.alpha)
            + self.alpha * math.log(self.l)
            - (self.alpha + 1.0) * np.log(np.abs(xa) + self.l)
        )
        out = np.where(xa >= 0, body, -np.inf)
        return _ret(x, out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.where(xa >= 0, 1.0 - (self.l / (np.abs(xa) + self.l)) ** self.alpha, 0.0)
        return _ret(x, out)

    def _inv(self, p):
        return self.l * ((1.0 - np.asarray(p, dtype=float)) ** (-1.0 / self.alpha) - 1.0)


@dataclass(frozen=True)
class ShiftedExp(Distribution):
    """Exponential with rate alpha started at l: alpha * exp(-alpha*(x-l))."""

    alpha: float
    l: float

    def __post_init__(self):
        _require(self.alpha > 0, "alpha must be positive")

    def support(self) -> tuple[float, float]:
        return (self.l, math.inf)

    def log_pdf(self, x):
        xa = np.asarray(x, dtype=float)
        body = math.log(self.alpha) - self.alpha * (xa - self.l)
        out = np.where(xa >= self.l, body, -np.inf)
        return _ret(x, out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.where(xa >= self.l, -np.expm1(-self.alpha * np.maximum(xa - self.l, 0.0)), 0.0)
        return _ret(x, out)

    def _inv(self, p):
        return self.l - np.log1p(-np.asarray(p, dtype=float)) / self.alpha


@dataclass(frozen=True)
class Power(Distribution):
    """Density b * x**(b-1) / a**b on 0 < x < a (upper bound a)."""

    a: float
    b: float

    def __post_init__(self):
        _require(self.a > 0, "upper bound a must be positive")
        _require(self.b > 0, "exponent b must be positive")

    def support(self) -> tuple[float, float]:
        return (0.0, self.a)

    def log_pdf(self, x):
        xa = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = (
                math.log(self.b)
                + (self.b - 1.0) * np.log(np.where(xa > 0, xa, 1.0))
                - self.b * math.log(self.a)
            )
        if self.b > 1.0:
            at_zero = -np.inf
        elif self.b == 1.0:
            at_zero = -math.log(self.a)
        else:
            at_zero = np.inf
        out = np.where((xa > 0) & (xa < self.a), body, -np.inf)
        out = np.where(xa == 0.0, at_zero, out)
        return _ret(x, out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        frac = np.clip(xa / self.a, 0.0, 1.0)
        return _ret(x, frac**self.b)

    def _inv(self, p):
        return self.a * np.asarray(p, dtype=float) ** (1.0 / self.b)


@dataclass(frozen=True)
class LogPower(Distribution):
    """Density b * exp(b*(x-a)) on x < a; the log of a Power variate."""

    a: float
    b: float

    def __post_init__(self):
        _require(self.b > 0, "rate b must be positive")

    def support(self) -> tuple[float, float]:
        return (-math.inf, self.a)

    def log_pdf(self, x):
        xa = np.asarray(x, dtype=float)
        body = math.log(self.b) + self.b * (xa - self.a)
        out = np.where(xa < self.a, body, -np.inf)
        return _ret(x, out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.exp(self.b * np.minimum(xa - self.a, 0.0))
        return _ret(x, np.where(xa >= self.a, 1.0, out))

    def _inv(self, p):
        return self.a + np.log(np.asarray(p, dtype=float)) / self.b


@dataclass(frozen=True)
class Uniform(Distribution):
    """Flat density 1/(u-l) on [l, u)."""

    l: float
    u: float

    def __post_init__(self):
        _require(self.u > self.l, "need l < u")

    def support(self) -> tuple[float, float]:
        return (self.l, self.u)

    def log_pdf(self, x):
        xa = np.asarray(x, dtype=float)
        body = -math.log(self.u - self.l)
        out = np.where((xa >= self.l) & (xa < self.u), body, -np.inf)
        return _ret(x, out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        return _ret(x, np.clip((xa - self.l) / (self.u - self.l), 0.0, 1.0))

    def _inv(self, p):
        return self.l + (self.u - self.l) * np.asarray(p, dtype=float)


@dataclass(frozen=True)
class Gamma(Distribution):
    """Gamma in shape/rate form: density ~ x**(shape-1) * exp(-rate*x).

    scipy is imported inside the methods that need it, so that importing
    this package, and starting the CLI, does not pay for loading it.
    """

    shape: float
    rate: float

    def __post_init__(self):
        _require(self.shape > 0, "shape must be positive")
        _require(self.rate > 0, "rate must be positive")

    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def log_pdf(self, x):
        from scipy import special

        xa = np.asarray(x, dtype=float)
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
        out = np.where(xa == 0.0, at_zero, out)
        return _ret(x, out)

    def cdf(self, x):
        from scipy import special

        xa = np.asarray(x, dtype=float)
        return _ret(x, special.gammainc(self.shape, self.rate * np.maximum(xa, 0.0)))

    def _inv(self, p):
        from scipy import special

        return special.gammaincinv(self.shape, np.asarray(p, dtype=float)) / self.rate

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
        xa = np.asarray(x, dtype=float)
        if self.orientation == "identity":
            out = xa
        elif self.orientation == "negated":
            out = -xa
        else:
            out = -1.0 / xa
        return _ret(x, out)

    def jacobian(self, x):
        """|d transform / dx|, for change-of-variables checks."""
        xa = np.asarray(x, dtype=float)
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
