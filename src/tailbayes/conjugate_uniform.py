"""Bayesian updates for uniform data on [l, l+w]: width, lower bound, or both.

Three cases, in increasing difficulty:

* width w with lower bound l known (serial-number estimation); Pareto
  prior and posterior over w, fully conjugate,
* lower bound l with width w known; Uniform prior and posterior over l,
  with a trapezoid-shaped predictive,
* both unknown; the conditional over l stays Uniform but the width
  marginal p(w|X) = w**-(N+1) * (w-w_n)/(w-w0) / C(N) is not conjugate
  and needs the evidence constant C(N).

All width-marginal integrals reduce to two tail integrals with the knee
at s >= w_n >= w0 > 0:

    K(m, s) = integral_s^inf w**-(m+1) * (w-s)  / (w-w0) dw
    Q(m, s) = integral_s^inf w**-(m+1) * (w-s)**2 / (2*(w-w0)) dw

Both have exact series forms through S(x, a) = sum_k x**k / (a+k):

    K(m, s) = s**-m / m - (s-w0) * s**-(m+1) * S(w0/s, m+1)
    2*Q(m, s) = s**-(m-1)/(m*(m-1)) - (s-w0) * s**-m / m
                + (s-w0)**2 * s**-(m+1) * S(w0/s, m+1)

used as the fast path (the scaled series never overflows), with adaptive
quadrature as the fallback when w0/s is too close to 1 for the series.
Internally everything is computed in units of w_n, because raw C(N) is
of order w_n**-N and can leave float range even though every quantity
that matters (densities, masses, bound ratios) is a ratio of such
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .distributions import Pareto, Uniform, _check_prob, _ret, _uniforms, as_generator
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    InvalidRegimeError,
    NoInformationError,
)
from .predictives import Trapezoid
from .sufficient import SuffStats

__all__ = [
    "UniformPriorW",
    "UniformPriorL",
    "UniformJointPrior",
    "WidthPosterior",
    "LocationPosterior",
    "UniformJointPosterior",
    "UniformJointPredictive",
    "EvidenceResult",
    "posterior_w",
    "predictive_w",
    "posterior_location",
    "predictive_location",
    "posterior_joint",
    "predictive_joint",
    "evidence_C",
    "noninformative",
]

# Past this point the series in powers of w0/s needs too many terms;
# adaptive quadrature takes over.
_SERIES_RATIO_MAX = 0.999

_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-12, limit=300)


def _inv_order_series(x: float, a: float, rel_tol: float = 1e-14,
                      max_terms: int = 10 ** 6) -> float:
    """sum_k x**k / (a+k) for 0 <= x <= _SERIES_RATIO_MAX, a > 0."""
    total = 1.0 / a
    term = 1.0
    for k in range(1, max_terms):
        term *= x
        piece = term / (a + k)
        total += piece
        if piece < rel_tol * total:
            return total
    raise ConvergenceError("series for the width-tail integral did not settle")


def _check_tail_args(order: float, knee: float, pole: float) -> None:
    if order <= 0:
        raise DomainError("tail integral order must be positive")
    if knee <= 0 or pole < 0 or pole > knee:
        raise DomainError("tail integral needs 0 <= w0 <= s with s > 0")


def _tail_linear_quad(order: float, knee: float, pole: float) -> float:
    """K(order, knee) by adaptive quadrature."""
    _check_tail_args(order, knee, pole)

    def integrand(w):
        return w ** (-(order + 1.0)) * (w - knee) / (w - pole)

    value, err = quad(integrand, knee, np.inf, **_QUAD_OPTS)
    if err > 1e-9 * max(1.0, abs(value)):
        raise ConvergenceError("width-tail quadrature error estimate too large")
    return value


def _tail_linear(order: float, knee: float, pole: float) -> float:
    """K(order, knee): series fast path, quadrature when w0/s is near 1."""
    _check_tail_args(order, knee, pole)
    if pole == knee:
        return knee ** (-order) / order
    ratio = pole / knee
    if ratio <= _SERIES_RATIO_MAX:
        head = knee ** (-order) / order
        tail = (knee - pole) * knee ** (-(order + 1.0))
        return head - tail * _inv_order_series(ratio, order + 1.0)
    return _tail_linear_quad(order, knee, pole)


def _tail_square_quad(order: float, knee: float, pole: float) -> float:
    """Q(order, knee) by adaptive quadrature."""
    _check_tail_args(order, knee, pole)

    def integrand(w):
        return w ** (-(order + 1.0)) * (w - knee) ** 2 / (2.0 * (w - pole))

    value, err = quad(integrand, knee, np.inf, **_QUAD_OPTS)
    if err > 1e-9 * max(1.0, abs(value)):
        raise ConvergenceError("width-tail quadrature error estimate too large")
    return value


def _tail_square(order: float, knee: float, pole: float) -> float:
    """Q(order, knee): series fast path, quadrature when w0/s is near 1."""
    _check_tail_args(order, knee, pole)
    if order <= 1:
        raise DomainError("squared tail integral needs order > 1")
    if pole == knee:
        return knee ** (-(order - 1.0)) / (2.0 * order * (order - 1.0))
    ratio = pole / knee
    if ratio <= _SERIES_RATIO_MAX:
        gap = knee - pole
        head = knee ** (-(order - 1.0)) / (order * (order - 1.0))
        mid = gap * knee ** (-order) / order
        tail = gap * gap * knee ** (-(order + 1.0))
        return 0.5 * (head - mid + tail * _inv_order_series(ratio, order + 1.0))
    return _tail_square_quad(order, knee, pole)


@dataclass(frozen=True)
class UniformPriorW:
    """Pareto(n0, w0) prior over the width; lower bound l known."""

    w0: float
    n0: float
    l: float

    def __post_init__(self):
        if not (math.isfinite(self.w0) and self.w0 > 0):
            raise DomainError("prior width w0 must be finite and positive")
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")
        if not math.isfinite(self.l):
            raise DomainError("known lower bound l must be finite")


@dataclass(frozen=True)
class UniformPriorL:
    """Uniform(u0 - w, l0) prior over the lower bound; width w known.

    l0 bounds the lower endpoint from above, u0 bounds the upper endpoint
    from below; together they must leave a non-empty interval for l.
    """

    l0: float
    u0: float
    w: float

    def __post_init__(self):
        if self.w <= 0 or not math.isfinite(self.w):
            raise DomainError("known width w must be finite and positive")
        if not self.u0 - self.w < self.l0:
            raise DomainError("prior interval for the lower bound is empty")


@dataclass(frozen=True)
class UniformJointPrior:
    """Width block (w0, n0) plus location block (l0, u0), both unknown.

    w0 parameterizes the width prior on its own; it is not forced to
    equal u0 - l0 even though that choice is the natural one.
    """

    w0: float
    n0: float
    l0: float
    u0: float

    def __post_init__(self):
        if not (math.isfinite(self.w0) and self.w0 > 0):
            raise DomainError("prior width w0 must be finite and positive")
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")
        if not (math.isfinite(self.l0) and math.isfinite(self.u0)):
            raise DomainError("location block guesses l0, u0 must be finite")


@dataclass(frozen=True)
class WidthPosterior:
    """Pareto(n_eff, w_n) posterior over the width."""

    w_n: float
    l: float
    n_eff: float

    @property
    def is_proper(self) -> bool:
        return self.w_n > 0 and self.n_eff > 0

    def distribution(self) -> Pareto:
        if not self.is_proper:
            raise NoInformationError("posterior over the width is improper")
        return Pareto(self.n_eff, self.w_n)


@dataclass(frozen=True)
class LocationPosterior:
    """Uniform(low, high) posterior over the lower bound; width known.

    low = u_n - width and high = l_n, so the implied interval endpoints
    are recoverable as l_n = high, u_n = low + width.
    """

    low: float
    high: float
    width: float

    @property
    def is_proper(self) -> bool:
        return (
            math.isfinite(self.low)
            and math.isfinite(self.high)
            and self.low < self.high
        )

    def distribution(self) -> Uniform:
        if not self.is_proper:
            raise NoInformationError("posterior over the lower bound is improper")
        return Uniform(self.low, self.high)


@dataclass(frozen=True)
class EvidenceResult:
    """Normalizing constant of the joint width posterior; note says how
    it was obtained (analytic reduction or adaptive quadrature)."""

    value: float
    note: str


@dataclass(frozen=True)
class UniformJointPosterior:
    """Joint posterior: Uniform conditional over l, non-conjugate width marginal.

    The width marginal is p(w|X) = w**-(N+1) * (w-w_n)/(w-w0) / C(N) on
    w > w_n, with N = n_eff.  Evidence constants are stored in units of
    the pooled range w_n (c_n = C(N)*w_n**N, c_n1 = C(N+1)*w_n**(N+1)),
    because the raw constants can leave float range while every consumer
    only ever needs ratios.

    On v > 1, (v-1)/v <= (v-1)/(v-rho) < 1, so C(k) in units of w_n lies
    in [1/(k*(k+1)), 1/k].  A constant outside that bracket (quadrature
    that missed the mass within ~1/N of v = 1, or a damaged state file)
    raises ConvergenceError here, before any evaluation divides by it.
    """

    l_n: float
    u_n: float
    w0: float
    n_eff: float
    c_n: float
    c_n1: float

    def __post_init__(self):
        if not (self.n_eff > 0 and self.u_n > self.l_n):
            raise DomainError("joint posterior needs n_eff > 0 and u_n > l_n")
        for name, order in (("c_n", self.n_eff), ("c_n1", self.n_eff + 1.0)):
            value = getattr(self, name)
            lo, hi = 1.0 / (order * (order + 1.0)), 1.0 / order
            if not lo * (1.0 - 1e-9) <= value <= hi * (1.0 + 1e-9):
                raise ConvergenceError(
                    f"evidence {name} at n_eff = {self.n_eff!r} is {value!r}, "
                    f"outside its bound [{lo!r}, {hi!r}]; the posterior is "
                    "not evaluable here")

    @property
    def w_n(self) -> float:
        return self.u_n - self.l_n

    @property
    def evidence_value(self) -> float:
        """Raw C(N); may underflow to 0 for large n_eff * log(w_n)."""
        return self.w_n ** (-self.n_eff) * self.c_n

    @property
    def evidence_next(self) -> float:
        """Raw C(N+1); same caveat as evidence_value."""
        return self.w_n ** (-(self.n_eff + 1.0)) * self.c_n1

    def width_pdf(self, w):
        """Density of the width marginal at w (zero at or below w_n)."""
        v = np.asarray(w, dtype=float) / self.w_n
        rho = self.w0 / self.w_n
        with np.errstate(divide="ignore", invalid="ignore"):
            body = v ** (-(self.n_eff + 1.0)) * (v - 1.0) / (v - rho)
        out = np.where(v > 1.0, body / (self.c_n * self.w_n), 0.0)
        return _ret(w, out)

    def _width_tail_one(self, sigma: float) -> float:
        """Unnormalized upper tail of the width marginal, in w_n units.

        G(sigma) = K(N, sigma) + (sigma-1) * sigma**-(N+1) * S(rho/sigma, N+1),
        splitting (v - 1) into (v - sigma) + (sigma - 1).
        """
        rho = self.w0 / self.w_n
        if sigma <= 1.0:
            return self.c_n
        if rho == 1.0:
            return sigma ** (-self.n_eff) / self.n_eff
        ratio = rho / sigma
        if ratio > _SERIES_RATIO_MAX:
            n = self.n_eff

            def integrand(v):
                return v ** (-(n + 1.0)) * (v - 1.0) / (v - rho)

            value, err = quad(integrand, sigma, np.inf, **_QUAD_OPTS)
            if err > 1e-9 * max(1.0, abs(value)):
                raise ConvergenceError(
                    "width-tail quadrature error estimate too large")
            return value
        head = _tail_linear(self.n_eff, sigma, rho)
        series = _inv_order_series(ratio, self.n_eff + 1.0)
        return head + (sigma - 1.0) * sigma ** (-(self.n_eff + 1.0)) * series

    def width_cdf(self, w):
        """Distribution function of the width marginal (0 at or below w_n)."""
        arr = np.atleast_1d(np.asarray(w, dtype=float))
        out = np.array([1.0 - self._width_tail_one(v / self.w_n) / self.c_n
                        for v in arr.ravel()])
        return _ret(w, out.reshape(arr.shape))

    def conditional_location(self, w: float) -> Uniform:
        """Posterior over the lower bound given the width w > w_n."""
        if not w > self.w_n:
            raise DomainError("conditioning width must exceed the pooled range")
        return Uniform(self.u_n - w, self.l_n)


@dataclass(frozen=True)
class UniformJointPredictive:
    """Posterior predictive of the joint case, supported on all reals.

    Mixing Uniform(l, l+w) over the joint posterior gives

        pdf(x) = K(N+1, s(x)) / C(N),  s(x) = max(u_n, x) - min(l_n, x),

    so the density is constant at C(N+1)/C(N) between l_n and u_n and
    decays like a power in both directions outside; no finite support
    edge exists.  The cdf uses the squared-tail integral Q, through the
    exact identity 2*Q(N+1, w_n) + w_n*K(N+1, w_n) = C(N).
    """

    l_n: float
    u_n: float
    w0: float
    n_eff: float
    c_n: float
    c_n1: float

    @property
    def w_n(self) -> float:
        return self.u_n - self.l_n

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    @property
    def flat_level(self) -> float:
        """Constant density between l_n and u_n: C(N+1)/C(N)."""
        return self.c_n1 / (self.c_n * self.w_n)

    def _rho(self) -> float:
        return self.w0 / self.w_n

    def _sigma(self, x: float) -> float:
        """Pooled range after adjoining x, in units of w_n (>= 1)."""
        return (max(self.u_n, x) - min(self.l_n, x)) / self.w_n

    def _pdf_one(self, x: float) -> float:
        k = _tail_linear(self.n_eff + 1.0, self._sigma(x), self._rho())
        return k / (self.c_n * self.w_n)

    def _cdf_one(self, x: float) -> float:
        rho = self._rho()
        if x <= self.l_n:
            return _tail_square(self.n_eff + 1.0, self._sigma(x), rho) / self.c_n
        if x >= self.u_n:
            return 1.0 - _tail_square(self.n_eff + 1.0, self._sigma(x), rho) / self.c_n
        below = _tail_square(self.n_eff + 1.0, 1.0, rho) / self.c_n
        return below + (x - self.l_n) * self.flat_level

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.array([self._pdf_one(v) for v in np.atleast_1d(arr).ravel()])
        return _ret(x, out.reshape(np.atleast_1d(arr).shape))

    def log_pdf(self, x):
        dens = self.pdf(x)
        with np.errstate(divide="ignore"):
            return np.log(dens) if np.ndim(dens) else float(np.log(dens))

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.array([self._cdf_one(v) for v in np.atleast_1d(arr).ravel()])
        return _ret(x, out.reshape(np.atleast_1d(arr).shape))

    def _quantile_one(self, p: float) -> float:
        rho = self._rho()
        order = self.n_eff + 1.0
        mass_below = _tail_square(order, 1.0, rho) / self.c_n
        mass_upto_un = mass_below + self.w_n * self.flat_level
        if mass_below <= p <= mass_upto_un:
            return self.l_n + (p - mass_below) / self.flat_level
        # Invert the decreasing tail integral Q(order, sigma) = target.
        target = (p if p < mass_below else 1.0 - p) * self.c_n

        def gap(sigma):
            return _tail_square(order, sigma, rho) - target

        hi = 2.0
        while gap(hi) > 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise ConvergenceError("predictive quantile bracket not found")
        sigma = brentq(gap, 1.0, hi, xtol=1e-14, rtol=1e-14)
        if p < mass_below:
            return self.u_n - sigma * self.w_n
        return self.l_n + sigma * self.w_n

    def quantile(self, p):
        _check_prob(p)
        arr = np.asarray(p, dtype=float)
        out = np.array([self._quantile_one(v) for v in np.atleast_1d(arr).ravel()])
        return _ret(p, out.reshape(np.atleast_1d(arr).shape))

    def _sample_widths(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """Exact draws of w/w_n by rejection against Pareto(N, 1).

        The width marginal is dominated by the Pareto envelope with
        acceptance ratio (v-1)/(v-rho) in [0, 1]; acceptance probability
        is at worst about 1/(N+1), so the proposal batch is sized N+2
        per needed draw.
        """
        rho = self._rho()
        out = np.empty(size)
        filled = 0
        while filled < size:
            need = size - filled
            batch = int(min(4_000_000, max(2048, need * (self.n_eff + 2.0))))
            v = _uniforms(gen, batch) ** (-1.0 / self.n_eff)
            keep = v[gen.random(batch) * (v - rho) < (v - 1.0)]
            take = min(need, keep.size)
            out[filled:filled + take] = keep[:take]
            filled += take
        return out

    def sample(self, rng, size=None):
        gen = as_generator(rng)
        count = 1 if size is None else int(np.prod(size))
        w = self._sample_widths(gen, count) * self.w_n
        low = self.u_n - w
        l = low + gen.random(count) * (w - self.w_n)
        x = l + gen.random(count) * w
        if size is None:
            return float(x[0])
        return x.reshape(size)


def posterior_w(prior: UniformPriorW, stats: SuffStats) -> WidthPosterior:
    """Update the width block: w_n = max(w0, data max - l), count n0 + n."""
    if stats.n > 0 and stats.min < prior.l:
        raise DomainError("datum below the known lower bound l")
    w_n = prior.w0 if stats.n == 0 else max(prior.w0, stats.max - prior.l)
    return WidthPosterior(w_n=w_n, l=prior.l, n_eff=prior.n0 + stats.n)


def predictive_w(post: WidthPosterior) -> Uniform:
    """Predictive Uniform(l, l + w_n*(N+1)/N): the bound extrapolates outward."""
    if not post.is_proper:
        raise NoInformationError("cannot predict from an improper posterior")
    stretch = (post.n_eff + 1.0) / post.n_eff
    return Uniform(post.l, post.l + stretch * post.w_n)


def posterior_location(prior: UniformPriorL, stats: SuffStats) -> LocationPosterior:
    """Update the lower bound: posterior Uniform(u_n - w, l_n)."""
    if stats.n == 0:
        return LocationPosterior(low=prior.u0 - prior.w, high=prior.l0,
                                 width=prior.w)
    if stats.max - stats.min > prior.w:
        raise DataError("observed range exceeds the known width w")
    l_n = min(prior.l0, stats.min)
    u_n = max(prior.u0, stats.max)
    if not u_n - prior.w < l_n:
        raise DataError(
            "data and prior guesses are inconsistent with the known width "
            "(the interval for the lower bound is empty)"
        )
    return LocationPosterior(low=u_n - prior.w, high=l_n, width=prior.w)


def predictive_location(post: LocationPosterior) -> Trapezoid:
    """Trapezoid predictive: ramps of width high-low each side of a flat middle."""
    if not post.is_proper:
        raise NoInformationError("cannot predict from an improper posterior")
    l_n = post.high
    u_n = post.low + post.width
    return Trapezoid(
        lower=post.low,
        flat_lo=min(l_n, u_n),
        flat_hi=max(l_n, u_n),
        upper=post.high + post.width,
    )


def evidence_C(n_eff: float, w0: float, w_n: float) -> EvidenceResult:
    """Normalizer C(N) of the joint width marginal, by quadrature.

    Reduces analytically to w_n**-N / N when w0 = w_n.  Refuses w0 > w_n:
    the integrand then has a non-integrable pole at w = w0 inside the
    support.
    """
    if n_eff <= 0:
        raise DomainError("evidence needs a positive effective count")
    if w0 <= 0 or w_n <= 0:
        raise DomainError("evidence needs positive widths w0, w_n")
    if w0 > w_n:
        raise InvalidRegimeError(
            "prior width offset w0 exceeds the pooled range w_n: the width "
            "marginal has a non-integrable pole and no posterior exists"
        )
    if w0 == w_n:
        return EvidenceResult(value=w_n ** (-n_eff) / n_eff,
                              note="analytic reduction at w0 = w_n")
    return EvidenceResult(value=_tail_linear_quad(n_eff, w_n, w0),
                          note="adaptive quadrature")


def posterior_joint(prior: UniformJointPrior, stats: SuffStats) -> UniformJointPosterior:
    """Update both blocks; needs at least one observation.

    The pooled endpoints are l_n = min(l0, data min), u_n = max(u0, data
    max); their gap w_n anchors the width marginal.  Evidence constants
    are computed by quadrature on the w_n-scaled integrand; the posterior
    raises ConvergenceError when they leave the bracket they must lie in.
    """
    if stats.n == 0:
        raise DomainError("joint update needs at least one observation")
    l_n = min(prior.l0, stats.min)
    u_n = max(prior.u0, stats.max)
    w_n = u_n - l_n
    if w_n <= 0:
        raise InvalidRegimeError(
            "pooled range is zero: a single point carries no width "
            "information; widen the location block or add data"
        )
    if prior.w0 > w_n:
        raise InvalidRegimeError(
            "prior width offset w0 exceeds the pooled range w_n: the width "
            "marginal has a non-integrable pole and no posterior exists"
        )
    n_eff = prior.n0 + stats.n
    rho = prior.w0 / w_n
    if rho == 1.0:
        c_n = 1.0 / n_eff
        c_n1 = 1.0 / (n_eff + 1.0)
    else:
        c_n = _tail_linear_quad(n_eff, 1.0, rho)
        c_n1 = _tail_linear_quad(n_eff + 1.0, 1.0, rho)
    return UniformJointPosterior(l_n=l_n, u_n=u_n, w0=prior.w0,
                                 n_eff=n_eff, c_n=c_n, c_n1=c_n1)


def predictive_joint(post: UniformJointPosterior) -> UniformJointPredictive:
    """Posterior predictive of the joint case: the exact mixture."""
    return UniformJointPredictive(
        l_n=post.l_n, u_n=post.u_n, w0=post.w0,
        n_eff=post.n_eff, c_n=post.c_n, c_n1=post.c_n1,
    )


def noninformative(case: str, stats: SuffStats, *, l: float | None = None,
                   w: float | None = None):
    """Posterior under the non-informative limit of the matching prior.

    case "width" (l required): posterior Pareto(n, data max - l).
    case "lower" (w required): posterior Uniform(data max - w, data min).
    With no data the posterior stays improper and is returned flagged as
    such.
    """
    if case == "width":
        if l is None or not math.isfinite(l):
            raise DomainError("case 'width' needs the known lower bound l")
        if stats.n == 0:
            return WidthPosterior(w_n=0.0, l=l, n_eff=0.0)
        if stats.min < l:
            raise DomainError("datum below the known lower bound l")
        w_n = stats.max - l
        if w_n <= 0:
            raise DomainError("observed width is zero: all data sit at l")
        return WidthPosterior(w_n=w_n, l=l, n_eff=float(stats.n))
    if case == "lower":
        if w is None or w <= 0:
            raise DomainError("case 'lower' needs a positive known width w")
        if stats.n == 0:
            return LocationPosterior(low=-math.inf, high=math.inf, width=w)
        if stats.max - stats.min > w:
            raise DataError("observed range exceeds the known width w")
        return LocationPosterior(low=stats.max - w, high=stats.min, width=w)
    raise DomainError(f"unknown case {case!r}; expected 'width' or 'lower'")
