"""Bayesian updates for uniform data on [l, l+w]: width, lower bound, or both.

Three cases, in increasing difficulty:

* width w with lower bound l known (serial-number estimation); Pareto
  prior and posterior over w, fully conjugate,
* lower bound l with width w known; Uniform prior and posterior over l,
  with a trapezoid-shaped predictive,
* both unknown; the conditional over l stays Uniform but the width
  marginal p(w|X) = w**-(N+1) * (w-w_n)/(w-w0) / C(N) is not conjugate
  and needs the evidence constant C(N).

In units of the pooled range w_n, with rho = w0/w_n and a knee s >= 1,
every width-marginal integral is a series of positive terms in
r = rho/s,

    F_p(a, r) = sum_k r**k / ((a+k)(a+k+1)...(a+k+p-1)):

    C(N)    = integral_1^inf v**-(N+1) * (v-1) / (v-rho) dv = F_2(N, rho)
    K(m, s) = integral_s^inf v**-(m+1) * (v-s) / (v-rho) dv = s**-m * F_2(m, r)
    Q(m, s) = integral_s^inf v**-(m+1) * (v-s)**2 / (2*(v-rho)) dv
            = s**(1-m) * F_3(m-1, r)

Nothing cancels, so no digits are lost at any count or ratio.  F_p is
summed through its Beta-integral form with a fixed Gauss-Legendre rule on
segments that double away from the integrand's nearest pole.  The node
sets are memoised, and for an array of up to 1,024 points one numpy call
takes a tile of many nodes by all points, adding in the order of a
node-by-node loop (which larger arrays take, in place: near 1,024 points
the two cost the same), so a point gets the same bits alone as inside an
array, and the predictive cdf sums both of its tails in one call.  The
width cdf is the same positive integrand as C(N), cut short, so it too
takes no complement.

Working in units of w_n also keeps C(N), of order w_n**-N in raw units,
inside float range; every quantity that matters (densities, masses,
bound ratios) is a ratio of such constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, Pareto, Uniform, _points, _ret
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    InvalidRegimeError,
    NoInformationError,
    require_finite,
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


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by
    Newton steps on the Legendre recurrence from Chebyshev guesses (no
    linear algebra, so importing this module starts no BLAS)."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p, q = x, np.ones(n)
        for k in range(2, n + 1):
            p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
        slope = n * (x * p - q) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


# One fixed rule on each segment of the series' integral form; e**-50 ~
# 2e-22 bounds the integrand's mass beyond the last segment.
_GL_X, _GL_W = _gauss_legendre(16)
_U_END = 50.0
# Both series evaluators take their nodes in (nodes x points) tiles of at
# most _TILE elements: at least 16 nodes (one segment) and at most
# _TILE // 16 = 1,024 points per tile, so one numpy call replaces many
# small ones and the memory stays bounded by the input.  _series takes
# larger arrays in one in-place pass per node instead, because that is
# where the two cross: over p = 2, 3, a = 6 to 3001 and r_max = 0.5,
# 0.9995 (best of 7, one core of a 2-core Xeon, numpy 2.4), the median of
# tile time over per-node time reads 0.37 at 248 points, 0.66-0.69 at 500
# and 0.94-1.00 at 1,024, and 1,024-point chunks of tiles lose beyond it:
# 1.1-1.3 at 1,500 points, 1.2-1.4 at 2,000 and 1.8-2.0 at 50,000.
# _series_below tiles at every size: its 16 nodes are too few for one
# pass per node to beat a tile.
_TILE = 16384


def _edges(a: float, r_max: float) -> np.ndarray:
    """Segment edges, from 0 to _U_END, of the rule for the integral form
    of F_p(a, r), 0 <= r <= r_max (see _nodes).

    The integrand's nearest pole sits at u = a*log(r), so the segments
    double from d = min(-a*log(r_max), a, 1) out to _U_END and every
    segment lies at least its own length from it.  At r_max = 1 the pole
    cancels (p >= 2) and d stops at a * 2**-53, the smallest -log(r) a
    float r < 1 can have.  The doubling needs a > 0 to reach _U_END.
    """
    if not a > 0.0:
        raise DomainError("series order must be positive")
    spread = -math.log(r_max) if r_max > 0.0 else math.inf
    d = min(a * max(spread, 2.0 ** -53), a, 1.0)
    edges = [0.0]
    while edges[-1] < _U_END:
        edges.append(min(max(d, 2.0 * edges[-1]), _U_END))
    return np.array(edges)


@functools.lru_cache(maxsize=64)
def _nodes(p: int, a: float, r_max: float):
    """Nodes x_k and weights c_k with F_p(a, r) = sum_k c_k / (1-r + r*x_k)
    for every 0 <= r <= r_max; memoised, so both arrays are read-only.

    F_p(a, r) = 1/((p-1)! a) integral_0^inf e**-u x**(p-1) / (1-r + r*x) du
    with x = 1 - e**(-u/a), by the fixed Gauss-Legendre rule on each of
    the segments _edges(a, r_max).
    """
    edges = _edges(a, r_max)
    half = 0.5 * np.diff(edges)[:, None]
    u = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _GL_X
    x = -np.expm1(-u / a)
    c = half * _GL_W * np.exp(-u) * x ** (p - 1) / (math.factorial(p - 1) * a)
    x, c = x.ravel(), c.ravel()
    x.flags.writeable = c.flags.writeable = False
    return x, c


@functools.lru_cache(maxsize=64)
def _segment_sums(a: float, rho: float):
    """The edges _edges(a, rho) of _nodes(2, a, rho) and the node sums of
    F_2(a, rho) over the segments below each edge, from 0 at the first:
    memoised with the rule, so both arrays are read-only."""
    edges = _edges(a, rho)
    x, c = _nodes(2, a, rho)
    whole = (c / (1.0 - rho + rho * x)).reshape(-1, _GL_X.size).sum(axis=1)
    below = np.concatenate(([0.0], np.cumsum(whole)))
    edges.flags.writeable = below.flags.writeable = False
    return edges, below


def _series(p: int, a: float, r, r_max: float):
    """F_p(a, r) = sum_k r**k / ((a+k)(a+k+1)...(a+k+p-1)) over an array r
    of ratios in [0, r_max]; every term positive, so nothing cancels.

    Up to _TILE // 16 = 1,024 points, each numpy call takes a tile of K
    nodes by all n points, K*n about _TILE, so an array costs a few calls
    rather than four per node; beyond it one node per pass updates the
    total in place.  Either way the memory is bounded by the size of r.
    The running total is folded into each tile's first row and the rows
    are added in order, so every value is ((0 + t_0) + t_1) + ..., the
    same bits on both paths: a point gets the same value alone as inside
    an array.
    """
    r = np.asarray(r, dtype=float)
    x, c = _nodes(p, a, r_max)
    flat = r.ravel()
    gap = 1.0 - flat
    total = np.zeros(flat.size)
    if flat.size > _TILE // _GL_X.size:
        term = np.empty(flat.size)
        for xk, ck in zip(x.tolist(), c.tolist()):
            np.multiply(flat, xk, out=term)
            term += gap
            np.divide(ck, term, out=term)
            total += term
        return total.reshape(r.shape)
    k = _TILE // max(flat.size, 1)
    for start in range(0, x.size, k):
        m = x[start:start + k, None] * flat
        m += gap
        np.divide(c[start:start + k, None], m, out=m)
        m[0] += total
        total = _sum_rows(m)
    return total.reshape(r.shape)


def _sum_rows(m: np.ndarray) -> np.ndarray:
    """The rows of a (nodes x points) tile added in order, ((m_0 + m_1) +
    m_2) + ..., as a node-by-node loop adds them.  add.reduce does so for
    two columns or more but sums a single column pairwise; cumsum goes in
    order."""
    return (np.cumsum(m, axis=0)[-1] if m.shape[1] == 1
            else np.add.reduce(m, axis=0))


def _series_below(a: float, rho: float, top):
    """(1/a) integral_0^top e**-u x / (1-rho + rho*x) du, x = 1 - e**(-u/a),
    over a 1-d array top >= 0: the integral form of F_2(a, rho) cut at top.

    Segments of _nodes(2, a, rho) wholly below top add their node sums,
    memoised in _segment_sums; the one holding top gets the same 16-point
    rule on [edge, top], which lies at least its own length from the pole
    as the whole segment does.
    Every term is positive, so the cut integral keeps relative accuracy
    as top goes to 0.  The rule runs as (16 x points) tiles of _TILE
    elements, its rows added in node order (_sum_rows), so a point gets
    the same value alone as inside an array.
    """
    edges, below = _segment_sums(a, rho)
    top = np.minimum(top, _U_END)
    seg = np.minimum(np.searchsorted(edges, top, side="right") - 1,
                     edges.size - 2)
    lo = edges[seg]
    half = 0.5 * (top - lo)
    part = np.empty(top.size)
    step = _TILE // _GL_X.size
    for start in range(0, top.size, step):
        cut = slice(start, start + step)
        u = lo[cut] + half[cut] * (1.0 + _GL_X)[:, None]
        x = -np.expm1(-u / a)
        m = _GL_W[:, None] * np.exp(-u) * x / (1.0 - rho + rho * x)
        part[cut] = _sum_rows(m)
    return below[seg] + half * part / a


def _tail_linear(order: float, knee, pole: float):
    """K(order, knee) = knee**-order * F_2(order, pole/knee), in units of
    w_n (knee >= 1 >= pole: _sigma gives the knee, the record the pole)."""
    return knee ** (-order) * _series(2, order, pole / knee, pole)


def _tail_square(order: float, knee, pole: float):
    """Q(order, knee) = knee**(1-order) * F_3(order-1, pole/knee), in units
    of w_n (knee >= 1 >= pole)."""
    if order <= 1:
        raise DomainError("squared tail integral needs order > 1")
    return knee ** (1.0 - order) * _series(3, order - 1.0, pole / knee, pole)


def _scaled_evidence(order: float, w0: float, w_n: float) -> float:
    """C(order) in units of w_n: F_2(order, w0/w_n), exactly 1/order at
    w0 = w_n.

    w0 > w_n puts the pole of (w-w_n)/(w-w0) inside the support, where the
    width marginal is not integrable.
    """
    if w0 > w_n:
        raise InvalidRegimeError(
            "prior width offset w0 exceeds the pooled range w_n: the width "
            "marginal has a non-integrable pole and no posterior exists"
        )
    rho = w0 / w_n
    return 1.0 / order if rho == 1.0 else float(_tail_linear(order, 1.0, rho))


def _check_evidence(name: str, order: float, value: float) -> None:
    """Hold C(order) in units of w_n to its bracket [1/(k*(k+1)), 1/k]
    (derived at _JointRecord); ConvergenceError outside it."""
    lo, hi = 1.0 / (order * (order + 1.0)), 1.0 / order
    if not lo * (1.0 - 1e-9) <= value <= hi * (1.0 + 1e-9):
        raise ConvergenceError(
            f"evidence {name} at order {order!r} is {value!r}, outside its "
            f"bound [{lo!r}, {hi!r}]; the posterior is not evaluable here")


@dataclass(frozen=True)
class UniformPriorW:
    """Pareto(n0, w0) prior over the width; lower bound l known."""

    w0: float
    n0: float
    l: float

    def __post_init__(self):
        require_finite(vars(self))
        if self.w0 <= 0:
            raise DomainError("prior width w0 must be positive")
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")


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
        require_finite(vars(self))
        if self.w <= 0:
            raise DomainError("known width w must be positive")
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
        require_finite(vars(self))
        if self.w0 <= 0:
            raise DomainError("prior width w0 must be positive")
        if self.n0 < 0:
            raise DomainError("pseudo-count n0 cannot be negative")


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
    it was obtained (analytic reduction, or the series and its node count)."""

    value: float
    note: str


@dataclass(frozen=True)
class _JointRecord:
    """The six numbers behind the joint posterior and its predictive.

    N = n_eff.  Evidence constants are stored in units of the pooled range
    w_n (c_n = C(N)*w_n**N, c_n1 = C(N+1)*w_n**(N+1)), because the raw
    constants can leave float range while every consumer only ever needs
    ratios.

    On v > 1, (v-1)/v <= (v-1)/(v-rho) < 1, so C(k) in units of w_n lies
    in [1/(k*(k+1)), 1/k].  A record with w0 outside (0, w_n] (NaN
    included), with a field that is not finite, or with a constant outside
    that bracket (one built by hand or from a damaged record), is refused
    here, before any evaluation divides by it: DomainError for the first
    two, and ConvergenceError for the third.
    """

    l_n: float
    u_n: float
    w0: float
    n_eff: float
    c_n: float
    c_n1: float

    def __post_init__(self):
        # 0 < w0 <= w_n also holds u_n above l_n
        if not (self.n_eff > 0 and 0.0 < self.w0 <= self.w_n):
            raise DomainError("joint posterior needs n_eff > 0 and "
                              "0 < w0 <= w_n = u_n - l_n")
        require_finite(vars(self))
        _check_evidence("c_n", self.n_eff, self.c_n)
        _check_evidence("c_n1", self.n_eff + 1.0, self.c_n1)

    @property
    def w_n(self) -> float:
        return self.u_n - self.l_n

    @property
    def rho(self) -> float:
        """The width marginal's pole w0 in units of w_n, in (0, 1]."""
        return self.w0 / self.w_n


@dataclass(frozen=True)
class UniformJointPosterior(_JointRecord):
    """Joint posterior: Uniform conditional over l, non-conjugate width marginal.

    The width marginal is p(w|X) = w**-(N+1) * (w-w_n)/(w-w0) / C(N) on
    w > w_n, with N = n_eff; its fields and checks are _JointRecord's.
    """

    @property
    def evidence_value(self) -> float:
        """Raw C(N); may underflow to 0 for large n_eff * log(w_n)."""
        return self.w_n ** (-self.n_eff) * self.c_n

    def width_pdf(self, w):
        """Density of the width marginal at w (zero at or below w_n and at
        w = inf, NaN at NaN)."""
        v = _points(w) / self.w_n
        # the power overflows only at v < 1, and the body is 0 * inf / inf
        # at v = inf: the density reads 0 at both
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            body = v ** (-(self.n_eff + 1.0)) * (v - 1.0) / (v - self.rho)
        out = np.where((v <= 1.0) | (v == math.inf), 0.0, body / (self.c_n * self.w_n))
        return _ret(w, out)

    def width_cdf(self, w):
        """Distribution function of the width marginal (0 at or below w_n,
        NaN at NaN).

        With w/w_n = e**(u/N), its mass below w is C(N)'s own integrand
        cut at U = N*log(w/w_n), over C(N): (1/N) integral_0^U e**-u x /
        (1-rho + rho*x) du / C(N), x = 1 - e**(-u/N).  No complement is
        taken, and w/w_n - 1 is formed as (w - w_n)/w_n, exact near w_n,
        so the mass keeps relative accuracy just above w_n.  The cut
        integral stops at _U_END, a rounding short of C(N), so w = inf
        reads 1 on its own.
        """
        arr = _points(w)
        gap = (arr - self.w_n) / self.w_n
        out = np.where(gap <= 0.0, 0.0, np.nan)
        wide = gap > 0.0
        top = self.n_eff * np.log1p(gap[wide])
        out[wide] = _series_below(self.n_eff, self.rho, top) / self.c_n
        return _ret(w, np.where(arr == math.inf, 1.0, np.clip(out, 0.0, 1.0)))

    def conditional_location(self, w: float) -> Uniform:
        """Posterior over the lower bound given the width w > w_n."""
        if not w > self.w_n:
            raise DomainError("conditioning width must exceed the pooled range")
        return Uniform(self.u_n - w, self.l_n)


@dataclass(frozen=True)
class UniformJointPredictive(_JointRecord, Distribution):
    """Posterior predictive of the joint case, supported on all reals.

    Mixing Uniform(l, l+w) over the joint posterior gives

        pdf(x) = K(N+1, s(x)) / C(N),  s(x) = max(u_n, x) - min(l_n, x),

    so the density is constant at C(N+1)/C(N) between l_n and u_n and
    decays like a power in both directions outside; no finite support
    edge exists.  The cdf uses the squared-tail integral Q, through the
    identity 2*Q(N+1, w_n) + w_n*K(N+1, w_n) = C(N), which the series
    satisfy term by term: the cdf is 1/2 at the midpoint up to rounding.
    It is the posterior's record, so its fields and checks are
    _JointRecord's, and a Distribution, which writes its public
    evaluators and its sampler: it supplies the array methods ``_pdf``
    (its density is primary, and ``_log_pdf`` is its log), ``_cdf`` and
    ``_inv``, so it draws by inverting its cdf, as every law here does.
    """

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    @property
    def flat_level(self) -> float:
        """Constant density between l_n and u_n: C(N+1)/C(N)."""
        return self.c_n1 / (self.c_n * self.w_n)

    def _sigma(self, x):
        """Pooled range after adjoining x, in units of w_n (>= 1)."""
        return (np.maximum(self.u_n, x) - np.minimum(self.l_n, x)) / self.w_n

    def _mass_beyond(self, x):
        """Q(N+1, s(x)) / C(N): the mass on the far side of x from [l_n, u_n]."""
        return _tail_square(self.n_eff + 1.0, self._sigma(x), self.rho) / self.c_n

    @functools.cached_property
    def _below(self) -> float:
        """The mass below l_n, a constant of the predictive: summed once."""
        return self._mass_beyond(self.l_n)

    def _pdf(self, xa):
        out = np.full(xa.shape, self.flat_level)
        far = ~((xa >= self.l_n) & (xa <= self.u_n))
        out[far] = _tail_linear(self.n_eff + 1.0, self._sigma(xa[far]),
                                self.rho) / (self.c_n * self.w_n)
        return out

    def _log_pdf(self, xa):
        with np.errstate(divide="ignore"):
            return np.log(self._pdf(xa))

    def _cdf(self, xa):
        out = self._below + (xa - self.l_n) * self.flat_level
        low, high = xa < self.l_n, xa > self.u_n
        far = low | high
        mass = self._mass_beyond(xa[far])
        out[far] = np.where(high[far], 1.0 - mass, mass)
        return np.clip(out, 0.0, 1.0)

    def _solve_beyond(self, mass):
        """s >= 1 with Q(N+1, s) / C(N) = mass, for 0 < mass below the mass
        beyond l_n.  log Q is convex and decreasing in y = log s, so Newton
        steps from y = 0 rise monotonically to the root.  An entry leaves
        the loop once its own step is within 1e-13, so it takes the same
        steps alone as inside an array."""
        m, rho = self.n_eff + 1.0, self.rho
        goal = np.log(mass) + math.log(self.c_n)
        y = np.zeros(mass.shape)
        todo = np.arange(mass.size)
        for _ in range(100):
            yt = y[todo]
            r = rho * np.exp(-yt)
            f3 = _series(3, m - 1.0, r, rho)
            step = ((1.0 - m) * yt + np.log(f3) - goal[todo]) * f3 / _series(2, m, r, rho)
            y[todo] = yt + step
            todo = todo[np.abs(step) > 1e-13]
            if not todo.size:
                return np.exp(y)
        raise ConvergenceError("predictive quantile did not converge")

    def _inv(self, prob):
        out = self.l_n + (prob - self._below) / self.flat_level
        side = np.minimum(prob, 1.0 - prob)
        tail = side < self._below
        if tail.any():
            s = self._solve_beyond(side[tail])
            out[tail] = np.where(prob[tail] < 0.5, self.u_n - s * self.w_n,
                                 self.l_n + s * self.w_n)
        return out


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
    """Normalizer C(N) of the joint width marginal.

    Computed in units of w_n as the series F_2(N, w0/w_n), which reduces
    to 1/N when w0 = w_n, and held to its bracket [1/(N(N+1)), 1/N] there
    (ConvergenceError outside it).  Refuses w0 > w_n: the integrand then
    has a non-integrable pole at w = w0 inside the support.
    """
    if n_eff <= 0:
        raise DomainError("evidence needs a positive effective count")
    if w0 <= 0 or w_n <= 0:
        raise DomainError("evidence needs positive widths w0, w_n")
    scaled = _scaled_evidence(n_eff, w0, w_n)
    _check_evidence("C(N)", n_eff, scaled)
    rho = w0 / w_n
    note = ("analytic reduction at w0 = w_n" if rho == 1.0 else
            f"positive-term series F_2(N, w0/w_n) by "
            f"{_nodes(2, n_eff, rho)[0].size} Gauss-Legendre nodes")
    return EvidenceResult(value=w_n ** (-n_eff) * scaled, note=note)


def posterior_joint(prior: UniformJointPrior, stats: SuffStats) -> UniformJointPosterior:
    """Update both blocks; needs at least one observation.

    The pooled endpoints are l_n = min(l0, data min), u_n = max(u0, data
    max); their gap w_n anchors the width marginal.  Evidence constants
    are the series F_2 in units of w_n; the posterior raises
    ConvergenceError if they leave the bracket they must lie in.
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
    n_eff = prior.n0 + stats.n
    return UniformJointPosterior(
        l_n=l_n, u_n=u_n, w0=prior.w0, n_eff=n_eff,
        c_n=_scaled_evidence(n_eff, prior.w0, w_n),
        c_n1=_scaled_evidence(n_eff + 1.0, prior.w0, w_n))


def predictive_joint(post: UniformJointPosterior) -> UniformJointPredictive:
    """Posterior predictive of the joint case: the exact mixture, on the
    posterior's own record."""
    return UniformJointPredictive(**vars(post))


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
