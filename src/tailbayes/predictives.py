"""Predictive distribution forms produced by the conjugate updates.

Posterior predictive laws here are Pareto distributions viewed through a
link function of the observable (log, shift, negated log), plus the
trapezoid that arises when predicting from an interval posterior over a
location.  Each class carries the same evaluation surface as the
distributions module: ``log_pdf``/``pdf``, ``cdf``, ``quantile``,
``sample``, ``support``, written once in ``Distribution``.  A class here
supplies ``support`` and the array methods ``_log_pdf``, ``_cdf`` and
``_inv``, so a scalar is evaluated as a one-point array; ``Trapezoid``
supplies its density, which is primary there, as ``_pdf``.

The Pareto, shifted-exponential and power families are one
shifted-exponential model on an axis t of the observable: t(x) = log x,
x or -log x.  Each axis is written once, as an ``AxisMap`` record
(``LOG_AXIS``, ``SHIFT_AXIS``, ``NEG_LOG_AXIS``), which both the
conjugate kernel's updates and the link predictive of its family read.
Link classes are parameterized by the latent Pareto ``shape`` and
``scale`` and by the link's ``offset`` and ``anchor``, and differ only
in their record:

* ``ParetoLogLink``:    log(x / anchor) + offset  ~ Pareto(shape, scale)
* ``ParetoShiftLink``:  x - anchor + offset       ~ Pareto(shape, scale)
* ``ParetoNegLogLink``: log(anchor / x) + offset  ~ Pareto(shape, scale)

With scale == offset the support edge sits exactly at ``anchor``.  All
three record-discounted predictives use scale < offset, which moves the
edge past the posterior bound: below it for the log and shift links,
above it for the negated-log link.  Every parameter must be finite.

A streamed batch evaluates these laws on small arrays, where the fixed
cost of each numpy call outweighs its arithmetic, so the masks take as
few passes as keep every bit.  A link's log density masks only its finite
edge: past the other end, x = +inf on a rising axis and x <= 0 on the
-log axis, the distance y is +inf, so the body already reads -inf.  The
-log axis lifts x <= 0 to zero as ``np.maximum(xa, 0.0)``, in that
order: numpy's maximum returns its second argument on a tie, so
x = -0.0 becomes +0.0 and b/x is +inf, where the other order keeps
-0.0, b/x = -inf and its log NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .distributions import Distribution, _require
from .errors import require_finite
from .sufficient import SuffStats

__all__ = ["AxisMap", "LOG_AXIS", "SHIFT_AXIS", "NEG_LOG_AXIS", "ParetoLink",
           "ParetoLogLink", "ParetoShiftLink", "ParetoNegLogLink", "Trapezoid"]


_TINY = 5e-324     # the least positive float


@dataclass(frozen=True)
class AxisMap:
    """One family's axis t of the observable, written once.

    For the kernel: t(b) is a scalar bound on the axis and sum_t(stats)
    is sum t(x_i); rises says t rises in x, so that the data minimum pins
    the bound (else the maximum); positive says the data, and a link's
    anchor, must be strictly positive.  For the link predictive, on
    arrays: distance(x, b) is t(x) - t(b) (+-inf outside the domain,
    NaN at NaN), inverse(d, b) is the x at distance d from b and
    log_jacobian(x) is log|dt/dx|; edge(d, b) is the scalar x at distance
    d from b.
    """

    t: Callable[[float], float]
    sum_t: Callable[[SuffStats], float]
    rises: bool
    positive: bool
    distance: Callable
    inverse: Callable
    log_jacobian: Callable
    edge: Callable[[float, float], float]


def _minus_log(xa):
    """-log x for x > 0, NaN at NaN.  Elsewhere it is minus the finite log
    of the least subnormal: the link density there is 0 whatever this
    reads."""
    return -np.log(np.maximum(xa, _TINY))


def _log_or_minus_inf(r):
    """log r where r > 0, -inf where r <= 0 and NaN at NaN, with no
    warning.  A positive r is at least the least subnormal, which maximum
    leaves as it is, so its log has the bits of np.log(r)."""
    out = np.log(np.maximum(r, _TINY))
    np.putmask(out, r <= 0, -np.inf)
    return out


def _log_ratio(xa, b):
    # x/b is <= 0 for x <= 0 and may underflow to 0 for tiny x: -inf
    return _log_or_minus_inf(xa / b)


def _log_inverse_ratio(xa, b):
    # b/x overflows for subnormal x, where log(inf) = inf is the right
    # limit, and is 0 at x = inf, where log(0) = -inf is; NaN stays NaN.
    # x <= 0 is lifted to +0.0, where b/x = +inf (the module docstring
    # says why maximum takes its arguments in this order)
    with np.errstate(over="ignore", divide="ignore"):
        r = b / np.maximum(xa, 0.0)
        return np.log(r, out=r)


LOG_AXIS = AxisMap(
    t=math.log, sum_t=SuffStats.require_sum_log, rises=True, positive=True,
    distance=_log_ratio, inverse=lambda d, b: b * np.exp(d),
    log_jacobian=_minus_log, edge=lambda d, b: b * math.exp(d))

SHIFT_AXIS = AxisMap(
    t=lambda b: b, sum_t=lambda stats: stats.sum, rises=True, positive=False,
    distance=lambda xa, b: xa - b, inverse=lambda d, b: b + d,
    log_jacobian=lambda xa: 0.0, edge=lambda d, b: b + d)

NEG_LOG_AXIS = AxisMap(
    t=lambda b: -math.log(b), sum_t=lambda stats: -stats.require_sum_log(),
    rises=False, positive=True,
    distance=_log_inverse_ratio, inverse=lambda d, b: b * np.exp(-d),
    log_jacobian=_minus_log, edge=lambda d, b: b * math.exp(-d))


@dataclass(frozen=True)
class ParetoLink(Distribution):
    """Shared body of the link predictives: y(x) ~ Pareto(shape, scale),
    with y(x) = t(x) - t(anchor) + offset on the subclass's ``axis``.

    The support edge sits at distance scale - offset from the anchor; the
    support runs from it to +inf when t rises in x, else from 0 up to it
    (the one falling axis, -log x, reaches +inf at x = 0).
    """

    shape: float
    scale: float
    offset: float
    anchor: float

    axis: ClassVar[AxisMap]

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.shape > 0, "shape must be positive")
        _require(self.scale > 0, "scale must be positive")
        _require(not self.axis.positive or self.anchor > 0,
                 "anchor must be positive")

    def support(self) -> tuple[float, float]:
        edge = self.axis.edge(self.scale - self.offset, self.anchor)
        return (edge, math.inf) if self.axis.rises else (0.0, edge)

    def _y(self, xa):
        return self.axis.distance(xa, self.anchor) + self.offset

    def _log_pdf(self, xa):
        y = self._y(xa)
        lo, hi = self.support()
        # inside is decided against the reported edge, not against y, which
        # rounds apart from it; maximum lifts y to the latent scale, where
        # its log is finite, for a point at the edge whose y rounds below it
        # and for the points outside, which read -inf.  Only the finite edge
        # is masked: past the other end y is +inf, so the body reads -inf
        body = (
            math.log(self.shape)
            + self.shape * math.log(self.scale)
            + self.axis.log_jacobian(xa)
            - (self.shape + 1.0) * np.log(np.maximum(y, self.scale))
        )
        np.putmask(body, xa < lo if self.axis.rises else xa > hi, -np.inf)
        return body

    def _cdf(self, xa):
        # P(Y >= y(x)), which is 1 below the latent scale, is the upper tail
        # of x where y rises in x and its lower tail where y falls
        tail = (self.scale / np.maximum(self._y(xa), self.scale)) ** self.shape
        return 1.0 - tail if self.axis.rises else tail

    def _inv(self, p):
        # the latent y with P(Y >= y) = q, q the tail of x that _cdf reads
        y = self.scale * (1.0 - p if self.axis.rises else p) ** (-1.0 / self.shape)
        return self.axis.inverse(y - self.offset, self.anchor)


class ParetoLogLink(ParetoLink):
    """Heavy-tailed predictive above a finite lower edge.

    The transformed variable log(x/anchor) + offset follows
    Pareto(shape, scale); the observable lives on
    [anchor * exp(scale - offset), inf).
    """

    axis = LOG_AXIS


class ParetoShiftLink(ParetoLink):
    """Lomax-shaped predictive above a finite lower edge.

    The transformed variable x - anchor + offset follows
    Pareto(shape, scale); the observable lives on
    [anchor + (scale - offset), inf), whose edge is exactly the anchor
    when scale == offset.
    """

    axis = SHIFT_AXIS


class ParetoNegLogLink(ParetoLink):
    """Predictive below a finite upper edge, heavy toward zero.

    The transformed variable log(anchor/x) + offset follows
    Pareto(shape, scale); the observable lives on
    (0, anchor * exp(offset - scale)].
    """

    axis = NEG_LOG_AXIS


@dataclass(frozen=True)
class Trapezoid(Distribution):
    """Trapezoid density: linear ramps around a flat top.

    Rises on [lower, flat_lo), is constant on [flat_lo, flat_hi), falls on
    [flat_hi, upper).  flat_lo == flat_hi gives a triangle.
    """

    lower: float
    flat_lo: float
    flat_hi: float
    upper: float

    def __post_init__(self):
        require_finite(vars(self))
        _require(self.lower < self.flat_lo, "need lower < flat_lo")
        _require(self.flat_lo <= self.flat_hi, "need flat_lo <= flat_hi")
        _require(self.flat_hi < self.upper, "need flat_hi < upper")

    @property
    def height(self) -> float:
        r1 = self.flat_lo - self.lower
        r2 = self.upper - self.flat_hi
        mid = self.flat_hi - self.flat_lo
        return 1.0 / (mid + 0.5 * r1 + 0.5 * r2)

    def support(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    def _pdf(self, xa):
        xc = self._clip(xa)
        h = self.height
        up = h * (xc - self.lower) / (self.flat_lo - self.lower)
        out = h * (self.upper - xc) / (self.upper - self.flat_hi)
        # pieces set from the right in, so that each overrides the last;
        # up is 0 below lower; NaN, in no mask, keeps down's NaN
        np.putmask(out, xa >= self.upper, 0.0)
        np.putmask(out, xa < self.flat_hi, h)
        np.putmask(out, xa < self.flat_lo, up)
        return out

    def _clip(self, xa):
        """x held to [lower, upper], where the ramps are read: far outside,
        their products and squares would overflow."""
        # bound first: maximum and minimum return their second argument
        # on a tie, so x = -0.0 at lower = 0.0 stays -0.0, as clip keeps it
        return np.minimum(self.upper, np.maximum(self.lower, xa))

    def _log_pdf(self, xa):
        return _log_or_minus_inf(self._pdf(xa))

    def _cdf(self, xa):
        xc = self._clip(xa)
        h = self.height
        r1 = self.flat_lo - self.lower
        r2 = self.upper - self.flat_hi
        c1 = 0.5 * h * r1
        ramp1 = 0.5 * h * (xc - self.lower) ** 2 / r1
        mid = c1 + h * (xc - self.flat_lo)
        out = 1.0 - 0.5 * h * (self.upper - xc) ** 2 / r2
        # set as in _pdf; ramp1 is 0 below lower; NaN keeps the falling
        # ramp's NaN
        np.putmask(out, xa >= self.upper, 1.0)
        np.putmask(out, xa < self.flat_hi, mid)
        np.putmask(out, xa < self.flat_lo, ramp1)
        return out

    def _inv(self, p):
        # 0 < p < 1, so both square roots take positive arguments
        h = self.height
        r1 = self.flat_lo - self.lower
        r2 = self.upper - self.flat_hi
        c1 = 0.5 * h * r1
        c2 = c1 + h * (self.flat_hi - self.flat_lo)
        in_ramp1 = self.lower + np.sqrt(2.0 * p * r1 / h)
        in_mid = self.flat_lo + (p - c1) / h
        out = self.upper - np.sqrt(2.0 * (1.0 - p) * r2 / h)
        np.putmask(out, p <= c2, in_mid)
        np.putmask(out, p <= c1, in_ramp1)
        return out
