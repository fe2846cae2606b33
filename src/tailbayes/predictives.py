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


def _log_ratio(xa, b):
    # x/b is 0 for non-positive x and may underflow to 0 for tiny x; a NaN
    # ratio takes its log, NaN
    r = xa / b
    return np.log(r, out=np.full(r.shape, -np.inf), where=~(r <= 0))


def _log_inverse_ratio(xa, b):
    # b/x overflows for subnormal x, where log(inf) = inf is the right
    # limit, and is 0 at x = inf, where log(0) = -inf is; NaN stays NaN
    with np.errstate(over="ignore", divide="ignore"):
        r = np.divide(b, xa, out=np.full(xa.shape, np.inf), where=~(xa <= 0))
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
        # and for the points outside, which read -inf
        body = (
            math.log(self.shape)
            + self.shape * math.log(self.scale)
            + self.axis.log_jacobian(xa)
            - (self.shape + 1.0) * np.log(np.maximum(y, self.scale))
        )
        return np.where((xa < lo) | (xa > hi), -np.inf, body)

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
        down = h * (self.upper - xc) / (self.upper - self.flat_hi)
        # up is 0 below lower; NaN falls through to down, NaN
        return np.where(xa < self.flat_lo, up,
                        np.where(xa < self.flat_hi, h,
                                 np.where(xa >= self.upper, 0.0, down)))

    def _clip(self, xa):
        """x held to [lower, upper], where the ramps are read: far outside,
        their products and squares would overflow."""
        return xa.clip(self.lower, self.upper)

    def _log_pdf(self, xa):
        dens = self._pdf(xa)
        return np.log(dens, out=np.full(dens.shape, -np.inf), where=dens != 0)

    def _cdf(self, xa):
        xc = self._clip(xa)
        h = self.height
        r1 = self.flat_lo - self.lower
        r2 = self.upper - self.flat_hi
        c1 = 0.5 * h * r1
        ramp1 = 0.5 * h * (xc - self.lower) ** 2 / r1
        mid = c1 + h * (xc - self.flat_lo)
        ramp2 = 1.0 - 0.5 * h * (self.upper - xc) ** 2 / r2
        # ramp1 is 0 below lower; NaN falls through to ramp2, NaN
        return np.where(xa < self.flat_lo, ramp1,
                        np.where(xa < self.flat_hi, mid,
                                 np.where(xa >= self.upper, 1.0, ramp2)))

    def _inv(self, p):
        # 0 < p < 1, so both square roots take positive arguments
        h = self.height
        r1 = self.flat_lo - self.lower
        r2 = self.upper - self.flat_hi
        c1 = 0.5 * h * r1
        c2 = c1 + h * (self.flat_hi - self.flat_lo)
        in_ramp1 = self.lower + np.sqrt(2.0 * p * r1 / h)
        in_mid = self.flat_lo + (p - c1) / h
        in_ramp2 = self.upper - np.sqrt(2.0 * (1.0 - p) * r2 / h)
        return np.where(p <= c1, in_ramp1, np.where(p <= c2, in_mid, in_ramp2))
