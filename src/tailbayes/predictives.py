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

Link classes are parameterized by the latent Pareto ``shape`` and
``scale`` and by the link's ``offset`` and ``anchor``:

* ``ParetoLogLink``:    log(x / anchor) + offset  ~ Pareto(shape, scale)
* ``ParetoShiftLink``:  x - anchor + offset       ~ Pareto(shape, scale)
* ``ParetoNegLogLink``: log(anchor / x) + offset  ~ Pareto(shape, scale)

With scale == offset the support edge sits exactly at ``anchor``.  All
three record-discounted predictives use scale < offset, which moves the
edge past the posterior bound: below it for the log and shift links,
above it for the negated-log link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, _require

__all__ = [
    "ParetoLink",
    "ParetoLogLink",
    "ParetoShiftLink",
    "ParetoNegLogLink",
    "Trapezoid",
]


_TINY = 5e-324     # the least positive float


@dataclass(frozen=True)
class ParetoLink(Distribution):
    """Shared body of the link predictives: y(x) ~ Pareto(shape, scale).

    A subclass supplies the link ``_y`` (+-inf outside its domain), the
    log-Jacobian ``_log_jacobian`` = log|dy/dx|, the inverse ``_x`` and
    the ``support``.  ``_cdf`` and ``_inv`` here are those of a link that
    rises in x; a falling link overrides both.
    """

    shape: float
    scale: float
    offset: float
    anchor: float

    def __post_init__(self):
        _require(self.shape > 0, "shape must be positive")
        _require(self.scale > 0, "scale must be positive")

    def _log_pdf(self, xa):
        y = self._y(xa)
        lo, hi = self.support()
        # inside is decided against the reported edge, not against y, which
        # rounds apart from it; fmax lifts y (NaN included) to the latent
        # scale, where its log is finite, for a point at the edge whose y
        # rounds below it and for the points outside, which read -inf
        body = (
            math.log(self.shape)
            + self.shape * math.log(self.scale)
            + self._log_jacobian(xa)
            - (self.shape + 1.0) * np.log(np.fmax(y, self.scale))
        )
        return np.where((xa >= lo) & (xa <= hi), body, -np.inf)

    def _tail(self, xa):
        """P(Y >= y(x)), which is 1 below the latent scale."""
        return (self.scale / np.fmax(self._y(xa), self.scale)) ** self.shape

    def _y_at_tail(self, q):
        """The latent y with P(Y >= y) = q."""
        return self.scale * q ** (-1.0 / self.shape)

    def _cdf(self, xa):
        return 1.0 - self._tail(xa)

    def _inv(self, p):
        return self._x(self._y_at_tail(1.0 - p))


def _log_positive(xa):
    """log x for x > 0.  Elsewhere (NaN too) it is the finite log of the
    least subnormal: the link density there is 0 whatever this reads."""
    return np.log(np.fmax(xa, _TINY))


class ParetoLogLink(ParetoLink):
    """Heavy-tailed predictive above a finite lower edge.

    The transformed variable log(x/anchor) + offset follows
    Pareto(shape, scale); the observable lives on
    [anchor * exp(scale - offset), inf).
    """

    def __post_init__(self):
        super().__post_init__()
        _require(self.anchor > 0, "anchor must be positive")

    def support(self) -> tuple[float, float]:
        return (self.anchor * math.exp(self.scale - self.offset), math.inf)

    def _y(self, xa):
        # x/anchor is 0 for non-positive x and may underflow to 0 for tiny x
        r = xa / self.anchor
        return np.log(r, out=np.full(r.shape, -np.inf), where=r > 0) + self.offset

    def _log_jacobian(self, xa):
        return -_log_positive(xa)

    def _x(self, y):
        return self.anchor * np.exp(y - self.offset)


class ParetoShiftLink(ParetoLink):
    """Lomax-shaped predictive above a finite lower edge.

    The transformed variable x - anchor + offset follows
    Pareto(shape, scale); the observable lives on
    [anchor + (scale - offset), inf), whose edge is exactly the anchor
    when scale == offset.
    """

    def support(self) -> tuple[float, float]:
        return (self.anchor + (self.scale - self.offset), math.inf)

    def _y(self, xa):
        return xa - self.anchor + self.offset

    def _log_jacobian(self, xa):
        return 0.0

    def _x(self, y):
        return self.anchor + (y - self.offset)


class ParetoNegLogLink(ParetoLink):
    """Predictive below a finite upper edge, heavy toward zero.

    The transformed variable log(anchor/x) + offset follows
    Pareto(shape, scale); the observable lives on
    (0, anchor * exp(offset - scale)].
    """

    def __post_init__(self):
        super().__post_init__()
        _require(self.anchor > 0, "anchor must be positive")

    def support(self) -> tuple[float, float]:
        return (0.0, self.anchor * math.exp(self.offset - self.scale))

    def _cdf(self, xa):
        # y falls in x, so the latent upper tail is the lower tail of x
        return self._tail(xa)

    def _inv(self, p):
        return self._x(self._y_at_tail(p))

    def _y(self, xa):
        # anchor/x overflows for subnormal x, where log(inf) = inf is the
        # right limit, and is 0 at x = inf, where log(0) = -inf is
        with np.errstate(over="ignore", divide="ignore"):
            r = np.divide(self.anchor, xa, out=np.full(xa.shape, np.inf), where=xa > 0)
            return np.log(r, out=r) + self.offset

    def _log_jacobian(self, xa):
        return -_log_positive(xa)

    def _x(self, y):
        return self.anchor * np.exp(self.offset - y)


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
        # up is 0 below lower; NaN falls through to 0
        return np.where(xa < self.flat_lo, up,
                        np.where(xa < self.flat_hi, h,
                                 np.where(xa < self.upper, down, 0.0)))

    def _clip(self, xa):
        """x held to [lower, upper], where the ramps are read: far outside,
        their products and squares would overflow."""
        return xa.clip(self.lower, self.upper)

    def _log_pdf(self, xa):
        dens = self._pdf(xa)
        return np.log(dens, out=np.full(dens.shape, -np.inf), where=dens > 0)

    def _cdf(self, xa):
        xc = self._clip(xa)
        h = self.height
        r1 = self.flat_lo - self.lower
        r2 = self.upper - self.flat_hi
        c1 = 0.5 * h * r1
        ramp1 = 0.5 * h * (xc - self.lower) ** 2 / r1
        mid = c1 + h * (xc - self.flat_lo)
        ramp2 = 1.0 - 0.5 * h * (self.upper - xc) ** 2 / r2
        # ramp1 is 0 below lower; NaN falls through to 1
        return np.where(xa < self.flat_lo, ramp1,
                        np.where(xa < self.flat_hi, mid,
                                 np.where(xa < self.upper, ramp2, 1.0)))

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
