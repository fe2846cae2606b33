"""Predictive distribution forms produced by the conjugate updates.

Posterior predictive laws here are Pareto distributions viewed through a
link function of the observable (log, shift, negated log), plus the
trapezoid that arises when predicting from an interval posterior over a
location.  Each class carries the same evaluation surface as the
distributions module: ``log_pdf``/``pdf``, ``cdf``, ``quantile``,
``sample``, ``support``.

Link classes are parameterized by the latent Pareto ``shape`` and
``scale`` and by the link's ``offset`` and ``anchor``:

* ``ParetoLogLink``:    log(x / anchor) + offset  ~ Pareto(shape, scale)
* ``ParetoShiftLink``:  x - anchor + offset       ~ Pareto(shape, scale)
* ``ParetoNegLogLink``: log(anchor / x) + offset  ~ Pareto(shape, scale)

With scale == offset the support edge sits exactly at ``anchor``; the
extrapolation-discounted predictives use scale < offset (lower-bound
links) or keep scale < offset symmetric for the upper-bound link, pushing
the support edge strictly past the posterior bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, _ret
from .errors import DomainError

__all__ = [
    "ParetoLink",
    "ParetoLogLink",
    "ParetoShiftLink",
    "ParetoNegLogLink",
    "Trapezoid",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


@dataclass(frozen=True)
class ParetoLink(Distribution):
    """Shared body of the link predictives: y(x) ~ Pareto(shape, scale).

    A subclass supplies the link ``_y`` (+-inf outside its domain), the
    log-Jacobian ``_log_jacobian`` = log|dy/dx|, the inverse ``_x`` and
    the ``support``.  ``cdf`` and ``_inv`` here are those of a link that
    rises in x; a falling link overrides both.
    """

    shape: float
    scale: float
    offset: float
    anchor: float

    def __post_init__(self):
        _require(self.shape > 0, "shape must be positive")
        _require(self.scale > 0, "scale must be positive")

    def log_pdf(self, x):
        xa = np.asarray(x, dtype=float)
        y = self._y(xa)
        ok = y >= self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            body = (
                math.log(self.shape)
                + self.shape * math.log(self.scale)
                + self._log_jacobian(xa)
                - (self.shape + 1.0) * np.log(np.where(ok, y, 1.0))
            )
        return _ret(x, np.where(ok, body, -np.inf))

    def _tail(self, x):
        """P(Y >= y(x)), which is 1 below the latent scale."""
        y = self._y(np.asarray(x, dtype=float))
        return (self.scale / np.where(y >= self.scale, y, self.scale)) ** self.shape

    def _y_at_tail(self, q):
        """The latent y with P(Y >= y) = q."""
        return self.scale * np.asarray(q, dtype=float) ** (-1.0 / self.shape)

    def cdf(self, x):
        return _ret(x, 1.0 - self._tail(x))

    def _inv(self, p):
        return self._x(self._y_at_tail(1.0 - np.asarray(p, dtype=float)))


def _log_positive(xa):
    return np.log(np.where(xa > 0, xa, 1.0))


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
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(xa > 0, np.log(xa / self.anchor), -np.inf) + self.offset

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

    def cdf(self, x):
        # y falls in x, so the latent upper tail is the lower tail of x
        return _ret(x, self._tail(x))

    def _inv(self, p):
        return self._x(self._y_at_tail(p))

    def _y(self, xa):
        # anchor/x overflows for subnormal x; log(inf) = inf is the right limit
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(xa > 0, np.log(self.anchor / np.where(xa > 0, xa, 1.0)), np.inf) + self.offset

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

    def pdf(self, x):
        xa = np.asarray(x, dtype=float)
        h = self.height
        r1 = self.flat_lo - self.lower
        r2 = self.upper - self.flat_hi
        up = h * (xa - self.lower) / r1
        down = h * (self.upper - xa) / r2
        out = np.where(
            (xa >= self.lower) & (xa < self.flat_lo),
            up,
            np.where(
                (xa >= self.flat_lo) & (xa < self.flat_hi),
                h,
                np.where((xa >= self.flat_hi) & (xa < self.upper), down, 0.0),
            ),
        )
        return _ret(x, out)

    def log_pdf(self, x):
        xa = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.log(self.pdf(xa))
        return _ret(x, out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        h = self.height
        r1 = self.flat_lo - self.lower
        r2 = self.upper - self.flat_hi
        c1 = 0.5 * h * r1
        ramp1 = 0.5 * h * (xa - self.lower) ** 2 / r1
        mid = c1 + h * (xa - self.flat_lo)
        ramp2 = 1.0 - 0.5 * h * (self.upper - xa) ** 2 / r2
        out = np.where(
            xa < self.lower,
            0.0,
            np.where(
                xa < self.flat_lo,
                ramp1,
                np.where(xa < self.flat_hi, mid, np.where(xa < self.upper, ramp2, 1.0)),
            ),
        )
        return _ret(x, out)

    def _inv(self, p):
        pa = np.asarray(p, dtype=float)
        h = self.height
        r1 = self.flat_lo - self.lower
        r2 = self.upper - self.flat_hi
        c1 = 0.5 * h * r1
        c2 = c1 + h * (self.flat_hi - self.flat_lo)
        with np.errstate(invalid="ignore"):
            in_ramp1 = self.lower + np.sqrt(np.maximum(2.0 * pa * r1 / h, 0.0))
            in_mid = self.flat_lo + (pa - c1) / h
            in_ramp2 = self.upper - np.sqrt(np.maximum(2.0 * (1.0 - pa) * r2 / h, 0.0))
        return np.where(pa <= c1, in_ramp1, np.where(pa <= c2, in_mid, in_ramp2))
