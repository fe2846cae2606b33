"""Special functions outside the comfortable region of library routines.

The upper incomplete gamma function of non-positive order, which standard
implementations reject, computed by direct adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .errors import ConvergenceError, DomainError

__all__ = ["upper_inc_gamma_neg"]


def upper_inc_gamma_neg(order: float, y: float) -> float:
    """Upper incomplete gamma integral of t**(order-1)*exp(-t) over (y, inf).

    Restricted to order <= 0 (the region library routines reject) and
    y > 0, where the integral is finite.  Computed by adaptive quadrature
    after factoring out the leading scale y**(order-1) * exp(-y), so the
    relative accuracy does not degrade when the integral itself is tiny.
    """
    if y <= 0:
        raise DomainError("lower limit y must be positive")
    if order > 0:
        raise DomainError("only non-positive order is supported here")

    def scaled(u):
        # (t/y)**(order-1) * exp(-(t-y)) with t = y + u; O(1) on [0, inf)
        return math.exp((order - 1.0) * math.log1p(u / y) - u)

    value, err = integrate.quad(
        scaled, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300
    )
    if err > 1e-10 * abs(value):
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} too large for value {value:.6e}"
        )
    return math.exp((order - 1.0) * math.log(y) - y) * value
