"""Upper incomplete gamma of negative order."""

import math

import numpy as np
import pytest
from scipy import special

from tailbayes.errors import DomainError
from tailbayes.special_functions import upper_inc_gamma_neg

RECURRENCE_REL_TOL = 1e-10


def _upper_gamma_any(order: float, y: float) -> float:
    """Upper incomplete gamma for any order, for recurrence cross-checks."""
    if order > 0:
        return float(special.gammaincc(order, y) * special.gamma(order))
    return upper_inc_gamma_neg(order, y)


def test_gamma_recurrence():
    # Gamma(s+1, y) = s*Gamma(s, y) + y**s * exp(-y)
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = rng.uniform(-5.0, 0.0)
        y = rng.uniform(0.1, 10.0)
        lhs = _upper_gamma_any(s + 1.0, y)
        rhs = s * upper_inc_gamma_neg(s, y) + y**s * math.exp(-y)
        assert lhs == pytest.approx(rhs, rel=RECURRENCE_REL_TOL, abs=1e-300)


def test_gamma_spot_values():
    # Gamma(0, 1) is the exponential integral E1(1); Gamma(-1, 1) follows
    # from one step of the recurrence.
    e1 = float(special.exp1(1.0))
    assert upper_inc_gamma_neg(0.0, 1.0) == pytest.approx(e1, rel=1e-10)
    assert upper_inc_gamma_neg(-1.0, 1.0) == pytest.approx(
        math.exp(-1.0) - e1, rel=1e-10)
    assert upper_inc_gamma_neg(0.0, 1.0) == pytest.approx(
        0.21938393439552062, rel=1e-12)
    assert upper_inc_gamma_neg(-1.0, 1.0) == pytest.approx(
        0.14849550677592171, rel=1e-12)


def test_gamma_monotone_in_y():
    ys = np.linspace(0.2, 8.0, 30)
    for order in (-0.5, -2.0, -4.5):
        vals = [upper_inc_gamma_neg(order, float(y)) for y in ys]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_gamma_domain_errors():
    with pytest.raises(DomainError):
        upper_inc_gamma_neg(-1.0, 0.0)
    with pytest.raises(DomainError):
        upper_inc_gamma_neg(-1.0, -2.0)
    with pytest.raises(DomainError):
        upper_inc_gamma_neg(0.5, 1.0)
