"""Array forms written for speed keep the bits of their plain forms.

The batch reductions of ``suff_stats``, the axis distances, the link
predictives' one-sided outside mask, the in-place masks of the closed-form
laws and the trapezoid's clip and pieces are each written with fewer numpy
passes than their plain forms.  The plain forms are kept here as the
reference, and every rewritten form must match it by float hex: at the
special points, at NaN, at each finite support edge with its float
neighbours, on a seeded array of both signs and on one whose points all
lie inside the support, in one array and point by point.
"""

import math

import numpy as np
import pytest

from tailbayes import Pareto, Power, ShiftedExp, Uniform
from tailbayes.predictives import (LOG_AXIS, NEG_LOG_AXIS, SHIFT_AXIS, ParetoLogLink,
                                   ParetoNegLogLink, ParetoShiftLink, Trapezoid)
from tailbayes.sufficient import suff_stats

SPECIAL = (-math.inf, -1e300, -1.0, -0.0, 0.0, 5e-324, 2.5e-310, 1e300, math.inf,
           math.nan)


def _bits(values):
    return [float.hex(v) for v in np.asarray(values, dtype=float).tolist()]


def _neighbours(edges):
    return [p for e in edges if math.isfinite(e)
            for p in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]


def _arrays(edges, inside, seed):
    """The special points, the edges with their neighbours and seeded points
    of both signs, as one array and point by point, and seeded points in
    (inside[0], inside[1]) as one array."""
    rng = np.random.default_rng(seed)
    points = [*SPECIAL, *_neighbours(edges), *rng.uniform(-20.0, 20.0, 40).tolist()]
    yield np.array(points)
    yield from (np.array([p]) for p in points)
    yield rng.uniform(*inside, 40)


# plain forms of the axis distances
def _log_ratio(xa, b):
    r = xa / b
    return np.log(r, out=np.full(r.shape, -np.inf), where=~(r <= 0))


def _log_inverse_ratio(xa, b):
    with np.errstate(over="ignore", divide="ignore"):
        r = np.divide(b, xa, out=np.full(xa.shape, np.inf), where=~(xa <= 0))
        return np.log(r, out=r)


DISTANCES = {"log": (LOG_AXIS, _log_ratio),
             "shift": (SHIFT_AXIS, lambda xa, b: xa - b),
             "neg_log": (NEG_LOG_AXIS, _log_inverse_ratio)}
DISTANCES_BY_AXIS = {id(axis): plain for axis, plain in DISTANCES.values()}


@pytest.mark.parametrize("b", (1e-3, 0.3, 2.0, 1e5))
@pytest.mark.parametrize("name", sorted(DISTANCES))
def test_distance(name, b):
    axis, plain = DISTANCES[name]
    for x in _arrays([b], (0.5 * b, 2.0 * b), 11):
        assert _bits(axis.distance(x, b)) == _bits(plain(x, b))


# plain forms of the link predictive's log density and cdf
def _link_log_pdf(link, xa):
    y = DISTANCES_BY_AXIS[id(link.axis)](xa, link.anchor) + link.offset
    lo, hi = link.support()
    body = (math.log(link.shape) + link.shape * math.log(link.scale)
            + link.axis.log_jacobian(xa)
            - (link.shape + 1.0) * np.log(np.maximum(y, link.scale)))
    return np.where((xa < lo) | (xa > hi), -np.inf, body)


def _link_cdf(link, xa):
    y = DISTANCES_BY_AXIS[id(link.axis)](xa, link.anchor) + link.offset
    tail = (link.scale / np.maximum(y, link.scale)) ** link.shape
    return 1.0 - tail if link.axis.rises else tail


LINKS = {
    f"{cls.__name__}-{kind}": cls(shape=2.7, scale=scale, offset=1.3, anchor=2.0)
    for cls in (ParetoLogLink, ParetoShiftLink, ParetoNegLogLink)
    for kind, scale in (("discounted", 1.1), ("edge_at_anchor", 1.3))
}


@pytest.mark.parametrize("name", sorted(LINKS))
def test_link(name):
    link = LINKS[name]
    lo, hi = link.support()
    inside = (lo, 3.0 * lo) if link.axis.rises else (0.5 * hi, hi)
    for x in _arrays(link.support(), inside, 12):
        assert _bits(link.log_pdf(x)) == _bits(_link_log_pdf(link, x))
        assert _bits(link.cdf(x)) == _bits(_link_cdf(link, x))


# plain forms of the trapezoid's density, log density and cdf
def _trapezoid_pdf(t, xa):
    xc = xa.clip(t.lower, t.upper)
    h = t.height
    up = h * (xc - t.lower) / (t.flat_lo - t.lower)
    down = h * (t.upper - xc) / (t.upper - t.flat_hi)
    return np.where(xa < t.flat_lo, up,
                    np.where(xa < t.flat_hi, h, np.where(xa >= t.upper, 0.0, down)))


def _trapezoid_cdf(t, xa):
    xc = xa.clip(t.lower, t.upper)
    h = t.height
    r1 = t.flat_lo - t.lower
    r2 = t.upper - t.flat_hi
    ramp1 = 0.5 * h * (xc - t.lower) ** 2 / r1
    mid = 0.5 * h * r1 + h * (xc - t.flat_lo)
    ramp2 = 1.0 - 0.5 * h * (t.upper - xc) ** 2 / r2
    return np.where(xa < t.flat_lo, ramp1,
                    np.where(xa < t.flat_hi, mid, np.where(xa >= t.upper, 1.0, ramp2)))


def _trapezoid_inv(t, p):
    h = t.height
    r1 = t.flat_lo - t.lower
    r2 = t.upper - t.flat_hi
    c1 = 0.5 * h * r1
    c2 = c1 + h * (t.flat_hi - t.flat_lo)
    in_ramp1 = t.lower + np.sqrt(2.0 * p * r1 / h)
    in_mid = t.flat_lo + (p - c1) / h
    in_ramp2 = t.upper - np.sqrt(2.0 * (1.0 - p) * r2 / h)
    return np.where(p <= c1, in_ramp1, np.where(p <= c2, in_mid, in_ramp2))


# lower = 0.0 and upper = -0.0 put a signed zero on an edge, where clip
# keeps the sign of x
TRAPEZOIDS = {
    "lower_at_zero": Trapezoid(lower=0.0, flat_lo=1.5, flat_hi=2.0, upper=4.0),
    "upper_at_minus_zero": Trapezoid(lower=-3.0, flat_lo=-2.0, flat_hi=-1.0, upper=-0.0),
    "triangle": Trapezoid(lower=-1.0, flat_lo=0.5, flat_hi=0.5, upper=3.0),
}


@pytest.mark.parametrize("name", sorted(TRAPEZOIDS))
def test_trapezoid(name):
    t = TRAPEZOIDS[name]
    edges = [t.lower, t.flat_lo, t.flat_hi, t.upper]
    for x in _arrays(edges, (t.lower, t.upper), 13):
        dens = _trapezoid_pdf(t, x)
        assert _bits(t.pdf(x)) == _bits(dens)
        assert _bits(t.log_pdf(x)) == _bits(
            np.log(dens, out=np.full(dens.shape, -np.inf), where=dens != 0))
        assert _bits(t.cdf(x)) == _bits(_trapezoid_cdf(t, x))
    p = np.random.default_rng(14).random(200)
    assert _bits(t.quantile(p)) == _bits(_trapezoid_inv(t, p))


# plain forms of the closed-form laws' masks and clips
def _pareto_log_pdf(d, xa):
    body = (math.log(d.alpha) + d.alpha * math.log(d.l)
            - (d.alpha + 1.0) * np.log(np.maximum(xa, d.l)))
    return np.where(xa < d.l, -np.inf, body)


def _shifted_exp_log_pdf(d, xa):
    return np.where(xa < d.l, -np.inf, math.log(d.alpha) - d.alpha * (xa - d.l))


def _shifted_exp_cdf(d, xa):
    return np.where(xa < d.l, 0.0, -np.expm1(-d.alpha * np.maximum(xa - d.l, 0.0)))


def _power_log_pdf(d, xa):
    log_x = 0.0
    if d.b != 1.0:
        with np.errstate(divide="ignore"):
            log_x = np.log(xa.clip(0.0, d.a))
    body = math.log(d.b) + (d.b - 1.0) * log_x - d.b * math.log(d.a)
    return np.where((xa >= 0.0) & (xa < d.a), body, np.minimum(xa, -np.inf))


LAWS = {
    "pareto": (Pareto(alpha=1.7, l=3.0), {"log_pdf": _pareto_log_pdf}),
    "shifted_exp": (ShiftedExp(alpha=0.8, l=0.0), {"log_pdf": _shifted_exp_log_pdf,
                                                   "cdf": _shifted_exp_cdf}),
    "power_b<1": (Power(a=4.0, b=0.5), {
        "log_pdf": _power_log_pdf,
        "cdf": lambda d, xa: (xa / d.a).clip(0.0, 1.0) ** d.b}),
    "power_b>1": (Power(a=4.0, b=2.3), {"log_pdf": _power_log_pdf}),
    "uniform": (Uniform(l=0.0, u=3.5), {
        "cdf": lambda d, xa: ((xa - d.l) / (d.u - d.l)).clip(0.0, 1.0)}),
}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_law(name):
    law, plain = LAWS[name]
    for x in _arrays(law.support(), law.quantile(np.array([1e-6, 1.0 - 1e-6])), 15):
        for method, reference in plain.items():
            assert _bits(getattr(law, method)(x)) == _bits(reference(law, x)), method


@pytest.mark.parametrize("n", (1, 2, 7, 8, 9, 100, 129, 1000, 4097))
def test_suff_stats_reductions(n):
    # ndarray's min, max and sum are the same reductions; the sum is the
    # same pairwise sum
    x = np.random.default_rng(n).lognormal(0.0, 3.0, n)
    stats = suff_stats(x)
    assert _bits([stats.min, stats.max, stats.sum, stats.sum_log]) == _bits(
        [x.min(), x.max(), x.sum(), np.log(x).sum()])
