"""Every predictive and closed-form law at the edges of its domain.

Points: 0 and -0, negative, huge and infinite inputs, subnormal ones, and
each finite support edge with its float neighbours; probabilities down to
the least subnormal.  Warnings are errors in this suite (pyproject.toml),
so an evaluator that lets a RuntimeWarning out (an overflow, a log of 0)
fails here, scalar or array.  Also the error contract: quantile refuses
probabilities outside (0, 1), NaN included, and holdout scoring refuses
non-finite points.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from tailbayes import (GPParams, Gamma, LogPower, Lomax, Pareto, Power,
                       ShiftedExp, Uniform)
from tailbayes import pot_pipeline as pp
from tailbayes.errors import DomainError
from tailbayes.predictives import ParetoLink, Trapezoid

SPECIAL = (-math.inf, -1e300, -1.0, -0.0, 0.0, 5e-324, 2.5e-310, 1e300, math.inf)
EDGE_PROBS = (5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12)


def _cells():
    path = Path(__file__).resolve().parent / "data" / "make_stream_golden.py"
    spec = importlib.util.spec_from_file_location("make_stream_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CELLS


def _predictives():
    """One posterior predictive per (family, case), fitted to 40 values."""
    rng = np.random.default_rng(4242)
    out = {}
    for spec, draw in _cells():
        fitted = pp.fit(spec, pp.suff_stats(draw(rng, 40)))
        out[f"{spec.family}/{spec.case}"] = pp.predict(fitted)
    return out


PREDICTIVES = _predictives()
# the closed-form laws the predictives are built from, at their corners
STREAM_LAWS = {
    "pareto": Pareto(alpha=1.7, l=3.0),
    "shifted_exp": ShiftedExp(alpha=0.8, l=-2.0),
    "power_b<1": Power(a=4.0, b=0.5),
    "power_b=1": Power(a=4.0, b=1.0),
    "power_b>1": Power(a=4.0, b=2.3),
    "uniform": Uniform(l=-1.0, u=3.5),
    "uniform_at_0": Uniform(l=0.0, u=2.0),
    "trapezoid": Trapezoid(lower=1.0, flat_lo=2.0, flat_hi=3.5, upper=4.0),
    "triangle": Trapezoid(lower=0.0, flat_lo=1.0, flat_hi=1.0, upper=3.0),
}
OTHER_LAWS = {
    "gp": GPParams(theta=0.5, sigma=2.0, xi=-0.7),
    "lomax": Lomax(alpha=2.5, l=1.3),
    "log_power": LogPower(a=1.5, b=0.9),
    "gamma": Gamma(shape=3.2, rate=0.7),
}
EVALUATED = {**PREDICTIVES, **STREAM_LAWS}


def _points(dist):
    """SPECIAL plus each finite support edge and its float neighbours."""
    points = list(SPECIAL)
    for e in dist.support():
        if math.isfinite(e):
            points += [math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)]
    return sorted(points)


@pytest.mark.parametrize("name", sorted(EVALUATED))
def test_special_points(name):
    dist = EVALUATED[name]
    lo, hi = dist.support()
    points = _points(dist)
    x = np.array(points)
    log_pdf, pdf, cdf = dist.log_pdf(x), dist.pdf(x), dist.cdf(x)
    for values in (log_pdf, pdf, cdf):
        assert values.shape == x.shape and not np.isnan(values).any()
    assert (pdf >= 0).all()
    # the special points are held here to a zero density outside the
    # support; test_link_density_ends_at_the_reported_edge holds the float
    # just outside each link predictive's edge
    special = np.isin(x, SPECIAL)
    assert (pdf[special & ((x < lo) | (x > hi))] == 0).all()
    np.testing.assert_allclose(np.exp(log_pdf), pdf, rtol=1e-12, atol=0)
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert ((cdf >= 0) & (cdf <= 1)).all() and (np.diff(cdf) >= 0).all()
    for i, point in enumerate(points):
        for method, values in (("log_pdf", log_pdf), ("pdf", pdf), ("cdf", cdf)):
            got = getattr(dist, method)(point)
            assert isinstance(got, float)
            assert got == values[i], (method, point)


LINK_CELLS = sorted(name for name, pred in PREDICTIVES.items()
                    if isinstance(pred, ParetoLink))


def test_link_cells():
    assert LINK_CELLS == ["pareto/joint", "pareto/shape", "power/joint",
                          "power/shape", "shifted_exp/joint",
                          "shifted_exp/shape"]


@pytest.mark.parametrize("name", LINK_CELLS)
def test_link_density_ends_at_the_reported_edge(name):
    # the edge support() reports and the density's own edge are one: zero
    # one float outside it, positive at it, on fits of 1 to 60 values
    spec, draw = next((s, d) for s, d in _cells()
                      if f"{s.family}/{s.case}" == name)
    direction = pp.CELLS[(spec.family, spec.case)].direction
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 5, 8, 13, 21, 40, 60) * 3:
        pred = pp.predict(pp.fit(spec, pp.suff_stats(draw(rng, size))))
        lo, hi = pred.support()
        edge, outward = (lo, -math.inf) if direction == "lower" else (hi, math.inf)
        outside = math.nextafter(edge, outward)
        assert pred.pdf(outside) == 0.0 and pred.log_pdf(outside) == -math.inf
        assert pred.pdf(edge) > 0.0
        np.testing.assert_array_equal(pred.pdf(np.array([outside, edge])),
                                      [0.0, pred.pdf(edge)])


@pytest.mark.parametrize("name", sorted(EVALUATED))
def test_extreme_probabilities(name):
    dist = EVALUATED[name]
    lo, hi = dist.support()
    q = dist.quantile(np.array(EDGE_PROBS))
    assert not np.isnan(q).any() and (np.diff(q) >= 0).all()
    assert ((q >= lo) & (q <= hi)).all()
    for p, value in zip(EDGE_PROBS, q):
        assert dist.quantile(p) == value, p


@pytest.mark.parametrize("name", sorted({**EVALUATED, **OTHER_LAWS}))
def test_quantile_refuses_nan_and_the_closed_ends(name):
    dist = {**EVALUATED, **OTHER_LAWS}[name]
    for bad in (math.nan, 0.0, 1.0, -0.5, 1.5, math.inf):
        with pytest.raises(DomainError):
            dist.quantile(bad)
    with pytest.raises(DomainError):
        dist.quantile(np.array([0.5, math.nan]))
    assert dist.quantile(np.array([])).shape == (0,)


@pytest.mark.parametrize("name", sorted(PREDICTIVES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_holdout_refuses_non_finite_points(name, bad):
    pred = PREDICTIVES[name]
    inside = pred.quantile(0.5)
    assert math.isfinite(pp.holdout_log_predictive(pred, [inside]))
    with pytest.raises(DomainError, match="finite"):
        pp.holdout_log_predictive(pred, [inside, bad])
    with pytest.raises(DomainError, match="finite"):
        pp.holdout_log_predictive(pred, bad)
