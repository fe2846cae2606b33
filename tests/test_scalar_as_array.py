"""A scalar is evaluated as a one-point array, so it gets the array's bits.

``Distribution``'s public ``log_pdf``, ``pdf``, ``cdf`` and ``quantile``
turn a scalar into a one-point array and call the law's array methods.
So a point evaluated alone equals, bit for bit, the same point inside an
array.  Checked here for every closed-form law, the 12 cell predictives
(the uniform-joint one with its Newton quantile among them) and the
uniform-joint width density, at the special points, at each finite
support edge with its float neighbours and at 400 seeded points.  No
law but ``Distribution`` writes a public evaluator or sampler of its
own, so this rule has one path to hold on.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from tailbayes import (GPParams, Gamma, LogPower, Lomax, Pareto, Power,
                       ShiftedExp, Uniform)
from tailbayes import conjugate_uniform, distributions, predictives
from tailbayes import pot_pipeline as pp
from tailbayes.distributions import Distribution
from tailbayes.predictives import Trapezoid

SEEDED = 400
SPECIAL = (-math.inf, -1e300, -1.0, -0.0, 0.0, 5e-324, 2.5e-310, 1e300, math.inf)
EDGE_PROBS = (5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12)


def _cells():
    path = Path(__file__).resolve().parent / "data" / "make_stream_golden.py"
    spec = importlib.util.spec_from_file_location("make_stream_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CELLS


def _fits():
    """One fit per (family, case), to 30 seeded values of its own law."""
    rng = np.random.default_rng(1604)
    return {f"{spec.family}/{spec.case}": pp.fit(spec, pp.suff_stats(draw(rng, 30)))
            for spec, draw in _cells()}


FITS = _fits()
LAWS = {
    "gp_xi<0": GPParams(theta=0.5, sigma=2.0, xi=-0.7),
    "gp_xi=0": GPParams(theta=0.5, sigma=2.0, xi=0.0),
    "gp_xi>0": GPParams(theta=0.5, sigma=2.0, xi=0.4),
    "pareto": Pareto(alpha=1.7, l=3.0),
    "lomax": Lomax(alpha=2.5, l=1.3),
    "shifted_exp": ShiftedExp(alpha=0.8, l=-2.0),
    "power_b<1": Power(a=4.0, b=0.5),
    "power_b=1": Power(a=4.0, b=1.0),
    "power_b>1": Power(a=4.0, b=2.3),
    "log_power": LogPower(a=1.5, b=0.9),
    "uniform": Uniform(l=-1.0, u=3.5),
    "gamma": Gamma(shape=3.2, rate=0.7),
    "trapezoid": Trapezoid(lower=1.0, flat_lo=2.0, flat_hi=3.5, upper=4.0),
    **{name: pp.predict(fitted) for name, fitted in FITS.items()},
}


def _bits(values):
    return [float.hex(v) for v in values]


def _alone(method, points):
    """method at each point on its own; each result must be a float."""
    out = [method(p) for p in points]
    assert all(isinstance(v, float) for v in out)
    return out


def _points(dist, rng):
    """The special points, each finite support edge with its float
    neighbours, and seeded points: half drawn from the law, half spread
    evenly past both ends of its central 99.8%."""
    points = list(SPECIAL)
    for e in dist.support():
        if math.isfinite(e):
            points += [math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)]
    lo, hi = dist.quantile(np.array([0.001, 0.999]))
    pad = 0.25 * (hi - lo)
    points += dist.sample(rng, size=SEEDED // 2).tolist()
    points += rng.uniform(lo - pad, hi + pad, SEEDED // 2).tolist()
    return points


@pytest.mark.parametrize("name", sorted(LAWS))
def test_scalar_gets_the_array_bits(name):
    dist = LAWS[name]
    rng = np.random.default_rng(sorted(LAWS).index(name))
    points = _points(dist, rng)
    x = np.array(points)
    for method in ("log_pdf", "pdf", "cdf"):
        evaluate = getattr(dist, method)
        assert _bits(_alone(evaluate, points)) == _bits(evaluate(x).tolist()), method
    probs = [*EDGE_PROBS, *rng.random(SEEDED).tolist()]
    alone = _alone(dist.quantile, probs)
    assert _bits(alone) == _bits(dist.quantile(np.array(probs)).tolist())


def test_width_density_scalar_gets_the_array_bits():
    post = FITS["uniform/joint"].posterior
    rng = np.random.default_rng(57)
    edge = post.w_n
    points = [*SPECIAL, math.nextafter(edge, -math.inf), edge,
              math.nextafter(edge, math.inf),
              *(edge * (1.0 + rng.exponential(0.5, SEEDED))).tolist()]
    got = _bits(_alone(post.width_pdf, points))
    assert got == _bits(post.width_pdf(np.array(points)).tolist())


PUBLIC = ("log_pdf", "pdf", "cdf", "quantile", "sample")


@pytest.mark.parametrize("module", [distributions, predictives, conjugate_uniform],
                         ids=lambda module: module.__name__.rsplit(".", 1)[-1])
def test_only_distribution_writes_the_public_evaluators(module):
    classes = [c for c in vars(module).values()
               if isinstance(c, type) and c.__module__ == module.__name__]
    assert classes
    own = {f"{c.__name__}.{name}" for c in classes if c is not Distribution
           for name in PUBLIC if name in vars(c)}
    assert not own
