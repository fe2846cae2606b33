"""Each kernel family's axis record agrees with itself, form by form.

A record writes one map t of the observable in several forms: the
scalar t and sum_t that the kernel updates read, the array distance,
inverse and log-Jacobian and the scalar edge that the link predictive
reads, and the flags rises and positive.  Each form is checked against
the scalar t on seeded points in the family's domain: near the anchor,
a factor of 100 from it, and at a 1e9 offset on the shift axis.  An edit
to one form alone fails here, not only in the golden file.
"""

import math

import numpy as np
import pytest

from tailbayes import conjugate_exponential as cexp
from tailbayes import conjugate_kernel as kernel
from tailbayes import conjugate_pareto as cpar
from tailbayes import conjugate_power as cpow
from tailbayes.predictives import LOG_AXIS, NEG_LOG_AXIS, SHIFT_AXIS
from tailbayes.sufficient import suff_stats

# record, its family's kernel axis, and anchors at least 1 from t = 0, so
# that a few ulps of the larger t cover the rounding of log(x/b)
FAMILIES = {
    "log": (LOG_AXIS, cpar._AXIS, (0.05, 3.0, 2e5)),
    "shift": (SHIFT_AXIS, cexp._AXIS, (-40.0, 3.0, 1e9)),
    "neg_log": (NEG_LOG_AXIS, cpow._AXIS, (0.05, 3.0, 2e5)),
}
ULPS = 4


def _points(name, b):
    """Seeded points near the anchor b and a factor of 100 from it (on
    the shift axis, 100 from it, and within 1 of a 1e9 anchor)."""
    u = np.random.default_rng(7919).random(40)
    if name == "shift":
        width = 1.0 if b == 1e9 else 100.0
        return np.concatenate([b + 1e-6 * (u - 0.5), b + width * (2.0 * u - 1.0)])
    return np.concatenate([b * (1.0 + 1e-6 * (u - 0.5)), b * 100.0 ** (2.0 * u - 1.0)])


def _cases():
    for name, (_, _, anchors) in FAMILIES.items():
        for b in anchors:
            yield pytest.param(name, b, id=f"{name}-{b:g}")


def _ulps(a, b):
    return ULPS * math.ulp(max(abs(a), abs(b)))


def test_each_family_reads_its_record():
    for record, axis, _ in FAMILIES.values():
        assert axis.map is record
        assert axis.link.axis is record


@pytest.mark.parametrize("name, b", _cases())
def test_distance_is_the_difference_of_t(name, b):
    t = FAMILIES[name][0].t
    x = _points(name, b)
    d = FAMILIES[name][0].distance(x, b)
    for xi, di in zip(x.tolist(), d.tolist()):
        assert abs(di - (t(xi) - t(b))) <= _ulps(t(xi), t(b)), xi


@pytest.mark.parametrize("name, b", _cases())
def test_inverse_and_edge_give_x_back(name, b):
    record = FAMILIES[name][0]
    x = _points(name, b)
    back = record.inverse(record.distance(x, b), b)
    assert np.all(np.abs(back - x) <= ULPS * np.spacing(np.abs(x)))
    # the scalar edge is the inverse at one distance
    for d in record.distance(x[::10], b).tolist():
        inv = record.inverse(np.array([d]), b)[0]
        assert abs(record.edge(d, b) - inv) <= 2 * math.ulp(inv)


@pytest.mark.parametrize("name, b", _cases())
def test_log_jacobian_is_the_slope_of_t(name, b):
    record = FAMILIES[name][0]
    x = _points(name, b)[40:]
    h = 1e-3 * np.abs(x)
    # five-point central difference: its truncation error, about
    # (h/x)**4 relative, and its rounding, about ulp/(h/x), are both
    # below 1e-10 here

    def step(k):
        return record.distance(x + k * h, b) - record.distance(x - k * h, b)

    slope = (8.0 * step(1) - step(2)) / (12.0 * h)
    np.testing.assert_allclose(record.log_jacobian(x) + np.zeros(x.shape),
                               np.log(np.abs(slope)), rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", FAMILIES)
def test_positive_is_where_t_is_defined(name):
    record = FAMILIES[name][0]
    d = record.distance(np.array([-1.0, 0.0]), 3.0)
    assert record.positive == bool(np.isinf(d).all())
    assert record.positive != bool(np.isfinite(d).all())


@pytest.mark.parametrize("name, data", [
    ("log", 1.5 + 300.0 * np.random.default_rng(1).random(40)),
    ("shift", 0.5 + 300.0 * np.random.default_rng(2).random(40)),
    ("shift", 1e9 + np.random.default_rng(3).random(40)),
    ("neg_log", 0.02 + 0.97 * np.random.default_rng(4).random(40)),
])
def test_sum_t_is_the_sum_of_t(name, data):
    # t has one sign on each data set, so fsum of t is the sum to a few
    # ulps of each term
    record = FAMILIES[name][0]
    exact = math.fsum(record.t(x) for x in data.tolist())
    assert record.sum_t(suff_stats(data)) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("name", FAMILIES)
def test_rises_is_the_extreme_the_kernel_pools(name):
    # with a prior bound at the data's largest t, the pooled bound is the
    # datum of least t: the minimum where t rises in x, else the maximum
    record, axis, _ = FAMILIES[name]
    data = 0.1 + 0.8 * np.random.default_rng(5).random(12)
    t = [record.t(x) for x in data.tolist()]
    pooled = kernel._pooled(axis, float(data[np.argmax(t)]), suff_stats(data))
    assert pooled == data[np.argmin(t)]
    assert record.rises == (t[int(np.argmin(data))] < t[int(np.argmax(data))])
