"""The Pareto, shifted-exponential and power updates give exactly the
closed forms their modules state.

Every expected posterior below is the family's formula written out over
the sufficient statistics, in the grouping the formula states, and is
compared with ==: data within 1e-13 of the bound, data offset by 1e9,
data below 1 and no data at all.  Where the formula's rate is not
positive (or nothing is known) the expected value is the error type.
"""

import math

import numpy as np
import pytest

from tailbayes import conjugate_exponential as cexp
from tailbayes import conjugate_pareto as cpar
from tailbayes import conjugate_power as cpow
from tailbayes.conjugate_kernel import GammaPosterior
from tailbayes.errors import DomainError, InvalidRegimeError, NoInformationError
from tailbayes.sufficient import suff_stats

U = np.random.default_rng(4111).random(40)
DATA = {
    "near_bound": 1.0 + 1e-13 * U,
    "offset": 1e9 + U,
    "below_one": 0.05 + 0.9 * U,
    "empty": np.array([]),
}
# known bounds that the data respect, as close to the data as they come
LOW = {"near_bound": 1.0, "offset": 1e9, "below_one": 0.05, "empty": 1.0}
HIGH = {"near_bound": 1.0 + 1e-12, "offset": 1e9 + 1.0, "below_one": 0.95,
        "empty": 1.0}


def lower(b0, s):
    return b0 if s.n == 0 else min(b0, s.min)


def upper(b0, s):
    return b0 if s.n == 0 else max(b0, s.max)


def gamma(shape, rate, regime=DomainError):
    if shape == 0:
        return NoInformationError
    return GammaPosterior(shape, rate) if rate > 0 else regime


def joint(cls, bound, count, block):
    return block if isinstance(block, type) else cls(bound, count, block)


# cell -> (key, stats) -> (the update, its expected posterior)
CELLS = {
    "pareto-location": lambda k, s: (
        lambda: cpar.posterior_l(cpar.ParetoPriorL(l0=2.0, n0=3.0, alpha=1.5), s),
        cpar.LowerBoundPosterior(lower(2.0, s), 1.5, 3.0 + s.n)),
    "pareto-shape": lambda k, s: (
        lambda: cpar.posterior_alpha(cpar.ParetoPriorAlpha(g0=2.0, n0=3.0, l=LOW[k]), s),
        gamma(3.0 + s.n, 3.0 * math.log(2.0) + (s.sum_log - s.n * math.log(LOW[k])))),
    "pareto-joint": lambda k, s: (
        lambda: cpar.posterior_joint(
            cpar.ParetoJointPrior(l0=2.0, n0=1.0, g0=3.0, n0_shape=2.0), s),
        joint(cpar.ParetoJointPosterior, lower(2.0, s), 1.0 + s.n,
              gamma(2.0 + s.n, 2.0 * math.log(3.0) + s.sum_log, InvalidRegimeError))),
    "shifted_exp-location": lambda k, s: (
        lambda: cexp.posterior_l(cexp.ExpPriorL(l0=2.0, n0=3.0, alpha=1.5), s),
        cexp.OnsetPosterior(lower(2.0, s), 1.5, 3.0 + s.n)),
    "shifted_exp-shape": lambda k, s: (
        lambda: cexp.posterior_alpha(
            cexp.ExpPriorAlpha(mu0=LOW[k] + 2.0, n0=3.0, l=LOW[k]), s),
        gamma(3.0 + s.n, 3.0 * ((LOW[k] + 2.0) - LOW[k]) + (s.sum - s.n * LOW[k]))),
    "shifted_exp-joint": lambda k, s: (
        lambda: cexp.posterior_joint(
            cexp.ExpJointPrior(l0=2.0, n0=1.0, mu0=3.0, n0_rate=2.0), s),
        joint(cexp.ExpJointPosterior, lower(2.0, s), 1.0 + s.n,
              gamma(2.0 + s.n, 2.0 * 3.0 + s.sum, InvalidRegimeError))),
    "power-location": lambda k, s: (
        lambda: cpow.posterior_u(cpow.PowerPriorU(u0=0.5, n0=3.0, alpha=1.5), s),
        cpow.UpperBoundPosterior(upper(0.5, s), 1.5, 3.0 + s.n)),
    "power-shape": lambda k, s: (
        lambda: cpow.posterior_alpha(cpow.PowerPriorAlpha(g0=0.5, n0=3.0, u=HIGH[k]), s),
        gamma(3.0 + s.n, -3.0 * math.log(0.5) + (s.n * math.log(HIGH[k]) - s.sum_log))),
    "power-joint": lambda k, s: (
        lambda: cpow.posterior_joint(
            cpow.PowerJointPrior(u0=0.5, n0=1.0, g0=0.5, n0_shape=2.0), s),
        joint(cpow.PowerJointPosterior, upper(0.5, s), 1.0 + s.n,
              gamma(2.0 + s.n, -2.0 * math.log(0.5) - s.sum_log, InvalidRegimeError))),
}

NONINFORMATIVE = {
    # Pareto's flat-bound limit keeps a residual pseudo-count of 1/alpha
    "pareto-location": lambda k, s: (
        lambda: cpar.noninformative("location", s, alpha=1.5),
        cpar.LowerBoundPosterior(lower(math.inf, s), 1.5, s.n + 1.0 / 1.5)),
    "pareto-shape": lambda k, s: (
        lambda: cpar.noninformative("shape", s, l=LOW[k]),
        GammaPosterior(0.0, 0.0) if s.n == 0
        else gamma(float(s.n), s.sum_log - s.n * math.log(LOW[k]))),
    "shifted_exp-location": lambda k, s: (
        lambda: cexp.noninformative("location", s, alpha=1.5),
        cexp.OnsetPosterior(lower(math.inf, s), 1.5, float(s.n))),
    "shifted_exp-shape": lambda k, s: (
        lambda: cexp.noninformative("shape", s, l=LOW[k]),
        GammaPosterior(0.0, 0.0) if s.n == 0
        else gamma(float(s.n), s.sum - s.n * LOW[k])),
    "power-location": lambda k, s: (
        lambda: cpow.noninformative("bound", s, alpha=1.5),
        cpow.UpperBoundPosterior(upper(0.0, s), 1.5, float(s.n))),
    "power-shape": lambda k, s: (
        lambda: cpow.noninformative("shape", s, u=HIGH[k]),
        GammaPosterior(0.0, 0.0) if s.n == 0
        else gamma(float(s.n), s.n * math.log(HIGH[k]) - s.sum_log)),
}


def check(table, name, key):
    update, expected = table[name](key, suff_stats(DATA[key]))
    if isinstance(expected, type):
        with pytest.raises(expected):
            update()
    else:
        assert update() == expected


@pytest.mark.parametrize("key", DATA)
@pytest.mark.parametrize("name", CELLS)
def test_prior_update_is_the_stated_formula(name, key):
    check(CELLS, name, key)


@pytest.mark.parametrize("key", DATA)
@pytest.mark.parametrize("name", NONINFORMATIVE)
def test_noninformative_limit_is_the_stated_formula(name, key):
    check(NONINFORMATIVE, name, key)


def test_near_bound_shape_cases_compare_numbers():
    # the shape-case rates on near-bound data are differences of nearly
    # equal sums; the known bounds keep them positive, so the == checks
    # above compare numbers there, not error types
    s = suff_stats(DATA["near_bound"])
    for table in (CELLS, NONINFORMATIVE):
        for name in ("pareto-shape", "shifted_exp-shape", "power-shape"):
            assert isinstance(table[name]("near_bound", s)[1], GammaPosterior), name


NON_POSITIVE = suff_stats([-1.0, 0.5, 2.0])
OUTSIDE = {
    "pareto-location": lambda: cpar.posterior_l(
        cpar.ParetoPriorL(l0=2.0, n0=1.0, alpha=1.5), NON_POSITIVE),
    "pareto-shape": lambda: cpar.posterior_alpha(
        cpar.ParetoPriorAlpha(g0=2.0, n0=1.0, l=1.0), suff_stats([0.9, 2.0])),
    "pareto-joint": lambda: cpar.posterior_joint(
        cpar.ParetoJointPrior(l0=2.0, n0=1.0, g0=3.0, n0_shape=2.0), NON_POSITIVE),
    "pareto-noninformative-location": lambda: cpar.noninformative(
        "location", NON_POSITIVE, alpha=1.5),
    "pareto-noninformative-shape": lambda: cpar.noninformative(
        "shape", NON_POSITIVE, l=1.0),
    "shifted_exp-shape": lambda: cexp.posterior_alpha(
        cexp.ExpPriorAlpha(mu0=3.0, n0=1.0, l=1.0), suff_stats([0.9, 2.0])),
    "shifted_exp-noninformative-shape": lambda: cexp.noninformative(
        "shape", suff_stats([0.9, 2.0]), l=1.0),
    "power-location": lambda: cpow.posterior_u(
        cpow.PowerPriorU(u0=0.5, n0=1.0, alpha=1.5), NON_POSITIVE),
    "power-shape": lambda: cpow.posterior_alpha(
        cpow.PowerPriorAlpha(g0=0.5, n0=1.0, u=1.0), suff_stats([0.5, 1.1])),
    "power-joint": lambda: cpow.posterior_joint(
        cpow.PowerJointPrior(u0=0.5, n0=1.0, g0=0.5, n0_shape=2.0), NON_POSITIVE),
    "power-noninformative-location": lambda: cpow.noninformative(
        "bound", NON_POSITIVE, alpha=1.5),
    "power-noninformative-shape": lambda: cpow.noninformative(
        "shape", suff_stats([0.5, 1.1]), u=1.0),
}


@pytest.mark.parametrize("name", OUTSIDE)
def test_data_outside_the_family_domain(name):
    with pytest.raises(DomainError):
        OUTSIDE[name]()
