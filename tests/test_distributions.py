"""Distribution surface: normalization, inverses, samplers, GP mappings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tailbayes import (
    GPParams,
    Gamma,
    LogPower,
    Lomax,
    Pareto,
    Power,
    ShiftedExp,
    Uniform,
    inverted_pareto,
    to_gp,
)
from tailbayes.distributions import XI_ZERO_TOL
from tailbayes.errors import DomainError, UnsupportedMappingError

NORMALIZATION_TOL = 1e-8
POINTWISE_TOL = 1e-10
ROUNDTRIP_TOL = 1e-12
KS_MAX = 0.02
KS_SAMPLES = 10_000

# One representative per density variant, reused by several suites below.
VARIANTS = {
    "gp_neg": GPParams(theta=0.5, sigma=2.0, xi=-0.7),
    "gp_zero": GPParams(theta=-1.0, sigma=0.5, xi=0.0),
    "gp_pos": GPParams(theta=2.0, sigma=1.5, xi=0.8),
    "pareto": Pareto(alpha=1.7, l=3.0),
    "lomax": Lomax(alpha=2.5, l=1.3),
    "shifted_exp": ShiftedExp(alpha=0.8, l=-2.0),
    "power": Power(a=4.0, b=2.3),
    "log_power": LogPower(a=1.5, b=0.9),
    "uniform": Uniform(l=-1.0, u=3.5),
    "gamma": Gamma(shape=3.2, rate=0.7),
}


def total_mass(dist) -> float:
    """Quadrature of the pdf over the support, split at quantile knots.

    Piecewise integration keeps every subinterval at the scale where the
    density actually lives, which matters for heavy tails whose 1-1e-9
    quantile sits many orders of magnitude above the bulk.
    """
    lo, hi = dist.support()
    ps = (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9)
    knots = [lo] + [float(dist.quantile(p)) for p in ps] + [hi]
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        if b <= a:
            continue
        if a > 0 and (b > 10.0 * a or math.isinf(b)):
            # log substitution tames power-law pieces spanning many decades
            piece, _ = integrate.quad(
                lambda u: dist.pdf(math.exp(u)) * math.exp(u),
                math.log(a), math.inf if math.isinf(b) else math.log(b),
                limit=200)
        else:
            piece, _ = integrate.quad(dist.pdf, a, b, limit=200)
        total += piece
    return total


def random_variant(rng: np.random.Generator, name: str):
    if name.startswith("gp"):
        xi = {"gp_neg": -rng.uniform(0.2, 1.5), "gp_zero": 0.0,
              "gp_pos": rng.uniform(0.2, 1.5)}[name]
        return GPParams(theta=rng.uniform(-5, 5), sigma=rng.uniform(0.3, 4.0), xi=xi)
    if name == "pareto":
        return Pareto(alpha=rng.uniform(0.5, 5.0), l=rng.uniform(0.2, 10.0))
    if name == "lomax":
        return Lomax(alpha=rng.uniform(0.5, 5.0), l=rng.uniform(0.2, 10.0))
    if name == "shifted_exp":
        return ShiftedExp(alpha=rng.uniform(0.1, 5.0), l=rng.uniform(-10, 10))
    if name == "power":
        return Power(a=rng.uniform(0.2, 10.0), b=rng.uniform(0.3, 5.0))
    if name == "log_power":
        return LogPower(a=rng.uniform(-5, 5), b=rng.uniform(0.3, 5.0))
    if name == "uniform":
        lo = rng.uniform(-10, 5)
        return Uniform(l=lo, u=lo + rng.uniform(0.1, 10.0))
    return Gamma(shape=rng.uniform(0.5, 8.0), rate=rng.uniform(0.2, 4.0))


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_normalization_random_draws(name):
    rng = np.random.default_rng(20250 + sorted(VARIANTS).index(name))
    for _ in range(50):
        dist = random_variant(rng, name)
        assert total_mass(dist) == pytest.approx(1.0, abs=NORMALIZATION_TOL)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_cdf_quantile_roundtrip(name):
    dist = VARIANTS[name]
    rng = np.random.default_rng(7)
    p = rng.uniform(1e-9, 1.0 - 1e-9, size=1000)
    back = dist.cdf(dist.quantile(p))
    assert np.max(np.abs(back - p)) < ROUNDTRIP_TOL


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_cdf_shape(name):
    dist = VARIANTS[name]
    lo, hi = dist.support()
    xs = np.sort(dist.quantile(np.linspace(1e-6, 1 - 1e-6, 200)))
    vals = dist.cdf(xs)
    assert np.all(np.diff(vals) >= 0)
    if math.isfinite(lo):
        assert dist.cdf(lo - 1.0) == 0.0
    if math.isfinite(hi):
        assert dist.cdf(hi + 1.0) == 1.0


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_sampler_ks(name):
    dist = VARIANTS[name]
    draws = np.sort(dist.sample(np.random.default_rng(1234), size=KS_SAMPLES))
    grid = np.arange(1, KS_SAMPLES + 1) / KS_SAMPLES
    cdf = dist.cdf(draws)
    ks = max(np.max(np.abs(grid - cdf)), np.max(np.abs(grid - 1.0 / KS_SAMPLES - cdf)))
    assert ks < KS_MAX


def test_sampler_deterministic_given_seed():
    dist = VARIANTS["pareto"]
    a = dist.sample(np.random.default_rng(99), size=5)
    b = dist.sample(np.random.default_rng(99), size=5)
    assert np.array_equal(a, b)
    assert isinstance(dist.sample(3), float)


def test_probability_domain_rejected():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            VARIANTS["uniform"].quantile(bad)


def test_invalid_parameters_rejected_at_construction():
    with pytest.raises(DomainError):
        GPParams(theta=0.0, sigma=0.0, xi=0.5)
    with pytest.raises(DomainError):
        Pareto(alpha=-1.0, l=1.0)
    with pytest.raises(DomainError):
        Pareto(alpha=1.0, l=0.0)
    with pytest.raises(DomainError):
        Power(a=1.0, b=0.0)
    with pytest.raises(DomainError):
        Uniform(l=2.0, u=2.0)
    with pytest.raises(DomainError):
        Gamma(shape=1.0, rate=0.0)


# Spot values for the pdf/cdf/quantile operations.

def test_gp_density_spot_values():
    assert GPParams(0.0, 1.0, 0.0).pdf(0.0) == pytest.approx(1.0, abs=1e-15)
    for xi in (-1.0, -0.3, 0.0, 0.4, 2.0):
        for sigma in (0.25, 1.0, 3.0):
            dist = GPParams(theta=1.0, sigma=sigma, xi=xi)
            assert dist.pdf(1.0) == pytest.approx(1.0 / sigma, rel=1e-14)


def test_pareto_gp_shared_point():
    # Pareto(2, 1) at x=2 and its Table-mapped GP(1, 0.5, 0.5) agree at 0.25.
    assert Pareto(alpha=2.0, l=1.0).pdf(2.0) == pytest.approx(0.25, abs=1e-15)
    assert GPParams(theta=1.0, sigma=0.5, xi=0.5).pdf(2.0) == pytest.approx(
        0.25, abs=1e-15)


def test_cdf_quantile_spot_values():
    assert Uniform(0.0, 4.0).cdf(1.0) == pytest.approx(0.25, abs=1e-15)
    assert Pareto(alpha=1.0, l=1.0).quantile(0.5) == pytest.approx(2.0, rel=1e-14)


def test_support_rules():
    assert GPParams(2.0, 1.0, 0.5).support() == (2.0, math.inf)
    lo, hi = GPParams(2.0, 1.0, -0.5).support()
    assert (lo, hi) == (2.0, 4.0)
    assert ShiftedExp(1.0, -3.0).support() == (-3.0, math.inf)
    assert Power(5.0, 2.0).support() == (0.0, 5.0)
    assert LogPower(1.5, 2.0).support() == (-math.inf, 1.5)


def test_left_closed_right_open_boundaries():
    # pdf at the exact left endpoint returns the limiting value, the right
    # endpoint returns 0.
    assert Uniform(0.0, 2.0).pdf(0.0) == pytest.approx(0.5)
    assert Uniform(0.0, 2.0).pdf(2.0) == 0.0
    assert Pareto(2.0, 1.0).pdf(1.0) == pytest.approx(2.0)
    assert Power(1.0, 2.0).pdf(1.0) == 0.0
    assert LogPower(0.0, 1.0).pdf(0.0) == 0.0
    gp = GPParams(0.0, 1.0, -1.0)
    assert gp.pdf(0.0) == pytest.approx(1.0)
    assert gp.pdf(1.0) == 0.0


def test_xi_zero_branch_continuity():
    # Just inside the zero tolerance the exponential branch is used and it
    # agrees with the nonzero branch evaluated just outside it.
    inner = GPParams(0.0, 1.0, XI_ZERO_TOL / 2)
    outer = GPParams(0.0, 1.0, 1e-9)
    xs = np.linspace(0.0, 20.0, 50)
    assert np.allclose(inner.pdf(xs), outer.pdf(xs), atol=1e-7)
    assert np.allclose(inner.cdf(xs), outer.cdf(xs), atol=1e-7)


# Mapping between the subclasses and generalized Pareto form.

def support_points(dist, count=100):
    return dist.quantile(np.linspace(0.002, 0.998, count))


@pytest.mark.parametrize("dist,expected", [
    (Pareto(alpha=2.0, l=1.0), GPParams(1.0, 0.5, 0.5)),
    (Uniform(l=0.0, u=3.0), GPParams(0.0, 3.0, -1.0)),
    (Power(a=3.0, b=2.0), GPParams(-3.0, 1.5, -0.5)),
    (Lomax(alpha=2.0, l=4.0), GPParams(0.0, 2.0, 0.5)),
    (ShiftedExp(alpha=4.0, l=-1.0), GPParams(-1.0, 0.25, 0.0)),
])
def test_to_gp_parameter_table(dist, expected):
    mapping = to_gp(dist)
    assert mapping.gp == expected
    expected_orientation = "negated" if isinstance(dist, Power) else "identity"
    assert mapping.orientation == expected_orientation


@pytest.mark.parametrize("name", ["pareto", "lomax", "shifted_exp", "power",
                                  "uniform"])
def test_change_of_variables_consistency(name):
    dist = VARIANTS[name]
    mapping = to_gp(dist)
    xs = support_points(dist)
    lhs = dist.pdf(xs)
    rhs = mapping.gp.pdf(mapping.transform(xs)) * mapping.jacobian(xs)
    assert np.max(np.abs(lhs - rhs)) < POINTWISE_TOL


def test_reciprocal_route_consistency():
    dist = Pareto(alpha=2.5, l=1.6)
    mapping = to_gp(dist, inverted=True)
    assert mapping.orientation == "reciprocal"
    assert mapping.gp == GPParams(-1.0 / 1.6, 1.0 / (1.6 * 2.5), -1.0 / 2.5)
    xs = support_points(dist)
    lhs = dist.pdf(xs)
    rhs = mapping.gp.pdf(mapping.transform(xs)) * mapping.jacobian(xs)
    assert np.max(np.abs(lhs - rhs)) < POINTWISE_TOL


def test_inverted_pareto_is_power():
    dist = inverted_pareto(2.5, 1.6)
    assert dist == Power(a=1.0 / 1.6, b=2.5)
    # Push-forward check: density of 1/X at y equals pareto density at 1/y
    # times the jacobian y**-2.
    ys = np.linspace(0.05, 1.0 / 1.6 - 0.01, 40)
    pareto = Pareto(alpha=2.5, l=1.6)
    assert np.max(np.abs(dist.pdf(ys) - pareto.pdf(1.0 / ys) / ys**2)) < POINTWISE_TOL


def test_to_gp_rejects_non_table_rows():
    with pytest.raises(UnsupportedMappingError):
        to_gp(Gamma(shape=1.0, rate=1.0))
    with pytest.raises(UnsupportedMappingError):
        to_gp(LogPower(a=0.0, b=1.0))
    with pytest.raises(UnsupportedMappingError):
        to_gp(Uniform(0.0, 1.0), inverted=True)


def test_log_of_power_is_log_power():
    # y ~ Power(a, b) implies log y ~ LogPower(log a, b).
    power = Power(a=3.0, b=2.2)
    logp = LogPower(a=math.log(3.0), b=2.2)
    ys = support_points(power)
    lhs = logp.pdf(np.log(ys))
    rhs = power.pdf(ys) * ys
    assert np.max(np.abs(lhs - rhs)) < POINTWISE_TOL


def test_log_of_pareto_is_shifted_exp():
    # x ~ Pareto(alpha, l) implies log(x/l) ~ ShiftedExp(alpha, 0).
    pareto = Pareto(alpha=1.8, l=2.5)
    exp0 = ShiftedExp(alpha=1.8, l=0.0)
    xs = support_points(pareto)
    lhs = exp0.pdf(np.log(xs / 2.5))
    rhs = pareto.pdf(xs) * xs
    assert np.max(np.abs(lhs - rhs)) < POINTWISE_TOL


@given(alpha=st.floats(0.3, 6.0), l=st.floats(0.01, 50.0),
       p=st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_pareto_roundtrip_property(alpha, l, p):
    dist = Pareto(alpha=alpha, l=l)
    assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=ROUNDTRIP_TOL)


@given(theta=st.floats(-20, 20), sigma=st.floats(0.05, 20.0),
       xi=st.floats(-2.0, 2.0), p=st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_gp_roundtrip_property(theta, sigma, xi, p):
    dist = GPParams(theta=theta, sigma=sigma, xi=xi)
    assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-10)


def test_gamma_rate_parameterization():
    # Density ~ x**(shape-1) * exp(-rate*x): check against the explicit form.
    dist = Gamma(shape=3.0, rate=2.0)
    xs = np.linspace(0.1, 6.0, 30)
    explicit = 2.0**3 * xs**2 * np.exp(-2.0 * xs) / 2.0
    assert np.max(np.abs(dist.pdf(xs) - explicit)) < POINTWISE_TOL
    assert dist.mean() == pytest.approx(1.5)
