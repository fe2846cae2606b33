"""Updates for uniform data: width, lower bound, and the joint case.

The width and location blocks are closed-form; the joint case has a
non-conjugate width marginal driven by tail integrals with series and
quadrature evaluation paths.  Tests pin the serial-number worked example,
the trapezoid predictive, the evidence constant, both evaluation paths
against each other, and the joint predictive against its defining
mixture.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats as sps

from tailbayes.conjugate_uniform import (
    EvidenceResult,
    UniformJointPrior,
    UniformPriorL,
    UniformPriorW,
    _tail_linear,
    _tail_linear_quad,
    _tail_square,
    _tail_square_quad,
    evidence_C,
    noninformative,
    posterior_joint,
    posterior_location,
    posterior_w,
    predictive_joint,
    predictive_location,
    predictive_w,
)
from tailbayes.distributions import Pareto, Uniform
from tailbayes.errors import (
    ConvergenceError,
    DataError,
    DomainError,
    InvalidRegimeError,
    NoInformationError,
)
from tailbayes.predictives import Trapezoid
from tailbayes.sufficient import EMPTY, suff_stats

EXACT_TOL = 1e-12
PATH_AGREEMENT_TOL = 1e-10
REDUCTION_TOL = 1e-10
MIXTURE_TOL = 1e-6
NORMALIZATION_TOL = 1e-6
KS_MAX = 0.02
KS_SAMPLES = 10_000

# 100 serial numbers on [1, 993] with the maximum attained exactly
SERIAL_SAMPLE = np.linspace(5.0, 993.0, 100)


class TestWidth:
    def test_serial_number_posterior(self):
        post = noninformative("width", suff_stats(SERIAL_SAMPLE), l=1.0)
        assert post.w_n == 992.0
        assert post.n_eff == 100.0
        assert post.l == 1.0
        assert post.distribution() == Pareto(100.0, 992.0)

    def test_serial_number_predictive(self):
        post = noninformative("width", suff_stats(SERIAL_SAMPLE), l=1.0)
        pred = predictive_w(post)
        assert isinstance(pred, Uniform)
        assert pred.l == 1.0
        # 1 + (101/100) * 992
        assert pred.u == pytest.approx(1002.92, abs=1e-9)
        assert pred.u > 1.0 + 992.0

    def test_empty_batch_keeps_prior(self):
        post = posterior_w(UniformPriorW(w0=5.0, n0=2.0, l=0.0), EMPTY)
        assert post.w_n == 5.0
        assert post.n_eff == 2.0

    def test_prior_width_can_win(self):
        post = posterior_w(UniformPriorW(w0=9.0, n0=1.0, l=0.0),
                           suff_stats([1.0, 4.0]))
        assert post.w_n == 9.0
        assert post.n_eff == 3.0

    def test_datum_below_known_bound_rejected(self):
        with pytest.raises(DomainError):
            posterior_w(UniformPriorW(w0=1.0, n0=1.0, l=2.0),
                        suff_stats([1.5, 3.0]))
        with pytest.raises(DomainError):
            noninformative("width", suff_stats([1.5, 3.0]), l=2.0)

    def test_zero_observed_width_degenerate(self):
        with pytest.raises(DomainError):
            noninformative("width", suff_stats([2.0, 2.0]), l=2.0)

    def test_no_information_paths(self):
        post = noninformative("width", EMPTY, l=0.0)
        assert not post.is_proper
        with pytest.raises(NoInformationError):
            post.distribution()
        with pytest.raises(NoInformationError):
            predictive_w(post)

    def test_predictive_matches_width_mixture(self):
        # mixing Uniform(l, l+w) over the width posterior is flat on
        # (l, l + w_n] and power-decaying beyond; the stated predictive
        # matches it exactly on the flat region and matches its mass
        post = posterior_w(UniformPriorW(w0=2.0, n0=3.0, l=1.0),
                           suff_stats([1.5, 2.8]))
        pred = predictive_w(post)
        width_law = post.distribution()

        def mixture(x):
            value, err = integrate.quad(
                lambda w: Uniform(1.0, 1.0 + w).pdf(x) * width_law.pdf(w),
                max(post.w_n, x - 1.0),
                np.inf,
                epsabs=1e-13,
                epsrel=1e-11,
            )
            assert err < 1e-9
            return value

        level = 1.0 / (pred.u - pred.l)
        for x in np.linspace(1.001, 1.0 + post.w_n, 20):
            assert mixture(x) == pytest.approx(level, rel=1e-9)
            assert pred.pdf(x) == pytest.approx(level, rel=EXACT_TOL)
        tail_mass, _ = integrate.quad(mixture, 1.0 + post.w_n, 1.0 + 40.0)
        assert tail_mass == pytest.approx(
            1.0 - pred.cdf(1.0 + post.w_n), rel=1e-6
        )


class TestLocation:
    PRIOR = UniformPriorL(l0=2.0, u0=8.0, w=10.0)

    def test_worked_posterior(self):
        post = posterior_location(self.PRIOR, suff_stats([3.0, 7.0]))
        assert post.low == -2.0
        assert post.high == 2.0
        assert post.width == 10.0
        assert post.distribution() == Uniform(-2.0, 2.0)

    def test_worked_trapezoid(self):
        post = posterior_location(self.PRIOR, suff_stats([3.0, 7.0]))
        pred = predictive_location(post)
        assert isinstance(pred, Trapezoid)
        assert pred.support() == (-2.0, 12.0)
        # flat middle spans the pooled data interval at level 1/w
        for x in (2.0, 5.0, 7.999):
            assert pred.pdf(x) == pytest.approx(0.1, rel=EXACT_TOL)
        assert pred.pdf(9.0) == pytest.approx(0.075, rel=EXACT_TOL)
        assert pred.pdf(-1.0) == pytest.approx(0.025, rel=EXACT_TOL)

    def test_trapezoid_continuity_at_knots(self):
        post = posterior_location(self.PRIOR, suff_stats([3.0, 7.0]))
        pred = predictive_location(post)
        eps = 1e-9
        assert pred.pdf(2.0 - eps) == pytest.approx(0.1, abs=1e-9)
        assert pred.pdf(8.0 + eps) == pytest.approx(0.1, abs=1e-9)
        assert pred.pdf(-2.0 + eps) == pytest.approx(0.0, abs=1e-9)
        assert pred.pdf(12.0 - eps) == pytest.approx(0.0, abs=1e-9)

    def test_trapezoid_normalizes(self):
        post = posterior_location(self.PRIOR, suff_stats([3.0, 7.0]))
        pred = predictive_location(post)
        knots = (-2.0, 2.0, 8.0, 12.0)
        mass = 0.0
        for a, b in zip(knots[:-1], knots[1:]):
            piece, err = integrate.quad(pred.pdf, a, b)
            assert err < 1e-12
            mass += piece
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_predictive_matches_location_mixture(self):
        # overlap of Uniform(l, l+w) with the posterior over l, done
        # analytically: the trapezoid is exactly that overlap integral
        post = posterior_location(self.PRIOR, suff_stats([3.0, 7.0]))
        pred = predictive_location(post)
        w = post.width
        lo, hi = post.low, post.high

        def mixture(x):
            a = max(lo, x - w)
            b = min(hi, x)
            return max(b - a, 0.0) / (w * (hi - lo))

        for x in np.linspace(-3.0, 13.0, 41):
            assert pred.pdf(x) == pytest.approx(mixture(x), abs=EXACT_TOL)

    def test_triangle_when_interval_degenerates(self):
        prior = UniformPriorL(l0=5.0, u0=5.0, w=2.0)
        post = posterior_location(prior, suff_stats([5.0]))
        assert post.distribution() == Uniform(3.0, 5.0)
        pred = predictive_location(post)
        assert pred.flat_lo == pred.flat_hi == 5.0
        assert pred.pdf(5.0) == pytest.approx(0.5, rel=EXACT_TOL)
        mass, _ = integrate.quad(pred.pdf, 3.0, 7.0)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_empty_batch_keeps_prior(self):
        post = posterior_location(self.PRIOR, EMPTY)
        assert post.low == -2.0
        assert post.high == 2.0

    def test_range_exceeding_width_rejected(self):
        with pytest.raises(DataError):
            posterior_location(self.PRIOR, suff_stats([0.0, 11.0]))

    def test_prior_data_conflict_rejected(self):
        # data sit far below the prior's upper anchor: no lower-bound
        # value is compatible with both at the known width
        prior = UniformPriorL(l0=0.0, u0=1.0, w=2.0)
        with pytest.raises(DataError):
            posterior_location(prior, suff_stats([-5.0, -4.5]))

    def test_prior_validation(self):
        with pytest.raises(DomainError):
            UniformPriorL(l0=0.0, u0=5.0, w=2.0)
        with pytest.raises(DomainError):
            UniformPriorL(l0=0.0, u0=0.0, w=-1.0)

    def test_noninformative_lower(self):
        post = noninformative("lower", suff_stats([3.0, 7.0]), w=10.0)
        assert post.distribution() == Uniform(-3.0, 3.0)

    def test_noninformative_lower_no_data(self):
        post = noninformative("lower", EMPTY, w=10.0)
        assert not post.is_proper
        with pytest.raises(NoInformationError):
            predictive_location(post)


class TestEvidence:
    def test_symmetric_reduction(self):
        res = evidence_C(3.0, 1.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, rel=EXACT_TOL)
        assert "analytic reduction" in res.note

    def test_worked_value(self):
        res = evidence_C(2.0, 0.5, 1.0)
        assert res.value == pytest.approx(0.22741127776021874, rel=1e-10)

    def test_worked_value_against_series(self):
        # independent series: C = 1/N - (w_n - w0) * S(w0/w_n, N+1) in
        # units of w_n, with S(x, a) = sum_k x**k / (a+k)
        s = sum(0.5**k / (3.0 + k) for k in range(200))
        expected = 0.5 - 0.5 * s
        res = evidence_C(2.0, 0.5, 1.0)
        assert res.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_eff", [1e5, 1e6])
    def test_posterior_outside_evidence_bracket_raises(self, n_eff):
        # w0/w_n = 0.2 and n_eff carried by the prior's pseudo-count: quad
        # misses the mass near w = w_n (c_n = 2e-98 at 1e5, 0.0 at 1e6)
        # where c_n must lie in [1/(N(N+1)), 1/N]
        prior = UniformJointPrior(w0=0.8, n0=n_eff - 3.0, l0=4.0, u0=6.0)
        with pytest.raises(ConvergenceError, match="outside its bound"):
            posterior_joint(prior, suff_stats([3.0, 5.0, 7.0]))

    def test_scaling_in_the_range(self):
        # C(N) in raw units scales as w_n**-N times the scaled constant
        a = evidence_C(2.0, 0.5, 1.0)
        b = evidence_C(2.0, 1.5, 3.0)
        assert b.value == pytest.approx(a.value / 9.0, rel=1e-9)

    def test_pole_inside_support_rejected(self):
        with pytest.raises(InvalidRegimeError):
            evidence_C(2.0, 1.5, 1.0)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            evidence_C(0.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            evidence_C(2.0, -0.5, 1.0)
        with pytest.raises(DomainError):
            evidence_C(2.0, 0.5, 0.0)


class TestTailIntegralPaths:
    CASES = [
        (3.0, 1.0, 0.4),
        (5.0, 1.2, 0.9),
        (2.5, 2.0, 1.0),
        (4.0, 1.0, 0.998),
    ]

    def test_linear_series_matches_quadrature(self):
        for order, knee, pole in self.CASES:
            series = _tail_linear(order, knee, pole)
            quad_value = _tail_linear_quad(order, knee, pole)
            assert series == pytest.approx(quad_value, rel=PATH_AGREEMENT_TOL)

    def test_square_series_matches_quadrature(self):
        for order, knee, pole in self.CASES:
            series = _tail_square(order, knee, pole)
            quad_value = _tail_square_quad(order, knee, pole)
            assert series == pytest.approx(quad_value, rel=PATH_AGREEMENT_TOL)

    def test_mass_split_identity(self):
        # splitting (v-1) = (v-sigma) + (sigma-1) at sigma = 1 gives
        # 2*Q(N+1, 1) + K(N+1, 1) = C(N) in w_n units
        for n_eff, rho in ((4.0, 0.4), (2.0, 0.9), (7.0, 0.0)):
            c_n = _tail_linear(n_eff, 1.0, rho)
            k = _tail_linear(n_eff + 1.0, 1.0, rho)
            q = _tail_square(n_eff + 1.0, 1.0, rho)
            assert 2.0 * q + k == pytest.approx(c_n, rel=EXACT_TOL)

    def test_validation(self):
        with pytest.raises(DomainError):
            _tail_linear(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            _tail_linear(2.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            _tail_square(0.5, 1.0, 0.2)


class TestJointPosterior:
    PRIOR = UniformJointPrior(w0=1.0, n0=1.0, l0=0.0, u0=1.0)
    DATA = [0.2, 2.5, 1.0]

    def post(self):
        return posterior_joint(self.PRIOR, suff_stats(self.DATA))

    def test_pooled_geometry(self):
        post = self.post()
        assert post.l_n == 0.0
        assert post.u_n == 2.5
        assert post.w_n == 2.5
        assert post.n_eff == 4.0

    def test_evidence_matches_standalone(self):
        post = self.post()
        res = evidence_C(post.n_eff, post.w0, post.w_n)
        assert post.evidence_value == pytest.approx(res.value, rel=1e-9)

    def test_width_pdf_normalizes(self):
        post = self.post()
        mass, err = integrate.quad(post.width_pdf, post.w_n, np.inf, limit=300)
        assert err < 1e-9
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_width_cdf_matches_pdf_quadrature(self):
        post = self.post()
        for w in (2.6, 3.0, 5.0, 12.0):
            mass, err = integrate.quad(post.width_pdf, post.w_n, w, limit=300)
            assert err < 1e-10
            assert post.width_cdf(w) == pytest.approx(mass, abs=1e-9)
        assert post.width_cdf(post.w_n) == 0.0
        assert post.width_cdf(1e9) == pytest.approx(1.0, abs=1e-9)

    def test_conditional_location(self):
        post = self.post()
        cond = post.conditional_location(4.0)
        assert cond == Uniform(2.5 - 4.0, 0.0)
        assert cond.u - cond.l == pytest.approx(4.0 - post.w_n, rel=EXACT_TOL)
        with pytest.raises(DomainError):
            post.conditional_location(post.w_n)

    def test_symmetric_case_reduces_to_width_posterior(self):
        # w0 equal to the pooled range collapses the marginal to the
        # known-bound width posterior
        prior = UniformJointPrior(w0=6.0, n0=0.0, l0=1.0, u0=7.0)
        post = posterior_joint(prior, suff_stats([2.0, 5.0, 3.0]))
        assert post.w_n == 6.0
        assert post.c_n == pytest.approx(1.0 / 3.0, rel=EXACT_TOL)
        reference = Pareto(post.n_eff, post.w_n)
        for w in np.linspace(6.0 + 1e-9, 30.0, 50):
            assert post.width_pdf(w) == pytest.approx(
                reference.pdf(w), rel=REDUCTION_TOL
            )
            assert post.width_cdf(w) == pytest.approx(
                reference.cdf(w), rel=REDUCTION_TOL
            )

    def test_update_errors(self):
        with pytest.raises(DomainError):
            posterior_joint(self.PRIOR, EMPTY)
        point = UniformJointPrior(w0=1.0, n0=1.0, l0=5.0, u0=5.0)
        with pytest.raises(InvalidRegimeError, match="single point"):
            posterior_joint(point, suff_stats([5.0]))
        wide = UniformJointPrior(w0=50.0, n0=1.0, l0=0.0, u0=1.0)
        with pytest.raises(InvalidRegimeError, match="pole"):
            posterior_joint(wide, suff_stats(self.DATA))


class TestJointPredictive:
    PRIOR = UniformJointPrior(w0=1.0, n0=1.0, l0=0.0, u0=1.0)
    DATA = [0.2, 2.5, 1.0]

    def pred(self):
        return predictive_joint(posterior_joint(self.PRIOR, suff_stats(self.DATA)))

    def test_support_is_unbounded(self):
        pred = self.pred()
        assert pred.support() == (-math.inf, math.inf)

    def test_flat_middle(self):
        pred = self.pred()
        level = pred.flat_level
        for x in (0.0, 0.7, 1.9, 2.5 - 1e-9):
            assert pred.pdf(x) == pytest.approx(level, rel=EXACT_TOL)
        # continuity across the edges of the data span
        assert pred.pdf(-1e-9) == pytest.approx(level, rel=1e-6)
        assert pred.pdf(2.5 + 1e-9) == pytest.approx(level, rel=1e-6)

    def test_normalizes(self):
        pred = self.pred()
        below, err_b = integrate.quad(pred.pdf, -np.inf, pred.l_n, limit=300)
        above, err_a = integrate.quad(pred.pdf, pred.u_n, np.inf, limit=300)
        assert max(err_b, err_a) < 1e-9
        middle = pred.w_n * pred.flat_level
        assert below + middle + above == pytest.approx(
            1.0, abs=NORMALIZATION_TOL
        )

    def test_cdf_matches_pdf_quadrature(self):
        pred = self.pred()
        for x in (-3.0, -0.5, 1.0, 3.0, 8.0):
            mass, err = integrate.quad(pred.pdf, -np.inf, x, limit=300)
            assert err < 1e-8
            assert pred.cdf(x) == pytest.approx(mass, abs=1e-8)

    def test_quantile_roundtrip(self):
        pred = self.pred()
        for p in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert pred.cdf(pred.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_matches_defining_mixture(self):
        # integrate Uniform(l, l+w) over the joint posterior directly
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        pred = self.pred()
        l_n, u_n, w_n = post.l_n, post.u_n, post.w_n

        def mixture(x):
            def over_width(w):
                a = max(u_n - w, x - w)
                b = min(l_n, x)
                return post.width_pdf(w) * max(b - a, 0.0) / (w * (w - w_n))

            lo = max(w_n, max(u_n, x) - min(l_n, x))
            value, err = integrate.quad(
                over_width, lo, np.inf, epsabs=1e-13, epsrel=1e-11, limit=300
            )
            assert err < 1e-9
            return value

        for x in (-2.0, -0.3, 0.5, 1.7, 3.0, 6.0):
            assert pred.pdf(x) == pytest.approx(mixture(x), rel=MIXTURE_TOL)

    def test_sampler_against_cdf(self):
        pred = self.pred()
        rng = np.random.default_rng(90210)
        draws = pred.sample(rng, KS_SAMPLES)
        ks = sps.kstest(draws, lambda v: pred.cdf(v)).statistic
        assert ks < KS_MAX

    def test_sampler_extrapolates(self):
        pred = self.pred()
        rng = np.random.default_rng(90211)
        draws = pred.sample(rng, 2000)
        assert draws.min() < pred.l_n
        assert draws.max() > pred.u_n

    def test_sampler_deterministic(self):
        pred = self.pred()
        a = pred.sample(np.random.default_rng(11), 5)
        b = pred.sample(np.random.default_rng(11), 5)
        np.testing.assert_array_equal(a, b)
        assert isinstance(pred.sample(np.random.default_rng(11)), float)

    def test_symmetric_case_flat_level(self):
        # w0 = w_n: the flat level reduces to N / ((N+1) * w_n)
        prior = UniformJointPrior(w0=6.0, n0=0.0, l0=1.0, u0=7.0)
        post = posterior_joint(prior, suff_stats([2.0, 5.0, 3.0]))
        numeric = predictive_joint(post)
        n = post.n_eff
        expected = n / ((n + 1.0) * post.w_n)
        assert numeric.flat_level == pytest.approx(expected, rel=EXACT_TOL)
        assert numeric.pdf(4.0) == pytest.approx(expected, rel=REDUCTION_TOL)


def test_unknown_case_rejected():
    with pytest.raises(DomainError):
        noninformative("range", EMPTY, l=0.0)
