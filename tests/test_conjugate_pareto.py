"""Conjugate updates for Pareto data: bound, exponent, and joint cases.

Closed-form posteriors and predictives are checked against direct
quadrature of the defining mixtures, against hand-derived parameter
values, and against each other through batch/sequential composition.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tailbayes.conjugate_pareto import (
    GammaPosterior,
    LowerBoundPosterior,
    ParetoJointPrior,
    ParetoPriorAlpha,
    ParetoPriorL,
    extrapolation_factor,
    noninformative,
    posterior_alpha,
    posterior_joint,
    posterior_l,
    predictive_alpha,
    predictive_joint,
    predictive_l,
)
from tailbayes.distributions import Gamma, Pareto, Power
from tailbayes.errors import DomainError, InvalidRegimeError, NoInformationError
from tailbayes.sufficient import EMPTY, merge, suff_stats

EXACT_TOL = 1e-12
MIXTURE_TOL = 1e-8
PRIOR_MIXTURE_TOL = 1e-6
# the log-link predictive tail decays only polynomially in log(x), so a
# visible slice of mass sits beyond float range; 1e-6 is attainable, 1e-8
# is not representable
LINK_NORMALIZATION_TOL = 1e-6
CDF_CONSISTENCY_TOL = 1e-10


def link_mass(pred, u_hi=700.0):
    """Quadrature mass of a log-link predictive, integrated in log space."""

    def integrand(u):
        x = pred.anchor * math.exp(u - pred.offset)
        return pred.pdf(x) * x

    value = 0.0
    for a, b in ((pred.scale, pred.scale + 25.0), (pred.scale + 25.0, u_hi)):
        piece, err = integrate.quad(integrand, a, b, limit=300)
        assert err < 1e-8
        value += piece
    return value

# n = 20 laptop price quotes; only the count and the minimum matter for
# the bound update, so the non-minimal values are arbitrary.
LAPTOP_PRICES = 80.0 + 7.0 * np.arange(20.0)


def mixture_pdf_l(x, alpha, l_n, n_eff):
    """Direct quadrature of the bound mixture: int p(x|l) p(l|data) dl."""
    post = Power(l_n, alpha * n_eff)

    def integrand(l):
        return Pareto(alpha, l).pdf(x) * post.pdf(l)

    hi = min(x, l_n)
    value, err = integrate.quad(integrand, 0.0, hi, epsabs=1e-13, epsrel=1e-11)
    assert err < 1e-9
    return value


class TestLowerBound:
    def test_laptop_quotes_posterior(self):
        prior = ParetoPriorL(l0=100.0, n0=1.0, alpha=1.2)
        post = posterior_l(prior, suff_stats(LAPTOP_PRICES))
        assert post.l_n == 80.0
        assert post.n_eff == 21.0
        assert post.alpha == 1.2
        assert post.distribution() == Power(80.0, 25.2)

    def test_laptop_quotes_predictive(self):
        prior = ParetoPriorL(l0=100.0, n0=1.0, alpha=1.2)
        pred = predictive_l(posterior_l(prior, suff_stats(LAPTOP_PRICES)))
        assert pred.alpha == 1.2
        # (21/22)**(1/1.2) * 80, evaluated separately
        assert pred.l == pytest.approx(76.95801050356377, rel=EXACT_TOL)
        assert pred.l < 80.0

    def test_empty_batch_keeps_prior(self):
        prior = ParetoPriorL(l0=100.0, n0=2.5, alpha=1.2)
        post = posterior_l(prior, EMPTY)
        assert post.l_n == 100.0
        assert post.n_eff == 2.5

    def test_flat_prior_needs_data(self):
        prior = ParetoPriorL(l0=100.0, n0=0.0, alpha=1.2)
        with pytest.raises(NoInformationError):
            posterior_l(prior, EMPTY)

    def test_nonpositive_data_rejected(self):
        prior = ParetoPriorL(l0=1.0, n0=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            posterior_l(prior, suff_stats([0.5, -1.0]))

    def test_prior_validation(self):
        with pytest.raises(DomainError):
            ParetoPriorL(l0=0.0, n0=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            ParetoPriorL(l0=1.0, n0=-1.0, alpha=1.0)
        with pytest.raises(DomainError):
            ParetoPriorL(l0=1.0, n0=1.0, alpha=0.0)

    def test_noninformative_location(self):
        # flat-bound limit keeps a residual pseudo-count of 1/alpha
        post = noninformative("location", suff_stats(LAPTOP_PRICES), alpha=1.2)
        assert post.l_n == 80.0
        assert post.n_eff == pytest.approx(20.0 + 1.0 / 1.2, rel=EXACT_TOL)
        dist = post.distribution()
        assert dist.a == 80.0
        assert dist.b == pytest.approx(25.0, rel=EXACT_TOL)

    def test_noninformative_location_no_data_cannot_predict(self):
        post = noninformative("location", EMPTY, alpha=1.2)
        assert not post.is_proper
        with pytest.raises(NoInformationError):
            post.distribution()
        with pytest.raises(NoInformationError):
            predictive_l(post)

    def test_predictive_matches_posterior_mixture(self):
        post = LowerBoundPosterior(l_n=2.0, alpha=1.5, n_eff=6.0)
        pred = predictive_l(post)
        for x in np.linspace(2.0, 10.0, 50):
            assert pred.pdf(x) == pytest.approx(
                mixture_pdf_l(x, 1.5, 2.0, 6.0), rel=MIXTURE_TOL
            )

    def test_predictive_fresh_record_mass(self):
        # mass below l_n is 1/(n_eff+1) under both the closed predictive
        # and the exact mixture; the shapes differ only inside that slice
        post = LowerBoundPosterior(l_n=2.0, alpha=1.5, n_eff=6.0)
        pred = predictive_l(post)
        assert pred.cdf(2.0) == pytest.approx(1.0 / 7.0, rel=EXACT_TOL)
        mixture_mass, err = integrate.quad(
            lambda x: mixture_pdf_l(x, 1.5, 2.0, 6.0), 0.0, 2.0
        )
        assert mixture_mass == pytest.approx(1.0 / 7.0, rel=1e-8)

    def test_prior_predictive_matches_prior_mixture(self):
        # with no data the predictive integrates the likelihood against
        # the prior itself
        prior = ParetoPriorL(l0=3.0, n0=2.0, alpha=1.1)
        pred = predictive_l(posterior_l(prior, EMPTY))
        for x in np.linspace(3.0, 12.0, 20):
            assert pred.pdf(x) == pytest.approx(
                mixture_pdf_l(x, 1.1, 3.0, 2.0), rel=PRIOR_MIXTURE_TOL
            )

    def test_large_sample_edge_approaches_bound(self):
        post = LowerBoundPosterior(l_n=5.0, alpha=2.0, n_eff=1e9)
        edge = predictive_l(post).l
        assert 5.0 * (1.0 - 2.0 / (2.0 * 1e9)) < edge < 5.0

    @given(
        data=st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=30
        ),
        split=st.integers(min_value=1, max_value=29),
        n0=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_sequential(self, data, split, n0):
        split = min(split, len(data) - 1)
        prior = ParetoPriorL(l0=10.0, n0=n0, alpha=1.3)
        batch = posterior_l(prior, suff_stats(data))
        first = posterior_l(prior, suff_stats(data[:split]))
        reprior = ParetoPriorL(l0=first.l_n, n0=first.n_eff, alpha=1.3)
        second = posterior_l(reprior, suff_stats(data[split:]))
        assert second.l_n == batch.l_n
        assert second.n_eff == pytest.approx(batch.n_eff, rel=EXACT_TOL)


class TestExponent:
    def test_three_decades_posterior(self):
        # data {1, e, e**2} with bound 1: log spacings sum to 3
        data = [1.0, math.e, math.e**2]
        post = noninformative("shape", suff_stats(data), l=1.0)
        assert post.shape == 3.0
        assert post.rate == pytest.approx(3.0, rel=EXACT_TOL)
        assert post.mean() == pytest.approx(1.0, rel=EXACT_TOL)

    def test_proper_prior_posterior(self):
        data = [1.0, math.e, math.e**2]
        prior = ParetoPriorAlpha(g0=math.e, n0=2.0, l=1.0)
        post = posterior_alpha(prior, suff_stats(data))
        assert post.shape == 5.0
        assert post.rate == pytest.approx(5.0, rel=EXACT_TOL)
        assert post.distribution() == Gamma(5.0, post.rate)

    def test_empty_batch_keeps_prior(self):
        prior = ParetoPriorAlpha(g0=math.e, n0=2.0, l=1.0)
        post = posterior_alpha(prior, EMPTY)
        assert post.shape == 2.0
        assert post.rate == pytest.approx(2.0, rel=EXACT_TOL)

    def test_predictive_density_at_bound(self):
        pred = predictive_alpha(GammaPosterior(shape=3.0, rate=3.0), l=1.0)
        assert pred.pdf(1.0) == pytest.approx(1.0, rel=EXACT_TOL)
        assert pred.cdf(1.0) == 0.0
        assert pred.support() == (1.0, math.inf)

    def test_predictive_matches_exponent_mixture(self):
        post = GammaPosterior(shape=3.0, rate=3.0)
        pred = predictive_alpha(post, l=1.0)
        gamma = post.distribution()

        def mixture(x):
            value, err = integrate.quad(
                lambda a: Pareto(a, 1.0).pdf(x) * gamma.pdf(a),
                0.0,
                np.inf,
                epsabs=1e-13,
                epsrel=1e-11,
            )
            assert err < 1e-9
            return value

        for x in np.geomspace(1.0, 50.0, 25):
            assert pred.pdf(x) == pytest.approx(mixture(x), rel=MIXTURE_TOL)

    def test_predictive_normalizes(self):
        pred = predictive_alpha(GammaPosterior(shape=3.0, rate=3.0), l=1.0)
        assert link_mass(pred) == pytest.approx(1.0, abs=LINK_NORMALIZATION_TOL)

    def test_predictive_pdf_cdf_consistent(self):
        pred = predictive_alpha(GammaPosterior(shape=3.0, rate=3.0), l=1.0)
        a, b = pred.quantile(0.2), pred.quantile(0.8)
        window, _ = integrate.quad(pred.pdf, a, b, epsabs=1e-13, epsrel=1e-12)
        assert window == pytest.approx(
            pred.cdf(b) - pred.cdf(a), abs=CDF_CONSISTENCY_TOL
        )

    def test_datum_below_bound_rejected(self):
        prior = ParetoPriorAlpha(g0=math.e, n0=1.0, l=2.0)
        with pytest.raises(DomainError):
            posterior_alpha(prior, suff_stats([1.0, 3.0]))

    def test_all_data_at_bound_degenerate(self):
        with pytest.raises(DomainError):
            noninformative("shape", suff_stats([2.0, 2.0, 2.0]), l=2.0)

    def test_no_information_paths(self):
        post = noninformative("shape", EMPTY, l=1.0)
        assert not post.is_proper
        with pytest.raises(NoInformationError):
            post.distribution()
        with pytest.raises(NoInformationError):
            predictive_alpha(post, l=1.0)
        with pytest.raises(NoInformationError):
            posterior_alpha(ParetoPriorAlpha(g0=2.0, n0=0.0, l=1.0), EMPTY)

    def test_prior_validation(self):
        with pytest.raises(DomainError):
            ParetoPriorAlpha(g0=1.0, n0=1.0, l=1.0)
        with pytest.raises(DomainError):
            ParetoPriorAlpha(g0=2.0, n0=-1.0, l=1.0)
        with pytest.raises(DomainError):
            ParetoPriorAlpha(g0=2.0, n0=1.0, l=0.0)
        with pytest.raises(DomainError):
            predictive_alpha(GammaPosterior(2.0, 2.0), l=-1.0)

    def test_batch_equals_sequential(self):
        data = np.array([1.5, 2.0, 4.0, 9.0, 1.1, 3.3])
        prior = ParetoPriorAlpha(g0=2.0, n0=1.5, l=1.0)
        batch = posterior_alpha(prior, suff_stats(data))
        for split in (1, 3, 5):
            first = posterior_alpha(prior, suff_stats(data[:split]))
            reprior = ParetoPriorAlpha(
                g0=math.exp(first.rate / first.shape), n0=first.shape, l=1.0
            )
            second = posterior_alpha(reprior, suff_stats(data[split:]))
            assert second.shape == batch.shape
            assert second.rate == pytest.approx(batch.rate, rel=EXACT_TOL)


class TestJoint:
    DATA = [2.0, 2.0 * math.e, 2.0 * math.e**2]
    PRIOR = ParetoJointPrior(l0=10.0, n0=1.0, g0=math.e, n0_shape=1.0)

    def test_worked_update(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        assert post.l_n == 2.0
        assert post.n_eff_bound == 4.0
        assert post.shape_posterior.shape == 4.0
        # rate = 1 + 3*log(2) + 3, i.e. (n0'+n) * log of pooled geometric mean
        assert post.shape_posterior.rate == pytest.approx(
            6.0794415416798357, rel=EXACT_TOL
        )
        g_n = math.exp(post.shape_posterior.rate / 4.0)
        assert g_n == pytest.approx(2.0**0.75 * math.e, rel=EXACT_TOL)

    def test_worked_predictive_edge(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        pred = predictive_joint(post)
        lo, hi = pred.support()
        # l_n * exp(B*((4/5)**(1/4) - 1)), evaluated separately
        assert lo == pytest.approx(1.4380477496550779, rel=EXACT_TOL)
        assert lo < post.l_n
        assert hi == math.inf

    def test_conditional_bound(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        assert post.conditional_bound(2.0) == Power(2.0, 8.0)
        with pytest.raises(DomainError):
            post.conditional_bound(0.0)

    def test_predictive_matches_joint_mixture(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        pred = predictive_joint(post)
        k, r = post.shape_posterior.shape, post.shape_posterior.rate
        n_eff = post.n_eff_bound
        l_n = post.l_n

        # the integrands are the laws' log densities written out in math,
        # so quad spends its evaluations on arithmetic, not on law objects
        def mixture(x):
            def over_alpha(a):
                b = a * n_eff

                def integrand(l):
                    log_l = math.log(l)
                    # Pareto(a, l) at x times Power(l_n, b) at l
                    return math.exp(math.log(a) + a * log_l - (a + 1.0) * math.log(x)
                                    + math.log(b) + (b - 1.0) * log_l
                                    - b * math.log(l_n))

                inner, _ = integrate.quad(
                    integrand, 0.0, min(x, l_n), epsabs=1e-13, epsrel=1e-11
                )
                # Gamma(k, r) at a
                return inner * math.exp(k * math.log(r) + (k - 1.0) * math.log(a)
                                        - r * a - math.lgamma(k))

            value, err = integrate.quad(
                over_alpha, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10
            )
            assert err < 1e-8
            return value

        for x in np.geomspace(l_n, 40.0, 12):
            assert pred.pdf(x) == pytest.approx(mixture(x), rel=1e-6)

    def test_predictive_normalizes(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        pred = predictive_joint(post)
        assert link_mass(pred) == pytest.approx(1.0, abs=LINK_NORMALIZATION_TOL)

    def test_small_data_regime_rejected(self):
        # pooled geometric mean at or below 1 breaks the exponent update
        prior = ParetoJointPrior(l0=1.0, n0=0.0, g0=2.0, n0_shape=0.0)
        with pytest.raises(InvalidRegimeError, match="rescale"):
            posterior_joint(prior, suff_stats([0.5, 0.5]))

    def test_empty_flat_prior_rejected(self):
        prior = ParetoJointPrior(l0=1.0, n0=0.0, g0=2.0, n0_shape=0.0)
        with pytest.raises(NoInformationError):
            posterior_joint(prior, EMPTY)

    def test_batch_equals_sequential(self):
        data = np.array([3.0, 7.0, 2.5, 11.0, 4.2])
        batch = posterior_joint(self.PRIOR, suff_stats(data))
        for split in (1, 2, 4):
            first = posterior_joint(self.PRIOR, suff_stats(data[:split]))
            sp = first.shape_posterior
            reprior = ParetoJointPrior(
                l0=first.l_n,
                n0=first.n_eff_bound,
                g0=math.exp(sp.rate / sp.shape),
                n0_shape=sp.shape,
            )
            second = posterior_joint(reprior, suff_stats(data[split:]))
            assert second.l_n == batch.l_n
            assert second.n_eff_bound == batch.n_eff_bound
            assert second.shape_posterior.shape == batch.shape_posterior.shape
            assert second.shape_posterior.rate == pytest.approx(
                batch.shape_posterior.rate, rel=EXACT_TOL
            )


class TestExtrapolationFactor:
    def test_values(self):
        assert extrapolation_factor(1.0) == 0.5
        assert extrapolation_factor(21.0) == 21.0 / 22.0

    def test_needs_information(self):
        with pytest.raises(NoInformationError):
            extrapolation_factor(0.0)

    @given(n_eff=st.floats(min_value=1e-6, max_value=1e12))
    @settings(max_examples=50, deadline=None)
    def test_strictly_inside_unit_interval(self, n_eff):
        c = extrapolation_factor(n_eff)
        assert 0.0 < c < 1.0
