"""Conjugate updates for power-law data: upper bound, shape, and joint.

The power family is dual to the Pareto family under x -> 1/x, so the
tests verify the worked parameter values, quadrature mixtures, the
closed-form mean, and exact agreement with the Pareto module across the
reciprocal map.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats as sps

from tailbayes import conjugate_pareto as cpar
from tailbayes.conjugate_pareto import GammaPosterior
from tailbayes.conjugate_power import (
    PowerJointPrior,
    PowerPriorAlpha,
    PowerPriorU,
    UpperBoundPosterior,
    expected_value_joint,
    noninformative,
    posterior_alpha,
    posterior_joint,
    posterior_u,
    predictive_alpha,
    predictive_joint,
    predictive_u,
)
from tailbayes.distributions import Pareto, Power
from tailbayes.errors import DomainError, InvalidRegimeError, NoInformationError
from tailbayes.sufficient import EMPTY, suff_stats

EXACT_TOL = 1e-12
MIXTURE_TOL = 1e-8
DUALITY_TOL = 1e-10
MEAN_QUAD_TOL = 1e-6
KS_MAX = 0.02
KS_SAMPLES = 10_000


class TestUpperBound:
    def test_worked_posterior(self):
        post = noninformative("bound", suff_stats([1.0, 2.0, 3.0]), alpha=1.0)
        assert post.u_n == 3.0
        assert post.n_eff == 3.0
        assert post.distribution() == Pareto(3.0, 3.0)

    def test_worked_predictive(self):
        post = noninformative("bound", suff_stats([1.0, 2.0, 3.0]), alpha=1.0)
        pred = predictive_u(post)
        assert isinstance(pred, Power)
        assert pred.b == 1.0
        # (3/4)**(-1) * 3
        assert pred.a == pytest.approx(4.0, rel=EXACT_TOL)
        assert pred.a > post.u_n

    def test_empty_batch_keeps_prior(self):
        prior = PowerPriorU(u0=2.0, n0=1.5, alpha=1.0)
        post = posterior_u(prior, EMPTY)
        assert post.u_n == 2.0
        assert post.n_eff == 1.5

    def test_prior_bound_can_win(self):
        prior = PowerPriorU(u0=10.0, n0=1.0, alpha=2.0)
        post = posterior_u(prior, suff_stats([1.0, 2.0]))
        assert post.u_n == 10.0

    def test_flat_prior_needs_data(self):
        with pytest.raises(NoInformationError):
            posterior_u(PowerPriorU(u0=1.0, n0=0.0, alpha=1.0), EMPTY)

    def test_nonpositive_data_rejected(self):
        prior = PowerPriorU(u0=1.0, n0=1.0, alpha=1.0)
        with pytest.raises(DomainError):
            posterior_u(prior, suff_stats([0.5, 0.0]))

    def test_noninformative_bound_no_data(self):
        post = noninformative("bound", EMPTY, alpha=1.0)
        assert not post.is_proper
        with pytest.raises(NoInformationError):
            post.distribution()
        with pytest.raises(NoInformationError):
            predictive_u(post)

    def test_predictive_matches_posterior_mixture(self):
        post = UpperBoundPosterior(u_n=3.0, alpha=1.5, n_eff=4.0)
        pred = predictive_u(post)
        bound_law = post.distribution()

        def mixture(x):
            value, err = integrate.quad(
                lambda u: Power(u, 1.5).pdf(x) * bound_law.pdf(u),
                max(x, 3.0),
                np.inf,
                epsabs=1e-13,
                epsrel=1e-11,
            )
            assert err < 1e-9
            return value

        for x in np.linspace(0.1, 3.0, 25):
            assert pred.pdf(x) == pytest.approx(mixture(x), rel=MIXTURE_TOL)

    def test_duality_with_pareto_lower_bound(self):
        # fitting the bound on x and on 1/x are the same problem mirrored
        data = np.array([0.8, 2.5, 1.1, 3.2])
        post = posterior_u(PowerPriorU(u0=2.0, n0=1.0, alpha=1.3), suff_stats(data))
        ppost = cpar.posterior_l(
            cpar.ParetoPriorL(l0=0.5, n0=1.0, alpha=1.3), suff_stats(1.0 / data)
        )
        assert post.u_n == pytest.approx(1.0 / ppost.l_n, rel=EXACT_TOL)
        assert post.n_eff == ppost.n_eff
        pred = predictive_u(post)
        ppred = cpar.predictive_l(ppost)
        assert pred.a == pytest.approx(1.0 / ppred.l, rel=EXACT_TOL)
        for x in np.linspace(0.2, pred.a - 1e-9, 30):
            assert pred.pdf(x) == pytest.approx(
                ppred.pdf(1.0 / x) / x**2, rel=DUALITY_TOL
            )

    def test_reciprocal_sampling_duality(self):
        # reciprocals of Pareto(alpha, l) draws follow Power(1/l, alpha)
        rng = np.random.default_rng(7241)
        draws = 1.0 / Pareto(1.5, 2.0).sample(rng, KS_SAMPLES)
        target = Power(0.5, 1.5)
        ks = sps.kstest(draws, target.cdf).statistic
        assert ks < KS_MAX


class TestShape:
    def test_worked_posterior(self):
        data = [math.exp(-1.0), math.exp(-2.0)]
        post = noninformative("shape", suff_stats(data), u=1.0)
        assert post.shape == 2.0
        assert post.rate == pytest.approx(3.0, rel=EXACT_TOL)

    def test_proper_prior_posterior(self):
        data = [math.exp(-1.0), math.exp(-2.0)]
        prior = PowerPriorAlpha(g0=math.exp(-1.0), n0=2.0, u=1.0)
        post = posterior_alpha(prior, suff_stats(data))
        assert post.shape == 4.0
        assert post.rate == pytest.approx(5.0, rel=EXACT_TOL)

    def test_predictive_density_at_bound(self):
        pred = predictive_alpha(GammaPosterior(shape=2.0, rate=3.0), u=1.0)
        assert pred.pdf(1.0) == pytest.approx(2.0 / 3.0, rel=EXACT_TOL)
        assert pred.cdf(1.0) == 1.0
        assert pred.support() == (0.0, 1.0)

    def test_predictive_matches_shape_mixture(self):
        post = GammaPosterior(shape=2.0, rate=3.0)
        pred = predictive_alpha(post, u=1.0)
        gamma = post.distribution()

        def mixture(x):
            value, err = integrate.quad(
                lambda a: Power(1.0, a).pdf(x) * gamma.pdf(a),
                0.0,
                np.inf,
                epsabs=1e-13,
                epsrel=1e-11,
            )
            assert err < 1e-9
            return value

        # stay inside the open interval: the bound edge itself belongs to
        # the predictive but not to every mixture component
        for x in np.geomspace(1e-3, 0.999, 25):
            assert pred.pdf(x) == pytest.approx(mixture(x), rel=MIXTURE_TOL)

    def test_predictive_pdf_cdf_consistent(self):
        pred = predictive_alpha(GammaPosterior(shape=2.0, rate=3.0), u=1.0)
        a, b = pred.quantile(0.05), pred.quantile(0.95)
        window, _ = integrate.quad(pred.pdf, a, b, epsabs=1e-13, epsrel=1e-12)
        assert window == pytest.approx(pred.cdf(b) - pred.cdf(a), abs=1e-10)

    def test_predictive_mass_near_zero_is_log_heavy(self):
        # the law puts (rate/log(1/x))**shape mass below x, so a visible
        # slice sits below the smallest positive float; quadrature over
        # the representable range recovers exactly the complement
        pred = predictive_alpha(GammaPosterior(shape=2.0, rate=3.0), u=1.0)
        lo = 1e-280
        mass, err = integrate.quad(
            lambda t: pred.pdf(math.exp(t)) * math.exp(t), math.log(lo), 0.0,
            limit=300,
        )
        assert err < 1e-9
        assert mass == pytest.approx(1.0 - pred.cdf(lo), rel=1e-8)

    def test_datum_above_bound_rejected(self):
        prior = PowerPriorAlpha(g0=0.5, n0=1.0, u=1.0)
        with pytest.raises(DomainError):
            posterior_alpha(prior, suff_stats([0.5, 1.5]))

    def test_all_data_at_bound_degenerate(self):
        with pytest.raises(DomainError):
            noninformative("shape", suff_stats([2.0, 2.0]), u=2.0)

    def test_no_information_paths(self):
        post = noninformative("shape", EMPTY, u=1.0)
        assert not post.is_proper
        with pytest.raises(NoInformationError):
            predictive_alpha(post, u=1.0)
        with pytest.raises(NoInformationError):
            posterior_alpha(PowerPriorAlpha(g0=0.5, n0=0.0, u=1.0), EMPTY)

    def test_prior_validation(self):
        with pytest.raises(DomainError):
            PowerPriorAlpha(g0=1.0, n0=1.0, u=1.0)
        with pytest.raises(DomainError):
            PowerPriorAlpha(g0=0.0, n0=1.0, u=1.0)
        with pytest.raises(DomainError):
            PowerPriorAlpha(g0=0.5, n0=1.0, u=0.0)
        with pytest.raises(DomainError):
            predictive_alpha(GammaPosterior(2.0, 3.0), u=-1.0)

    def test_batch_equals_sequential(self):
        data = np.array([0.2, 0.7, 0.4, 0.9, 0.05])
        prior = PowerPriorAlpha(g0=0.4, n0=1.0, u=1.0)
        batch = posterior_alpha(prior, suff_stats(data))
        for split in (1, 2, 4):
            first = posterior_alpha(prior, suff_stats(data[:split]))
            reprior = PowerPriorAlpha(
                g0=math.exp(-first.rate / first.shape), n0=first.shape, u=1.0
            )
            second = posterior_alpha(reprior, suff_stats(data[split:]))
            assert second.shape == batch.shape
            assert second.rate == pytest.approx(batch.rate, rel=EXACT_TOL)


class TestJoint:
    DATA = [0.5, 0.25]
    PRIOR = PowerJointPrior(u0=1.0, n0=1.0, g0=0.5, n0_shape=1.0)

    def test_worked_update(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        assert post.u_n == 1.0
        assert post.n_eff_bound == 3.0
        assert post.shape_posterior.shape == 3.0
        # rate = log 2 + log 2 + 2 log 2 = 4 log 2
        assert post.shape_posterior.rate == pytest.approx(
            4.0 * math.log(2.0), rel=EXACT_TOL
        )

    def test_worked_predictive_edge(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        pred = predictive_joint(post)
        lo, hi = pred.support()
        assert lo == 0.0
        # exp(4*log(2)*(1 - (3/4)**(1/3))), evaluated separately
        assert hi == pytest.approx(1.2885591948067685, rel=EXACT_TOL)
        assert hi > post.u_n

    def test_conditional_bound(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        assert post.conditional_bound(2.0) == Pareto(6.0, 1.0)

    def test_expected_value_closed_form(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        pred = predictive_joint(post)
        mean = expected_value_joint(pred)
        # frozen from an independent quadrature of x * pdf(x)
        assert mean == pytest.approx(0.6468050551738682, rel=1e-10)

    def test_expected_value_matches_quadrature(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        pred = predictive_joint(post)
        _, hi = pred.support()
        quad_mean, err = integrate.quad(
            lambda t: math.exp(2.0 * t) * pred.pdf(math.exp(t)),
            -60.0,
            math.log(hi),
            limit=300,
        )
        assert err < 1e-9
        assert expected_value_joint(pred) == pytest.approx(
            quad_mean, rel=MEAN_QUAD_TOL
        )

    def test_predictive_matches_joint_mixture(self):
        post = posterior_joint(self.PRIOR, suff_stats(self.DATA))
        pred = predictive_joint(post)
        k, r = post.shape_posterior.shape, post.shape_posterior.rate
        u_n, n_eff = post.u_n, post.n_eff_bound

        # the integrands are the laws' log densities written out in math,
        # so quad spends its evaluations on arithmetic, not on law objects
        def mixture(x):
            def over_alpha(a):
                b = a * n_eff

                def integrand(u):
                    log_u = math.log(u)
                    # Power(u, a) at x times Pareto(b, u_n) at u
                    return math.exp(math.log(a) + (a - 1.0) * math.log(x) - a * log_u
                                    + math.log(b) + b * math.log(u_n)
                                    - (b + 1.0) * log_u)

                inner, _ = integrate.quad(
                    integrand, max(x, u_n), np.inf, epsabs=1e-13, epsrel=1e-11
                )
                # Gamma(k, r) at a
                return inner * math.exp(k * math.log(r) + (k - 1.0) * math.log(a)
                                        - r * a - math.lgamma(k))

            value, err = integrate.quad(
                over_alpha, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10
            )
            assert err < 1e-8
            return value

        for x in np.linspace(0.05, 1.0, 12):
            assert pred.pdf(x) == pytest.approx(mixture(x), rel=1e-6)

    def test_data_above_one_rejected(self):
        # absolute-scale pooling requires data below 1
        prior = PowerJointPrior(u0=1.0, n0=0.0, g0=0.5, n0_shape=0.0)
        with pytest.raises(InvalidRegimeError, match="divide"):
            posterior_joint(prior, suff_stats([2.0, 3.0]))

    def test_batch_equals_sequential(self):
        data = np.array([0.5, 0.2, 0.8, 0.1])
        batch = posterior_joint(self.PRIOR, suff_stats(data))
        for split in (1, 2, 3):
            first = posterior_joint(self.PRIOR, suff_stats(data[:split]))
            sp = first.shape_posterior
            reprior = PowerJointPrior(
                u0=first.u_n,
                n0=first.n_eff_bound,
                g0=math.exp(-sp.rate / sp.shape),
                n0_shape=sp.shape,
            )
            second = posterior_joint(reprior, suff_stats(data[split:]))
            assert second.u_n == batch.u_n
            assert second.n_eff_bound == batch.n_eff_bound
            assert second.shape_posterior.rate == pytest.approx(
                batch.shape_posterior.rate, rel=EXACT_TOL
            )

