"""Conjugate updates for shifted exponential data: onset, rate, and joint.

The exponential model is the log image of the Pareto model, so besides
quadrature and worked-value checks these tests verify that every update
commutes with the exp/log change of variables against the Pareto module.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tailbayes import conjugate_pareto as cpar
from tailbayes.conjugate_exponential import (
    ExpJointPrior,
    ExpPriorAlpha,
    ExpPriorL,
    OnsetPosterior,
    noninformative,
    posterior_alpha,
    posterior_joint,
    posterior_l,
    predictive_alpha,
    predictive_joint,
    predictive_l,
)
from tailbayes.conjugate_pareto import GammaPosterior
from tailbayes.errors import DomainError, InvalidRegimeError, NoInformationError
from tailbayes.distributions import LogPower, ShiftedExp
from tailbayes.sufficient import EMPTY, suff_stats

EXACT_TOL = 1e-12
MIXTURE_TOL = 1e-8
TRANSFORM_TOL = 1e-10
NORMALIZATION_TOL = 1e-8


class TestOnset:
    def test_worked_posterior(self):
        prior = ExpPriorL(l0=0.5, n0=2.0, alpha=1.0)
        post = posterior_l(prior, suff_stats([1.0, 2.0]))
        assert post.l_n == 0.5
        assert post.n_eff == 4.0
        assert post.distribution() == LogPower(0.5, 4.0)

    def test_worked_predictive(self):
        prior = ExpPriorL(l0=0.5, n0=2.0, alpha=1.0)
        pred = predictive_l(posterior_l(prior, suff_stats([1.0, 2.0])))
        assert isinstance(pred, ShiftedExp)
        assert pred.alpha == 1.0
        # 0.5 + log(4/5)
        assert pred.l == pytest.approx(0.2768564486857909, rel=EXACT_TOL)
        assert pred.l < 0.5

    def test_empty_batch_keeps_prior(self):
        prior = ExpPriorL(l0=-1.5, n0=3.0, alpha=2.0)
        post = posterior_l(prior, EMPTY)
        assert post.l_n == -1.5
        assert post.n_eff == 3.0

    def test_negative_onsets_supported(self):
        prior = ExpPriorL(l0=-5.0, n0=1.0, alpha=0.7)
        post = posterior_l(prior, suff_stats([-3.0, -1.0, 4.0]))
        assert post.l_n == -5.0
        pred = predictive_l(post)
        assert pred.l < -5.0

    def test_noninformative_location(self):
        # flat onset limit keeps exactly the data count, no residual
        post = noninformative("location", suff_stats([1.0, 2.0]), alpha=1.0)
        assert post.l_n == 1.0
        assert post.n_eff == 2.0
        assert post.distribution() == LogPower(1.0, 2.0)

    def test_noninformative_location_no_data(self):
        post = noninformative("location", EMPTY, alpha=1.0)
        assert not post.is_proper
        with pytest.raises(NoInformationError):
            predictive_l(post)

    def test_flat_prior_needs_data(self):
        with pytest.raises(NoInformationError):
            posterior_l(ExpPriorL(l0=0.0, n0=0.0, alpha=1.0), EMPTY)

    def test_predictive_matches_posterior_mixture(self):
        post = OnsetPosterior(l_n=1.0, alpha=1.5, n_eff=5.0)
        pred = predictive_l(post)
        onset_law = post.distribution()

        def mixture(x):
            value, err = integrate.quad(
                lambda l: ShiftedExp(1.5, l).pdf(x) * onset_law.pdf(l),
                -np.inf,
                min(x, 1.0),
                epsabs=1e-13,
                epsrel=1e-11,
            )
            assert err < 1e-9
            return value

        for x in np.linspace(1.0, 6.0, 25):
            assert pred.pdf(x) == pytest.approx(mixture(x), rel=MIXTURE_TOL)

    def test_matches_log_image_of_pareto_update(self):
        # if exp(x) is Pareto(alpha, exp(l)) then x is ShiftedExp(alpha, l)
        data = np.array([0.3, 1.7, 0.9, 2.4])
        prior = ExpPriorL(l0=0.25, n0=1.5, alpha=1.2)
        post = posterior_l(prior, suff_stats(data))
        ppost = cpar.posterior_l(
            cpar.ParetoPriorL(l0=math.exp(0.25), n0=1.5, alpha=1.2),
            suff_stats(np.exp(data)),
        )
        assert post.l_n == pytest.approx(math.log(ppost.l_n), rel=EXACT_TOL)
        assert post.n_eff == ppost.n_eff
        pred = predictive_l(post)
        ppred = cpar.predictive_l(ppost)
        for x in np.linspace(0.2, 3.0, 40):
            assert pred.pdf(x) == pytest.approx(
                ppred.pdf(math.exp(x)) * math.exp(x), rel=TRANSFORM_TOL
            )

    @given(
        data=st.lists(
            st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=25
        ),
        split=st.integers(min_value=1, max_value=24),
        n0=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_sequential(self, data, split, n0):
        split = min(split, len(data) - 1)
        prior = ExpPriorL(l0=5.0, n0=n0, alpha=0.8)
        batch = posterior_l(prior, suff_stats(data))
        first = posterior_l(prior, suff_stats(data[:split]))
        reprior = ExpPriorL(l0=first.l_n, n0=first.n_eff, alpha=0.8)
        second = posterior_l(reprior, suff_stats(data[split:]))
        assert second.l_n == batch.l_n
        assert second.n_eff == pytest.approx(batch.n_eff, rel=EXACT_TOL)


class TestRate:
    def test_worked_posterior(self):
        post = noninformative("shape", suff_stats([1.0, 2.0, 3.0]), l=0.0)
        assert post.shape == 3.0
        assert post.rate == 6.0
        assert post.mean() == 0.5

    def test_proper_prior_posterior(self):
        prior = ExpPriorAlpha(mu0=2.0, n0=1.0, l=0.0)
        post = posterior_alpha(prior, suff_stats([1.0, 2.0, 3.0]))
        assert post.shape == 4.0
        assert post.rate == 8.0

    def test_predictive_density_at_onset(self):
        pred = predictive_alpha(GammaPosterior(shape=3.0, rate=6.0), l=0.0)
        assert pred.pdf(0.0) == pytest.approx(0.5, rel=EXACT_TOL)
        assert pred.cdf(0.0) == 0.0
        assert pred.support() == (0.0, math.inf)

    def test_known_onset_is_the_exact_edge(self):
        # onset + rate crosses 8192 and drops the rate's last bit, so the
        # edge computed as (onset + rate) - rate misses the onset by 1e-12
        for rate in (8191.3, 8191.987654321, 4094.926982283528):
            pred = predictive_alpha(GammaPosterior(shape=50.0, rate=rate), l=1.5)
            assert pred.support()[0] == 1.5
            assert pred.cdf(1.5) == 0.0

    def test_predictive_matches_rate_mixture(self):
        post = GammaPosterior(shape=3.0, rate=6.0)
        pred = predictive_alpha(post, l=0.0)
        gamma = post.distribution()

        def mixture(x):
            value, err = integrate.quad(
                lambda a: ShiftedExp(a, 0.0).pdf(x) * gamma.pdf(a),
                0.0,
                np.inf,
                epsabs=1e-13,
                epsrel=1e-11,
            )
            assert err < 1e-9
            return value

        for x in np.linspace(0.0, 12.0, 25):
            assert pred.pdf(x) == pytest.approx(mixture(x), rel=MIXTURE_TOL)

    def test_predictive_normalizes(self):
        pred = predictive_alpha(GammaPosterior(shape=3.0, rate=6.0), l=0.0)
        mass, err = integrate.quad(pred.pdf, 0.0, np.inf, limit=200)
        assert err < 1e-8
        assert mass == pytest.approx(1.0, abs=NORMALIZATION_TOL)

    def test_matches_log_image_of_pareto_update(self):
        # rate block: same Gamma posterior as the Pareto exponent block on
        # exp(data), and the predictives are exp/log images of each other
        data = np.array([0.4, 1.1, 2.2])
        l = 0.25
        prior = ExpPriorAlpha(mu0=1.8, n0=2.0, l=l)
        post = posterior_alpha(prior, suff_stats(data))
        ppost = cpar.posterior_alpha(
            cpar.ParetoPriorAlpha(g0=math.exp(1.8 - l), n0=2.0, l=math.exp(l)),
            suff_stats(np.exp(data)),
        )
        assert post.shape == ppost.shape
        assert post.rate == pytest.approx(ppost.rate, rel=EXACT_TOL)
        pred = predictive_alpha(post, l=l)
        ppred = cpar.predictive_alpha(ppost, l=math.exp(l))
        for x in np.linspace(l, 4.0, 40):
            assert pred.pdf(x) == pytest.approx(
                ppred.pdf(math.exp(x)) * math.exp(x), rel=TRANSFORM_TOL
            )

    def test_datum_below_onset_rejected(self):
        prior = ExpPriorAlpha(mu0=2.0, n0=1.0, l=1.0)
        with pytest.raises(DomainError):
            posterior_alpha(prior, suff_stats([0.5, 2.0]))

    def test_all_data_at_onset_degenerate(self):
        with pytest.raises(DomainError):
            noninformative("shape", suff_stats([2.0, 2.0]), l=2.0)

    def test_no_information_paths(self):
        post = noninformative("shape", EMPTY, l=0.0)
        assert not post.is_proper
        with pytest.raises(NoInformationError):
            predictive_alpha(post, l=0.0)
        with pytest.raises(NoInformationError):
            posterior_alpha(ExpPriorAlpha(mu0=1.0, n0=0.0, l=0.0), EMPTY)

    def test_prior_validation(self):
        with pytest.raises(DomainError):
            ExpPriorAlpha(mu0=1.0, n0=1.0, l=1.0)
        with pytest.raises(DomainError):
            ExpPriorAlpha(mu0=2.0, n0=-1.0, l=1.0)

    def test_batch_equals_sequential(self):
        data = np.array([1.5, 0.7, 2.4, 0.2, 3.1])
        prior = ExpPriorAlpha(mu0=1.5, n0=1.0, l=0.0)
        batch = posterior_alpha(prior, suff_stats(data))
        for split in (1, 2, 4):
            first = posterior_alpha(prior, suff_stats(data[:split]))
            reprior = ExpPriorAlpha(
                mu0=first.rate / first.shape, n0=first.shape, l=0.0
            )
            second = posterior_alpha(reprior, suff_stats(data[split:]))
            assert second.shape == batch.shape
            assert second.rate == pytest.approx(batch.rate, rel=EXACT_TOL)


class TestJoint:
    PRIOR = ExpJointPrior(l0=0.5, n0=1.0, mu0=2.0, n0_rate=1.0)

    def test_worked_update(self):
        post = posterior_joint(self.PRIOR, suff_stats([1.0, 2.0]))
        assert post.l_n == 0.5
        assert post.n_eff_onset == 3.0
        assert post.rate_posterior.shape == 3.0
        assert post.rate_posterior.rate == 5.0
        assert post.rate_posterior.mean() == pytest.approx(0.6, rel=EXACT_TOL)

    def test_worked_predictive_edge(self):
        post = posterior_joint(self.PRIOR, suff_stats([1.0, 2.0]))
        pred = predictive_joint(post)
        lo, hi = pred.support()
        # 0.5 + 5*((3/4)**(1/3) - 1), evaluated separately
        assert lo == pytest.approx(0.042801482080349174, rel=1e-9)
        assert lo < post.l_n
        assert hi == math.inf

    def test_conditional_onset(self):
        post = posterior_joint(self.PRIOR, suff_stats([1.0, 2.0]))
        assert post.conditional_onset(2.0) == LogPower(0.5, 6.0)
        with pytest.raises(DomainError):
            post.conditional_onset(-1.0)

    def test_predictive_matches_joint_mixture(self):
        post = posterior_joint(self.PRIOR, suff_stats([1.0, 2.0]))
        pred = predictive_joint(post)
        gamma = post.rate_posterior.distribution()
        l_n, n_eff = post.l_n, post.n_eff_onset

        def mixture(x):
            def over_alpha(a):
                inner, _ = integrate.quad(
                    lambda l: ShiftedExp(a, l).pdf(x)
                    * LogPower(l_n, a * n_eff).pdf(l),
                    -np.inf,
                    min(x, l_n),
                    epsabs=1e-13,
                    epsrel=1e-11,
                )
                return inner * gamma.pdf(a)

            value, err = integrate.quad(
                over_alpha, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10
            )
            assert err < 1e-8
            return value

        for x in np.linspace(l_n, 8.0, 12):
            assert pred.pdf(x) == pytest.approx(mixture(x), rel=1e-6)

    def test_predictive_normalizes(self):
        post = posterior_joint(self.PRIOR, suff_stats([1.0, 2.0]))
        pred = predictive_joint(post)
        lo, _ = pred.support()
        mass, err = integrate.quad(pred.pdf, lo, np.inf, limit=200)
        assert err < 1e-8
        assert mass == pytest.approx(1.0, abs=NORMALIZATION_TOL)

    def test_nonpositive_pooled_mean_rejected(self):
        prior = ExpJointPrior(l0=0.0, n0=0.0, mu0=0.0, n0_rate=0.0)
        with pytest.raises(InvalidRegimeError, match="shift"):
            posterior_joint(prior, suff_stats([-2.0, -3.0]))

    def test_empty_flat_prior_rejected(self):
        prior = ExpJointPrior(l0=0.0, n0=0.0, mu0=0.0, n0_rate=0.0)
        with pytest.raises(NoInformationError):
            posterior_joint(prior, EMPTY)

    def test_batch_equals_sequential(self):
        data = np.array([0.8, 2.1, 1.4, 3.0])
        batch = posterior_joint(self.PRIOR, suff_stats(data))
        for split in (1, 2, 3):
            first = posterior_joint(self.PRIOR, suff_stats(data[:split]))
            rp = first.rate_posterior
            reprior = ExpJointPrior(
                l0=first.l_n,
                n0=first.n_eff_onset,
                mu0=rp.rate / rp.shape,
                n0_rate=rp.shape,
            )
            second = posterior_joint(reprior, suff_stats(data[split:]))
            assert second.l_n == batch.l_n
            assert second.n_eff_onset == batch.n_eff_onset
            assert second.rate_posterior.shape == batch.rate_posterior.shape
            assert second.rate_posterior.rate == pytest.approx(
                batch.rate_posterior.rate, rel=EXACT_TOL
            )


def test_unknown_case_rejected():
    with pytest.raises(DomainError):
        noninformative("scale", EMPTY, alpha=1.0)
