"""Updates for uniform data: width, lower bound, and the joint case.

The width and location blocks are closed-form; the joint case has a
non-conjugate width marginal driven by tail integrals that are series of
positive terms.  Tests pin the serial-number worked example, the
trapezoid predictive, the evidence constant, the series against adaptive
quadrature and against mpmath, and the joint predictive against its
defining mixture.
"""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from scipy import integrate, stats as sps

from tailbayes import conjugate_uniform
from tailbayes.conjugate_uniform import (
    EvidenceResult,
    UniformJointPrior,
    UniformPriorL,
    UniformPriorW,
    UniformJointPosterior,
    UniformJointPredictive,
    _GL_W,
    _GL_X,
    _TILE,
    _U_END,
    _edges,
    _nodes,
    _series,
    _series_below,
    _tail_linear,
    _tail_square,
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
        # w0/w_n = 0.2 with n_eff carried by the prior's pseudo-count: the
        # evidence mass lies within ~1/N of w = w_n, and the series finds it
        prior = UniformJointPrior(w0=0.8, n0=n_eff - 3.0, l0=4.0, u0=6.0)
        post = posterior_joint(prior, suff_stats([3.0, 5.0, 7.0]))
        assert post.c_n == pytest.approx(_direct_evidence(n_eff, 0.2),
                                         rel=EXACT_TOL)
        assert post.c_n1 == pytest.approx(_direct_evidence(n_eff + 1.0, 0.2),
                                          rel=EXACT_TOL)
        # a constant outside [1/(N(N+1)), 1/N] is still refused
        fields = dict(l_n=post.l_n, u_n=post.u_n, w0=post.w0, n_eff=n_eff,
                      c_n1=post.c_n1)
        for c_n in (0.5 / (n_eff * (n_eff + 1.0)), 2.0 / n_eff, 0.0):
            with pytest.raises(ConvergenceError, match="outside its bound"):
                UniformJointPosterior(c_n=c_n, **fields)

    def test_scaling_in_the_range(self):
        # C(N) in raw units scales as w_n**-N times the scaled constant
        a = evidence_C(2.0, 0.5, 1.0)
        b = evidence_C(2.0, 1.5, 3.0)
        assert b.value == pytest.approx(a.value / 9.0, rel=1e-9)

    @pytest.mark.parametrize("n_eff", [1.5e4, 1e5, 1e6])
    def test_outside_bracket_raises(self, n_eff, monkeypatch):
        # the same w_n-scaled constant and bracket as posterior_joint: at
        # w0/w_n = 0.2 the series lands on the directly summed value, and
        # an evaluator that left the bracket would be refused
        res = evidence_C(n_eff, 0.2, 1.0)
        assert res.value == pytest.approx(_direct_evidence(n_eff, 0.2),
                                          rel=EXACT_TOL)
        assert "series" in res.note and "nodes" in res.note
        monkeypatch.setattr(conjugate_uniform, "_tail_linear",
                            lambda order, knee, pole: 1e-3 / order ** 2)
        with pytest.raises(ConvergenceError, match="outside its bound"):
            evidence_C(n_eff, 0.2, 1.0)

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

    @staticmethod
    def _reference(order, knee, pole, power):
        """K (power 1) or Q (power 2) by adaptive quadrature of its
        defining integral over [knee, inf)."""
        def integrand(w):
            return w ** (-(order + 1.0)) * (w - knee) ** power / (power * (w - pole))

        value, err = integrate.quad(integrand, knee, np.inf, epsabs=1e-14,
                                    epsrel=1e-12, limit=300)
        assert err <= 1e-9 * max(1.0, abs(value))
        return value

    def test_linear_series_matches_quadrature(self):
        for order, knee, pole in self.CASES:
            series = _tail_linear(order, knee, pole)
            quad_value = self._reference(order, knee, pole, 1)
            assert series == pytest.approx(quad_value, rel=PATH_AGREEMENT_TOL)

    def test_square_series_matches_quadrature(self):
        for order, knee, pole in self.CASES:
            series = _tail_square(order, knee, pole)
            quad_value = self._reference(order, knee, pole, 2)
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
        # a pole above 1 is refused where the record is built (see
        # TestJointRecord), no longer on every tail call
        with pytest.raises(DomainError):
            _tail_linear(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            _tail_square(0.5, 1.0, 0.2)

    @pytest.mark.parametrize("order", [0.0, -1.0, -math.inf, math.nan])
    def test_edges_refuse_an_order_that_never_doubles(self, order):
        # the doubling from d = 0 would never reach _U_END
        with pytest.raises(DomainError, match="order must be positive"):
            _edges(order, 0.5)


def _direct_evidence(n_eff, rho):
    """C(N) = sum_k rho**k / ((N+k)(N+k+1)) in units of w_n, summed
    directly; at rho = 0.2 sixty terms reach far below rounding."""
    return math.fsum(rho ** k / ((n_eff + k) * (n_eff + k + 1.0))
                     for k in range(60))


MP_DPS = 30  # F_3 at a = 1e7 cancels 14 digits between its Lerch terms


@functools.lru_cache(maxsize=None)
def _mp_lerch(r, a):
    """Lerch transcendent Phi(r, 1, a) = sum_k r**k / (a+k) at MP_DPS."""
    with mp.workdps(MP_DPS):
        return mp.lerchphi(mp.mpf(r), 1, mp.mpf(a))


def _mp_series(p, a, r):
    """F_p(a, r) = sum_k r**k / ((a+k)...(a+k+p-1)) by partial fractions
    into Lerch transcendents, for float r and a."""
    with mp.workdps(MP_DPS):
        if r == 0.0:
            return float(1 / mp.rf(mp.mpf(a), p))
        return float(mp.fsum(
            (-1) ** j / (mp.factorial(j) * mp.factorial(p - 1 - j))
            * _mp_lerch(r, a + j) for j in range(p)))


SERIES_ORDERS = [1.01, 2.0, 30.0, 301.0, 3001.0, 1e5, 1e7]
SERIES_RATIOS = [0.0, 0.2, 0.5, 0.9, 0.999, 0.9995, 1.0 - 1e-6, 1.0 - 1e-10]


class TestPositiveSeries:
    """C, K and Q against mpmath over counts 1 to 1e7 and ratios up to
    1 - 1e-10, where the terms decay only like 1/k**2."""

    @pytest.mark.parametrize("a", SERIES_ORDERS)
    def test_against_mpmath(self, a):
        # C(a) = K(a, 1) = F_2(a, r) and Q(a+1, 1) = F_3(a, r)
        for r in SERIES_RATIOS:
            f2, f3 = _mp_series(2, a, r), _mp_series(3, a, r)
            if r > 0.0:
                assert evidence_C(a, r, 1.0).value == pytest.approx(
                    f2, rel=EXACT_TOL, abs=0), r
            assert _tail_linear(a, 1.0, r) == pytest.approx(
                f2, rel=EXACT_TOL, abs=0), r
            assert _tail_square(a + 1.0, 1.0, r) == pytest.approx(
                f3, rel=EXACT_TOL, abs=0), r

    @pytest.mark.parametrize("m, s, rho", [
        (2.5, 1.5, 0.9995), (31.0, 4.0, 0.3), (302.0, 1.001, 0.9995),
        (302.0, 1.5, 1.0)])
    def test_knee_beyond_the_range(self, m, s, rho):
        # K(m, s) = s**-m F_2(m, rho/s), Q(m, s) = s**(1-m) F_3(m-1, rho/s)
        r = rho / s
        assert _tail_linear(m, s, rho) == pytest.approx(
            s ** -m * _mp_series(2, m, r), rel=EXACT_TOL, abs=0)
        assert _tail_square(m, s, rho) == pytest.approx(
            s ** (1.0 - m) * _mp_series(3, m - 1.0, r), rel=EXACT_TOL, abs=0)

    def test_fractional_order_below_one(self):
        for r in (0.0, 0.5, 0.999):
            assert _tail_square(1.01, 1.0, r) == pytest.approx(
                _mp_series(3, 0.01, r), rel=EXACT_TOL, abs=0)

    @pytest.mark.parametrize("n_eff", [1e5, 1e6, 1e7])
    def test_fit_at_large_counts(self, n_eff):
        prior = UniformJointPrior(w0=0.8, n0=n_eff - 3.0, l0=4.0, u0=6.0)
        post = posterior_joint(prior, suff_stats([3.0, 5.0, 7.0]))
        assert post.w0 / post.w_n == 0.2
        assert post.c_n == pytest.approx(_mp_series(2, n_eff, 0.2),
                                         rel=EXACT_TOL, abs=0)
        assert post.c_n1 == pytest.approx(_mp_series(2, n_eff + 1.0, 0.2),
                                          rel=EXACT_TOL, abs=0)
        pred = predictive_joint(post)
        assert pred.cdf(5.0) == pytest.approx(0.5, abs=EXACT_TOL)
        assert pred.quantile(0.5) == pytest.approx(5.0, abs=EXACT_TOL)

    def test_worked_evidence_at_1e5(self):
        assert evidence_C(1e5, 0.2, 1.0).value == pytest.approx(
            1.24998125035937e-10, rel=1e-13, abs=0)

    def test_midpoint_cdf_near_the_pole(self):
        # w0/w_n = 0.9995 at n_eff ~ 1e4: the cdf at (l_n+u_n)/2 is 1/2
        data = np.linspace(3.0, 7.0, 10_000)
        prior = UniformJointPrior(w0=0.9995 * 4.0, n0=2.0, l0=4.0, u0=6.0)
        pred = predictive_joint(posterior_joint(prior, suff_stats(data)))
        assert pred.cdf(5.0) == pytest.approx(0.5, abs=EXACT_TOL)
        below, above = pred.cdf(3.0), pred.cdf(7.0)
        assert below + (1.0 - above) + 4.0 * pred.flat_level == pytest.approx(
            1.0, abs=EXACT_TOL)

    @pytest.mark.parametrize("ratio", [0.2, 0.9995, 1.0])
    def test_arrays_match_points(self, ratio):
        prior = UniformJointPrior(w0=ratio * 4.0, n0=2.0, l0=4.0, u0=6.0)
        post = posterior_joint(prior, suff_stats([3.0, 3.5, 6.2, 7.0]))
        pred = predictive_joint(post)
        xs = np.linspace(1.0, 9.0, 41)
        ws = np.linspace(3.5, 12.0, 23)
        ps = np.linspace(0.01, 0.99, 17)
        for call, args in ((pred.pdf, xs), (pred.log_pdf, xs), (pred.cdf, xs),
                           (pred.quantile, ps), (post.width_cdf, ws)):
            whole = call(args)
            assert whole.shape == args.shape
            np.testing.assert_array_equal(whole, [call(v) for v in args])
            assert isinstance(call(args[0]), float)
        assert pred.cdf(xs.reshape(41, 1)).shape == (41, 1)
        assert post.width_cdf(ws.reshape(23, 1)).shape == (23, 1)
        # past the tiles' _TILE // 16 points, both tails in one array,
        # l_n and u_n exactly
        tile = _TILE // _GL_X.size
        grid = np.sort(np.concatenate([np.linspace(-1.0, 11.0, 3299),
                                       [post.l_n, post.u_n]]))
        assert {post.l_n, post.u_n} <= set(grid.tolist())
        assert (grid < post.l_n).sum() > tile
        assert (grid > post.u_n).sum() > tile
        widths = np.linspace(post.w_n, 3.0 * post.w_n, 301)
        for call, args in ((pred.pdf, grid), (pred.cdf, grid),
                           (post.width_cdf, widths)):
            np.testing.assert_array_equal(call(args), [call(v) for v in args])

    @pytest.mark.parametrize("ratio", [0.2, 0.9995, 1.0])
    def test_quantile_without_tail_probabilities(self, ratio, monkeypatch):
        prior = UniformJointPrior(w0=ratio * 4.0, n0=2.0, l0=4.0, u0=6.0)
        pred = predictive_joint(
            posterior_joint(prior, suff_stats([3.0, 3.5, 6.2, 7.0])))
        ps = np.linspace(pred.cdf(pred.l_n), pred.cdf(pred.u_n), 11)[1:-1]
        with_tails = pred.quantile(np.concatenate([[0.01], ps, [0.99]]))

        def no_tail(self, mass):
            raise AssertionError("no probability lies in a tail")

        monkeypatch.setattr(UniformJointPredictive, "_solve_beyond", no_tail)
        middle = pred.quantile(ps)
        np.testing.assert_array_equal(middle, with_tails[1:-1])
        np.testing.assert_array_equal(middle, [pred.quantile(p) for p in ps])
        assert np.all((middle > pred.l_n) & (middle < pred.u_n))
        assert pred.quantile(np.empty(0)).shape == (0,)

    def test_flat_middle_is_exactly_constant(self):
        prior = UniformJointPrior(w0=0.9995 * 4.0, n0=2.0, l0=4.0, u0=6.0)
        pred = predictive_joint(posterior_joint(prior, suff_stats([3.0, 7.0])))
        inner = pred.pdf(np.linspace(3.0, 7.0, 101))
        assert np.all(inner == pred.flat_level)
        cdf = pred.cdf(np.linspace(-20.0, 30.0, 2001))
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0
        assert np.all(np.diff(cdf) >= -1e-15)


def _loop_series(p, a, r, r_max):
    """F_p(a, r) by one pass per node, left to right: the order of
    additions that _series must keep, bit for bit."""
    r = np.asarray(r, dtype=float)
    x, c = _nodes(p, a, r_max)
    gap = 1.0 - r
    total = np.zeros(r.shape)
    for xk, ck in zip(x, c):
        total += ck / (gap + r * xk)
    return total


def _loop_series_below(a, rho, top):
    """_series_below by one pass per node of the 16-point rule: the
    order of additions that the tiled rule must keep, bit for bit."""
    edges = _edges(a, rho)
    x, c = _nodes(2, a, rho)
    whole = (c / (1.0 - rho + rho * x)).reshape(-1, _GL_X.size).sum(axis=1)
    below = np.concatenate(([0.0], np.cumsum(whole)))
    top = np.minimum(top, _U_END)
    seg = np.minimum(np.searchsorted(edges, top, side="right") - 1,
                     edges.size - 2)
    lo = edges[seg]
    half = 0.5 * (top - lo)
    part = np.zeros(top.shape)
    for xi, wi in zip(_GL_X, _GL_W):
        u = lo + half * (1.0 + xi)
        x = -np.expm1(-u / a)
        part += wi * np.exp(-u) * x / (1.0 - rho + rho * x)
    return below[seg] + half * part / a


class TestSeriesEvaluator:
    """_series takes many nodes per numpy call; its values must stay those
    of the node-by-node loop, whatever the number of points."""

    SHAPES = [(), (0,), (1,), (2,), (3,), (20,), (500,), (1023,), (1024,),
              (1025,), (9000,), (41, 1)]

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("a", [1.01, 5.0, 3001.0, 1e7])
    @pytest.mark.parametrize("r_max", [0.0, 0.5, 0.9995, 1.0])
    def test_bits_match_the_node_loop(self, p, a, r_max):
        rng = np.random.default_rng([p, int(a), int(1e4 * r_max)])
        for shape in self.SHAPES:
            r = r_max * rng.random(shape)
            if r.size:
                r.flat[0] = r_max
            got = _series(p, a, r, r_max)
            want = _loop_series(p, a, r, r_max)
            assert got.shape == want.shape == np.shape(r), shape
            assert np.array_equal(got, want), shape
            if r.size:
                assert _series(p, a, r.flat[-1], r_max) == got.flat[-1], shape

    def test_nodes_are_memoised_and_read_only(self):
        x, c = _nodes(3, 5.0, 0.5)
        again = _nodes(3, 5.0, 0.5)
        assert again[0] is x and again[1] is c
        for arr in (x, c):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("r_max", [0.5, 0.9995])
    def test_memory_bounded_by_the_points(self, r_max):
        # the node count (112 at 0.5, 256 at 0.9995) must not multiply it
        r = np.linspace(0.0, r_max, 1_000_000)
        _series(3, 5.0, r[:1], r_max)
        tracemalloc.start()
        try:
            _series(3, 5.0, r, r_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * r.nbytes

    @pytest.mark.parametrize("a", [1.01, 5.0, 301.0, 1e7])
    @pytest.mark.parametrize("rho", [0.0, 0.2, 0.5, 0.9995, 1.0])
    def test_cut_rule_bits_match_the_node_loop(self, a, rho):
        # the tiles hold _TILE // 16 = 1024 points: sizes straddle that
        assert _TILE // _GL_X.size == 1024
        rng = np.random.default_rng([int(a), int(1e4 * rho)])
        # width_cdf cuts at top > 0 only: at rho = 1 the rule is 0/0 at 0
        special = np.concatenate([_edges(a, rho)[1:],
                                  [1e-300, _U_END, 1e3, math.inf]])
        top = np.concatenate([special, np.exp(
            rng.uniform(math.log(1e-12), math.log(80.0), 5000))])[:5000]
        alone = np.array([_series_below(a, rho, top[i:i + 1])[0]
                          for i in range(1025)])
        for n in (0, 1, 2, 63, 65, 1023, 1024, 1025, 5000):
            got = _series_below(a, rho, top[:n])
            assert got.shape == (n,)
            assert np.array_equal(got, _loop_series_below(a, rho, top[:n])), n
            assert np.array_equal(got[:1025], alone[:n]), n
        for i in (1500, 2047, 2048, 4999):
            assert _series_below(a, rho, top[i:i + 1])[0] == got[i], i

    @pytest.mark.parametrize("ratio", [0.5, 0.9995])
    def test_width_cdf_memory_bounded_by_the_points(self, ratio):
        # an untiled 16-point rule would hold 16 arrays of the input's size
        prior = UniformJointPrior(w0=ratio * 4.0, n0=2.0, l0=4.0, u0=6.0)
        post = posterior_joint(prior, suff_stats([3.0, 7.0]))
        w = np.linspace(3.0, 8.0, 1_000_000)
        post.width_cdf(w[:1])
        tracemalloc.start()
        try:
            post.width_cdf(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * w.nbytes


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

    def test_width_marginal_at_infinity(self):
        # no density and all the mass below w = inf, alone and in an array
        post = self.post()
        assert post.width_pdf(math.inf) == 0.0
        assert post.width_cdf(math.inf) == 1.0
        w = np.array([3.0, math.inf, 1e9])
        assert post.width_pdf(w)[1] == 0.0
        assert post.width_cdf(w)[1] == 1.0

    @pytest.mark.parametrize("n_eff", [5.0, 300.0, 1e5])
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 0.9995, 1.0])
    def test_width_cdf_relative_accuracy_above_w_n(self, n_eff, ratio):
        # the mass within w_n * 10**-k of w_n, against mpmath's integral of
        # the width density over [w_n, w] at the exact float w
        prior = UniformJointPrior(w0=ratio * 3.7, n0=n_eff - 2.0, l0=1.0,
                                  u0=4.7)
        post = posterior_joint(prior, suff_stats([1.0, 4.7]))
        rho, w_n = post.w0 / post.w_n, post.w_n
        with mp.workdps(MP_DPS):
            evidence = (1 / mp.mpf(n_eff) if rho == 1.0
                        else mp.mpf(_mp_series(2, n_eff, rho)))

            def density(v):
                body = 1 if rho == 1.0 else (v - 1) / (v - rho)
                return v ** -(n_eff + 1) * body

            for k in (12, 9, 6, 3):
                w = w_n * (1.0 + 10.0 ** -k)
                s = mp.mpf(w) / mp.mpf(w_n)
                cuts = [1 + (s - 1) * f for f in (0, 1e-4, 1e-3, 1e-2, 0.1, 1)]
                mass = float(mp.quad(density, cuts) / evidence)
                assert post.width_cdf(w) == pytest.approx(
                    mass, rel=EXACT_TOL, abs=0.0), k

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


class TestJointRecord:
    """The posterior and the predictive are one record, checked wherever
    it is built: by posterior_joint, by predictive_joint or by hand."""

    POST = posterior_joint(UniformJointPrior(w0=1.0, n0=1.0, l0=0.0, u0=1.0),
                           suff_stats([0.2, 2.5, 1.0]))

    def fields(self, **edit):
        return {**dataclasses.asdict(self.POST), **edit}

    def test_predictive_is_the_posterior_record(self):
        pred = predictive_joint(self.POST)
        assert dataclasses.fields(UniformJointPredictive) == \
            dataclasses.fields(UniformJointPosterior)
        assert dataclasses.asdict(pred) == dataclasses.asdict(self.POST)
        assert (pred.w_n, pred.rho) == (self.POST.w_n, self.POST.rho)

    @pytest.mark.parametrize("cls", [UniformJointPosterior,
                                     UniformJointPredictive])
    def test_evidence_outside_its_bracket_is_refused(self, cls):
        n = self.POST.n_eff
        for key, value in (("c_n", 2.0 / n), ("c_n", 0.0),
                           ("c_n1", 0.5 / ((n + 1.0) * (n + 2.0)))):
            with pytest.raises(ConvergenceError, match="outside its bound"):
                cls(**self.fields(**{key: value}))

    @pytest.mark.parametrize("cls", [UniformJointPosterior,
                                     UniformJointPredictive])
    @pytest.mark.parametrize("w0", [2.5 * (1.0 + 1e-15), 3.0, 0.0, -1.0,
                                    math.nan])
    def test_pole_outside_zero_to_w_n_is_refused(self, cls, w0):
        with pytest.raises(DomainError, match="0 < w0 <= w_n"):
            cls(**self.fields(w0=w0))

    def test_pole_at_w_n_is_accepted(self):
        post = posterior_joint(
            UniformJointPrior(w0=2.5, n0=1.0, l0=0.0, u0=1.0),
            suff_stats([0.0, 2.5, 1.0]))
        assert post.w0 == post.w_n and post.rho == 1.0
        assert predictive_joint(post).rho == 1.0

    def test_mass_below_is_summed_once_per_predictive(self, monkeypatch):
        # the mass below l_n is the one tail call at a scalar knee
        knees = []
        real = conjugate_uniform._tail_square

        def counted(order, knee, pole):
            knees.append(np.ndim(knee))
            return real(order, knee, pole)

        monkeypatch.setattr(conjugate_uniform, "_tail_square", counted)
        pred = predictive_joint(self.POST)
        x = np.array([-3.0, 0.5, 1.0, 4.0])
        first = pred.cdf(x), pred.quantile(np.array([0.01, 0.5, 0.99]))
        again = pred.cdf(x), pred.quantile(np.array([0.01, 0.5, 0.99]))
        pred.cdf(0.7), pred.quantile(0.3)
        assert knees.count(0) == 1
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        # a second predictive sums it again, to the same bits
        other = predictive_joint(self.POST)
        np.testing.assert_array_equal(other.cdf(x), first[0])
        assert knees.count(0) == 2


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

    @pytest.mark.parametrize("prior,data", [
        (UniformJointPrior(w0=1.0, n0=1e5 - 3.0, l0=0.0, u0=1.0), DATA),
        (UniformJointPrior(w0=6.0, n0=0.0, l0=1.0, u0=7.0), [2.0, 5.0, 3.0]),
    ], ids=["n_eff=1e5", "w0=w_n"])
    def test_sampler_against_cdf_beyond_small_counts(self, prior, data):
        pred = predictive_joint(posterior_joint(prior, suff_stats(data)))
        draws = pred.sample(np.random.default_rng(90212), KS_SAMPLES)
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
