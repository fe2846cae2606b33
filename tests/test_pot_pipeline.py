"""Pipeline layer: statistics merging, dispatch, thresholds, composition.

Checks the merge laws, the ModelSpec contract, the fit/predict/support
dispatch over every family and case, threshold selection, holdout
scoring, and the sequential-equals-batch composition guarantee.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbayes import conjugate_exponential as cexp
from tailbayes import conjugate_pareto as cpar
from tailbayes import conjugate_power as cpow
from tailbayes import conjugate_uniform as cuni
from tailbayes.distributions import Uniform
from tailbayes.errors import DomainError, UsageError
from tailbayes.pot_pipeline import (
    CELLS,
    FAMILIES,
    ModelSpec,
    fit,
    holdout_log_predictive,
    merge,
    pot_fit,
    predict,
    select_threshold,
    sequential_update,
    suff_stats,
    support,
)
from tailbayes.sufficient import EMPTY, SuffStats

EXACT_TOL = 1e-12

finite_floats = st.floats(min_value=-1e6, max_value=1e6)


def assert_posteriors_close(a, b, rel=EXACT_TOL):
    """Field-by-field comparison of two posterior dataclasses."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(va):
            assert_posteriors_close(va, vb, rel=rel)
        elif isinstance(va, float) and math.isfinite(va):
            assert va == pytest.approx(vb, rel=rel), f.name
        else:
            assert va == vb, f.name


class TestMergeLaws:
    @given(
        xs=st.lists(finite_floats, max_size=15),
        ys=st.lists(finite_floats, max_size=15),
    )
    @settings(max_examples=80, deadline=None)
    def test_commutative(self, xs, ys):
        a, b = suff_stats(xs), suff_stats(ys)
        ab, ba = merge(a, b), merge(b, a)
        assert ab.n == ba.n
        assert ab.min == ba.min and ab.max == ba.max
        assert ab.sum == pytest.approx(ba.sum, rel=EXACT_TOL, abs=1e-12)

    @given(
        xs=st.lists(finite_floats, max_size=10),
        ys=st.lists(finite_floats, max_size=10),
        zs=st.lists(finite_floats, max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_associative(self, xs, ys, zs):
        a, b, c = suff_stats(xs), suff_stats(ys), suff_stats(zs)
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        assert left.n == right.n
        assert left.min == right.min and left.max == right.max
        assert left.sum == pytest.approx(right.sum, rel=EXACT_TOL, abs=1e-12)
        if left.sum_log is None or right.sum_log is None:
            assert left.sum_log is None and right.sum_log is None
        else:
            assert left.sum_log == pytest.approx(
                right.sum_log, rel=EXACT_TOL, abs=1e-12
            )

    def test_matches_concatenation(self):
        xs, ys = [1.0, 4.0, 2.5], [0.5, 6.0]
        merged = merge(suff_stats(xs), suff_stats(ys))
        whole = suff_stats(xs + ys)
        assert merged.n == whole.n
        assert merged.min == whole.min and merged.max == whole.max
        assert merged.sum == pytest.approx(whole.sum, rel=EXACT_TOL)
        assert merged.sum_log == pytest.approx(whole.sum_log, rel=EXACT_TOL)

    def test_log_moment_absence_propagates(self):
        clean = suff_stats([1.0, 2.0])
        dirty = suff_stats([-1.0, 2.0])
        assert dirty.sum_log is None
        assert merge(clean, dirty).sum_log is None
        assert merge(dirty, clean).sum_log is None
        with pytest.raises(DomainError):
            merge(clean, dirty).require_sum_log()

    def test_empty_is_identity(self):
        a = suff_stats([1.0, 2.0])
        assert merge(a, EMPTY) is a
        assert merge(EMPTY, a) is a


class TestSuffStatsContract:
    """What a summary must carry on its own; anything else is a
    DomainError where the summary is made, merged or read back."""

    GOOD = dict(n=2, min=1.0, max=2.0, sum=3.0, sum_log=math.log(2.0))

    @pytest.mark.parametrize("n", [True, -1, 2.5])
    def test_count_is_an_integer_at_least_zero(self, n):
        with pytest.raises(DomainError, match="count"):
            SuffStats(**{**self.GOOD, "n": n})

    @pytest.mark.parametrize("name", ["min", "max", "sum", "sum_log"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_are_finite(self, name, bad):
        with pytest.raises(DomainError, match="finite"):
            SuffStats(**{**self.GOOD, name: bad})

    @pytest.mark.parametrize("fields", [
        dict(n=2, min=0.0, max=2.0, sum=2.0, sum_log=0.0),
        dict(n=2, min=-1.0, max=2.0, sum=1.0, sum_log=0.0),
        dict(n=2, min=1.0, max=2.0, sum=3.0, sum_log=None),
        dict(n=0, min=None, max=None, sum=0.0, sum_log=None),
    ], ids=["present-min-zero", "present-min-negative", "missing-positive",
            "missing-empty"])
    def test_sum_log_present_exactly_when_all_positive(self, fields):
        with pytest.raises(DomainError, match="sum_log"):
            SuffStats(**fields)

    def test_min_at_most_max(self):
        with pytest.raises(DomainError, match="exceeds max"):
            SuffStats(**{**self.GOOD, "min": 2.5, "max": 1.0})
        assert SuffStats(**{**self.GOOD, "min": 2.0, "max": 2.0}).min == 2.0

    def test_overflowing_sum(self):
        big = suff_stats([1e308])
        with pytest.raises(DomainError, match="finite"):
            merge(big, big)
        with pytest.raises(DomainError, match="finite"):
            suff_stats([1e308, 1.5e308])


class TestModelSpec:
    def test_families_table(self):
        assert set(FAMILIES) == {"pareto", "shifted_exp", "power", "uniform"}
        assert FAMILIES["uniform"] == ("width", "lower", "joint")

    def test_unknown_family(self):
        with pytest.raises(UsageError, match="unknown family"):
            ModelSpec(family="weibull", case="shape", noninformative=True)

    def test_case_mismatch(self):
        with pytest.raises(UsageError, match="has cases"):
            ModelSpec(family="pareto", case="width", noninformative=True)

    def test_bad_view(self):
        with pytest.raises(UsageError, match="view"):
            ModelSpec(family="pareto", case="location", noninformative=True,
                      view="shifted")

    def test_prior_noninformative_exclusivity(self):
        prior = cpar.ParetoPriorL(l0=1.0, n0=1.0, alpha=1.0)
        with pytest.raises(UsageError, match="exactly one"):
            ModelSpec(family="pareto", case="location")
        with pytest.raises(UsageError, match="exactly one"):
            ModelSpec(family="pareto", case="location", prior=prior,
                      noninformative=True)

    def test_wrong_prior_type_rejected(self):
        prior = cpow.PowerPriorU(u0=1.0, n0=1.0, alpha=1.0)
        spec = ModelSpec(family="pareto", case="location", prior=prior)
        with pytest.raises(UsageError, match="ParetoPriorL"):
            fit(spec, suff_stats([2.0, 3.0]))

    def test_noninformative_missing_known(self):
        spec = ModelSpec(family="pareto", case="location", noninformative=True)
        with pytest.raises(UsageError, match="alpha"):
            fit(spec, suff_stats([2.0, 3.0]))
        spec = ModelSpec(family="uniform", case="lower", noninformative=True)
        with pytest.raises(UsageError, match="'w'"):
            fit(spec, suff_stats([2.0, 3.0]))

    def test_no_noninformative_joint_limit(self):
        spec = ModelSpec(family="uniform", case="joint", noninformative=True)
        with pytest.raises(DomainError, match="proper prior"):
            fit(spec, suff_stats([2.0, 3.0]))


class TestThreshold:
    def test_top_k_selection(self):
        data = np.arange(1.0, 101.0)
        theta, exceed = select_threshold(data, 5)
        assert theta == 96.0
        np.testing.assert_array_equal(exceed, [97.0, 98.0, 99.0, 100.0])

    def test_ties_at_threshold_excluded(self):
        theta, exceed = select_threshold([1.0, 2.0, 2.0, 3.0], 2)
        assert theta == 2.0
        np.testing.assert_array_equal(exceed, [3.0])

    def test_input_order_preserved(self):
        theta, exceed = select_threshold([5.0, 1.0, 9.0, 7.0, 2.0], 3)
        assert theta == 5.0
        np.testing.assert_array_equal(exceed, [9.0, 7.0])

    def test_k_validation(self):
        with pytest.raises(DomainError):
            select_threshold([1.0, 2.0], 0)
        with pytest.raises(DomainError):
            select_threshold([1.0, 2.0], 3)
        with pytest.raises(DomainError):
            select_threshold([[1.0, 2.0]], 1)

    def test_pot_fit_raw_view(self):
        data = np.arange(1.0, 101.0)
        spec = ModelSpec(family="shifted_exp", case="location",
                         noninformative=True, known={"alpha": 1.0})
        fitted, theta, values = pot_fit(data, 5, spec)
        assert theta == 96.0
        np.testing.assert_array_equal(values, [97.0, 98.0, 99.0, 100.0])
        assert fitted.spec.threshold == 96.0
        assert fitted.posterior.l_n == 97.0
        assert fitted.posterior.n_eff == 4.0

    def test_pot_fit_excess_view(self):
        data = np.arange(1.0, 101.0)
        spec = ModelSpec(family="shifted_exp", case="shape",
                         noninformative=True, known={"l": 0.0}, view="excess")
        fitted, theta, values = pot_fit(data, 5, spec)
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 4.0])
        assert fitted.posterior.shape == 4.0
        assert fitted.posterior.rate == 10.0


class TestHoldout:
    def test_worked_value(self):
        score = holdout_log_predictive(Uniform(0.0, 2.0), [0.5, 1.0])
        assert score == pytest.approx(2.0 * math.log(0.5), rel=EXACT_TOL)

    def test_permutation_invariant_exactly(self):
        rng = np.random.default_rng(515)
        points = list(rng.uniform(0.1, 1.9, 50))
        pred = Uniform(0.0, 2.0)
        forward = holdout_log_predictive(pred, points)
        backward = holdout_log_predictive(pred, points[::-1])
        shuffled = points.copy()
        rng.shuffle(shuffled)
        assert forward == backward == holdout_log_predictive(pred, shuffled)

    def test_rejection_is_minus_inf(self):
        assert holdout_log_predictive(Uniform(0.0, 2.0), [0.5, 2.5]) == -math.inf

    def test_empty_holdout_scores_zero(self):
        assert holdout_log_predictive(Uniform(0.0, 2.0), []) == 0.0


@pytest.mark.parametrize("read", [
    suff_stats,
    lambda data: select_threshold(data, 1)[0],
    lambda data: holdout_log_predictive(Uniform(0.0, 2.0), data),
], ids=["suff_stats", "select_threshold", "holdout_log_predictive"])
def test_a_scalar_batch_is_one_value(read):
    assert read(0.5) == read([0.5])


# One representative configuration per composable (family, case).
SEQUENTIAL_CASES = [
    ("pareto", "location",
     cpar.ParetoPriorL(l0=5.0, n0=1.0, alpha=1.2),
     [3.1, 4.5, 7.0, 2.2]),
    ("pareto", "shape",
     cpar.ParetoPriorAlpha(g0=2.0, n0=1.0, l=1.0),
     [1.5, 3.0, 2.0, 8.0]),
    ("pareto", "joint",
     cpar.ParetoJointPrior(l0=4.0, n0=1.0, g0=2.0, n0_shape=1.0),
     [2.0, 6.0, 3.5, 9.0]),
    ("shifted_exp", "location",
     cexp.ExpPriorL(l0=1.0, n0=1.0, alpha=0.8),
     [-0.5, 2.0, 0.7, 3.0]),
    ("shifted_exp", "shape",
     cexp.ExpPriorAlpha(mu0=2.0, n0=1.0, l=0.0),
     [0.5, 2.5, 1.0, 0.1]),
    ("shifted_exp", "joint",
     cexp.ExpJointPrior(l0=0.5, n0=1.0, mu0=2.0, n0_rate=1.0),
     [1.0, 2.0, 0.8, 3.0]),
    ("power", "location",
     cpow.PowerPriorU(u0=2.0, n0=1.0, alpha=1.5),
     [0.5, 1.8, 2.6, 1.0]),
    ("power", "shape",
     cpow.PowerPriorAlpha(g0=0.5, n0=1.0, u=3.0),
     [0.5, 2.5, 1.0, 0.2]),
    ("power", "joint",
     cpow.PowerJointPrior(u0=0.9, n0=1.0, g0=0.5, n0_shape=1.0),
     [0.5, 0.2, 0.8, 0.3]),
    ("uniform", "width",
     cuni.UniformPriorW(w0=2.0, n0=1.0, l=0.0),
     [0.5, 1.8, 2.5, 1.0]),
    ("uniform", "lower",
     cuni.UniformPriorL(l0=1.0, u0=2.0, w=5.0),
     [1.5, 3.0, 2.0, 4.0]),
]


class TestSequentialComposition:
    @pytest.mark.parametrize(
        "family,case,prior,data",
        SEQUENTIAL_CASES,
        ids=[f"{f}-{c}" for f, c, _, _ in SEQUENTIAL_CASES],
    )
    def test_sequential_equals_batch(self, family, case, prior, data):
        spec = ModelSpec(family=family, case=case, prior=prior)
        batch = fit(spec, suff_stats(data))
        for split in (1, 2, 3):
            staged = fit(spec, suff_stats(data[:split]))
            staged = sequential_update(staged, suff_stats(data[split:]))
            assert staged == fit(spec, merge(suff_stats(data[:split]),
                                             suff_stats(data[split:])))
            assert_posteriors_close(staged.posterior, batch.posterior)
            assert staged.stats.n == len(data)
            assert staged.spec == spec
            assert staged.known == batch.known

    def test_uniform_joint_composes_by_refit(self):
        # the joint posterior depends on n, min and max only, so absorbing
        # a batch is the fit on the merged statistics
        spec = ModelSpec(
            family="uniform", case="joint",
            prior=cuni.UniformJointPrior(w0=1.0, n0=1.0, l0=0.0, u0=1.0),
        )
        first, second = suff_stats([0.2, 2.5, 1.0]), suff_stats([0.7, 3.1])
        staged = sequential_update(fit(spec, first), second)
        assert staged == fit(spec, merge(first, second))
        assert staged.posterior.u_n == 3.1 and staged.stats.n == 5

    def test_improper_stage_defers_to_batch(self):
        # an empty first batch leaves an improper posterior; absorbing a
        # real batch must then match the plain fit on the merged data
        spec = ModelSpec(family="pareto", case="location",
                         noninformative=True, known={"alpha": 1.2})
        empty_stage = fit(spec, EMPTY)
        assert not empty_stage.posterior.is_proper
        staged = sequential_update(empty_stage, suff_stats([3.0, 5.0]))
        batch = fit(spec, suff_stats([3.0, 5.0]))
        assert_posteriors_close(staged.posterior, batch.posterior)


def regime_priors(c, s):
    """A proper prior in every cell for data on [c, c + s)."""
    return {
        ("pareto", "location"): cpar.ParetoPriorL(l0=c + 2 * s, n0=1.0, alpha=1.5),
        ("pareto", "shape"): cpar.ParetoPriorAlpha(g0=2.0, n0=1.0, l=c),
        ("pareto", "joint"): cpar.ParetoJointPrior(l0=c + 2 * s, n0=1.0, g0=2.0,
                                                   n0_shape=1.0),
        ("shifted_exp", "location"): cexp.ExpPriorL(l0=c + 2 * s, n0=1.0, alpha=1.5),
        ("shifted_exp", "shape"): cexp.ExpPriorAlpha(mu0=c + 1.0, n0=1.0, l=c),
        ("shifted_exp", "joint"): cexp.ExpJointPrior(l0=c + 2 * s, n0=1.0,
                                                     mu0=c + 1.0, n0_rate=1.0),
        ("power", "location"): cpow.PowerPriorU(u0=c, n0=1.0, alpha=1.5),
        ("power", "shape"): cpow.PowerPriorAlpha(g0=0.5, n0=1.0, u=c + 2 * s),
        # the joint shape rate pools logs on the absolute scale; a heavy
        # prior keeps it positive for data above 1
        ("power", "joint"): cpow.PowerJointPrior(u0=c, n0=1.0, g0=1e-12,
                                                 n0_shape=100.0),
        ("uniform", "width"): cuni.UniformPriorW(w0=s / 2, n0=1.0, l=c),
        ("uniform", "lower"): cuni.UniformPriorL(l0=c + s, u0=c, w=2 * s),
        ("uniform", "joint"): cuni.UniformJointPrior(w0=s / 4, n0=1.0,
                                                     l0=c + s / 4, u0=c + 3 * s / 4),
    }


class TestSequentialIsRefit:
    """sequential_update(f, s) is fit(f.spec, merge(f.stats, s)) exactly
    on data within 1e-15 of a bound and data offset by 1e9, where a
    posterior-to-prior round trip loses digits.  On today's data the
    identity is asserted in test_sequential_equals_batch and
    test_uniform_joint_composes_by_refit."""

    @pytest.mark.parametrize(
        "c,s", [(1.0, 1e-9), (1.0, 1e-13), (1.0, 1e-15), (1e9, 1.0)],
        ids=["eps1e-9", "eps1e-13", "eps1e-15", "offset1e9"])
    def test_near_bound_and_offset_data(self, c, s):
        values = c + s * np.random.default_rng(2303).random(50)
        first, second = suff_stats(values[:20]), suff_stats(values[20:])
        priors = regime_priors(c, s)
        assert set(priors) == set(CELLS)
        for (family, case), prior in priors.items():
            spec = ModelSpec(family=family, case=case, prior=prior)
            staged = sequential_update(fit(spec, first), second)
            assert staged == fit(spec, merge(first, second)), (family, case)


class TestSupportReports:
    def test_pareto_location(self):
        spec = ModelSpec(family="pareto", case="location",
                         prior=cpar.ParetoPriorL(l0=5.0, n0=1.0, alpha=1.2))
        fitted = fit(spec, suff_stats([3.0, 4.0]))
        rep = support(fitted)
        assert rep.direction == "lower"
        assert rep.posterior_bound == 3.0
        assert rep.predictive_bound < 3.0
        assert rep.n_effective == 3.0

    def test_shape_case_reports_known_bound(self):
        spec = ModelSpec(family="pareto", case="shape",
                         prior=cpar.ParetoPriorAlpha(g0=2.0, n0=1.0, l=1.0))
        fitted = fit(spec, suff_stats([2.0, 3.0]))
        rep = support(fitted)
        # nothing is estimated about the bound, nothing extrapolates
        assert rep.posterior_bound == 1.0
        assert rep.predictive_bound == pytest.approx(1.0, rel=EXACT_TOL)
        assert rep.n_effective == 3.0

    def test_power_location(self):
        spec = ModelSpec(family="power", case="location",
                         prior=cpow.PowerPriorU(u0=2.0, n0=1.0, alpha=1.5))
        fitted = fit(spec, suff_stats([0.5, 1.8]))
        rep = support(fitted)
        assert rep.direction == "upper"
        assert rep.posterior_bound == 2.0
        assert rep.predictive_bound > 2.0

    def test_uniform_width_mixes_units(self):
        # posterior bound is a width, predictive bound an absolute end
        spec = ModelSpec(family="uniform", case="width",
                         prior=cuni.UniformPriorW(w0=2.0, n0=1.0, l=1.0))
        fitted = fit(spec, suff_stats([1.5, 2.8]))
        rep = support(fitted)
        assert rep.direction == "upper"
        assert rep.posterior_bound == pytest.approx(2.0, rel=EXACT_TOL)
        assert rep.predictive_bound == pytest.approx(
            1.0 + 2.0 * 4.0 / 3.0, rel=EXACT_TOL
        )

    def test_uniform_lower(self):
        spec = ModelSpec(family="uniform", case="lower",
                         prior=cuni.UniformPriorL(l0=2.0, u0=8.0, w=10.0))
        fitted = fit(spec, suff_stats([3.0, 7.0]))
        rep = support(fitted)
        assert rep.direction == "lower"
        assert rep.posterior_bound == 2.0
        assert rep.predictive_bound == -2.0
        assert rep.n_effective == 2.0

    def test_uniform_joint_predictive_bound_infinite(self):
        spec = ModelSpec(
            family="uniform", case="joint",
            prior=cuni.UniformJointPrior(w0=1.0, n0=1.0, l0=0.0, u0=1.0),
        )
        fitted = fit(spec, suff_stats([0.2, 2.5, 1.0]))
        rep = support(fitted)
        assert rep.direction == "upper"
        assert rep.posterior_bound == 2.5
        assert rep.predictive_bound == math.inf

    def test_exp_location(self):
        spec = ModelSpec(family="shifted_exp", case="location",
                         prior=cexp.ExpPriorL(l0=1.0, n0=1.0, alpha=0.8))
        fitted = fit(spec, suff_stats([-0.5, 2.0]))
        rep = support(fitted)
        assert rep.direction == "lower"
        assert rep.posterior_bound == -0.5
        assert rep.predictive_bound < -0.5


class TestPredictDispatch:
    @pytest.mark.parametrize(
        "family,case,prior,data",
        SEQUENTIAL_CASES,
        ids=[f"{f}-{c}" for f, c, _, _ in SEQUENTIAL_CASES],
    )
    def test_every_case_predicts(self, family, case, prior, data):
        spec = ModelSpec(family=family, case=case, prior=prior)
        fitted = fit(spec, suff_stats(data))
        pred = predict(fitted)
        lo, hi = pred.support()
        assert lo < hi
        mid = 0.5 * (max(lo, min(data)) + min(hi, max(data)))
        assert pred.pdf(mid) > 0.0


class TestCells:
    """A cell names its module's functions and its prior's fields; fit and
    predict read them by name, so a misspelt name fails only when its cell
    is used.  This reads every cell's names now."""

    @pytest.mark.parametrize("key", list(CELLS), ids="-".join)
    def test_names_resolve_on_the_module(self, key):
        cell = CELLS[key]
        names = [cell.update, cell.predictive]
        if cell.noninformative is not None:
            assert isinstance(cell.noninformative, str)
            names.append("noninformative")
        for name in names:
            assert callable(getattr(cell.conjugate, name)), name
        assert set(cell.anchor) <= set(cell.known)
        fields = {f.name for f in dataclasses.fields(cell.prior)}
        assert set(cell.known) <= fields
