"""Numerical cross-check layer: grids, comparisons, seeded sampling.

The grid machinery must reproduce known densities, refine cleanly, and
agree with the closed-form posteriors on the table's cells without ever
reusing the conjugate update algebra.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from tailbayes import oracle
from tailbayes.distributions import LogPower, Pareto, Power, ShiftedExp, Uniform
from tailbayes.errors import CoverageError, DomainError, UsageError
from tailbayes.oracle import (
    _LOG_PDF,
    _prior_log_pdf,
    GridPosterior,
    GridSpec,
    auto_grid,
    compare_posterior,
    diagnostic_notes,
    diagnostic_table,
    grid_marginal,
    grid_posterior,
    mc_check,
    run_scenario,
    single_parameter_scenarios,
    window,
)

# agreement between a smooth closed form and its own dense grid
SELF_TV_TOL = 1e-3
SHOWCASE_TV_TOL = 1e-6
KS_TOL = 0.02

SINGLE_NAMES = [
    "pareto_location",
    "pareto_shape",
    "shifted_exp_location",
    "shifted_exp_shape",
    "power_location",
    "power_shape",
    "uniform_width",
    "uniform_lower",
]
JOINT_NAMES = [
    "pareto_joint_shape",
    "shifted_exp_joint_shape",
    "power_joint_shape",
    "uniform_joint_width",
]

# each table density with its parameters, the distributions law it
# writes out, points inside the support and points outside it
FAMILY_LAWS = [
    ("pareto", (2.5, 1.5), Pareto(alpha=2.5, l=1.5),
     [1.5, 1.7, 3.0, 40.0], [1.4999, 0.5, -2.0]),
    ("shifted_exp", (0.7, -1.0), ShiftedExp(alpha=0.7, l=-1.0),
     [-1.0, 0.0, 2.5, 30.0], [-1.0001, -5.0]),
    ("power", (3.0, 2.0), Power(a=2.0, b=3.0),
     [1e-3, 0.5, 1.9999], [2.0001, 7.0, -0.5]),
    ("uniform", (-1.0, 3.0), Uniform(-1.0, 2.0),
     [-1.0, 0.0, 1.9999], [-1.0001, 2.0001, 9.0]),
]


class TestGridSpec:
    def test_point_count_and_spacing(self):
        lin = GridSpec(lo=1.0, hi=2.0, cells=100, spacing="linear")
        assert lin.points().shape == (101,)
        assert lin.points()[0] == 1.0 and lin.points()[-1] == 2.0
        log = GridSpec(lo=1.0, hi=100.0, cells=200, spacing="log")
        ratios = np.diff(np.log(log.points()))
        assert np.allclose(ratios, ratios[0])

    def test_validation(self):
        with pytest.raises(UsageError, match="finite"):
            GridSpec(lo=0.0, hi=math.inf)
        with pytest.raises(UsageError, match="lo < hi"):
            GridSpec(lo=2.0, hi=1.0)
        with pytest.raises(UsageError, match="100 cells"):
            GridSpec(lo=0.0, hi=1.0, cells=50)
        with pytest.raises(UsageError, match="spacing"):
            GridSpec(lo=0.0, hi=1.0, spacing="cubic")
        with pytest.raises(UsageError, match="lo > 0"):
            GridSpec(lo=0.0, hi=1.0, spacing="log")


class TestGridPosterior:
    def test_flat_likelihood_returns_prior(self):
        prior = Pareto(alpha=2.0, l=1.0)
        grid = GridSpec(lo=1.0, hi=50.0, cells=20_000, spacing="log")
        numeric = grid_posterior(lambda x: np.zeros_like(x),
                                 prior.log_pdf, grid)
        assert numeric.masses.sum() == pytest.approx(1.0, abs=1e-12)
        answer = compare_posterior(prior, numeric)
        assert answer["tv_distance"] < 1e-4

    def test_masses_ignore_additive_constants(self):
        prior = Pareto(alpha=2.0, l=1.0)
        grid = GridSpec(lo=1.0, hi=50.0, cells=5_000, spacing="log")
        base = grid_posterior(lambda x: np.zeros_like(x), prior.log_pdf, grid)
        shifted = grid_posterior(lambda x: np.full_like(x, 7.5),
                                 lambda x: prior.log_pdf(x) - 3.0, grid)
        np.testing.assert_allclose(shifted.masses, base.masses, rtol=1e-12)

    def test_zero_mass_raises(self):
        grid = GridSpec(lo=1.0, hi=2.0, cells=1_000)
        with pytest.raises(CoverageError, match="zero everywhere"):
            grid_posterior(lambda x: np.where(x < 0, 0.0, -np.inf),
                           lambda x: np.zeros_like(x), grid)


class TestComparePosterior:
    def _grid_from(self, closed, spacing="linear", cells=5_000):
        pts = auto_grid(closed, spacing, cells=cells).points()
        masses = np.diff(np.asarray(closed.cdf(pts), dtype=float))
        return GridPosterior(points=pts, masses=masses / masses.sum())

    def test_identical_distributions_score_zero(self):
        closed = Power(a=80.0, b=25.2)
        answer = compare_posterior(closed, self._grid_from(closed))
        assert answer["tv_distance"] < 1e-12
        assert answer["max_cdf_gap"] < 1e-12

    def test_distinct_distributions_score_positive(self):
        grid = self._grid_from(Uniform(0.0, 1.0))
        answer = compare_posterior(Power(a=1.0, b=2.0), grid)
        # TV between Uniform(0,1) and Power(1,2) is exactly 1/4
        assert answer["tv_distance"] == pytest.approx(0.25, abs=1e-3)

    def test_disjoint_supports_rejected(self):
        grid = self._grid_from(Uniform(0.0, 1.0))
        with pytest.raises(DomainError, match="overlap"):
            compare_posterior(Uniform(10.0, 11.0), grid)

    def test_window_uses_quantiles(self):
        lo, hi = window(Uniform(0.0, 1.0), tail=0.25)
        assert (lo, hi) == (0.25, 0.75)


class TestScenarios:
    def test_names_and_order(self):
        assert [sc.name for sc in single_parameter_scenarios()] == SINGLE_NAMES

    @pytest.mark.parametrize("index", range(8), ids=SINGLE_NAMES)
    def test_closed_form_matches_grid(self, index):
        row = run_scenario(single_parameter_scenarios()[index], cells=40_000)
        assert row.tv_distance < SELF_TV_TOL
        assert row.max_cdf_gap < SELF_TV_TOL

    def test_showcase_accuracy_at_dense_grid(self):
        # the lower-bound showcase posterior is smooth on its window, so a
        # dense grid should agree far beyond the headline tolerance
        row = run_scenario(single_parameter_scenarios()[0], cells=1_000_000)
        assert row.case == "pareto_location"
        assert row.tv_distance < SHOWCASE_TV_TOL

    def test_refinement_shrinks_distance(self):
        scenario = single_parameter_scenarios()[1]
        coarse = run_scenario(scenario, cells=500).tv_distance
        medium = run_scenario(scenario, cells=4_000).tv_distance
        fine = run_scenario(scenario, cells=32_000).tv_distance
        assert coarse > medium > fine


class TestFamilyTable:
    @pytest.mark.parametrize("family, params, law, inside, outside",
                             FAMILY_LAWS, ids=[row[0] for row in FAMILY_LAWS])
    def test_density_matches_law(self, family, params, law, inside, outside):
        density = _LOG_PDF[family]
        with np.errstate(divide="ignore", invalid="ignore"):
            for x in inside:
                assert float(density(x, *params)) == pytest.approx(
                    law.log_pdf(x), rel=1e-14)
            for x in outside:
                assert float(density(x, *params)) == -math.inf
            np.testing.assert_allclose(density(np.array(inside), *params),
                                       law.log_pdf(np.array(inside)), rtol=1e-14)

    def test_bound_prior_reaches_its_bound(self):
        # LogPower is open at its upper end; a bound's prior is not
        law = LogPower(a=0.1, b=2.0)
        assert law.log_pdf(0.1) == -math.inf
        closed = _prior_log_pdf(law, np.array([0.05, 0.1, 0.2]))
        assert closed[0] == law.log_pdf(0.05)
        assert closed[1] == pytest.approx(math.log(2.0), rel=1e-14)
        assert closed[2] == -math.inf

    def test_oracle_does_not_import_the_kernel(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names += [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names += [a.name for a in node.names]
        assert [n for n in names if "conjugate_kernel" in n] == []


class TestGridMarginal:
    def test_triangle_marginal(self):
        # joint flat on {0 < y <= theta < 1} has marginal density 2*theta
        def log_joint(theta, ys):
            return np.where(ys <= theta, 0.0, -np.inf)

        outer = GridSpec(lo=1e-6, hi=1.0, cells=2_000)
        inner = GridSpec(lo=0.0, hi=1.0, cells=4_000)
        marginal = grid_marginal(log_joint, outer, inner)
        answer = compare_posterior(Power(a=1.0, b=2.0), marginal)
        assert answer["tv_distance"] < 1e-3

    def test_slices_match_trapezoid_loop(self):
        # each slice's area is a dot product with trapezoid weights; it
        # must equal the trapezoid rule summed interval by interval up to
        # the reordered float sums
        def log_joint(theta, ys):
            body = math.log(theta) - theta * ys
            return np.where(ys >= 0.005 * theta, body, -np.inf)

        outer = GridSpec(lo=0.1, hi=3.0, cells=300, spacing="log")
        inner = GridSpec(lo=1e-3, hi=3.0, cells=2_000, spacing="log")
        ys = inner.points()
        log_slice = []
        for theta in outer.points():
            row = log_joint(theta, ys)
            dens = np.exp(row - row.max())
            area = np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(ys))
            log_slice.append(row.max() + math.log(area))
        dens = np.exp(np.array(log_slice) - max(log_slice))
        masses = 0.5 * (dens[1:] + dens[:-1]) * np.diff(outer.points())
        np.testing.assert_allclose(grid_marginal(log_joint, outer, inner).masses,
                                   masses / masses.sum(), rtol=1e-12)

    def test_empty_joint_raises(self):
        def log_joint(theta, ys):
            return np.full_like(ys, -np.inf)

        grid = GridSpec(lo=0.0, hi=1.0, cells=200)
        with pytest.raises(CoverageError, match="zero everywhere"):
            grid_marginal(log_joint, grid, grid)


class TestMonteCarlo:
    def test_uniform_ks(self):
        answer = mc_check(Uniform(0.0, 1.0), n_samples=10_000, seed=7)
        assert answer["ks_statistic"] < KS_TOL
        assert 0.0 <= answer["sample_min"] <= answer["sample_max"] <= 1.0
        assert answer["sample_mean"] == pytest.approx(0.5, abs=0.02)

    def test_seed_determinism(self):
        first = mc_check(Power(a=2.0, b=3.0), n_samples=2_000, seed=11)
        again = mc_check(Power(a=2.0, b=3.0), n_samples=2_000, seed=11)
        other = mc_check(Power(a=2.0, b=3.0), n_samples=2_000, seed=12)
        assert first == again
        assert first != other

    def test_sample_count_validation(self):
        with pytest.raises(UsageError, match="at least one"):
            mc_check(Uniform(0.0, 1.0), n_samples=0)


class TestDiagnosticReport:
    def test_table_covers_all_twelve_cases(self):
        rows = diagnostic_table(cells=20_000)
        assert [row.case for row in rows] == SINGLE_NAMES + JOINT_NAMES
        for row in rows:
            assert 0.0 <= row.tv_distance <= 1.0
            assert 0.0 <= row.max_cdf_gap <= 1.0
        by_name = {row.case: row for row in rows}
        for name in SINGLE_NAMES:
            assert by_name[name].tv_distance < SELF_TV_TOL, name

    def test_notes_document_rejected_closed_forms(self):
        notes = diagnostic_notes()
        assert len(notes) == 2
        assert all(note.startswith("note:") for note in notes)
        assert "rejected" in notes[0]
        assert "authoritative" in notes[1]
