"""Refusals: every documented bad input raises its error type.

One parametrized test per group: the data summary, the priors, the
improper posteriors, the Gamma block, the non-informative limits and the
command line, whose errors are also checked for their exit code (2 for
usage, 3 for data and domain problems).
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tailbayes import cli
from tailbayes import conjugate_exponential as cexp
from tailbayes import conjugate_kernel as kernel
from tailbayes import conjugate_pareto as cpar
from tailbayes import conjugate_power as cpow
from tailbayes import conjugate_uniform as cuni
from tailbayes import pot_pipeline as pp
from tailbayes.errors import DataError, DomainError, NoInformationError
from tailbayes.predictives import (ParetoLogLink, ParetoNegLogLink, ParetoShiftLink,
                                   Trapezoid)
from tailbayes.sufficient import SuffStats, suff_stats

STATES = Path(__file__).parent / "data" / "states"
STATS = suff_stats([1.5, 2.0, 3.0])
EMPTY = suff_stats([])
IMPROPER_GAMMA = kernel.GammaPosterior(0.0, 0.0)


@pytest.mark.parametrize("data", [
    [1.0, math.nan], [math.inf, 2.0], [-math.inf],
], ids=["nan", "inf", "-inf"])
def test_suff_stats_refuses_non_finite_data(data):
    with pytest.raises(DomainError, match="data must be finite"):
        suff_stats(data)


PARETO_FLOOR = pp.predict(pp.fit(
    pp.ModelSpec("pareto", "location", noninformative=True, known={"alpha": 1.2}),
    STATS))
BATCH_READERS = {
    "suff_stats": suff_stats,
    "select_threshold": lambda data: pp.select_threshold(data, 1),
    "pot_fit": lambda data: pp.pot_fit(data, 1, pp.ModelSpec(
        "pareto", "location", noninformative=True, known={"alpha": 1.2})),
    "holdout_log_predictive":
        lambda data: pp.holdout_log_predictive(PARETO_FLOOR, data),
}


@pytest.mark.parametrize("reader", sorted(BATCH_READERS))
@pytest.mark.parametrize("data", [
    [[2.5, 3.0], [4.0, 5.0]], np.full((2, 2), math.nan), np.ones((1, 1, 1)),
], ids=["2-d", "2-d-nan", "3-d"])
def test_batch_of_more_than_one_dimension_is_refused(data, reader):
    # one rule for the three entry points: refused for its shape, before
    # its values are read
    with pytest.raises(DomainError, match="1-d sequence"):
        BATCH_READERS[reader](data)


@pytest.mark.parametrize("reader", sorted(BATCH_READERS))
@pytest.mark.parametrize("data", [
    [1.0, math.nan, 3.0, 2.0, 5.0], [1.0, math.inf, 3.0], [-math.inf, 2.0],
], ids=["nan", "inf", "-inf"])
def test_batch_with_a_non_finite_value_is_refused(data, reader):
    # no entry point drops or ranks a non-finite value without a word
    with pytest.raises(DomainError, match="must be finite"):
        BATCH_READERS[reader](data)


@pytest.mark.parametrize("fields,match", [
    (dict(n=0, min=1.0, max=None, sum=0.0, sum_log=0.0), "empty summary"),
    (dict(n=0, min=None, max=1.0, sum=0.0, sum_log=0.0), "empty summary"),
    (dict(n=2, min=None, max=3.0, sum=4.0, sum_log=None), "must carry bounds"),
    (dict(n=2, min=1.0, max=None, sum=4.0, sum_log=None), "must carry bounds"),
], ids=["empty-min", "empty-max", "no-min", "no-max"])
def test_summary_bounds_must_match_its_count(fields, match):
    with pytest.raises(DomainError, match=match):
        SuffStats(**fields)


@pytest.mark.parametrize("cls,fields,match", [
    (cexp.ExpPriorL, dict(l0=1.0, n0=-1.0, alpha=1.0), "n0"),
    (cexp.ExpPriorL, dict(l0=1.0, n0=1.0, alpha=0.0), "alpha"),
    (cexp.ExpJointPrior, dict(l0=1.0, n0=-1.0, mu0=2.0, n0_rate=1.0), "pseudo-counts"),
    (cexp.ExpJointPrior, dict(l0=1.0, n0=1.0, mu0=2.0, n0_rate=-1.0), "pseudo-counts"),
    (cexp.ExpJointPrior, dict(l0=1.0, n0=1.0, mu0=0.0, n0_rate=1.0), "mu0"),
    (cpar.ParetoJointPrior, dict(l0=0.0, n0=1.0, g0=2.0, n0_shape=1.0), "l0"),
    (cpar.ParetoJointPrior, dict(l0=1.0, n0=1.0, g0=2.0, n0_shape=-1.0), "pseudo-counts"),
    (cpar.ParetoJointPrior, dict(l0=1.0, n0=1.0, g0=1.0, n0_shape=1.0), "g0"),
    (cpow.PowerPriorU, dict(u0=0.0, n0=1.0, alpha=1.0), "u0"),
    (cpow.PowerPriorU, dict(u0=1.0, n0=-1.0, alpha=1.0), "n0"),
    (cpow.PowerPriorU, dict(u0=1.0, n0=1.0, alpha=-2.0), "alpha"),
    (cpow.PowerPriorAlpha, dict(g0=0.5, n0=-1.0, u=1.0), "n0"),
    (cpow.PowerJointPrior, dict(u0=-1.0, n0=1.0, g0=0.5, n0_shape=1.0), "u0"),
    (cpow.PowerJointPrior, dict(u0=1.0, n0=-1.0, g0=0.5, n0_shape=1.0), "pseudo-counts"),
    (cuni.UniformPriorW, dict(w0=0.0, n0=1.0, l=0.0), "w0"),
    (cuni.UniformPriorW, dict(w0=1.0, n0=-1.0, l=0.0), "n0"),
    (cuni.UniformJointPrior, dict(w0=-1.0, n0=1.0, l0=0.0, u0=1.0), "w0"),
    (cuni.UniformJointPrior, dict(w0=1.0, n0=-1.0, l0=0.0, u0=1.0), "n0"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_prior_refuses_a_value_outside_its_domain(cls, fields, match):
    with pytest.raises(DomainError, match=match):
        cls(**fields)


JOINT = cuni.posterior_joint(cuni.UniformJointPrior(w0=1.0, n0=1.0, l0=0.0, u0=1.0),
                             suff_stats([0.2, 2.5, 1.0]))
PREDICTIVES = {
    "log-link": ParetoLogLink(shape=2.0, scale=1.0, offset=1.5, anchor=2.0),
    "shift-link": ParetoShiftLink(shape=2.0, scale=1.0, offset=1.5, anchor=-2.0),
    "neg-log-link": ParetoNegLogLink(shape=2.0, scale=1.0, offset=1.5, anchor=2.0),
    "trapezoid": Trapezoid(lower=1.0, flat_lo=2.0, flat_hi=3.5, upper=4.0),
    "joint-posterior": JOINT,
    "joint-predictive": cuni.predictive_joint(JOINT),
}


@pytest.mark.parametrize("name", PREDICTIVES)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_predictive_refuses_a_non_finite_parameter(name, bad):
    # each field at construction, where no other check refuses it too (an
    # infinite link offset, trapezoid lower end or joint n_eff); a joint
    # record's range check refuses a NaN end or pole first
    law = PREDICTIVES[name]
    for field in dataclasses.fields(law):
        with pytest.raises(DomainError,
                           match=f"{field.name} must be finite|0 < w0 <= w_n"):
            dataclasses.replace(law, **{field.name: bad})


@pytest.mark.parametrize("call,error", [
    (lambda: cexp.OnsetPosterior(math.inf, 1.0, 0.0).distribution(),
     NoInformationError),
    (lambda: cuni.LocationPosterior(-math.inf, math.inf, 1.0).distribution(),
     NoInformationError),
    (lambda: cpar.ParetoJointPosterior(math.inf, 0.0, IMPROPER_GAMMA)
     .conditional_bound(1.0), NoInformationError),
    (lambda: cexp.ExpJointPosterior(math.inf, 0.0, IMPROPER_GAMMA)
     .conditional_onset(1.0), NoInformationError),
    (lambda: cpow.PowerJointPosterior(0.0, 0.0, IMPROPER_GAMMA)
     .conditional_bound(1.0), NoInformationError),
    (lambda: cpow.PowerJointPosterior(2.0, 3.0, kernel.GammaPosterior(3.0, 1.0))
     .conditional_bound(0.0), DomainError),
], ids=["onset", "location", "pareto-joint", "exp-joint", "power-joint",
        "power-joint-alpha"])
def test_improper_posterior_refuses_to_give_a_law(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call,error", [
    (lambda: kernel.GammaPosterior(-1.0, 1.0), DomainError),
    (lambda: kernel.GammaPosterior(1.0, -1.0), DomainError),
    (lambda: IMPROPER_GAMMA.distribution(), NoInformationError),
    (lambda: IMPROPER_GAMMA.mean(), NoInformationError),
], ids=["negative-shape", "negative-rate", "improper-distribution",
        "improper-mean"])
def test_gamma_block_refusals(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call,error", [
    (lambda: cpar.noninformative("location", STATS), DomainError),
    (lambda: cpar.noninformative("location", STATS, alpha=0.0), DomainError),
    (lambda: cexp.noninformative("location", STATS, alpha=-1.0), DomainError),
    (lambda: cpar.noninformative("shape", STATS), DomainError),
    (lambda: cpar.noninformative("shape", STATS, l=0.0), DomainError),
    (lambda: cpow.noninformative("shape", STATS, u=-1.0), DomainError),
    (lambda: cpar.noninformative("joint", STATS, alpha=1.0), DomainError),
    (lambda: cuni.noninformative("width", STATS), DomainError),
    (lambda: cuni.noninformative("width", EMPTY, l=math.nan), DomainError),
    (lambda: cuni.noninformative("lower", STATS, w=0.0), DomainError),
    (lambda: cuni.noninformative("lower", STATS, w=1.0), DataError),
    (lambda: cuni.noninformative("joint", STATS, l=0.0), DomainError),
], ids=["pareto-no-alpha", "pareto-alpha-0", "exp-alpha-negative",
        "pareto-no-l", "pareto-l-0", "power-u-negative", "kernel-unknown-case",
        "uniform-no-l", "uniform-l-nan", "uniform-w-0", "uniform-range-above-w",
        "uniform-unknown-case"])
def test_noninformative_refuses_a_missing_or_bad_known_value(call, error):
    with pytest.raises(error):
        call()


def _fit(*flags):
    return ["fit", "--family", "pareto", "--case", "location", *flags]


@pytest.mark.parametrize("argv,code,message", [
    (_fit("--prior", "l0"), 2, "expects key=value pairs"),
    (_fit("--prior", "=1"), 2, "expects key=value pairs"),
    (_fit("--prior", "l0=1,n0=abc,alpha=2"), 2, "is not a number"),
    (_fit("--noninformative", "--known", "alpha=x"), 2, "is not a number"),
    (["fit", "--family", "uniform", "--case", "location", "--prior", "l0=1"],
     2, "unknown family/case pair: uniform/location"),
    (["fit", "--case", "location", "--noninformative"], 2,
     "--family and --case are required"),
    (["fit", "--family", "pareto", "--noninformative"], 2,
     "--family and --case are required"),
    (_fit("--known", "alpha=1"), 2, "pass --prior"),
    (["fit", "--update"], 2, "--update needs --state"),
    (_fit("--noninformative", "--known", "alpha=1", "--state", "s.json"), 2,
     "only makes sense with --update"),
    (["predict", "--state", "SCHEMA"], 3, "unsupported schema_version 2"),
], ids=["prior-no-equals", "prior-no-key", "prior-not-a-number",
        "known-not-a-number", "unknown-pair", "no-family", "no-case",
        "no-prior", "update-without-state", "state-without-update",
        "schema-version"])
def test_command_line_refusal_exit_code(tmp_path, capsys, argv, code, message):
    data = tmp_path / "data.csv"
    data.write_text("1.5\n2.0\n3.0\n")
    doc = json.loads((STATES / "pareto-location-prior.json").read_text())
    doc["schema_version"] = 2
    state = tmp_path / "schema.json"
    state.write_text(json.dumps(doc))
    argv = [str(state) if a == "SCHEMA" else a for a in argv]
    if argv[0] == "fit":
        argv += ["--data", str(data)]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
