"""Command-line layer: ingestion, state round-trips, exit codes, reports.

Every command is exercised in-process through main(argv) so stdout and
stderr can be captured exactly; one smoke test goes through the installed
console script.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from tailbayes import cli
from tailbayes import conjugate_exponential as cexp
from tailbayes import conjugate_pareto as cpar
from tailbayes import conjugate_power as cpow
from tailbayes import conjugate_uniform as cuni
from tailbayes.errors import DataError, DomainError, UsageError
from tailbayes.pot_pipeline import CELLS, ModelSpec, fit, suff_stats

EXACT_TOL = 1e-12


def write_lines(path, values):
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


@pytest.fixture()
def laptop_csv(tmp_path):
    return write_lines(tmp_path / "laptop.csv",
                       [80.0, 95.0, 112.0, 86.5, 102.0])


@pytest.fixture()
def laptop_state(tmp_path, laptop_csv):
    state = tmp_path / "state.json"
    rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                   "--prior", "l0=100,n0=1,alpha=1.2",
                   "--data", laptop_csv, "--out", str(state)])
    assert rc == 0
    return state


class TestIngest:
    def test_csv_single_column_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("price\n1.5\n2.5\n\n3.5\n")
        assert cli.ingest(str(path)) == [1.5, 2.5, 3.5]

    def test_csv_named_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,price\n1,10.5\n2,20.5\n")
        assert cli.ingest(str(path), column="price") == [10.5, 20.5]
        with pytest.raises(DataError, match="not found"):
            cli.ingest(str(path), column="weight")

    def test_csv_multiple_columns_need_column_flag(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(UsageError, match="--column"):
            cli.ingest(str(path))

    def test_csv_bad_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5\nbanana\n")
        with pytest.raises(DataError, match="line 2"):
            cli.ingest(str(path))

    def test_csv_non_finite_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.5\ninf\n")
        with pytest.raises(DataError, match="non-finite"):
            cli.ingest(str(path))

    def test_jsonl_scalars_and_fields(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('1.5\n{"ms": 2.5}\n')
        with pytest.raises(UsageError, match="--field"):
            cli.ingest(str(path))
        assert cli.ingest(str(path), field="ms") == [1.5, 2.5]

    def test_jsonl_rejects_booleans(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("true\n")
        with pytest.raises(DataError, match="not a number"):
            cli.ingest(str(path))

    def test_missing_file(self):
        with pytest.raises(DataError, match="not found"):
            cli.ingest("/nonexistent/data.csv")

    def test_order_preserved(self, tmp_path):
        path = write_lines(tmp_path / "d.csv", [5.0, 1.0, 3.0])
        assert cli.ingest(path) == [5.0, 1.0, 3.0]


class TestStateRoundTrip:
    def test_reload_and_rerender_is_bit_identical(self, laptop_state):
        text = laptop_state.read_text()
        fitted = cli.load_document(str(laptop_state))
        assert cli.render_document(fitted) == text

    def test_state_document_shape(self, laptop_state):
        doc = json.loads(laptop_state.read_text())
        assert doc["schema_version"] == 1
        assert doc["model_spec"]["family"] == "pareto"
        assert doc["posterior"]["l_n"] == 80.0
        assert doc["posterior"]["n_eff"] == 6.0
        assert doc["suff_stats"]["n"] == 5

    def test_predict_output_matches_in_process_document(self, laptop_state,
                                                        capsys):
        assert cli.main(["predict", "--state", str(laptop_state)]) == 0
        out = capsys.readouterr().out
        doc = cli.predictive_document(cli.load_document(str(laptop_state)))
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        parsed = json.loads(out)
        assert parsed["predictive"]["type"] == "Pareto"
        assert parsed["support"][0] < 80.0

    def test_update_equals_batch_fit(self, tmp_path, capsys):
        first = write_lines(tmp_path / "a.csv", [80.0, 95.0, 112.0])
        second = write_lines(tmp_path / "b.csv", [86.5, 102.0])
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        base = ["fit", "--family", "pareto", "--case", "location",
                "--prior", "l0=100,n0=1,alpha=1.2"]
        assert cli.main(base + ["--data", first, "--out", str(s1)]) == 0
        assert cli.main(["fit", "--update", "--state", str(s1),
                         "--data", second, "--out", str(s2)]) == 0
        whole = write_lines(tmp_path / "all.csv",
                            [80.0, 95.0, 112.0, 86.5, 102.0])
        s3 = tmp_path / "s3.json"
        assert cli.main(base + ["--data", whole, "--out", str(s3)]) == 0
        staged = json.loads(s2.read_text())
        batch = json.loads(s3.read_text())
        assert staged["posterior"] == batch["posterior"]
        assert staged["suff_stats"] == batch["suff_stats"]

    def test_update_rejects_model_flags(self, tmp_path, laptop_state,
                                        laptop_csv, capsys):
        rc = cli.main(["fit", "--update", "--state", str(laptop_state),
                       "--family", "pareto", "--case", "location",
                       "--data", laptop_csv])
        assert rc == 2
        assert "drop the model flags" in capsys.readouterr().err


# Per cell: a prior, data, and the posterior-block keys of the state
# document (schema_version 1), written out so a change to them shows.
CELL_DOCUMENTS = {
    ("pareto", "location"): (cpar.ParetoPriorL(l0=5.0, n0=1.0, alpha=1.2),
                             [3.1, 4.5, 7.0], {"l_n", "alpha", "n_eff"}),
    ("pareto", "shape"): (cpar.ParetoPriorAlpha(g0=2.0, n0=1.0, l=1.0),
                          [1.5, 3.0, 8.0], {"shape", "rate"}),
    ("pareto", "joint"): (cpar.ParetoJointPrior(l0=4.0, n0=1.0, g0=2.0, n0_shape=1.0),
                          [2.0, 6.0, 9.0], {"l_n", "n_eff_bound", "shape", "rate"}),
    ("shifted_exp", "location"): (cexp.ExpPriorL(l0=1.0, n0=1.0, alpha=0.8),
                                  [-0.5, 2.0, 0.7], {"l_n", "alpha", "n_eff"}),
    ("shifted_exp", "shape"): (cexp.ExpPriorAlpha(mu0=2.0, n0=1.0, l=0.0),
                               [0.5, 2.5, 0.1], {"shape", "rate"}),
    ("shifted_exp", "joint"): (cexp.ExpJointPrior(l0=0.5, n0=1.0, mu0=2.0, n0_rate=1.0),
                               [1.0, 2.0, 0.8], {"l_n", "n_eff_onset", "shape", "rate"}),
    ("power", "location"): (cpow.PowerPriorU(u0=2.0, n0=1.0, alpha=1.5),
                            [0.5, 1.8, 2.6], {"u_n", "alpha", "n_eff"}),
    ("power", "shape"): (cpow.PowerPriorAlpha(g0=0.5, n0=1.0, u=3.0),
                         [0.5, 2.5, 0.2], {"shape", "rate"}),
    ("power", "joint"): (cpow.PowerJointPrior(u0=0.9, n0=1.0, g0=0.5, n0_shape=1.0),
                         [0.5, 0.2, 0.8], {"u_n", "n_eff_bound", "shape", "rate"}),
    ("uniform", "width"): (cuni.UniformPriorW(w0=2.0, n0=1.0, l=0.0),
                           [0.5, 1.8, 2.5], {"w_n", "l", "n_eff"}),
    ("uniform", "lower"): (cuni.UniformPriorL(l0=1.0, u0=2.0, w=5.0),
                           [1.5, 3.0, 4.0], {"low", "high", "width"}),
    ("uniform", "joint"): (cuni.UniformJointPrior(w0=1.0, n0=1.0, l0=0.0, u0=1.0),
                           [0.2, 2.5, 1.0], {"l_n", "u_n", "w0", "n_eff", "c_n", "c_n1"}),
}


class TestCellDocuments:
    def test_every_cell_is_covered(self):
        assert set(CELL_DOCUMENTS) == set(CELLS)

    @pytest.mark.parametrize("cell", CELL_DOCUMENTS, ids="-".join)
    def test_round_trip_and_strict_posterior_block(self, cell, tmp_path, capsys):
        prior, data, keys = CELL_DOCUMENTS[cell]
        fitted = fit(ModelSpec(*cell, prior=prior), suff_stats(data))
        text = cli.render_document(fitted, seed=3)
        path = tmp_path / "state.json"
        path.write_text(text)
        assert cli.render_document(cli.load_document(str(path)), seed=3) == text
        doc = json.loads(text)
        assert set(doc["posterior"]) == keys
        assert cli.main(["predict", "--state", str(path)]) == 0
        expected = capsys.readouterr().out
        # the posterior block is a record of the fit: loading refits the
        # spec on the statistics, so no edit of the block changes anything
        block = doc["posterior"]
        edits = [{k: v for k, v in block.items() if k != key} for key in keys]
        edits += [{**block, "extra": 1.0}]
        edits += [{**block, key: math.inf} for key in keys]
        for edited in edits:
            path.write_text(json.dumps({**doc, "posterior": edited}))
            assert cli.render_document(cli.load_document(str(path)), seed=3) == text
            assert cli.main(["predict", "--state", str(path)]) == 0
            assert capsys.readouterr().out == expected


GOLDEN_STATES = sorted((Path(__file__).parent / "data" / "states").glob("*.json"))


class TestGoldenStates:
    """Schema-1 state documents kept as files, so that later schema
    versions go on reading them: the twelve cells with the CELL_DOCUMENTS
    priors and the eight non-informative cells, on the CELL_DOCUMENTS
    data, as `tailbayes fit` writes them."""

    def test_every_cell_is_kept(self):
        assert len(GOLDEN_STATES) == len(CELLS) + sum(
            cell.noninformative is not None for cell in CELLS.values())

    @pytest.mark.parametrize("path", GOLDEN_STATES, ids=lambda p: p.stem)
    def test_loads_predicts_and_rerenders(self, path, capsys):
        text = path.read_text()
        doc = json.loads(text)
        fitted = cli.load_document(str(path))
        assert dataclasses.asdict(fitted.spec) == doc["model_spec"]
        assert dataclasses.asdict(fitted.stats) == doc["suff_stats"]
        assert cli.main(["predict", "--state", str(path)]) == 0
        # every block but the posterior record re-renders byte for byte
        again = json.loads(cli.render_document(fitted, seed=doc["metadata"]["seed"]))
        again["posterior"] = doc["posterior"]
        assert json.dumps(again, indent=2, sort_keys=True) + "\n" == text


class TestNonFiniteValues:
    """Every prior field and every non-informative known value must be
    finite; an infinite or NaN one is a domain error (exit 3) at the
    place it enters, not a NaN posterior that surfaces later."""

    @pytest.mark.parametrize("cell", CELL_DOCUMENTS, ids="-".join)
    def test_every_prior_field(self, cell):
        prior = CELL_DOCUMENTS[cell][0]
        for name in vars(prior):
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(DomainError, match=name):
                    dataclasses.replace(prior, **{name: bad})

    @pytest.mark.parametrize("cell", [c for c in CELLS if CELLS[c].known
                                      and CELLS[c].noninformative], ids="-".join)
    def test_every_noninformative_known_value(self, cell):
        for bad in (math.inf, -math.inf, math.nan):
            spec = ModelSpec(*cell, noninformative=True,
                             known={CELLS[cell].known[0]: bad})
            with pytest.raises(DomainError):
                fit(spec, suff_stats([0.5, 1.0]))

    @pytest.mark.parametrize("flags", [
        ["--family", "shifted_exp", "--case", "shape", "--prior", "mu0=inf,n0=1",
         "--known", "l=1"],
        ["--family", "pareto", "--case", "location", "--noninformative",
         "--known", "alpha=inf"],
        ["--family", "pareto", "--case", "shape", "--prior", "g0=nan,n0=1,l=1"],
    ], ids=["prior-mu0-inf", "known-alpha-inf", "prior-g0-nan"])
    def test_fit_exits_3(self, tmp_path, capsys, flags):
        path = write_lines(tmp_path / "d.csv", [1.5, 2.0, 3.0])
        out = tmp_path / "state.json"
        assert cli.main(["fit", *flags, "--data", path, "--out", str(out)]) == 3
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_state_file_prior_exits_3(self, laptop_state, capsys):
        doc = json.loads(laptop_state.read_text())
        doc["model_spec"]["prior"]["n0"] = math.inf
        laptop_state.write_text(json.dumps(doc))
        assert cli.main(["predict", "--state", str(laptop_state)]) == 3


def noninformative_state(tmp_path, family, case, known):
    data = write_lines(tmp_path / "d.csv", [1.5, 2.0, 3.0])
    state = tmp_path / "state.json"
    assert cli.main(["fit", "--family", family, "--case", case,
                     "--noninformative", "--known", known,
                     "--data", data, "--out", str(state)]) == 0
    return state, data


class TestStateIsRefit:
    """predict and fit --update read a state file the same way, by
    refitting its model spec on its sufficient statistics: an edit to the
    posterior record changes nothing, and a bad known value or statistic
    exits 3 for both."""

    def test_posterior_record_is_not_read(self, tmp_path, capsys):
        state, _ = noninformative_state(tmp_path, "pareto", "location", "alpha=1.2")
        assert cli.main(["predict", "--state", str(state)]) == 0
        expected = capsys.readouterr().out
        doc = json.loads(state.read_text())
        doc["posterior"]["alpha"] = math.inf
        state.write_text(json.dumps(doc))
        assert cli.main(["predict", "--state", str(state)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("cell,known,block,key,value", [
        ("pareto-location", "alpha=1.2", "known", "alpha", math.inf),
        ("pareto-location", "alpha=1.2", "known", "alpha", "abc"),
        ("shifted_exp-shape", "l=1", "suff_stats", "min", "abc"),
        ("shifted_exp-shape", "l=1", "suff_stats", "sum", math.nan),
        ("shifted_exp-shape", "l=1", "suff_stats", "n", 2.5),
    ], ids=["known-inf", "known-str", "min-str", "sum-nan", "n-fractional"])
    def test_bad_known_value_or_statistic_exits_3(self, tmp_path, capsys, cell,
                                                   known, block, key, value):
        state, data = noninformative_state(tmp_path, *cell.split("-"), known)
        doc = json.loads(state.read_text())
        target = doc["model_spec"]["known"] if block == "known" else doc[block]
        target[key] = value
        state.write_text(json.dumps(doc))
        out = tmp_path / "next.json"
        assert cli.main(["predict", "--state", str(state)]) == 3
        assert cli.main(["fit", "--update", "--state", str(state),
                         "--data", data, "--out", str(out)]) == 3
        assert not out.exists()

    def test_overflowing_sum_exits_3(self, tmp_path, capsys):
        # refused where the statistics are made, with no RuntimeWarning
        # from the sum (warnings fail this suite)
        path = write_lines(tmp_path / "big.csv", [1e308, 1.5e308])
        out = tmp_path / "state.json"
        assert cli.main(["fit", "--family", "shifted_exp", "--case", "shape",
                         "--noninformative", "--known", "l=1",
                         "--data", path, "--out", str(out)]) == 3
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_missing_data_file(self, capsys):
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,alpha=1.2",
                       "--data", "/nonexistent.csv"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_csv_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.5\noops\n")
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,alpha=1.2",
                       "--data", str(path)])
        assert rc == 3

    def test_multiple_columns_without_column_flag(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("1,2\n3,4\n")
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,alpha=1.2",
                       "--data", str(path)])
        assert rc == 2

    def test_prior_noninformative_conflict(self, laptop_csv, capsys):
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,alpha=1.2", "--noninformative",
                       "--data", laptop_csv])
        assert rc == 2
        assert "conflict" in capsys.readouterr().err

    def test_unknown_prior_key(self, laptop_csv, capsys):
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,gamma=1.2",
                       "--data", laptop_csv])
        assert rc == 2
        assert "'gamma'" in capsys.readouterr().err

    def test_missing_prior_key_names_it(self, laptop_csv, capsys):
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1", "--data", laptop_csv])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_state_file(self, capsys):
        assert cli.main(["predict", "--state", "/nonexistent.json"]) == 3

    def test_malformed_state_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["predict", "--state", str(path)]) == 3
        path.write_text('{"schema_version": 1}')
        assert cli.main(["predict", "--state", str(path)]) == 3

    def test_simulate_without_seed(self, capsys):
        rc = cli.main(["simulate", "--family", "uniform",
                       "--params", "l=0,u=1"])
        assert rc == 2
        assert "reproducible" in capsys.readouterr().err

    def test_power_joint_prior_g0_zero(self, tmp_path, capsys):
        # g0 enters the exponent rate as log g0 even when n0_shape = 0
        path = write_lines(tmp_path / "small.csv", [0.5, 0.2])
        rc = cli.main(["fit", "--family", "power", "--case", "joint",
                       "--prior", "u0=1,n0=1,g0=0,n0_shape=0", "--data", path])
        assert rc == 3
        assert "g0" in capsys.readouterr().err

    def test_gamma_posterior_overflow(self, tmp_path, capsys):
        # a finite prior whose rate n0*(mu0 - l) overflows
        path = write_lines(tmp_path / "d.csv", [1.5, 2.0, 3.0])
        out = tmp_path / "state.json"
        rc = cli.main(["fit", "--family", "shifted_exp", "--case", "shape",
                       "--prior", "mu0=1e308,n0=10,l=0",
                       "--data", path, "--out", str(out)])
        assert rc == 4
        assert "float range" in capsys.readouterr().err
        assert not out.exists()

    def test_joint_invalid_regime(self, tmp_path, capsys):
        path = write_lines(tmp_path / "small.csv", [0.5, 0.5])
        rc = cli.main(["fit", "--family", "pareto", "--case", "joint",
                       "--prior", "l0=1,n0=0,g0=2,n0_shape=0",
                       "--data", str(path)])
        assert rc == 4
        assert "rescale" in capsys.readouterr().err

    def test_uniform_joint_evidence_outside_bracket(self, tmp_path, capsys):
        # n_eff = 1e5 with w0/w_n = 0.2: the evidence quadrature misses its
        # bracket, so fit refuses instead of writing an unusable state
        path = write_lines(tmp_path / "three.csv", [3.0, 5.0, 7.0])
        out = tmp_path / "state.json"
        rc = cli.main(["fit", "--family", "uniform", "--case", "joint",
                       "--prior", "w0=0.8,n0=99997,l0=4,u0=6",
                       "--data", path, "--out", str(out)])
        assert rc == 4
        assert "evidence" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        {"c_n": 0.0}, {"c_n1": 2.0}, {"n_eff": 0.0}],
        ids=["c_n-underflowed", "c_n1-above-bracket", "n_eff-zero"])
    def test_uniform_joint_state_with_bad_evidence(self, tmp_path, capsys, edit):
        # the evidence constants in a state file are a record of the fit;
        # loading refits them from the spec and the statistics, so one that
        # left its bracket (as a fit at n_eff = 1e6 once wrote c_n = 0.0)
        # never reaches predict
        path = write_lines(tmp_path / "three.csv", [3.0, 5.0, 7.0])
        state = tmp_path / "state.json"
        assert cli.main(["fit", "--family", "uniform", "--case", "joint",
                         "--prior", "w0=0.8,n0=2,l0=4,u0=6",
                         "--data", path, "--out", str(state)]) == 0
        capsys.readouterr()
        assert cli.main(["predict", "--state", str(state)]) == 0
        expected = capsys.readouterr().out
        doc = json.loads(state.read_text())
        doc["posterior"].update(edit)
        state.write_text(json.dumps(doc))
        assert cli.main(["predict", "--state", str(state)]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "Traceback" not in captured.err

    def test_validate_rejection_still_exits_zero(self, tmp_path, laptop_state,
                                                 capsys):
        holdout = write_lines(tmp_path / "h.csv", [70.0])
        rc = cli.main(["validate", "--state", str(laptop_state),
                       "--holdout", holdout])
        assert rc == 0
        assert "model rejected by holdout" in capsys.readouterr().out

    def test_validate_scores_inside_support(self, tmp_path, laptop_state,
                                            capsys):
        holdout = write_lines(tmp_path / "h.csv", [90.0, 120.0])
        rc = cli.main(["validate", "--state", str(laptop_state),
                       "--holdout", holdout])
        assert rc == 0
        assert "holdout log predictive:" in capsys.readouterr().out


class TestReports:
    def test_support_output(self, laptop_state, capsys):
        assert cli.main(["support", "--state", str(laptop_state)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "family: pareto"
        assert lines[1] == "case: location"
        assert lines[2] == "posterior bound: 80.0"
        assert lines[5] == "direction: lower"

    def test_verify_table(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        rc = cli.main(["verify", "--cells", "2000", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "case,tv_distance,max_cdf_gap"
        assert len(lines) == 13
        for line in lines[1:]:
            name, tv, gap = line.split(",")
            assert 0.0 <= float(tv) <= 1.0
            assert 0.0 <= float(gap) <= 1.0
        err = capsys.readouterr().err
        assert err.count("note:") == 2

    def test_plotdata_power(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = cli.main(["plotdata", "--figure", "power", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,pdf,label"
        assert len(lines) == 1 + 4 * 500
        assert lines[1].endswith("power alpha=0.5")

    def test_plotdata_gp_covers_both_tail_signs(self, tmp_path):
        out = tmp_path / "gp.csv"
        assert cli.main(["plotdata", "--figure", "gp", "--out", str(out)]) == 0
        text = out.read_text()
        assert "gp xi=-1" in text and "gp xi=1" in text and "gp xi=0" in text


class TestPotCommand:
    def test_pot_reports_threshold(self, tmp_path, capsys):
        data = write_lines(tmp_path / "lat.csv", [float(i) for i in range(1, 101)])
        state = tmp_path / "pot.json"
        rc = cli.main(["pot", "--data", data, "--k", "5",
                       "--family", "shifted_exp", "--case", "location",
                       "--noninformative", "--known", "alpha=1.0",
                       "--out", str(state)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "threshold: 96.0" in err
        assert "exceedances: 4" in err
        doc = json.loads(state.read_text())
        assert doc["model_spec"]["threshold"] == 96.0
        assert doc["posterior"]["l_n"] == 97.0

    def test_pot_state_reloads_for_support(self, tmp_path, capsys):
        data = write_lines(tmp_path / "lat.csv", [float(i) for i in range(1, 101)])
        state = tmp_path / "pot.json"
        cli.main(["pot", "--data", data, "--k", "5",
                  "--family", "shifted_exp", "--case", "location",
                  "--noninformative", "--known", "alpha=1.0",
                  "--out", str(state)])
        capsys.readouterr()
        assert cli.main(["support", "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "posterior bound: 97.0" in out
        assert "direction: lower" in out


class TestSimulate:
    def test_seeded_draws_reproduce(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["simulate", "--family", "power", "--params", "a=2,b=3",
                "--n", "50", "--seed", "42"]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        values = [float(line) for line in a.read_text().splitlines()]
        assert len(values) == 50
        assert all(0.0 < v < 2.0 for v in values)

    def test_bad_params_usage_error(self, capsys):
        rc = cli.main(["simulate", "--family", "power",
                       "--params", "l=0,u=1", "--seed", "1"])
        assert rc == 2
        assert "needs exactly" in capsys.readouterr().err

    def test_console_script_smoke(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "tailbayes.cli", "simulate",
             "--family", "uniform", "--params", "l=0,u=1",
             "--n", "5", "--seed", "3"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 5
