"""Command-line layer: ingestion, state round-trips, exit codes, reports.

Every command is exercised in-process through main(argv) so stdout and
stderr can be captured exactly; one smoke test goes through the installed
console script.
"""

import codecs
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import tailbayes
from tailbayes import cli, errors
from tailbayes import conjugate_exponential as cexp
from tailbayes import conjugate_pareto as cpar
from tailbayes import conjugate_power as cpow
from tailbayes import conjugate_uniform as cuni
from tailbayes.errors import DataError, DomainError, UsageError
from tailbayes.pot_pipeline import (CELLS, ModelSpec, fit, holdout_log_predictive,
                                   merge, predict, suff_stats)

EXACT_TOL = 1e-12
SRC = Path(tailbayes.__file__).resolve().parents[1]
REPO = SRC.parent


def run_python(args, **kwargs):
    """Run a fresh interpreter that imports tailbayes from this tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


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
        assert cli.ingest(str(path)).tolist() == [1.5, 2.5, 3.5]

    def test_csv_named_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,price\n1,10.5\n2,20.5\n")
        assert cli.ingest(str(path), column="price").tolist() == [10.5, 20.5]
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
        assert cli.ingest(str(path), field="ms").tolist() == [1.5, 2.5]

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
        assert cli.ingest(path).tolist() == [5.0, 1.0, 3.0]

    @pytest.mark.parametrize("text", ["price\n1.5\n2.5\n", '"1.5"\n"2.5"\n',
                                      "price\n", ""],
                             ids=["vectorised", "row-parser", "header-only",
                                  "empty"])
    def test_returns_a_float64_array(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        values = cli.ingest(str(path))
        assert type(values) is np.ndarray
        assert values.dtype == np.float64 and values.ndim == 1


def _outcome(call):
    """A parse's values as float64 bit patterns, or its exception."""
    try:
        values = call()
    except (DataError, UsageError) as exc:
        return type(exc), str(exc)
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


def _row_parser(text, path, fmt, column, field):
    if fmt == "csv":
        return cli._ingest_csv(text, path, column)
    return cli._ingest_jsonl(text, path, field)


INGEST_CORPUS = [
    # (name, fmt, column, field, text, vectorised pass expected to take it)
    ("header", "csv", None, None, "price\n1.5\n2.5\n", True),
    ("no_header", "csv", None, None, "1.5\n2.5\n3e-3\n", True),
    ("no_final_newline", "csv", None, None, "1.5\n2.5", True),
    ("header_only", "csv", None, None, "price\n", True),
    ("empty", "csv", None, None, "", False),
    ("blank_rows", "csv", None, None, "\n1.5\n\n   \n\t\n2.5\n\n", True),
    ("comma_rows", "csv", None, None, "1.5\n,,\n2.5\n", False),
    ("trailing_comma", "csv", None, None, "1.5,\n 2.5 ,\n", False),
    ("crlf", "csv", None, None, "price\r\n1.5\r\n2.5\r\n", False),
    ("lone_cr", "csv", None, None, "1.5\r2.5\r", False),
    ("quoted", "csv", None, None, '"1.5"\n"2.5"\n', False),
    ("python_float_grammar", "csv", None, None,
     "price\n 1.5 \n+1\n1_000\n-0.0\n1E5\n", True),
    ("nan_on_line_3", "csv", None, None, "1\n2\nnan\n4\n", False),
    ("inf_on_line_2", "csv", None, None, "1\ninf\n", False),
    ("bad_cell_on_line_3", "csv", None, None, "price\n1\nbanana\n", False),
    ("second_non_number", "csv", None, None, "1\nprice\n", False),
    ("many_columns", "csv", None, None, "1,2\n3,4\n", False),
    ("column", "csv", "price", None,
     "id,price,qty\n1, 10.5 ,3\n2,20.5,4\n", False),
    ("column_blank_rows", "csv", "v", None, "id,v\n1,2\n,,\n \n3,4\n", False),
    ("column_blank_header_row", "csv", "", None, ",\n5,6\n7,8\n", False),
    ("column_short_row", "csv", "price", None, "id,price\n1,2\n3\n", False),
    ("column_missing", "csv", "weight", None, "id,price\n1,2\n", False),
    ("column_quoted", "csv", "v", None, 'id,v\n"a,b",2.5\n', False),
    ("column_nan", "csv", "v", None, "id,v\n1,2\n2,nan\n", False),
    ("jsonl_ints_floats", "jsonl", None, None, "1\n2.5\n-3\n1e-3\n-0\n", True),
    ("jsonl_blank_lines", "jsonl", None, None, "\n 1 \n\n\t2\n", True),
    ("jsonl_true", "jsonl", None, None, "1\ntrue\n", False),
    ("jsonl_null", "jsonl", None, None, "1\nnull\n", False),
    ("jsonl_string", "jsonl", None, None, '1\n"2"\n', False),
    ("jsonl_nan", "jsonl", None, None, "1\nNaN\n", False),
    ("jsonl_huge_float", "jsonl", None, None, "1\n1e400\n", False),
    ("jsonl_huge_int", "jsonl", None, None, "1\n" + "1" * 400 + "\n", False),
    ("jsonl_two_per_line", "jsonl", None, None, "1, 2\n3\n", False),
    ("jsonl_list_across_lines", "jsonl", None, None, "[1\n2]\n", False),
    ("jsonl_crlf", "jsonl", None, None, "1\r\n2\r\n", False),
    ("jsonl_objects_need_field", "jsonl", None, None, '1.5\n{"ms": 2.5}\n', False),
    ("jsonl_field", "jsonl", None, "ms", '1.5\n{"ms": 2.5}\n{"ms": 3}\n', False),
    ("jsonl_field_missing", "jsonl", None, "ms", '{"ms": 1}\n{"x": 2}\n', False),
    ("jsonl_joined_objects", "jsonl", None, "v",
     '{"v":1},{"v":2}\n{"v":3,"x":[1\n2]}\n', False),
]


class TestIngestParity:
    """The vectorised pass agrees bit for bit with the row parser, and
    hands every file it cannot vouch for to the row parser."""

    @pytest.mark.parametrize("name,fmt,column,field,text,fast",
                             INGEST_CORPUS, ids=[c[0] for c in INGEST_CORPUS])
    def test_same_values_or_same_error(self, tmp_path, name, fmt, column,
                                       field, text, fast):
        path = tmp_path / f"data.{fmt}"
        path.write_bytes(text.encode())
        want = _outcome(lambda: _row_parser(text, str(path), fmt, column, field))
        vectorised = cli._ingest_fast(text, fmt, column, field)
        assert (vectorised is not None) == fast
        if vectorised is not None:
            assert _outcome(lambda: vectorised) == want
        assert _outcome(lambda: cli.ingest(str(path), fmt, column, field)) == want

    def test_joined_objects_exit_3(self, tmp_path, capsys):
        path = tmp_path / "joined.jsonl"
        path.write_text('{"v":1},{"v":2}\n{"v":3,"x":[1\n2]}\n')
        rc = cli.main(["fit", "--family", "pareto", "--case", "shape",
                       "--noninformative", "--known", "l=0.5",
                       "--data", str(path), "--field", "v"])
        assert rc == 3
        assert "line 1: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bulk_file_sufficient_statistics(self, tmp_path, fmt):
        values = (2.0 * np.random.default_rng(8).random(50_000) ** -0.6).tolist()
        lines = [repr(v) for v in values]
        if fmt == "csv":
            lines.insert(0, "latency_ms")
        text = "\n".join(lines) + "\n"
        path = tmp_path / f"bulk.{fmt}"
        path.write_text(text)
        reference = _row_parser(text, str(path), fmt, None, None)
        assert reference == values
        assert cli._ingest_fast(text, fmt, None, None) is not None
        assert suff_stats(cli.ingest(str(path))) == suff_stats(reference)


class TestStateRoundTrip:
    def test_reload_and_rerender_is_bit_identical(self, laptop_state):
        text = laptop_state.read_text()
        fitted = cli.load_document(str(laptop_state))
        assert cli.render_document(fitted) == text

    def test_known_may_be_any_mapping(self):
        known = {"alpha": 1.2}
        docs = [cli.render_document(fit(
            ModelSpec("pareto", "location", noninformative=True, known=k),
            suff_stats([3.0, 4.5]))) for k in (known, MappingProxyType(known))]
        assert docs[0] == docs[1]

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


# cells whose predictives are not yet the exact posterior predictive, with
# the ROADMAP item that mends each; strict, so the mend must flip them
_EDGE = "item 10: the predictive stops at a finite edge; a point beyond it scores -inf"
_RATE = "item 1: the exponent rate drops a term, so the orders disagree"
INCOHERENT = {
    ("pareto", "location"): _EDGE, ("shifted_exp", "location"): _EDGE,
    ("power", "location"): _EDGE, ("uniform", "width"): _EDGE,
    ("pareto", "joint"): "item 1: the exponent rate drops a term, and a false "
                         "edge below l_n scores -inf",
    ("shifted_exp", "joint"): _RATE, ("power", "joint"): _RATE,
}


class TestPrequentialIdentity:
    """By the chain rule, sum log p(x_i | x_<i) is log p(x_1..x_n) in every
    order of the data when every predictive is exact (Dawid 1984).  On each
    cell's CELL_DOCUMENTS prior, with its 3 points and 3 seeded jittered
    copies, the score is finite and the same to 1e-12 relative in 8
    orders: as given, ascending, descending and 5 shuffles.  The uniform
    joint cannot predict from its prior alone, so its x_1 stays first and
    the score is conditioned on it.  Only fit and predict are read."""

    @pytest.mark.parametrize("cell", [
        pytest.param(cell, marks=pytest.mark.xfail(strict=True, reason=INCOHERENT[cell]))
        if cell in INCOHERENT else cell for cell in CELL_DOCUMENTS], ids="-".join)
    def test_score_is_the_same_in_every_order(self, cell):
        prior, data, _ = CELL_DOCUMENTS[cell]
        rng = np.random.default_rng(1984)
        points = np.concatenate([data, np.multiply(data, np.exp(0.05 * rng.standard_normal(3)))])
        held = 1 if cell == ("uniform", "joint") else 0
        rest = points[held:]
        orders = [rest, np.sort(rest), np.sort(rest)[::-1]]
        orders += [rng.permutation(rest) for _ in range(5)]
        scores = []
        for order in orders:
            xs = np.concatenate([points[:held], order])
            scores.append(math.fsum(
                predict(fit(ModelSpec(*cell, prior=prior), suff_stats(xs[:i]))).log_pdf(xs[i])
                for i in range(held, xs.size)))
        assert all(map(math.isfinite, scores)), scores
        assert max(scores) - min(scores) <= 1e-12 * abs(scores[0]), scores


STATES = Path(__file__).parent / "data" / "states"
GOLDEN_STATES = sorted(STATES.glob("*.json"))


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


def strict_json(text):
    """json.loads that refuses the Infinity and NaN tokens JSON lacks."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Every fit and predict output is strict JSON: an infinite value (an
    unbounded support end, a bound no datum has set) is written as null."""

    MODELS = [(cell, "prior") for cell in CELL_DOCUMENTS] + [
        (cell, "noninformative") for cell in CELL_DOCUMENTS
        if CELLS[cell].noninformative]

    @pytest.mark.parametrize("cell,mode", MODELS,
                             ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
    @pytest.mark.parametrize("empty", [False, True], ids=["data", "empty"])
    def test_fit_and_predict(self, tmp_path, capsys, cell, mode, empty):
        prior, data, _ = CELL_DOCUMENTS[cell]
        if mode == "prior":
            model = ["--prior", ",".join(f"{k}={v!r}" for k, v in vars(prior).items())]
        else:
            model = ["--noninformative", "--known", ",".join(
                f"{k}={getattr(prior, k)!r}" for k in CELLS[cell].known)]
        path = write_lines(tmp_path / "d.csv", [] if empty else data)
        rc = cli.main(["fit", "--family", *cell[:1], "--case", cell[1], *model,
                       "--data", path])
        out = capsys.readouterr().out
        assert rc == 0 or empty
        if rc != 0:
            return
        state = tmp_path / "state.json"
        state.write_text(out)
        strict_json(out)
        rc = cli.main(["predict", "--state", str(state)])
        out = capsys.readouterr().out
        assert rc == 0 or empty
        if rc == 0:
            doc = strict_json(out)
            if cell == ("uniform", "joint"):
                assert doc["support"] == [None, None]

    def test_unset_bound_is_null(self, tmp_path, capsys):
        path = write_lines(tmp_path / "empty.csv", [])
        assert cli.main(["fit", "--family", "pareto", "--case", "location",
                         "--noninformative", "--known", "alpha=1.2",
                         "--data", path]) == 0
        assert strict_json(capsys.readouterr().out)["posterior"]["l_n"] is None

    def test_unbounded_support_end_is_null(self, laptop_state, capsys):
        assert cli.main(["predict", "--state", str(laptop_state)]) == 0
        lo, hi = strict_json(capsys.readouterr().out)["support"]
        assert lo < 80.0 and hi is None


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

    @pytest.mark.parametrize("block,edit", [
        ("model_spec", {"views": "raw"}),
        ("suff_stats", {"sum_sq": 1.0}),
        ("model_spec", {"known": []}),
        ("model_spec", {"known": None}),
        ("model_spec", {"known": "alpha=1.2"}),
    ], ids=["spec-unknown-key", "stats-unknown-key", "known-list",
            "known-null", "known-string"])
    def test_block_other_than_its_dataclass_exits_3(self, tmp_path, capsys,
                                                     block, edit):
        # the model_spec and suff_stats blocks are read by keyword into
        # ModelSpec and SuffStats, so a key that is not a field, or a known
        # block that is not an object, is a malformed state for every
        # command that reads one
        state, data = noninformative_state(tmp_path, "pareto", "location",
                                           "alpha=1.2")
        doc = json.loads(state.read_text())
        doc[block].update(edit)
        state.write_text(json.dumps(doc))
        out = tmp_path / "next.json"
        for argv in (["predict"], ["support"], ["validate", "--holdout", data],
                     ["fit", "--update", "--data", data, "--out", str(out)]):
            capsys.readouterr()
            assert cli.main([*argv, "--state", str(state)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: state file {state} is malformed")
        assert not out.exists()

    @pytest.mark.parametrize("block,key", [
        ("model_spec", "view"), ("model_spec", "threshold"),
        ("model_spec", "known"), ("suff_stats", "sum_log")])
    def test_block_missing_a_field_exits_3(self, tmp_path, capsys, block, key):
        # ModelSpec has defaults for these; a state must still spell out
        # every field rather than have one filled in
        state, _ = noninformative_state(tmp_path, "pareto", "location",
                                        "alpha=1.2")
        doc = json.loads(state.read_text())
        del doc[block][key]
        state.write_text(json.dumps(doc))
        assert cli.main(["predict", "--state", str(state)]) == 3
        assert "is malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("name,edit,named", [
        ("pareto-location-noninformative", {"family": "bogus"}, "'bogus'"),
        ("pareto-location-noninformative", {"view": "sideways"}, "'sideways'"),
        ("pareto-location-noninformative", {"noninformative": False},
         "noninformative=False"),
        ("pareto-location-prior", {"family": "bogus"}, "bogus/location"),
        ("pareto-location-prior", {"case": "width"}, "pareto/width"),
    ], ids=["family-null-prior", "view", "neither-prior-nor-noninformative",
            "family-with-prior", "case-with-prior"])
    def test_model_spec_value_refused_exits_3(self, tmp_path, capsys, name,
                                              edit, named):
        # a value ModelSpec refuses, or a (family, case) pair with no cell,
        # is a fault of the state file, not of the command line
        doc = json.loads((STATES / f"{name}.json").read_text())
        doc["model_spec"].update(edit)
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc))
        for command in ("predict", "support"):
            assert cli.main([command, "--state", str(state)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: state file {state} is malformed: ")
            assert named in err

    @pytest.mark.parametrize("name,path,value", [
        ("pareto-location-prior", ("model_spec", "prior", "n0"), True),
        ("pareto-location-noninformative", ("model_spec", "known", "alpha"), True),
        ("pareto-location-prior", ("suff_stats", "min"), True),
        ("pareto-location-prior", ("suff_stats", "sum"), True),
        ("pareto-location-prior", ("suff_stats", "sum_log"), False),
        ("pareto-location-prior", ("model_spec", "threshold"), False),
        ("pareto-location-prior", ("schema_version",), True),
    ], ids=["prior", "known", "min", "sum", "sum_log", "threshold",
            "schema_version"])
    def test_boolean_for_a_number_exits_3(self, tmp_path, capsys, name, path,
                                          value):
        # Python reads JSON true and false as 1 and 0; a state is refused
        # as JSONL ingest refuses them
        doc = json.loads((STATES / f"{name}.json").read_text())
        *blocks, key = path
        target = doc
        for block in blocks:
            target = target[block]
        target[key] = value
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc))
        where = " ".join(path[-2:])
        for command in ("predict", "support"):
            assert cli.main([command, "--state", str(state)]) == 3
            assert capsys.readouterr() == ("", (
                f"error: state file {state} is malformed: {where} is "
                f"{json.dumps(value)}, not a number\n"))

    def test_min_above_max_exits_3(self, tmp_path, capsys):
        state, _ = noninformative_state(tmp_path, "uniform", "width", "l=1")
        doc = json.loads(state.read_text())
        doc["suff_stats"].update(min=5.0, max=2.5)
        state.write_text(json.dumps(doc))
        assert cli.main(["predict", "--state", str(state)]) == 3
        assert cli.main(["support", "--state", str(state)]) == 3
        assert "exceeds max" in capsys.readouterr().err

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
    @pytest.mark.parametrize(
        "name", [n for n in errors.__all__ if n != "require_finite"])
    def test_every_error_type_gives_its_code(self, monkeypatch, capsys, name):
        expected = {"UsageError": 2, "InvalidRegimeError": 4,
                    "ConvergenceError": 4}.get(name, 3)

        def handler(args):
            raise getattr(errors, name)("raised by the command")

        monkeypatch.setattr(cli, "_cmd_support", handler)
        assert cli.main(["support", "--state", "state.json"]) == expected
        assert capsys.readouterr() == ("", "error: raised by the command\n")

    @pytest.mark.parametrize("command", ["fit", "pot", "predict", "simulate",
                                         "verify", "plotdata"])
    @pytest.mark.parametrize("where,reason", [
        ("missing-directory", "No such file or directory"),
        ("directory", "Is a directory")], ids=["missing-directory", "directory"])
    def test_unwritable_out(self, tmp_path, laptop_csv, laptop_state, capsys,
                            command, where, reason):
        argv = {
            "fit": ["fit", "--family", "pareto", "--case", "location",
                    "--prior", "l0=100,n0=1,alpha=1.2", "--data", laptop_csv],
            "pot": ["pot", "--family", "pareto", "--case", "location",
                    "--noninformative", "--known", "alpha=1.2", "--k", "3",
                    "--data", laptop_csv],
            "predict": ["predict", "--state", str(laptop_state)],
            "simulate": ["simulate", "--family", "uniform", "--params",
                         "l=0,u=1", "--n", "3", "--seed", "1"],
            "verify": ["verify", "--cells", "2000"],
            "plotdata": ["plotdata", "--figure", "gp"],
        }[command]
        out = tmp_path / "no" / "s.json" if where == "missing-directory" else tmp_path
        capsys.readouterr()
        assert cli.main([*argv, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: output file {out} cannot be written: {reason}\n")
        assert "wrote" not in captured.err

    @pytest.mark.parametrize("flag,argv", [
        ("--prior", ["fit", "--family", "pareto", "--case", "location",
                     "--prior", "l0=100,n0=1,alpha=1.2,n0=2"]),
        ("--known", ["fit", "--family", "pareto", "--case", "location",
                     "--noninformative", "--known", "alpha=1.2, n0=1,n0=1"]),
        ("--params", ["simulate", "--family", "uniform", "--seed", "1",
                      "--params", "l=0,n0=1,u=1,n0=0.5"]),
    ], ids=["prior", "known", "params"])
    def test_repeated_key(self, laptop_csv, capsys, flag, argv):
        if argv[0] == "fit":
            argv = [*argv, "--data", laptop_csv]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {flag} gives 'n0' more than once\n")

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

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"],
                             ids=["lf", "crlf", "cr"])
    def test_non_utf8_data_file(self, tmp_path, capsys, newline):
        path = tmp_path / "latin1.csv"
        path.write_bytes(newline.join([b"1.5", b"2.5", b"caf\xe9", b""]))
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,alpha=1.2", "--data", str(path)])
        assert rc == 3
        assert f"{path} line 3: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--data", "--holdout", "--state"])
    def test_directory_as_input(self, tmp_path, laptop_state, laptop_csv,
                                capsys, flag):
        argv = {
            "--data": ["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,alpha=1.2", "--data", str(tmp_path)],
            "--holdout": ["validate", "--state", str(laptop_state),
                          "--holdout", str(tmp_path)],
            "--state": ["predict", "--state", str(tmp_path)],
        }[flag]
        assert cli.main(argv) == 3
        assert f"{tmp_path} cannot be read" in capsys.readouterr().err

    def test_csv_cell_over_field_limit(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("1.5\n" + "0" * 131_072 + "1\n")
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,alpha=1.2", "--data", str(path)])
        assert rc == 3
        assert f"{path} line 2: field larger than field limit" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("digits,message", [(400, "number out of float range"),
                                                (5000, "invalid JSON")])
    def test_jsonl_integer_beyond_float_range(self, tmp_path, capsys, digits,
                                              message):
        path = tmp_path / "big.jsonl"
        path.write_text("1\n" + "1" * digits + "\n")
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,alpha=1.2", "--data", str(path)])
        assert rc == 3
        assert f"{path} line 2: {message}" in capsys.readouterr().err

    def test_non_utf8_state_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schema_version": 1,\n"caf\xe9": 1}\n')
        assert cli.main(["predict", "--state", str(path)]) == 3
        assert f"{path} line 2: not UTF-8" in capsys.readouterr().err

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
        # n_eff = 1e5 with w0/w_n = 0.2: the evidence mass lies within ~1/N
        # of w_n, and the series keeps it inside its bracket, so fit writes
        # a state that predict reads (an edited state whose constants leave
        # the bracket is covered below)
        path = write_lines(tmp_path / "three.csv", [3.0, 5.0, 7.0])
        out = tmp_path / "state.json"
        rc = cli.main(["fit", "--family", "uniform", "--case", "joint",
                       "--prior", "w0=0.8,n0=99997,l0=4,u0=6",
                       "--data", path, "--out", str(out)])
        assert rc == 0
        n = 1e5
        c_n = json.loads(out.read_text())["posterior"]["c_n"]
        assert 1.0 / (n * (n + 1.0)) < c_n < 1.0 / n
        capsys.readouterr()
        assert cli.main(["predict", "--state", str(out)]) == 0
        quantiles = json.loads(capsys.readouterr().out)["quantiles"]
        assert quantiles["0.5"] == pytest.approx(5.0, abs=EXACT_TOL)

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


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is not data: a file that starts
    with one reads as its twin without it."""

    @pytest.mark.parametrize("name,text,flags", [
        ("d.csv", "1.5\n2\n3\n", {}),
        ("d.csv", "x,y\n1.5,0\n2,0\n3,0\n", {"column": "x"}),
        ("d.jsonl", "1.5\n2\n3\n", {}),
        ("d.jsonl", '{"x": 1.5}\n{"x": 2}\n{"x": 3}\n', {"field": "x"}),
    ], ids=["csv", "csv-column", "jsonl", "jsonl-field"])
    def test_data_file(self, tmp_path, name, text, flags):
        plain, marked = tmp_path / f"plain-{name}", tmp_path / f"marked-{name}"
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        values = cli.ingest(str(marked), **flags).tolist()
        assert values == cli.ingest(str(plain), **flags).tolist() == [1.5, 2.0, 3.0]

    def test_state_file(self, tmp_path, capsys):
        plain = STATES / "pareto-location-prior.json"
        marked = tmp_path / "marked.json"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        for command in ("predict", "support"):
            assert cli.main([command, "--state", str(plain)]) == 0
            expected = capsys.readouterr()
            assert cli.main([command, "--state", str(marked)]) == 0
            assert capsys.readouterr() == expected

    def test_non_utf8_line_counts_from_the_first_byte(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"1.5\n2.5\ncaf\xe9\n")
        rc = cli.main(["fit", "--family", "pareto", "--case", "location",
                       "--prior", "l0=100,n0=1,alpha=1.2", "--data", str(path)])
        assert rc == 3
        assert f"{path} line 3: not UTF-8" in capsys.readouterr().err


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

    @pytest.mark.parametrize("figure", ["pareto", "exp"])
    def test_plotdata_pareto_and_exp(self, tmp_path, figure):
        out = tmp_path / "curves.csv"
        assert cli.main(["plotdata", "--figure", figure, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,pdf,label" and len(lines) == 1 + 4 * 501
        x, pdf, label = lines[1].split(",")
        # every curve starts at its lower bound 1, where alpha = 0.5 reads 0.5
        assert (float(x), float(pdf), label) == (1.0, 0.5, f"{figure} alpha=0.5")

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

    @pytest.mark.parametrize("view", ["raw", "excess"])
    def test_update_and_validate_read_through_the_threshold(self, tmp_path,
                                                            capsys, view):
        # new data enter a pot state as its own data did: the values
        # strictly above the threshold, less the threshold for excesses
        rng = np.random.default_rng(7)
        data = write_lines(tmp_path / "lat.csv", rng.exponential(2.0, 300))
        new = rng.exponential(2.0, 400)
        state, updated = tmp_path / "pot.json", tmp_path / "updated.json"
        assert cli.main(["pot", "--data", data, "--k", "30",
                         "--family", "shifted_exp", "--case", "shape",
                         "--noninformative", "--known", "l=0", "--view", view,
                         "--out", str(state)]) == 0
        old = cli.load_document(str(state))
        theta = old.spec.threshold
        kept = new[new > theta]
        if view == "excess":
            kept = kept - theta
        assert 0 < kept.size < new.size
        new_csv = write_lines(tmp_path / "new.csv", new)
        capsys.readouterr()
        assert cli.main(["fit", "--update", "--state", str(state),
                         "--data", new_csv, "--out", str(updated)]) == 0
        assert f"exceedances: {kept.size}\n" in capsys.readouterr().err
        assert cli.load_document(str(updated)).stats == merge(old.stats,
                                                              suff_stats(kept))
        assert cli.main(["validate", "--state", str(state),
                         "--holdout", new_csv]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"exceedances: {kept.size}\n"
        score = holdout_log_predictive(predict(old), kept)
        assert captured.out == f"holdout log predictive: {score!r}\n"

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

    @pytest.mark.parametrize("flag,value", [("--n", "-1"), ("--seed", "-1")])
    def test_negative_count_or_seed_usage_error(self, capsys, flag, value):
        argv = {"--n": "5", "--seed": "1", flag: value}
        rc = cli.main(["simulate", "--family", "uniform", "--params", "l=0,u=1",
                       *(item for pair in argv.items() for item in pair)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 0, got {value}\n"

    @pytest.mark.parametrize("family, params", [
        ("pareto", "alpha=inf,l=1"), ("lomax", "alpha=2,l=inf"),
        ("shifted_exp", "alpha=1,l=-inf"), ("power", "a=nan,b=2"),
        ("log_power", "a=inf,b=1"), ("uniform", "l=0,u=inf"),
        ("gamma", "shape=inf,rate=1"), ("gp", "theta=0,sigma=inf,xi=0.5")])
    def test_non_finite_params_exit_3(self, capsys, family, params):
        rc = cli.main(["simulate", "--family", family, "--params", params,
                       "--n", "2", "--seed", "1"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_zero_draws_print_nothing(self, capsys):
        rc = cli.main(["simulate", "--family", "uniform", "--params", "l=0,u=1",
                       "--n", "0", "--seed", "1"])
        assert rc == 0
        assert capsys.readouterr() == ("", "")

    def test_console_script_smoke(self, tmp_path):
        result = run_python(
            ["-m", "tailbayes.cli", "simulate",
             "--family", "uniform", "--params", "l=0,u=1",
             "--n", "5", "--seed", "3"])
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 5


def tailbayes_modules_added(action, setup=""):
    """The tailbayes modules a fresh interpreter loads while it runs the
    lines of action, after those of setup."""
    code = "\n".join(["import json, sys", setup, "before = set(sys.modules)",
                      action, "print(json.dumps(sorted(m for m in sys.modules",
                      "    if m.startswith('tailbayes') and m not in before)))"])
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


HELP = """from tailbayes import cli
try:
    cli.main(["--help"])
except SystemExit:
    pass"""


class TestStartup:
    """Commands that need no special function never load scipy, and the
    functions that do need it give the same values when they load it.
    Importing the package loads no family module; a command loads only
    its own family's, plus the kernel for the three kernel families."""

    @pytest.mark.parametrize("action", ["import tailbayes",
                                        "import tailbayes.cli", HELP],
                             ids=["package", "cli", "help"])
    def test_start_loads_no_family(self, action):
        loaded = tailbayes_modules_added(action)
        assert "tailbayes.pot_pipeline" in loaded
        assert [m for m in loaded if m.startswith("tailbayes.conjugate_")] == []

    def test_fit_loads_its_family_and_the_kernel(self, tmp_path, laptop_csv):
        action = (f"cli.main(['fit', '--family', 'pareto', '--case', 'shape', "
                  f"'--prior', 'g0=3,n0=4', '--known', 'l=2', '--data', "
                  f"{laptop_csv!r}, '--out', {str(tmp_path / 's.json')!r}])")
        assert tailbayes_modules_added(action, "from tailbayes import cli") == [
            "tailbayes.conjugate_kernel", "tailbayes.conjugate_pareto"]

    def test_pot_loads_its_family_and_the_kernel(self, tmp_path, laptop_csv):
        action = (f"cli.main(['pot', '--family', 'shifted_exp', '--case', "
                  f"'shape', '--noninformative', '--known', 'l=0', '--k', '2', "
                  f"'--view', 'excess', '--data', {laptop_csv!r}, "
                  f"'--out', {str(tmp_path / 's.json')!r}])")
        assert tailbayes_modules_added(action, "from tailbayes import cli") == [
            "tailbayes.conjugate_exponential", "tailbayes.conjugate_kernel"]

    def test_uniform_joint_fit_loads_only_its_family(self, tmp_path, laptop_csv):
        action = (f"cli.main(['fit', '--family', 'uniform', '--case', 'joint', "
                  f"'--prior', 'w0=40,n0=2,l0=80,u0=110', '--data', "
                  f"{laptop_csv!r}, '--out', {str(tmp_path / 's.json')!r}])")
        assert tailbayes_modules_added(action, "from tailbayes import cli") == [
            "tailbayes.conjugate_uniform"]

    def test_fit_calls_what_the_module_holds_now(self):
        # a wrapper installed on a loaded module, as the benchmark's tracer
        # installs one, is the function fit calls
        code = """
from tailbayes import conjugate_pareto, pot_pipeline as pp
spec = pp.ModelSpec("pareto", "shape", noninformative=True, known={"l": 1.0})
stats = pp.suff_stats([2.0, 3.0])
pp.fit(spec, stats)  # loads conjugate_pareto through the cell
calls = []
def traced(prior, stats):
    calls.append(stats)
    return "traced"
conjugate_pareto.posterior_alpha = traced
spec = pp.ModelSpec("pareto", "shape",
                    prior=conjugate_pareto.ParetoPriorAlpha(g0=3.0, n0=4.0, l=1.0))
assert pp.fit(spec, stats).posterior == "traced"
assert calls == [stats]
"""
        result = run_python(["-c", code])
        assert result.returncode == 0, result.stderr

    def test_each_prior_is_the_class_its_module_names(self):
        code = """
import importlib, sys
from tailbayes.pot_pipeline import CELLS
for key, cell in CELLS.items():
    module = importlib.import_module("tailbayes." + cell.module)
    assert cell.prior is getattr(module, cell.prior_name), key
    assert cell.prior.__name__ == cell.prior_name, key
    assert cell.conjugate is module, key
"""
        result = run_python(["-c", code])
        assert result.returncode == 0, result.stderr

    def test_cli_loads_no_scipy(self, tmp_path, laptop_csv):
        code = f"""
import json, sys
from tailbayes import cli
try:
    cli.main(["--help"])
except SystemExit:
    pass
rc = cli.main(["fit", "--family", "pareto", "--case", "shape",
               "--prior", "g0=3,n0=4", "--known", "l=2",
               "--data", {laptop_csv!r}, "--out", {str(tmp_path / "s.json")!r}])
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""
        result = run_python(["-c", code])
        assert result.returncode == 0, result.stderr
        rc, scipy_modules = json.loads(result.stdout.splitlines()[-1])
        assert rc == 0
        assert scipy_modules == []

    def test_lazy_scipy_gives_the_same_values(self):
        code = """
import json, sys
from tailbayes import Gamma, upper_inc_gamma_neg
assert "scipy" not in sys.modules
g = Gamma(shape=2.5, rate=1.5)
print(json.dumps([g.cdf([0.5, 1.0, 4.0]).tolist(),
                  g.quantile([0.1, 0.5, 0.9]).tolist(),
                  g.log_pdf([0.5, 1.0, 4.0]).tolist(),
                  [upper_inc_gamma_neg(-0.5, 2.0), upper_inc_gamma_neg(0.0, 0.3)]]))
"""
        result = run_python(["-c", code])
        assert result.returncode == 0, result.stderr
        from scipy import special

        from tailbayes import Gamma, upper_inc_gamma_neg
        g = Gamma(shape=2.5, rate=1.5)
        x, p = np.array([0.5, 1.0, 4.0]), np.array([0.1, 0.5, 0.9])
        assert json.loads(result.stdout) == [
            special.gammainc(2.5, 1.5 * x).tolist(),
            (special.gammaincinv(2.5, p) / 1.5).tolist(),
            g.log_pdf(x).tolist(),
            [upper_inc_gamma_neg(-0.5, 2.0), upper_inc_gamma_neg(0.0, 0.3)]]


class TestDemos:
    @pytest.mark.parametrize("argv", [
        ["scripts/german_tank_demo.py", "--n", "12", "--true-max", "2000",
         "--seed", "7"],
        ["scripts/pot_latency_demo.py", "--n", "5000", "--k", "100",
         "--seed", "11"],
    ], ids=["german_tank", "pot_latency"])
    def test_readme_demo_runs(self, argv):
        result = run_python(argv, cwd=REPO)
        assert result.returncode == 0, result.stderr
        assert result.stdout
