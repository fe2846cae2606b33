"""Command-line interface: data ingestion, posterior-state persistence,
oracle reports, and plot-data emission.

This is the only module that touches files.  Exit codes: 0 success, 2 flag
or usage problems, 3 data/domain problems, 4 numeric-regime problems.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import distributions
from .errors import (ConvergenceError, CoverageError, DataError, DomainError,
                     InvalidRegimeError, NoInformationError,
                     UnsupportedMappingError, UsageError)
from .pot_pipeline import (CELLS, FAMILIES, FittedModel, ModelSpec, fit,
                           holdout_log_predictive, pot_fit, predict,
                           sequential_update, suff_stats, support)
from .sufficient import SuffStats

SCHEMA_VERSION = 1

_SIMULATE_CLASSES = {
    "pareto": distributions.Pareto,
    "lomax": distributions.Lomax,
    "shifted_exp": distributions.ShiftedExp,
    "power": distributions.Power,
    "log_power": distributions.LogPower,
    "uniform": distributions.Uniform,
    "gamma": distributions.Gamma,
    "gp": distributions.GPParams,
}


def _parse_kv(text: str | None, flag: str) -> dict:
    """Parse 'a=1,b=2' into {'a': 1.0, 'b': 2.0}."""
    if text is None:
        return {}
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, raw = piece.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"{flag} expects key=value pairs, got {piece!r}")
        try:
            out[key] = float(raw)
        except ValueError:
            raise UsageError(f"{flag}: value for {key!r} is not a number: "
                             f"{raw.strip()!r}") from None
    return out


def _to_number(raw: str, path: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"{path} line {line_no}: not a number: "
                        f"{raw.strip()!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path} line {line_no}: non-finite value: {raw.strip()!r}")
    return value


def _read_text(path: str, what: str) -> str:
    """The whole file as UTF-8 text; an absent, unreadable or undecodable
    file is a data error that names it."""
    if not os.path.exists(path):
        raise DataError(f"{what} not found: {path}")
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise DataError(f"{what} {path} cannot be read: {exc.strerror}") from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end at \n, \r or \r\n, as the row parsers split them
        head = raw[:exc.start].decode("utf-8")
        line_no = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise DataError(f"{path} line {line_no}: not UTF-8 text: {exc.reason}") from None


def _is_header(cell: str) -> bool:
    """A lone non-numeric first row is a header, not data."""
    try:
        float(cell)
    except ValueError:
        return True
    return False


def _ingest_csv(text: str, path: str, column: str | None) -> list[float]:
    """Row-by-row CSV parser: the reference for the vectorised pass and the
    source of every line-numbered error."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(i, row) for i, row in enumerate(reader, start=1)
                if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        return []
    if column is not None:
        header = [cell.strip() for cell in rows[0][1]]
        if column not in header:
            raise DataError(f"{path}: column {column!r} not found in header {header}")
        idx = header.index(column)
        values = []
        for line_no, row in rows[1:]:
            if idx >= len(row):
                raise DataError(f"{path} line {line_no}: row has no column {column!r}")
            values.append(_to_number(row[idx], path, line_no))
        return values
    values = []
    for pos, (line_no, row) in enumerate(rows):
        cells = [cell for cell in row if cell.strip()]
        if len(cells) != 1:
            raise UsageError(f"{path} line {line_no}: multiple columns; pass --column")
        if pos == 0 and _is_header(cells[0]):
            continue
        values.append(_to_number(cells[0], path, line_no))
    return values


def _ingest_jsonl(text: str, path: str, field: str | None) -> list[float]:
    """Line-by-line JSONL parser: the reference for the vectorised pass and
    the source of every line-numbered error."""
    values = []
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{path} line {line_no}: invalid JSON: {exc}") from None
        if isinstance(obj, dict):
            if field is None:
                raise UsageError(f"{path} line {line_no}: objects need --field")
            if field not in obj:
                raise DataError(f"{path} line {line_no}: field {field!r} missing")
            obj = obj[field]
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise DataError(f"{path} line {line_no}: not a number: {obj!r}")
        try:
            value = float(obj)
        except OverflowError:
            raise DataError(f"{path} line {line_no}: number out of float range") from None
        if not math.isfinite(value):
            raise DataError(f"{path} line {line_no}: non-finite value: {obj!r}")
        values.append(value)
    return values


def _csv_cells(text: str, column: str | None):
    """The value cells of a one-column CSV with no comma, quote or carriage
    return, where a cell is the line itself, exactly as ``csv.reader`` reads
    it; None where only the row parser can tell."""
    if column is not None or any(c in text for c in ',"\r'):
        return None
    rows = list(filter(str.strip, text.split("\n")))
    # csv.reader refuses a field longer than its limit
    if not rows or max(map(len, rows)) > csv.field_size_limit():
        return None
    return rows[1:] if _is_header(rows[0]) else rows


def _jsonl_numbers(text: str, field: str | None):
    """The values of a JSONL file of bare numbers, parsed as one JSON
    array; None where only the row parser can tell."""
    if field is not None or "\r" in text:
        return None
    lines = list(filter(str.strip, text.split("\n")))
    try:
        values = json.loads("[" + ",".join(lines) + "]")
    except ValueError:
        return None
    # Joined lines can merge into one list, object or string, never into one
    # number, so as many numbers as lines means each line held one number.
    if len(values) != len(lines) or not set(map(type, values)) <= {int, float}:
        return None
    return values


def _ingest_fast(text: str, fmt: str, column: str | None,
                 field: str | None) -> list[float] | None:
    """The vectorised pass: Python's ``float`` on every value cell at once
    and one finiteness check; None where only the row parser can tell."""
    cells = _csv_cells(text, column) if fmt == "csv" else _jsonl_numbers(text, field)
    if cells is None:
        return None
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except (ValueError, OverflowError):
        return None
    return values.tolist() if np.isfinite(values).all() else None


def ingest(path: str, fmt: str | None = None, column: str | None = None,
           field: str | None = None) -> list[float]:
    """Read one numeric series from a CSV or JSONL file, order-preserving.

    Plain files are read in one vectorised pass; any file that pass cannot
    vouch for goes to the row parser, which returns the same values or
    names the offending line.
    """
    text = _read_text(path, "data file")
    if fmt is None:
        fmt = "jsonl" if path.endswith((".jsonl", ".json")) else "csv"
    values = _ingest_fast(text, fmt, column, field)
    if values is not None:
        return values
    if fmt == "csv":
        return _ingest_csv(text, path, column)
    return _ingest_jsonl(text, path, field)


def _json_number(value):
    """JSON has no infinity: an infinite float is written as null."""
    return None if isinstance(value, float) and math.isinf(value) else value


def _posterior_block(post) -> dict:
    """The posterior's fields for the state document; a nested Gamma
    block is spelled out as its shape and rate."""
    block = {}
    for f in dataclasses.fields(post):
        value = getattr(post, f.name)
        block.update(dataclasses.asdict(value) if dataclasses.is_dataclass(value)
                     else {f.name: value})
    return {key: _json_number(value) for key, value in block.items()}


def render_document(fitted: FittedModel, seed: int | None = None) -> str:
    """The state document: the model spec and the sufficient statistics
    as their dataclasses declare them, and the posterior and the known
    parameters as a record of the fit."""
    # asdict copies a dict but cannot copy every Mapping that known may be
    spec = dataclasses.replace(fitted.spec, known=dict(fitted.spec.known))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model_spec": dataclasses.asdict(spec),
        "posterior": _posterior_block(fitted.posterior),
        "suff_stats": dataclasses.asdict(fitted.stats),
        "known": dict(fitted.known),
        "metadata": {"seed": seed, "tool_version": __version__},
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_document(path: str) -> FittedModel:
    """Read a state document back by refitting its model spec on its
    sufficient statistics, which hold the whole conjugate fit; the
    posterior and top-level known blocks are a record of the fit that
    nothing reads.  The model_spec, prior and suff_stats blocks are read
    by keyword, so a missing or unknown key makes the state malformed, as
    does a block that is not an object, or a value that ModelSpec
    refuses."""
    text = _read_text(path, "state file")
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise DataError(f"state file {path} is not valid JSON: {exc}") from None
    try:
        if doc["schema_version"] != SCHEMA_VERSION:
            raise DataError(f"state file {path} has unsupported schema_version "
                            f"{doc['schema_version']!r}")
        ms = doc["model_spec"]
        # every field, as ModelSpec's defaults would fill in a missing one
        names = {f.name for f in dataclasses.fields(ModelSpec)}
        if ms.keys() != names:
            raise ValueError(f"model_spec has keys {sorted(ms)}, not {sorted(names)}")
        prior = ms["prior"]
        if prior is not None:
            cell = CELLS.get((ms["family"], ms["case"]))
            if cell is None:
                raise ValueError(f"unknown family/case pair: "
                                 f"{ms['family']}/{ms['case']}")
            prior = cell.prior(**prior)
        known = {k: float(v) for k, v in ms["known"].items()}
        spec = ModelSpec(**{**ms, "prior": prior, "known": known})
        stats = SuffStats(**doc["suff_stats"])
    except (KeyError, TypeError, ValueError, AttributeError, UsageError) as exc:
        raise DataError(f"state file {path} is malformed: {exc}") from None
    return fit(spec, stats)


def predictive_document(fitted: FittedModel) -> dict:
    """Canonical dictionary describing the model's predictive distribution.

    The CLI prints exactly this as sorted JSON, so an in-process caller can
    reproduce the bytes by serializing the same dictionary.  An unbounded
    support end is null.
    """
    pred = predict(fitted)
    quantiles = {}
    for p in (0.01, 0.1, 0.5, 0.9, 0.99):
        quantiles[repr(p)] = float(pred.quantile(p))
    return {
        "family": fitted.spec.family,
        "case": fitted.spec.case,
        "predictive": {
            "type": type(pred).__name__,
            "params": dataclasses.asdict(pred),
        },
        "support": [_json_number(end) for end in pred.support()],
        "quantiles": quantiles,
    }


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _build_prior(family: str, case: str, prior_kv: dict, known_kv: dict):
    cell = CELLS.get((family, case))
    if cell is None:
        raise UsageError(f"unknown family/case pair: {family}/{case}")
    cls = cell.prior
    names = [f.name for f in dataclasses.fields(cls)]
    kwargs = {}
    for key, value in prior_kv.items():
        if key not in names:
            raise UsageError(f"prior for {family}/{case} does not take {key!r}; "
                             f"expected keys from: {', '.join(names)}")
        kwargs[key] = value
    for name in names:
        if name not in kwargs and name in known_kv:
            kwargs[name] = known_kv[name]
    missing = [name for name in names if name not in kwargs]
    if missing:
        raise UsageError(f"prior for {family}/{case} is missing "
                         f"{', '.join(missing)} (pass via --prior or --known)")
    return cls(**kwargs)


def _build_spec(args) -> ModelSpec:
    if args.family is None or args.case is None:
        raise UsageError("--family and --case are required here")
    known = _parse_kv(args.known, "--known")
    if args.noninformative and args.prior:
        raise UsageError("--prior and --noninformative conflict; pick one")
    if args.noninformative:
        return ModelSpec(family=args.family, case=args.case,
                         noninformative=True, known=known,
                         view=getattr(args, "view", "raw"))
    if not args.prior:
        raise UsageError("pass --prior key=value,... or --noninformative")
    prior = _build_prior(args.family, args.case,
                         _parse_kv(args.prior, "--prior"), known)
    return ModelSpec(family=args.family, case=args.case, prior=prior,
                     known=known, view=getattr(args, "view", "raw"))


def _exceedances(fitted: FittedModel, values):
    """values as the fitted model reads them; a model with a threshold
    keeps its exceedances and says how many on stderr, as pot does."""
    kept = fitted.spec.exceedances(values)
    if fitted.spec.threshold is not None:
        print(f"exceedances: {len(kept)}", file=sys.stderr)
    return kept


def _cmd_fit(args) -> int:
    values = ingest(args.data, args.format, args.column, args.field)
    if args.update:
        if args.state is None:
            raise UsageError("--update needs --state with the previous fit")
        if args.family or args.case or args.prior or args.noninformative or args.known:
            raise UsageError("--update takes the model from --state; "
                             "drop the model flags")
        previous = load_document(args.state)
        fitted = sequential_update(previous,
                                   suff_stats(_exceedances(previous, values)))
    else:
        if args.state is not None:
            raise UsageError("--state on fit only makes sense with --update")
        fitted = fit(_build_spec(args), suff_stats(values))
    _emit(render_document(fitted, seed=args.seed), args.out)
    if args.out is not None:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    fitted = load_document(args.state)
    doc = predictive_document(fitted)
    _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
          args.out)
    return 0


def _cmd_support(args) -> int:
    report = support(load_document(args.state))
    sys.stdout.write(
        f"family: {report.family}\n"
        f"case: {report.case}\n"
        f"posterior bound: {report.posterior_bound!r}\n"
        f"predictive bound: {report.predictive_bound!r}\n"
        f"n_effective: {report.n_effective!r}\n"
        f"direction: {report.direction}\n")
    return 0


def _cmd_validate(args) -> int:
    fitted = load_document(args.state)
    pred = predict(fitted)
    holdout = ingest(args.holdout, args.format, args.column, args.field)
    score = holdout_log_predictive(pred, _exceedances(fitted, holdout))
    if score == -math.inf:
        print("model rejected by holdout")
    else:
        print(f"holdout log predictive: {score!r}")
    return 0


def _cmd_pot(args) -> int:
    values = ingest(args.data, args.format, args.column, args.field)
    spec = _build_spec(args)
    fitted, theta, fitted_values = pot_fit(values, args.k, spec)
    _emit(render_document(fitted, seed=args.seed), args.out)
    print(f"threshold: {theta!r}", file=sys.stderr)
    print(f"exceedances: {len(fitted_values)}", file=sys.stderr)
    if args.out is not None:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    if args.seed is None:
        raise UsageError("simulate requires --seed; draws must be reproducible")
    cls = _SIMULATE_CLASSES[args.family]
    params = _parse_kv(args.params, "--params")
    try:
        dist = cls(**params)
    except TypeError:
        names = ", ".join(f.name for f in dataclasses.fields(cls))
        raise UsageError(f"--params for {args.family} needs exactly: {names}") from None
    draws = dist.sample(distributions.as_generator(args.seed), size=args.n)
    lines = "".join(f"{float(x)!r}\n" for x in np.asarray(draws).ravel())
    _emit(lines, args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import oracle  # here, not at import: no other command reads it
    rows = oracle.diagnostic_table(cells=args.cells)
    lines = ["case,tv_distance,max_cdf_gap"]
    lines += [f"{r.case},{r.tv_distance!r},{r.max_cdf_gap!r}" for r in rows]
    _emit("\n".join(lines) + "\n", args.out)
    for note in oracle.diagnostic_notes():
        print(note, file=sys.stderr)
    return 0


def _plot_rows(figure: str) -> list[tuple[float, float, str]]:
    rows = []
    if figure == "gp":
        xs = np.linspace(0.0, 5.0, 501)
        for xi in (-1.0, -0.5, 0.0, 0.5, 1.0):
            dist = distributions.GPParams(theta=0.0, sigma=1.0, xi=xi)
            for x, p in zip(xs, np.asarray(dist.pdf(xs), dtype=float)):
                rows.append((float(x), float(p), f"gp xi={xi:g}"))
        return rows
    alphas = (0.5, 1.0, 2.0, 4.0)
    if figure == "pareto":
        xs = np.linspace(1.0, 6.0, 501)
        make = lambda a: distributions.Pareto(alpha=a, l=1.0)
    elif figure == "exp":
        xs = np.linspace(1.0, 6.0, 501)
        make = lambda a: distributions.ShiftedExp(alpha=a, l=1.0)
    else:
        xs = np.linspace(0.0, 3.0, 501)[1:]
        make = lambda a: distributions.Power(a=3.0, b=a)
    for a in alphas:
        dist = make(a)
        for x, p in zip(xs, np.asarray(dist.pdf(xs), dtype=float)):
            rows.append((float(x), float(p), f"{figure} alpha={a:g}"))
    return rows


def _cmd_plotdata(args) -> int:
    rows = _plot_rows(args.figure)
    lines = ["x,pdf,label"] + [f"{x!r},{p!r},{label}" for x, p, label in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _add_model_flags(parser) -> None:
    parser.add_argument("--family", choices=tuple(FAMILIES))
    parser.add_argument("--case", choices=tuple(dict.fromkeys(c for _, c in CELLS)))
    parser.add_argument("--prior", metavar="K=V[,K=V...]")
    parser.add_argument("--noninformative", action="store_true")
    parser.add_argument("--known", metavar="K=V[,K=V...]")


def _add_data_flags(parser, flag: str = "--data") -> None:
    parser.add_argument(flag, required=True)
    parser.add_argument("--format", choices=("csv", "jsonl"))
    parser.add_argument("--column")
    parser.add_argument("--field")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailbayes",
        description="Closed-form Bayesian bounds and tails for generalized "
                    "Pareto subclasses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="update a posterior from data")
    _add_model_flags(p)
    _add_data_flags(p)
    p.add_argument("--state", help="previous posterior document (with --update)")
    p.add_argument("--update", action="store_true",
                   help="continue from --state instead of a fresh prior")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("predict", help="describe the posterior predictive")
    p.add_argument("--state", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("support", help="report posterior and predictive bounds")
    p.add_argument("--state", required=True)
    p.set_defaults(handler=_cmd_support)

    p = sub.add_parser("validate", help="score held-out data under the predictive")
    p.add_argument("--state", required=True)
    _add_data_flags(p, "--holdout")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("pot", help="fit exceedances above the k-th largest value")
    _add_model_flags(p)
    _add_data_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--view", choices=("raw", "excess"), default="raw")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_pot)

    p = sub.add_parser("simulate", help="draw from a named distribution")
    p.add_argument("--family", required=True,
                   choices=tuple(sorted(_SIMULATE_CLASSES)))
    p.add_argument("--params", metavar="K=V[,K=V...]")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run the grid-oracle diagnostic table")
    p.add_argument("--cells", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("plotdata", help="emit pdf curves as CSV")
    p.add_argument("--figure", required=True,
                   choices=("gp", "pareto", "exp", "power"))
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, DomainError, NoInformationError, CoverageError,
            UnsupportedMappingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidRegimeError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # downstream pager closed the pipe; suppress the shutdown flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
