"""Command-line interface: data ingestion, posterior-state persistence,
oracle reports, and plot-data emission.

This is the only module that touches files.  Exit codes: 0 success, 2 flag
or usage problems, 3 data/domain problems, 4 numeric-regime problems.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import distributions
from . import oracle
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


def _ingest_csv(path: str, column: str | None) -> list[float]:
    with open(path, newline="") as handle:
        rows = [(i, row) for i, row in enumerate(csv.reader(handle), start=1)
                if any(cell.strip() for cell in row)]
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
        if pos == 0:
            # a lone non-numeric first row is a header, not data
            try:
                float(cells[0])
            except ValueError:
                continue
        values.append(_to_number(cells[0], path, line_no))
    return values


def _ingest_jsonl(path: str, field: str | None) -> list[float]:
    values = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path} line {line_no}: invalid JSON: {exc}") from None
            if isinstance(obj, dict):
                if field is None:
                    raise UsageError(f"{path} line {line_no}: objects need --field")
                if field not in obj:
                    raise DataError(f"{path} line {line_no}: field {field!r} missing")
                obj = obj[field]
            if isinstance(obj, bool) or not isinstance(obj, (int, float)):
                raise DataError(f"{path} line {line_no}: not a number: {obj!r}")
            if not math.isfinite(float(obj)):
                raise DataError(f"{path} line {line_no}: non-finite value: {obj!r}")
            values.append(float(obj))
    return values


def ingest(path: str, fmt: str | None = None, column: str | None = None,
           field: str | None = None) -> list[float]:
    """Read one numeric series from a CSV or JSONL file, order-preserving."""
    if not os.path.exists(path):
        raise DataError(f"data file not found: {path}")
    if fmt is None:
        fmt = "jsonl" if path.endswith((".jsonl", ".json")) else "csv"
    if fmt == "csv":
        return _ingest_csv(path, column)
    return _ingest_jsonl(path, field)


def _posterior_block(post) -> dict:
    """The posterior's fields for the state document; a nested Gamma
    block is spelled out as its shape and rate."""
    block = {}
    for f in dataclasses.fields(post):
        value = getattr(post, f.name)
        block.update(dataclasses.asdict(value) if dataclasses.is_dataclass(value)
                     else {f.name: value})
    return block


def render_document(fitted: FittedModel, seed: int | None = None) -> str:
    spec = fitted.spec
    prior_block = None
    if spec.prior is not None:
        prior_block = dataclasses.asdict(spec.prior)
    stats = fitted.stats
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model_spec": {
            "family": spec.family,
            "case": spec.case,
            "noninformative": spec.noninformative,
            "prior": prior_block,
            "known": dict(spec.known),
            "view": spec.view,
            "threshold": spec.threshold,
        },
        "posterior": _posterior_block(fitted.posterior),
        "suff_stats": {"n": stats.n, "min": stats.min, "max": stats.max,
                       "sum": stats.sum, "sum_log": stats.sum_log},
        "known": dict(fitted.known),
        "metadata": {"seed": seed, "tool_version": __version__},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_document(path: str) -> FittedModel:
    """Read a state document back by refitting its model spec on its
    sufficient statistics, which hold the whole conjugate fit; the
    posterior and top-level known blocks are a record of the fit that
    nothing reads."""
    if not os.path.exists(path):
        raise DataError(f"state file not found: {path}")
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"state file {path} is not valid JSON: {exc}") from None
    try:
        if doc["schema_version"] != SCHEMA_VERSION:
            raise DataError(f"state file {path} has unsupported schema_version "
                            f"{doc['schema_version']!r}")
        ms = doc["model_spec"]
        family, case = ms["family"], ms["case"]
        prior = None
        if ms["prior"] is not None:
            prior = CELLS[(family, case)].prior(**ms["prior"])
        spec = ModelSpec(family=family, case=case, prior=prior,
                         noninformative=ms["noninformative"],
                         known={k: float(v) for k, v in ms["known"].items()},
                         view=ms["view"],
                         threshold=ms["threshold"])
        raw = doc["suff_stats"]
        stats = SuffStats(n=raw["n"], min=raw["min"], max=raw["max"],
                          sum=raw["sum"], sum_log=raw["sum_log"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"state file {path} is malformed: {exc}") from None
    return fit(spec, stats)


def predictive_document(fitted: FittedModel) -> dict:
    """Canonical dictionary describing the model's predictive distribution.

    The CLI prints exactly this as sorted JSON, so an in-process caller can
    reproduce the bytes by serializing the same dictionary.
    """
    pred = predict(fitted)
    lo, hi = pred.support()
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
        "support": [lo, hi],
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


def _cmd_fit(args) -> int:
    values = ingest(args.data, args.format, args.column, args.field)
    stats = suff_stats(values)
    if args.update:
        if args.state is None:
            raise UsageError("--update needs --state with the previous fit")
        if args.family or args.case or args.prior or args.noninformative or args.known:
            raise UsageError("--update takes the model from --state; "
                             "drop the model flags")
        fitted = sequential_update(load_document(args.state), stats)
    else:
        if args.state is not None:
            raise UsageError("--state on fit only makes sense with --update")
        fitted = fit(_build_spec(args), stats)
    _emit(render_document(fitted, seed=args.seed), args.out)
    if args.out is not None:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    fitted = load_document(args.state)
    doc = predictive_document(fitted)
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
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
    score = holdout_log_predictive(pred, holdout)
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
