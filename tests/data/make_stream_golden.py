"""Write or check stream_golden.json: a seeded stream through all 12 cells.

Each (family, case) cell gets a fixed prior (or the non-informative limit)
and a few seeded batches from its own law.  Per batch the file records,
as float hex so that a comparison is bit for bit:

* the batch's SuffStats and the cumulative ones, every posterior field
  and every predictive field, after fit (first batch) or
  sequential_update (later ones);
* the SupportReport and the holdout score of the next batch;
* log_pdf, pdf and cdf on a grid that spans both sides of each support
  edge and the posterior bound, with 0, negative, subnormal and infinite
  points, as one array and point by point as scalars;
* quantile at 100 probabilities as one array, and at a few as scalars.

    python tests/data/make_stream_golden.py           # rewrite the file
    python tests/data/make_stream_golden.py --check   # compare, write nothing

Values are what is compared here.  RuntimeWarnings are ignored while the
record is built: a heavy tail fitted to one point rightly overflows to
inf at high probabilities, and tests/test_predictive_edges.py is the
check that evaluation at special points stays silent.

--check lists every value that moved and exits 1 if any did.  A change
that moves values on purpose regenerates the file and names the commit
in CHANGES.md; tests/test_stream_golden.py compares with ==.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tailbayes import conjugate_exponential as cexp  # noqa: E402
from tailbayes import conjugate_pareto as cpar  # noqa: E402
from tailbayes import conjugate_power as cpow  # noqa: E402
from tailbayes import conjugate_uniform as cuni  # noqa: E402
from tailbayes import pot_pipeline as pp  # noqa: E402

GOLDEN = HERE / "stream_golden.json"
SEED = 20261019
BATCH_SIZES = (1, 7, 60)            # the last batch is also a holdout
PROBS = np.linspace(0.005, 0.995, 100)
SCALAR_PROBS = (1e-300, 0.001, 0.5, 0.999, 1.0 - 2.0 ** -53)
SPECIAL = (0.0, -0.0, -1.0, -1e300, 5e-324, 2.5e-310, 1e300,
           math.inf, -math.inf)
LINSPACE = 12
KINKS = ("l_n", "u_n", "flat_lo", "flat_hi")   # predictive fields worth probing


def _spec(family, case, prior=None, **known):
    if prior is None:
        return pp.ModelSpec(family, case, noninformative=True, known=known)
    return pp.ModelSpec(family, case, prior=prior)


def _pareto(alpha, l):
    return lambda rng, n: l * rng.random(n) ** (-1.0 / alpha)


def _shifted(alpha, l):
    return lambda rng, n: l + rng.exponential(1.0 / alpha, n)


def _power(alpha, u):
    return lambda rng, n: u * (1.0 - rng.random(n)) ** (1.0 / alpha)


def _uniform(l, w):
    return lambda rng, n: l + w * rng.random(n)


# (spec, data law); power-joint data sit below 1, where its rate is positive
CELLS = (
    (_spec("pareto", "location", cpar.ParetoPriorL(l0=2.5, n0=3.0, alpha=2.5)),
     _pareto(2.5, 2.0)),
    (_spec("pareto", "shape", l=2.0), _pareto(1.7, 2.0)),
    (_spec("pareto", "joint", cpar.ParetoJointPrior(l0=3.5, n0=2.0, g0=4.0,
                                                    n0_shape=3.0)),
     _pareto(2.2, 3.0)),
    (_spec("shifted_exp", "location", alpha=1.3), _shifted(1.3, -1.0)),
    (_spec("shifted_exp", "shape", cexp.ExpPriorAlpha(mu0=4.0, n0=5.0, l=1.5)),
     _shifted(0.6, 1.5)),
    (_spec("shifted_exp", "joint", cexp.ExpJointPrior(l0=2.4, n0=2.0, mu0=3.0,
                                                      n0_rate=4.0)),
     _shifted(0.9, 2.0)),
    (_spec("power", "location", cpow.PowerPriorU(u0=4.5, n0=4.0, alpha=3.0)),
     _power(3.0, 5.0)),
    (_spec("power", "shape", u=8.0), _power(2.0, 8.0)),
    (_spec("power", "joint", cpow.PowerJointPrior(u0=0.5, n0=2.0, g0=0.4,
                                                  n0_shape=3.0)),
     _power(1.8, 0.9)),
    (_spec("uniform", "width", l=1.0), _uniform(1.0, 6.0)),
    (_spec("uniform", "lower", cuni.UniformPriorL(l0=5.0, u0=7.0, w=4.0)),
     _uniform(4.0, 4.0)),
    (_spec("uniform", "joint", cuni.UniformJointPrior(w0=1.5, n0=2.0, l0=3.0,
                                                      u0=4.5)),
     _uniform(2.0, 5.0)),
)


def _hex(value):
    if not isinstance(value, float):
        raise TypeError(f"expected a float, got {type(value).__name__}")
    return float.hex(value)


def _hexes(values) -> list[str]:
    arr = np.asarray(values)
    if arr.dtype != np.float64:
        raise TypeError(f"expected float64 values, got {arr.dtype}")
    return [float.hex(v) for v in arr.reshape(-1).tolist()]


def _record(obj) -> dict:
    """Every field of a dataclass, nested ones flattened with a dot."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update({f"{f.name}.{k}": v for k, v in _record(value).items()})
        elif isinstance(value, float):
            out[f.name] = _hex(value)
        elif value is None or isinstance(value, (int, str)):
            out[f.name] = value
        else:
            raise TypeError(f"field {f.name} holds a {type(value).__name__}")
    return out


def _grid(pred, report, seen) -> np.ndarray:
    """Data range padded by half, each finite edge, bound and kink with
    its neighbours on both sides, and the special points."""
    lo, hi = float(seen.min()), float(seen.max())
    pad = 0.5 * (hi - lo) + 0.5
    points = list(np.linspace(lo - pad, hi + pad, LINSPACE).tolist())
    edges = {*pred.support(), report.posterior_bound, report.predictive_bound,
             *(getattr(pred, k) for k in KINKS if hasattr(pred, k))}
    for e in sorted(e for e in edges if math.isfinite(e)):
        step = 1e-9 * max(abs(e), 1.0)
        points += [e - step, math.nextafter(e, -math.inf), e,
                   math.nextafter(e, math.inf), e + step]
    points += SPECIAL
    return np.array(points)


def _step(pred, report, grid, holdout) -> dict:
    score = pp.holdout_log_predictive(pred, holdout)
    return {
        "support": _record(report),
        "holdout": _hex(score),
        "grid": _hexes(grid),
        "log_pdf": _hexes(pred.log_pdf(grid)),
        "pdf": _hexes(pred.pdf(grid)),
        "cdf": _hexes(pred.cdf(grid)),
        "quantile": _hexes(pred.quantile(PROBS)),
        "scalar": {
            "log_pdf": [_hex(pred.log_pdf(x)) for x in grid.tolist()],
            "pdf": [_hex(pred.pdf(x)) for x in grid.tolist()],
            "cdf": [_hex(pred.cdf(x)) for x in grid.tolist()],
            "quantile": [_hex(pred.quantile(p)) for p in SCALAR_PROBS],
        },
    }


def build() -> dict:
    """The whole golden record, computed by the code on sys.path."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _build()


def _build() -> dict:
    rng = np.random.default_rng(SEED)
    cells = {}
    for spec, draw in CELLS:
        batches = [draw(rng, n) for n in BATCH_SIZES]
        steps, f = [], None
        for i, batch in enumerate(batches):
            stats = pp.suff_stats(batch)
            f = pp.fit(spec, stats) if f is None else pp.sequential_update(f, stats)
            pred = pp.predict(f)
            report = pp.support(f)
            seen = np.concatenate(batches[:i + 1])
            holdout = batches[(i + 1) % len(batches)]
            steps.append({
                "batch": _hexes(batch),
                "stats": _record(stats),
                "cumulative": _record(f.stats),
                "posterior": _record(f.posterior),
                "predictive": {"type": type(pred).__name__, **_record(pred)},
                **_step(pred, report, _grid(pred, report, seen), holdout),
            })
        cells[f"{spec.family}/{spec.case}"] = steps
    return {"seed": SEED, "batch_sizes": list(BATCH_SIZES),
            "probs": _hexes(PROBS), "scalar_probs": list(map(_hex, SCALAR_PROBS)),
            "cells": cells}


def moved(want, got, path="") -> list[str]:
    """Paths (with both values) where got differs from want."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}.{k}: missing" for k in want.keys() - got.keys()]
        out += [f"{path}.{k}: new" for k in got.keys() - want.keys()]
        for k in want.keys() & got.keys():
            out += moved(want[k], got[k], f"{path}.{k}")
        return out
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        out = []
        for i, (a, b) in enumerate(zip(want, got)):
            out += moved(a, b, f"{path}[{i}]")
        return out
    return [] if want == got else [f"{path}: {want!r} -> {got!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the file instead of writing it")
    args = parser.parse_args(argv)
    got = build()
    if not args.check:
        GOLDEN.write_text(json.dumps(got, separators=(",", ":")) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    diff = moved(json.loads(GOLDEN.read_text()), got)
    for line in diff:
        print(line)
    print(f"{len(diff)} value(s) moved")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
