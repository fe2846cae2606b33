"""stream_fit: small batches streamed through every closed-form cell.

Eleven (family, case) cells, every cell except the uniform joint, each
fed the same number of ~100-value batches drawn from its own law.  Some
cells take a proper prior and some the non-informative limit.  Each batch
goes through

    suff_stats(batch) -> sequential_update (fit for the first batch)
    -> predict -> support -> holdout_log_predictive(next batch)
    -> predictive cdf on a fixed grid and quantile at fixed probabilities

Per-call overhead in dispatch, the conjugate updates and small-array
predictives is most of the time here.  One operation is a whole round:
one stream of BATCHES batches through each of the eleven cells (~0.2 s).
Smaller operations do not give a tail that repeats on a shared two-core
machine: a single batch (~150 us) or one cell's stream (~20 ms) is short
next to the scheduling stalls there (2-4 ms, a few per second), so the
tenth-slowest of thousands of them measures those stalls, not the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
from tailbayes import conjugate_exponential as cexp
from tailbayes import conjugate_pareto as cpar
from tailbayes import conjugate_power as cpow
from tailbayes import conjugate_uniform as cuni
from tailbayes import pot_pipeline as pp

BATCH = 100
BATCHES = 120          # batches per cell and round
GRID_POINTS = 100
PROBS = np.linspace(0.005, 0.995, GRID_POINTS)


@dataclass
class Cell:
    """One (family, case) stream with its prior and its data law.

    side says where the predictive's record mass lies: "lower" / "upper"
    beyond an estimated bound, "upper_width" beyond l + w_n (uniform
    width), "shape" / "shape_upper" nowhere past a known bound (exponent
    cases), "lower_location" outside [l_n, u_n] (uniform with known width).
    """

    spec: pp.ModelSpec
    side: str
    draw: object                       # rng, size -> values
    known_bound: float | None = None
    closed_form: object = None         # (own stats, values) -> params dict
    expected: list = field(default_factory=list)  # closed form per batch
    batches: list = field(default_factory=list)
    own: list = field(default_factory=list)       # per-batch OwnStats
    cumulative: list = field(default_factory=list)
    grid: np.ndarray | None = None


def _gamma(shape, rate):
    return {"shape": shape, "rate": rate}


def _cells() -> list[Cell]:
    """The eleven cells.  True parameters are fixed; only the draws
    depend on the seed.  Power-joint data sit below 1 on the absolute
    scale, where its exponent rate is positive."""
    def pareto(alpha, l):
        return lambda rng, n: l * rng.random(n) ** (-1.0 / alpha)

    def shifted(alpha, l):
        return lambda rng, n: l + rng.exponential(1.0 / alpha, n)

    def power(alpha, u):
        return lambda rng, n: u * (1.0 - rng.random(n)) ** (1.0 / alpha)

    def uniform(l, w):
        return lambda rng, n: l + w * rng.random(n)

    spec = pp.ModelSpec
    p_loc = cpar.ParetoPriorL(l0=2.5, n0=3.0, alpha=2.5)
    e_shape = cexp.ExpPriorAlpha(mu0=4.0, n0=5.0, l=1.5)
    w_loc = cpow.PowerPriorU(u0=4.5, n0=4.0, alpha=3.0)
    u_low = cuni.UniformPriorL(l0=5.0, u0=7.0, w=4.0)
    return [
        Cell(spec("pareto", "location", prior=p_loc),
             "lower", pareto(2.5, 2.0),
             closed_form=lambda o, x: {"l_n": min(p_loc.l0, o.min),
                                       "n_eff": p_loc.n0 + o.n,
                                       "alpha": p_loc.alpha}),
        Cell(spec("pareto", "shape", noninformative=True, known={"l": 2.0}),
             "shape", pareto(1.7, 2.0), known_bound=2.0,
             closed_form=lambda o, x: _gamma(o.n, math.fsum(
                 np.log(x / 2.0).tolist()))),
        Cell(spec("pareto", "joint", prior=cpar.ParetoJointPrior(
                 l0=3.5, n0=2.0, g0=4.0, n0_shape=3.0)),
             "lower", pareto(2.2, 3.0)),
        Cell(spec("shifted_exp", "location", noninformative=True,
                  known={"alpha": 1.3}),
             "lower", shifted(1.3, -1.0),
             closed_form=lambda o, x: {"l_n": o.min, "n_eff": float(o.n),
                                       "alpha": 1.3}),
        Cell(spec("shifted_exp", "shape", prior=e_shape),
             "shape", shifted(0.6, 1.5), known_bound=1.5,
             closed_form=lambda o, x: _gamma(
                 e_shape.n0 + o.n,
                 e_shape.n0 * (e_shape.mu0 - e_shape.l)
                 + math.fsum((x - e_shape.l).tolist()))),
        Cell(spec("shifted_exp", "joint", prior=cexp.ExpJointPrior(
                 l0=2.4, n0=2.0, mu0=3.0, n0_rate=4.0)),
             "lower", shifted(0.9, 2.0)),
        Cell(spec("power", "location", prior=w_loc),
             "upper", power(3.0, 5.0),
             closed_form=lambda o, x: {"u_n": max(w_loc.u0, o.max),
                                       "n_eff": w_loc.n0 + o.n,
                                       "alpha": w_loc.alpha}),
        Cell(spec("power", "shape", noninformative=True, known={"u": 8.0}),
             "shape_upper", power(2.0, 8.0), known_bound=8.0,
             closed_form=lambda o, x: _gamma(o.n, math.fsum(
                 np.log(8.0 / x).tolist()))),
        Cell(spec("power", "joint", prior=cpow.PowerJointPrior(
                 u0=0.5, n0=2.0, g0=0.4, n0_shape=3.0)),
             "upper", power(1.8, 0.9)),
        Cell(spec("uniform", "width", noninformative=True, known={"l": 1.0}),
             "upper_width", uniform(1.0, 6.0), known_bound=1.0,
             closed_form=lambda o, x: {"w_n": o.max - 1.0, "l": 1.0,
                                       "n_eff": float(o.n)}),
        Cell(spec("uniform", "lower", prior=u_low),
             "lower_location", uniform(4.0, 4.0),
             closed_form=lambda o, x: {"low": max(u_low.u0, o.max) - u_low.w,
                                       "high": min(u_low.l0, o.min),
                                       "width": u_low.w}),
    ]


def _posterior_params(post) -> dict:
    """Flatten a posterior dataclass (joint ones nest a Gamma block)."""
    out = {}
    for name, value in vars(post).items():
        if hasattr(value, "shape") and hasattr(value, "rate"):
            out["shape"], out["rate"] = value.shape, value.rate
        else:
            out[name] = value
    return out


class StreamFit:
    in_process = True
    warmup_rounds = 1
    kept_fault = frozenset()

    def __init__(self, seed: int, batches: int = BATCHES):
        rng = np.random.default_rng([seed, 2])
        self.cells = _cells()
        self.batches = batches
        for cell in self.cells:
            data = [cell.draw(rng, BATCH) for _ in range(batches + 1)]
            cell.batches = data
            cell.own = [checks.OwnStats(b) for b in data]
            for i in range(batches):
                seen = np.concatenate(data[:i + 1])
                own = checks.OwnStats(seen)
                cell.cumulative.append(own)
                if cell.closed_form is not None:
                    cell.expected.append(cell.closed_form(own, seen))
            pooled = np.concatenate(data)
            lo, hi = np.quantile(pooled, [0.001, 0.999])
            pad = 0.1 * (hi - lo)
            cell.grid = np.linspace(lo - pad, hi + pad, GRID_POINTS)
        # suff_stats + holdout on a batch each, cdf grid and quantiles
        self.values_per_round = len(self.cells) * batches * (
            2 * BATCH + 2 * GRID_POINTS)

    def run_round(self, tracer, probe=None):
        """One record for the whole round; its output is the exception
        if any call raised.  probe, if given, is called before the round."""
        if probe is not None:
            probe()
        outputs = []
        t0 = perf_counter()
        try:
            for cell in self.cells:
                steps = []
                f = None
                for i in range(self.batches):
                    stats = pp.suff_stats(cell.batches[i])
                    if f is None:
                        f = pp.fit(cell.spec, stats)
                    else:
                        f = pp.sequential_update(f, stats)
                    pred = pp.predict(f)
                    report = pp.support(f)
                    score = pp.holdout_log_predictive(pred,
                                                      cell.batches[i + 1])
                    cdf = pred.cdf(cell.grid)
                    q = pred.quantile(PROBS)
                    steps.append((stats, f, pred, report, score, cdf, q))
                outputs.append(steps)
        except Exception as exc:
            outputs = exc
        return [("stream", perf_counter() - t0, outputs)]

    def check(self, op, output) -> list[str]:
        bad = []
        for c, steps in enumerate(output):
            for i, step in enumerate(steps):
                spec = self.cells[c].spec
                bad += [f"{spec.family}/{spec.case} batch {i}: {p}"
                        for p in self._check_step(c, i, step)]
        return bad

    def _check_step(self, c, i, output) -> list[str]:
        cell = self.cells[c]
        stats, f, pred, report, score, cdf, q = output
        own = cell.cumulative[i]
        bad = checks.stats_match(stats, cell.own[i])
        bad += checks.stats_match(f.stats, own)
        post = _posterior_params(f.posterior)
        if cell.closed_form is not None:
            bad += checks.params_match(post, cell.expected[i],
                                       checks.CLOSED_RTOL, "posterior")
        refit = pp.fit(cell.spec, f.stats)
        bad += checks.params_match(post, _posterior_params(refit.posterior),
                                   checks.SEQ_RTOL, "sequential vs refit")
        bad += checks.cdf_shape(cdf)
        bad += checks.quantiles_ordered(q)
        bad += checks.inverts(pred.cdf(q), PROBS)
        bad += checks.score_matches(
            score, checks.predictive_log_density(
                type(pred).__name__, vars(pred), cell.batches[i + 1]))
        bad += self._bound(cell, pred, report, own)
        return bad

    @staticmethod
    def _bound(cell, pred, report, own) -> list[str]:
        """The predictive puts exactly 1/(n_eff+1) beyond the estimated
        bound (uniform width: beyond l + w_n), and its support edge lies
        strictly past it; a known bound is the edge itself."""
        side = cell.side
        if side in ("shape", "shape_upper"):
            # shifted_exp computes the edge as anchor + scale - offset, which
            # rounds away from the known bound by a few ulps of the offset
            magnitude = max(abs(cell.known_bound), getattr(pred, "offset", 0.0))
            edge_ok = abs(report.predictive_bound - cell.known_bound) <= (
                checks.EDGE_ULPS * 2.0 ** -52 * magnitude)
            beyond = pred.cdf(cell.known_bound)
            if side == "shape_upper":
                beyond = 1.0 - beyond
            return [] if edge_ok and beyond == 0.0 else [
                f"edge {report.predictive_bound!r} or mass {beyond!r} past "
                f"the known bound {cell.known_bound!r}"]
        if side == "lower_location":
            # the posterior over l is Uniform(u_n - w, l_n); every such l
            # leaves (w - (u_n - l_n))/w of the mass outside [l_n, u_n]
            prior = cell.spec.prior
            l_n, u_n = min(prior.l0, own.min), max(prior.u0, own.max)
            mass = pred.cdf(l_n) + 1.0 - pred.cdf(u_n)
            want = (prior.w - (u_n - l_n)) / prior.w
            return [] if abs(mass - want) <= checks.MASS_ATOL else [
                f"mass outside the data range {mass!r} != {want!r}"]
        bound = report.posterior_bound
        prior = cell.spec.prior
        if side == "lower":
            want = own.min if prior is None else min(prior.l0, own.min)
            bad = [] if bound == want else [f"bound {bound!r} != {want!r}"]
            if not report.predictive_bound < bound:
                bad.append("predictive edge not below the bound")
            return bad + checks.record_mass(pred.cdf(bound), report.n_effective)
        if side == "upper_width":
            edge = cell.known_bound + bound
            want = own.max - cell.known_bound
            bad = [] if bound == want else [f"width {bound!r} != {want!r}"]
            if not report.predictive_bound > edge:
                bad.append("predictive edge not above the bound")
            return bad + checks.record_mass(1.0 - pred.cdf(edge),
                                            report.n_effective)
        want = own.max if prior is None else max(prior.u0, own.max)
        bad = [] if bound == want else [f"bound {bound!r} != {want!r}"]
        if not report.predictive_bound > bound:
            bad.append("predictive edge not above the bound")
        return bad + checks.record_mass(1.0 - pred.cdf(bound),
                                        report.n_effective)

