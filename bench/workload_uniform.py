"""uniform_joint: the uniform-joint posterior and its per-point evaluator.

Posteriors at n_eff = 5, 300 and 3000, each built twice: with
w0/w_n = 0.5, where every point takes the series path, and with
w0/w_n = 0.9995, where points in and next to [l_n, u_n] take the
quadrature fallback.  Per posterior the operations are

    fit (posterior_joint, then predict), pdf and cdf on 500 points spanning
    below l_n, the flat middle and above u_n, quantile at 20 probabilities,
    width_cdf on 500 widths.

One more posterior, at n_eff = 1e5 with w0/w_n = 0.2, is kept although
every one of its operations fails today: posterior_joint's quadrature
over [1, inf) misses the evidence mass that lies within about 1/N of 1,
so c_n comes out ~1e88 too small.  Its data do not depend on the seed, so
its operations fail the same way in every round of every run.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import checks
from tailbayes import conjugate_uniform as cuni
from tailbayes import pot_pipeline as pp

N0 = 2.0
LOW, WIDTH = 3.0, 4.0
CASES = ((5, 0.5), (5, 0.9995), (300, 0.5), (300, 0.9995),
         (3000, 0.5), (3000, 0.9995))
FAULT_CASE = (100_000, 0.2)
FAULT_SEED = 20230321
GRID_POINTS = 500
PROBS = np.linspace(0.025, 0.975, 20)
OPS = ("fit", "pdf", "cdf", "quantile", "width_cdf")


class Posterior:
    """Inputs of one uniform-joint posterior, and what the checks need."""

    def __init__(self, n_eff: int, ratio: float, rng):
        values = LOW + WIDTH * rng.random(int(n_eff - N0))
        self.stats = pp.suff_stats(values)
        self.own = checks.OwnStats(values)
        l0, u0 = LOW + 0.25 * WIDTH, LOW + 0.75 * WIDTH
        self.l_n, self.u_n = min(l0, self.own.min), max(u0, self.own.max)
        w_n = self.u_n - self.l_n
        prior = cuni.UniformJointPrior(w0=ratio * w_n, n0=N0, l0=l0, u0=u0)
        self.spec = pp.ModelSpec("uniform", "joint", prior=prior)
        self.mid = 0.5 * (self.l_n + self.u_n)
        self.xs = np.sort(np.concatenate([
            np.linspace(self.l_n - 0.5 * w_n, self.u_n + 0.5 * w_n,
                        GRID_POINTS - 3),
            [self.l_n, self.mid, self.u_n]]))
        self.widths = w_n * (1.0 + 0.5 * np.arange(1, GRID_POINTS + 1)
                             / GRID_POINTS)


class UniformJoint:
    in_process = True
    warmup_rounds = 1

    def __init__(self, seed: int, cases=CASES):
        rng = np.random.default_rng([seed, 3])
        self.posteriors = [Posterior(n, r, rng) for n, r in cases]
        self.posteriors.append(Posterior(
            *FAULT_CASE, np.random.default_rng(FAULT_SEED)))
        last = len(self.posteriors) - 1
        self.kept_fault = frozenset((last, op) for op in OPS)
        self.values_per_round = len(self.posteriors) * (
            3 * GRID_POINTS + len(PROBS))

    def run_round(self, tracer, probe=None):
        """Records (op, latency, output); an operation that raises has
        the exception as its output, and when fit raises, the four
        evaluations it would have fed are recorded with it, untimed.
        probe, if given, is called before the round."""
        if probe is not None:
            probe()
        records = []
        for k, p in enumerate(self.posteriors):
            t0 = perf_counter()
            try:
                f = pp.fit(p.spec, p.stats)
                pred = pp.predict(f)
            except Exception as exc:
                records.append(((k, "fit"), perf_counter() - t0, exc))
                records += [((k, name), None, exc) for name in OPS[1:]]
                continue
            records.append(((k, "fit"), perf_counter() - t0, (f, pred)))
            for name, call, arg in (("pdf", pred.pdf, p.xs),
                                    ("cdf", pred.cdf, p.xs),
                                    ("quantile", pred.quantile, PROBS),
                                    ("width_cdf", f.posterior.width_cdf,
                                     p.widths)):
                t0 = perf_counter()
                try:
                    output = (f, pred, call(arg))
                except Exception as exc:
                    output = exc
                records.append(((k, name), perf_counter() - t0, output))
        return records

    def check(self, op, output) -> list[str]:
        k, name = op
        p = self.posteriors[k]
        f, pred = output[0], output[1]
        post = f.posterior
        if name == "fit":
            bad = [] if (post.l_n, post.u_n) == (p.l_n, p.u_n) else [
                f"pooled bounds {(post.l_n, post.u_n)} != {(p.l_n, p.u_n)}"]
            x, w = checks.width_grid(post.w_n, post.n_eff)
            return bad + checks.integrates_to_one(post.width_pdf, x, w)
        if name == "pdf":
            return self._pdf(p, pred, output[2])
        if name == "cdf":
            cdf = output[2]
            bad = checks.cdf_shape(cdf)
            at_mid = float(cdf[np.searchsorted(p.xs, p.mid)])
            if not abs(at_mid - 0.5) <= checks.MID_ATOL:
                bad.append(f"cdf at (l_n+u_n)/2 is {at_mid!r}, not 1/2")
            return bad
        if name == "quantile":
            q = output[2]
            bad = checks.quantiles_ordered(q)
            mirror = np.abs(q + q[::-1] - (p.l_n + p.u_n))
            if not np.all(mirror <= 1e-9 * (p.u_n - p.l_n)):
                bad.append("quantiles not symmetric about (l_n+u_n)/2")
            return bad + checks.inverts(pred.cdf(q), PROBS)
        return checks.cdf_shape(output[2], "width_cdf")

    @staticmethod
    def _pdf(p, pred, pdf) -> list[str]:
        """Non-negative, flat on [l_n, u_n], falling away on both sides;
        the flat part's mass is what the cdf puts on [l_n, u_n]."""
        if not np.all(np.isfinite(pdf)) or np.any(pdf < 0.0):
            return ["pdf negative or not finite"]
        inner = (p.xs >= p.l_n) & (p.xs <= p.u_n)
        level = pdf[inner]
        bad = [] if np.all(level == level[0]) else ["pdf not flat on [l_n, u_n]"]
        if np.any(np.diff(pdf[p.xs <= p.l_n]) < 0.0) or np.any(
                np.diff(pdf[p.xs >= p.u_n]) > 0.0):
            bad.append("pdf rises away from [l_n, u_n]")
        flat_mass = float(level[0]) * (p.u_n - p.l_n)
        cdf_mass = pred.cdf(p.u_n) - pred.cdf(p.l_n)
        if not (flat_mass <= 1.0 and checks.close(flat_mass, cdf_mass, 1e-9)):
            bad.append(f"flat mass {flat_mass!r} vs cdf mass {cdf_mass!r}")
        return bad
