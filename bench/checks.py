"""Checks on tailbayes outputs, computed apart from tailbayes.

Every check is either a value the benchmark computes itself from the data
it generated (numpy, ``math.fsum``) or a property the method must have.
Each returns a list of failure messages; an empty list means the output
passed.  Joint-case checks are properties only, so that a corrected joint
posterior still passes.
"""

from __future__ import annotations

import math

import numpy as np

SUM_RTOL = 1e-11        # merged float sums against math.fsum
CLOSED_RTOL = 1e-9      # posterior parameters against textbook closed forms
SEQ_RTOL = 1e-12        # sequential update against the batch refit
MASS_ATOL = 1e-14       # predictive record mass against 1/(n_eff + 1) ...
MASS_EPS_PER_COUNT = 8 * 2.0 ** -52  # ... plus this much per effective count
INVERT_ATOL = 1e-9      # cdf(quantile(p)) against p
MID_ATOL = 1e-10        # uniform-joint cdf at the midpoint against 1/2
SCORE_RTOL = 1e-10      # summed log density, relative to sum of |terms|
MONO_ATOL = 1e-12       # rounding-level step down allowed in a cdf
EDGE_ULPS = 8           # support edge against a known bound, in ulps of
                        # the larger of the bound and the link offset
DENSITY_ATOL = 1e-8     # a density's integral against 1
GL_NODES = 24           # Gauss-Legendre nodes per quadrature segment


class OwnStats:
    """Sufficient statistics the benchmark computes itself."""

    __slots__ = ("n", "min", "max", "sum", "sum_log")

    def __init__(self, values):
        x = np.asarray(values, dtype=float)
        self.n = int(x.size)
        self.min = float(x.min())
        self.max = float(x.max())
        self.sum = math.fsum(x.tolist())
        self.sum_log = math.fsum(np.log(x).tolist()) if np.all(x > 0) else None


def close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def stats_match(got, own: OwnStats) -> list[str]:
    bad = []
    if got.n != own.n:
        bad.append(f"n {got.n} != {own.n}")
    if got.min != own.min or got.max != own.max:
        bad.append(f"extremes ({got.min}, {got.max}) != ({own.min}, {own.max})")
    if not close(got.sum, own.sum, SUM_RTOL):
        bad.append(f"sum {got.sum!r} != fsum {own.sum!r}")
    if (got.sum_log is None) != (own.sum_log is None) or (
            own.sum_log is not None
            and not close(got.sum_log, own.sum_log, SUM_RTOL)):
        bad.append(f"sum_log {got.sum_log!r} != fsum {own.sum_log!r}")
    return bad


def params_match(got: dict, want: dict, rtol: float, what: str) -> list[str]:
    return [f"{what} {k}: {got.get(k)!r} != {v!r}" for k, v in want.items()
            if not (isinstance(got.get(k), (int, float))
                    and close(float(got[k]), float(v), rtol))]


def cdf_shape(cdf_values, what: str = "cdf") -> list[str]:
    """A distribution function lies in [0, 1] and never decreases (up to
    rounding: the uniform-joint cdf steps down by ~5e-15 where its flat
    middle hands over to the tail series at u_n)."""
    c = np.asarray(cdf_values, dtype=float)
    bad = []
    if not np.all(np.isfinite(c)) or c.min() < 0.0 or c.max() > 1.0:
        bad.append(f"{what} leaves [0, 1]: [{float(c.min())!r}, "
                   f"{float(c.max())!r}]")
    if np.any(np.diff(c) < -MONO_ATOL):
        bad.append(f"{what} decreases by {float(-np.diff(c).min())!r}")
    return bad


def inverts(cdf_at_quantiles, probs) -> list[str]:
    gap = np.max(np.abs(np.asarray(cdf_at_quantiles) - np.asarray(probs)))
    return [] if gap <= INVERT_ATOL else [
        f"cdf(quantile(p)) misses p by {float(gap)!r}"]


def quantiles_ordered(q) -> list[str]:
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        return ["quantile not finite"]
    return [] if np.all(np.diff(q) >= 0.0) else ["quantile decreases"]


def record_mass(mass: float, n_eff: float) -> list[str]:
    """Mass beyond the bound against 1/(n_eff+1).  A joint predictive
    stores the record discount c as a scale c**(1/shape) that its cdf
    raises back to the power shape ~ n_eff, so the mass carries an error
    of about n_eff ulps."""
    want = 1.0 / (n_eff + 1.0)
    atol = MASS_ATOL + MASS_EPS_PER_COUNT * n_eff
    return [] if abs(mass - want) <= atol else [
        f"mass beyond the bound {float(mass)!r} != 1/(n_eff+1) = {want!r}"]


# --- log densities of the predictive laws, from their textbook forms ---

def _link_log_density(shape, scale, y, log_jacobian):
    ok = y >= scale
    with np.errstate(divide="ignore", invalid="ignore"):
        body = (math.log(shape) + shape * math.log(scale) + log_jacobian
                - (shape + 1.0) * np.log(np.where(ok, y, 1.0)))
    return np.where(ok, body, -np.inf)


def predictive_log_density(kind: str, p: dict, x) -> np.ndarray:
    """log density at x of the closed-form predictive law named kind
    (a tailbayes class name) with parameters p (its fields).

    Covers the seven laws the single-parameter and closed-form joint cases
    return.
    """
    x = np.asarray(x, dtype=float)
    pos = x > 0
    log_x = np.log(np.where(pos, x, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "Pareto":
            body = (math.log(p["alpha"]) + p["alpha"] * math.log(p["l"])
                    - (p["alpha"] + 1.0) * log_x)
            return np.where(x >= p["l"], body, -np.inf)
        if kind == "ShiftedExp":
            body = math.log(p["alpha"]) - p["alpha"] * (x - p["l"])
            return np.where(x >= p["l"], body, -np.inf)
        if kind == "Power":
            body = (math.log(p["b"]) + (p["b"] - 1.0) * log_x
                    - p["b"] * math.log(p["a"]))
            return np.where(pos & (x < p["a"]), body, -np.inf)
        if kind == "Uniform":
            return np.where((x >= p["l"]) & (x < p["u"]),
                            -math.log(p["u"] - p["l"]), -np.inf)
        if kind == "Trapezoid":
            lo, a, b, hi = p["lower"], p["flat_lo"], p["flat_hi"], p["upper"]
            height = 2.0 / ((hi - lo) + (b - a))
            dens = np.where(x < lo, 0.0,
                   np.where(x < a, height * (x - lo) / (a - lo),
                   np.where(x < b, height,
                   np.where(x < hi, height * (hi - x) / (hi - b), 0.0))))
            return np.log(dens)
        if kind == "ParetoLogLink":
            y = np.where(pos, log_x - math.log(p["anchor"]), -np.inf) + p["offset"]
            return _link_log_density(p["shape"], p["scale"], y, -log_x)
        if kind == "ParetoShiftLink":
            y = x - p["anchor"] + p["offset"]
            return _link_log_density(p["shape"], p["scale"], y, 0.0)
        if kind == "ParetoNegLogLink":
            y = np.where(pos, math.log(p["anchor"]) - log_x, np.inf) + p["offset"]
            return np.where(pos, _link_log_density(p["shape"], p["scale"], y,
                                                   -log_x), -np.inf)
    raise TypeError(f"no reference density for predictive {kind}")


def score_matches(score: float, log_terms) -> list[str]:
    """Summed log density: -inf when any point is outside the support,
    else math.fsum of the benchmark's own terms."""
    terms = np.asarray(log_terms, dtype=float)
    if np.any(np.isneginf(terms)):
        return [] if score == -math.inf else [f"score {score!r}, want -inf"]
    want = math.fsum(terms.tolist())
    scale = math.fsum(np.abs(terms).tolist())
    if isinstance(score, float) and abs(score - want) <= SCORE_RTOL * max(scale, 1.0):
        return []
    return [f"score {score!r} != own sum {want!r}"]


def gauss_legendre_segments(edges):
    """Nodes and weights of a composite Gauss-Legendre rule on edges."""
    t, w = np.polynomial.legendre.leggauss(GL_NODES)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    x = (0.5 * (b - a) * t + 0.5 * (a + b)).ravel()
    weights = (0.5 * (b - a) * w).ravel()
    return x, weights


def width_grid(w_n: float, n_eff: float):
    """Quadrature nodes for a density on (w_n, inf) that decays like
    (w/w_n)**-(n_eff+1): segments geometric in w/w_n - 1 from 1e-8/n_eff
    out to where the decay has fallen below 1e-17, then one segment in
    1/w for the rest."""
    far = 10.0 ** (17.0 / n_eff) - 1.0
    near = 1e-8 / n_eff
    steps = max(8, int(math.ceil(math.log(far / near) / math.log(1.5))))
    rel = np.concatenate([[0.0], np.geomspace(near, far, steps)])
    x, w = gauss_legendre_segments(w_n * (1.0 + rel))
    # tail beyond the last edge: substitute w = top / t, t in (0, 1]
    top = w_n * (1.0 + far)
    t, tw = gauss_legendre_segments([0.0, 1.0])
    return np.concatenate([x, top / t]), np.concatenate([w, tw * top / t ** 2])


def integrates_to_one(density, x, w) -> list[str]:
    vals = np.asarray(density(x), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
        return ["density negative or not finite"]
    total = float(np.dot(vals, w))
    return [] if abs(total - 1.0) <= DENSITY_ATOL else [
        f"density integrates to {total!r}, not 1"]
