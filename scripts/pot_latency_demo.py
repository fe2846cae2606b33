"""Extrapolate extreme latency quantiles from modest samples.

Simulates request latencies with a heavy right tail, keeps the k largest
observations (peaks over threshold), fits the exponential-excess rate with
its conjugate update, and compares the plug-in quantile curve with the
posterior predictive, which keeps parameter uncertainty and therefore a
heavier extrapolation tail.  A held-out sample scores the fit.

Run:  python3 scripts/pot_latency_demo.py --n 5000 --k 100 --seed 11
"""

import argparse
import math

import numpy as np

from tailbayes.distributions import ShiftedExp
from tailbayes.pot_pipeline import (
    ModelSpec,
    holdout_log_predictive,
    pot_fit,
    predict,
)


def simulate_latencies(rng, size: int) -> np.ndarray:
    # lognormal body with an exponential excess tail past the knee
    body = rng.lognormal(mean=3.0, sigma=0.4, size=size)
    tail = rng.exponential(scale=15.0, size=size)
    return body + np.where(rng.uniform(size=size) < 0.05, tail, 0.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5000, help="sample size")
    parser.add_argument("--k", type=int, default=100, help="exceedances kept")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    latencies = simulate_latencies(rng, args.n)

    spec = ModelSpec(family="shifted_exp", case="shape", noninformative=True,
                     known={"l": 0.0}, view="excess")
    fitted, theta, excesses = pot_fit(latencies, args.k, spec)
    pred = predict(fitted)
    rate = fitted.posterior
    tail_frac = len(excesses) / args.n

    print(f"n={args.n} latencies, threshold at k={args.k}: "
          f"{theta:.2f} ms, {len(excesses)} exceedances")
    print(f"excess-rate posterior: Gamma(shape={rate.shape:.0f}, "
          f"rate={rate.rate:.1f}); posterior mean rate "
          f"{rate.shape / rate.rate:.4f} per ms")

    plug_in = ShiftedExp(alpha=rate.shape / rate.rate, l=0.0)
    print(f"{'quantile':>10} {'plug-in ms':>12} {'predictive ms':>14}")
    for q in (0.99, 0.999, 0.9999):
        # tail quantile via the exceedance model: P(X > x) = tail_frac * P(E > x - theta)
        p_excess = 1.0 - (1.0 - q) / tail_frac
        if p_excess <= 0.0:
            continue
        print(f"{q:10.4%} "
              f"{theta + float(plug_in.quantile(p_excess)):12.2f} "
              f"{theta + float(pred.quantile(p_excess)):14.2f}")

    holdout = simulate_latencies(rng, args.n)
    held_excesses = fitted.spec.exceedances(holdout)
    score = holdout_log_predictive(pred, held_excesses)
    if score == -math.inf:
        print("held-out excesses rejected by the predictive")
    else:
        print(f"held-out excess log score ({len(held_excesses)} points): "
              f"{score:.1f}")


if __name__ == "__main__":
    main()
