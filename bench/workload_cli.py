"""cli_bulk: the tailbayes command line on files of a few hundred thousand values.

One command runs at a time, each in a fresh ``python -m tailbayes.cli``
process.  A round is four commands, each reading a file the benchmark
wrote:

    fit        pareto/shape with a proper prior, on a CSV
    fit --update --state   the first fit continued with a JSONL batch
    pot --k    shifted_exp/shape excesses over the k-th largest CSV value
    validate --holdout     the updated fit scored on a held-out CSV

Ingest is most of each command, so a change to ingest, top-k selection or
memory shows here; the stream and uniform-joint code is barely touched.
"""

from __future__ import annotations

import json
import math
import os
import sys
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import checks
import tracing
from children import run_child

DATA_VALUES = 200_000
BATCH_VALUES = 280_000
HOLDOUT_VALUES = 200_000
POT_K = 2_000
ALPHA, BOUND = 1.6, 2.0           # Pareto law of every file
PRIOR_G0, PRIOR_N0 = 3.0, 4.0


def _write_lines(path: str, values, header: str | None = None) -> None:
    lines = [repr(v) for v in values.tolist()]
    if header:
        lines.insert(0, header)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


class CliBulk:
    in_process = False
    warmup_rounds = 0
    kept_fault = frozenset()

    def __init__(self, workdir: str, seed: int,
                 sizes=(DATA_VALUES, BATCH_VALUES, HOLDOUT_VALUES),
                 k: int = POT_K):
        rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))
        draw = lambda n: BOUND * rng.random(n) ** (-1.0 / ALPHA)
        data, batch, holdout = (draw(n) for n in sizes)
        self.path = {name: os.path.join(workdir, name) for name in
                     ("data.csv", "batch.jsonl", "holdout.csv", "s1.json",
                      "s2.json", "pot.json")}
        _write_lines(self.path["data.csv"], data, header="latency_ms")
        _write_lines(self.path["batch.jsonl"], batch)
        _write_lines(self.path["holdout.csv"], holdout)
        self.holdout = holdout
        self.k = k
        self.values_per_round = 2 * data.size + batch.size + holdout.size

        # what the program must report, computed here
        self.own_data = checks.OwnStats(data)
        self.own_merged = checks.OwnStats(np.concatenate([data, batch]))
        log_rel = lambda x: math.fsum(np.log(x / BOUND).tolist())
        prior_rate = PRIOR_N0 * math.log(PRIOR_G0)
        self.want_s1 = {"shape": PRIOR_N0 + data.size,
                        "rate": prior_rate + log_rel(data)}
        self.want_s2 = {"shape": PRIOR_N0 + data.size + batch.size,
                        "rate": prior_rate + log_rel(data) + log_rel(batch)}
        n = data.size
        self.theta = float(np.partition(data, n - k)[n - k])
        excess = data[data > self.theta] - self.theta
        self.want_pot = {"shape": float(excess.size),
                         "rate": math.fsum(excess.tolist())}

        p = self.path
        self.commands = [
            ("fit", "s1.json", ["fit", "--family", "pareto", "--case", "shape",
                     "--prior", f"g0={PRIOR_G0!r},n0={PRIOR_N0!r}",
                     "--known", f"l={BOUND!r}", "--data", p["data.csv"],
                     "--out", p["s1.json"]]),
            ("update", "s2.json", ["fit", "--update", "--state", p["s1.json"],
                        "--data", p["batch.jsonl"], "--out", p["s2.json"]]),
            ("pot", "pot.json", ["pot", "--data", p["data.csv"], "--k", str(k),
                     "--view", "excess", "--family", "shifted_exp",
                     "--case", "shape", "--noninformative", "--known", "l=0",
                     "--out", p["pot.json"]]),
            ("validate", None, ["validate", "--state", p["s2.json"],
                          "--holdout", p["holdout.csv"]]),
        ]

    def run_round(self, tracer, probe=None):
        """Records (op, latency, output); probe, if given, is called
        before each command."""
        records = []
        for name, out, args in self.commands:
            if probe is not None:
                probe()
            if out is not None and os.path.exists(self.path[out]):
                os.remove(self.path[out])
            spans_path = os.path.join(self.workdir, f"{name}.spans.json")
            if tracer is None:
                argv = [sys.executable, "-m", "tailbayes.cli", *args]
            else:
                argv = [sys.executable,
                        os.path.join(self.bench_dir, "cli_child.py"),
                        spans_path, *args]
            t0 = perf_counter()
            done = run_child(argv, capture_output=True, text=True)
            latency = perf_counter() - t0
            if tracer is not None and done.returncode == 0:
                spans, counts = tracing.load_spans(spans_path)
                base = len(tracer.spans)
                tracer.spans.extend(
                    (layer, s, e, parent + base if parent >= 0 else -1, pts)
                    for layer, s, e, parent, pts in spans)
                for key, value in counts.items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            output = (done.returncode, done.stdout, done.stderr,
                      self._read_json(out))
            records.append((name, latency, output))
        return records

    def _read_json(self, out: str | None):
        if out is None:
            return None
        try:
            with open(self.path[out]) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def check(self, op, output) -> list[str]:
        code, stdout, stderr, doc = output
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-300:]}"]
        if op == "validate":
            return self._validate(stdout)
        if doc is None:
            return ["no state document written"]
        got = doc["posterior"]
        stats = SimpleNamespace(**doc["suff_stats"])
        if op == "fit":
            return (checks.stats_match(stats, self.own_data)
                    + checks.params_match(got, self.want_s1,
                                          checks.CLOSED_RTOL, "posterior"))
        if op == "update":
            return (checks.stats_match(stats, self.own_merged)
                    + checks.params_match(got, self.want_s2,
                                          checks.CLOSED_RTOL, "posterior"))
        bad = checks.params_match(got, self.want_pot, checks.CLOSED_RTOL,
                                  "posterior")
        if f"threshold: {self.theta!r}" not in stderr:
            bad.append(f"threshold is not the {self.k}-th largest value "
                       f"{self.theta!r}: {stderr.strip()[:200]}")
        if doc["model_spec"]["threshold"] != self.theta:
            bad.append("state document threshold differs")
        return bad

    def _validate(self, stdout: str) -> list[str]:
        """The score is the summed log density of the held-out values
        under the predictive of the (separately checked) updated fit."""
        prefix = "holdout log predictive: "
        line = stdout.strip()
        if not line.startswith(prefix):
            return [f"unexpected validate output {line[:200]!r}"]
        with open(self.path["s2.json"]) as handle:
            post = json.load(handle)["posterior"]
        params = {"shape": post["shape"], "scale": post["rate"],
                  "offset": post["rate"], "anchor": BOUND}
        terms = checks.predictive_log_density("ParetoLogLink", params,
                                              self.holdout)
        return checks.score_matches(float(line[len(prefix):]), terms)
