"""Tests of the benchmark itself: every workload runs at a tiny size with
its checks passing, and every checker rejects a corrupted output.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workload_cli import CliBulk  # noqa: E402
from workload_stream import StreamFit  # noqa: E402
from workload_uniform import UniformJoint  # noqa: E402


@pytest.fixture(scope="module")
def stream():
    workload = StreamFit(seed=7, batches=3)
    return workload, workload.run_round(None)


@pytest.fixture(scope="module")
def uniform():
    workload = UniformJoint(seed=7, cases=((5, 0.5), (300, 0.9995)))
    return workload, workload.run_round(None)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    workload = CliBulk(str(tmp_path_factory.mktemp("cli")), seed=7,
                       sizes=(3000, 1000, 1000), k=40)
    return workload, workload.run_round(None)


# --- each workload completes at a tiny size with its checks passing ---

def test_stream_fit_passes_its_checks(stream):
    workload, records = stream
    [(op, _, output)] = records
    assert len(output) == 11 and workload.check(op, output) == []


def test_uniform_joint_fails_only_the_kept_fault(uniform):
    workload, records = uniform
    failed = {op for op, _, out in records if workload.check(op, out)}
    assert len(records) == 15
    assert failed == workload.kept_fault and len(failed) == 5


def test_cli_bulk_passes_its_checks(cli):
    workload, records = cli
    assert [op for op, _, _ in records] == ["fit", "update", "pot", "validate"]
    assert {op: workload.check(op, out) for op, _, out in records
            if workload.check(op, out)} == {}


def test_uniform_joint_counts_a_raising_call_as_failed(monkeypatch):
    from tailbayes import conjugate_uniform

    def boom(self, widths):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(conjugate_uniform.UniformJointPosterior, "width_cdf",
                        boom)
    bench = run.Run(UniformJoint(seed=7, cases=((5, 0.5),)))
    bench.round(traced=False)
    # width_cdf of the one case raises; the kept fault's five fail as ever
    assert (bench.attempted, bench.failed, bench.correct) == (10, 6, False)
    assert any("ZeroDivisionError" in p for p in bench.problems)


def test_stream_fit_counts_a_raising_call_as_failed(monkeypatch):
    from tailbayes import pot_pipeline

    def boom(fit):
        raise ValueError("no support")

    monkeypatch.setattr(pot_pipeline, "support", boom)
    bench = run.Run(StreamFit(seed=7, batches=2))
    bench.round(traced=False)
    assert (bench.attempted, bench.failed, bench.correct) == (1, 1, False)
    assert bench.problems == ["stream: raised ValueError('no support')"]


# --- each checker rejects a deliberately corrupted output ---

def _stream_step(stream, cell=0, step=2):
    workload, [(_, _, output)] = stream
    return workload, output[cell][step]


@pytest.mark.parametrize("corrupt", [
    "stats", "posterior", "joint_posterior", "cdf", "quantile", "score",
    "report"])
def test_stream_checker_rejects(stream, corrupt):
    cell = 2 if corrupt == "joint_posterior" else 0
    workload, step = _stream_step(stream, cell)
    stats, f, pred, report, score, cdf, q = step
    if corrupt == "stats":
        stats = dataclasses.replace(stats, sum=stats.sum * (1 + 1e-9))
    elif corrupt == "posterior":
        f = dataclasses.replace(f, posterior=dataclasses.replace(
            f.posterior, n_eff=f.posterior.n_eff + 1e-6))
    elif corrupt == "joint_posterior":
        shape = f.posterior.shape_posterior
        f = dataclasses.replace(f, posterior=dataclasses.replace(
            f.posterior, shape_posterior=dataclasses.replace(
                shape, rate=shape.rate * (1 + 1e-9))))
    elif corrupt == "cdf":
        cdf = cdf.copy()
        cdf[50] = cdf[49] - 1e-9
    elif corrupt == "quantile":
        q = q * (1 + 1e-6)
    elif corrupt == "score":
        score = score + 1e-6 * abs(score)
    else:
        report = dataclasses.replace(report,
                                     n_effective=report.n_effective + 1)
    assert workload._check_step(cell, 2, (stats, f, pred, report, score,
                                          cdf, q))


@pytest.mark.parametrize("op,corrupt", [
    ("fit", "evidence"), ("pdf", "bump"), ("cdf", "midpoint"),
    ("quantile", "shift"), ("width_cdf", "overshoot")])
def test_uniform_checker_rejects(uniform, op, corrupt):
    workload, records = uniform
    output = next(out for o, _, out in records if o == (0, op))
    f, pred = output[0], output[1]
    if corrupt == "evidence":
        f = dataclasses.replace(f, posterior=dataclasses.replace(
            f.posterior, c_n=f.posterior.c_n * 1.001))
        bad = workload.check((0, op), (f, pred))
    else:
        values = output[2].copy()
        if corrupt == "bump":
            values[len(values) // 2] *= 1 + 1e-9
        elif corrupt == "midpoint":
            values[np.searchsorted(workload.posteriors[0].xs,
                                   workload.posteriors[0].mid)] += 1e-9
        elif corrupt == "shift":
            values = values + 1e-6
        else:
            values[-1] = 1.0 + 1e-12
        bad = workload.check((0, op), (f, pred, values))
    assert bad


@pytest.mark.parametrize("op,corrupt", [
    ("fit", "rate"), ("update", "count"), ("pot", "threshold"),
    ("validate", "score"), ("fit", "exit")])
def test_cli_checker_rejects(cli, op, corrupt):
    workload, records = cli
    code, stdout, stderr, doc = next(out for o, _, out in records if o == op)
    doc = json.loads(json.dumps(doc))
    if corrupt == "rate":
        doc["posterior"]["rate"] *= 1 + 1e-6
    elif corrupt == "count":
        doc["suff_stats"]["n"] -= 1
    elif corrupt == "threshold":
        stderr = stderr.replace("threshold: ", "threshold: 1")
    elif corrupt == "score":
        value = float(stdout.split(":")[1])
        stdout = f"holdout log predictive: {value + 1e-6 * abs(value)!r}\n"
    else:
        code = 3
    assert workload.check(op, (code, stdout, stderr, doc))


# --- harness pieces ---

def test_aggregate_subtracts_child_time():
    spans = [("cli.main", 0.0, 10.0, -1, 0),
             ("cli.ingest", 1.0, 4.0, 0, 100),
             ("pot_pipeline.fit", 5.0, 9.0, 0, 0),
             ("conjugate_pareto.update", 6.0, 7.0, 2, 0),
             ("distributions.eval", 20.0, 22.0, -1, 5),
             ("distributions.eval", 20.5, 21.0, 4, 5)]
    layers, covered = tracing.aggregate(spans)
    assert layers["cli.main"] == [3.0, 1, 0]
    assert layers["cli.ingest"] == [3.0, 1, 100]
    assert layers["pot_pipeline.fit"] == [3.0, 1, 0]
    # a method calling a sibling of its own layer is one call
    assert layers["distributions.eval"] == [2.0, 1, 5]
    assert covered == 12.0


def test_end_to_end_times_are_scaled_by_the_probes_near_them(monkeypatch):
    factors = iter([2.0, 3.0, 4.0])
    monkeypatch.setattr(run, "speed_scale", lambda: next(factors))
    bench = run.Run(UniformJoint(seed=7, cases=((5, 0.5),)))
    for _ in range(3):
        bench.round(traced=False)
    bench.setup_times = [(bench.probes[0][0], 0.5)]
    m = bench.end_to_end()
    assert m["wall_s"][0] == 3.0 * statistics.median(bench.round_walls[False])
    assert m["setup_s"][0] == 1.5


def test_cli_probes_before_each_command_outside_the_round_time(
        cli, monkeypatch):
    workload, _ = cli
    monkeypatch.setattr(run, "speed_scale", lambda: time.sleep(0.5) or 1.0)
    bench = run.Run(workload)
    bench.round(traced=False)
    [(_, wall, latencies)] = bench.timed
    assert len(bench.probes) == 4
    assert wall < sum(lat for _, lat in latencies) + 0.5


def test_tail_is_eleventh_largest_or_slowest():
    assert run.tail_latency(list(range(20))) == (17, 90.0)
    lat, pct = run.tail_latency(list(range(100)))
    assert lat == 89 and pct == 90.0


def test_tracer_uninstall_restores_functions():
    from tailbayes import conjugate_uniform, distributions, pot_pipeline

    before = (pot_pipeline.fit, distributions.Pareto.cdf,
              conjugate_uniform.UniformJointPosterior.width_cdf)
    tracer = tracing.Tracer()
    tracer.install()
    assert pot_pipeline.fit is not before[0]
    tracer.uninstall()
    assert (pot_pipeline.fit, distributions.Pareto.cdf,
            conjugate_uniform.UniformJointPosterior.width_cdf) == before


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_benchmark_json(trace, key):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         "uniform_joint", "--seed", "3", "--seconds", "0", "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * 7 == result["attempted"]
    want = {m["name"]: m["unit"] for m in _bench_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results",
                                                  "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream_fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
