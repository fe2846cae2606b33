"""tailbayes benchmark: one workload per invocation, in a fresh process.

    python3 bench/run.py --workload {cli_bulk,stream_fit,uniform_joint}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; tailbayes is imported from its
``src/`` directory, never from an installed copy.  The run

1. starts one untimed interpreter that writes bytecode;
2. generates the workload's inputs from ``--seed``;
3. repeats whole rounds of the workload's operations until ``--seconds``
   have passed, checking every output of every round outside the timers.
   In untraced runs, SETUP_STARTS fresh interpreters are spread evenly
   over those seconds, between rounds, and their time is not counted in
   them.  Each does what a user pays for before the first result (import
   tailbayes, or start the CLI for ``--help``); ``setup_s`` is their
   median.  So ``setup_s`` samples the same stretch of time as the
   rounds, not one moment before them;
4. prints one JSON object as the last line of standard output.

The run is pinned to one CPU, and its times are in seconds of a reference
machine.  Before each round (each command on ``cli_bulk``) and each
set-up start the run times a fixed probe that runs no tailbayes code;
every round, operation and set-up start is multiplied by the median of
PROBE_S / probe time over the probes taken within SCALE_WINDOW_S of it.
A shared host runs the same work up to a third slower for minutes at a
time, which no run length averages out; the probe slows with it, the
scaled times much less.  The tail latency is reported as measured.  The
measured times go to the results file.

With ``--trace 0`` the object holds the end-to-end metrics.  With
``--trace 1`` rounds alternate between untraced and traced, and it holds
the per-layer metrics from the traced rounds plus the tracing overhead.
A copy of the result with the environment it ran in goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import numpy as np
from scipy.integrate import quad

from children import BENCH_DIR, ROOT, SRC, run_child

WORKLOADS = ("cli_bulk", "stream_fit", "uniform_joint")
NPROC = len(os.sched_getaffinity(0))
SETUP_STARTS = 7
PROBE_REPEATS = 3
# Typical median of PROBE_REPEATS probes on the machine the reference
# figures in README.md come from.
PROBE_S = 0.0095
# The host's slow phases last from seconds to minutes; one probe is noisy.
SCALE_WINDOW_S = 5.0
_PROBE_X = np.linspace(0.1, 5.0, 100)


def probe() -> float:
    """Seconds taken by a fixed piece of work that runs no tailbayes code:
    small numpy calls between interpreted arithmetic, a plain float loop
    and quad on a Python integrand, the mix the workloads spend their time
    in.  On a shared host the same work runs up to a third
    slower for minutes at a time; this measures how fast it runs now.  Two
    kinds of work follow the host's phases more closely than either alone."""
    t0 = perf_counter()
    s = 0.0
    for i in range(900):
        b = np.log(_PROBE_X * (1 + i % 7)) + np.exp(-_PROBE_X)
        s += float(b.sum()) + (i * 3) % 11
    for i in range(11000):
        x = 0.5 + (i % 13) * 0.1
        s += math.exp(-x) * math.log1p(x) + x ** 1.5
    for j in range(5):
        s += quad(lambda u: math.exp(-u) * u ** 0.3, 0.0, 5.0 + j)[0]
    return perf_counter() - t0


def speed_scale() -> float:
    """Factor that turns a time measured next to this call into seconds of
    the reference machine: PROBE_S over the median of PROBE_REPEATS probes."""
    return PROBE_S / statistics.median(probe() for _ in range(PROBE_REPEATS))


def time_child(argv) -> float:
    """Wall time of one child process; raises if it does not exit 0."""
    t0 = perf_counter()
    done = run_child(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: "
                           f"{done.stderr.decode(errors='replace')[-2000:]}")
    return elapsed


def tail_latency(latencies):
    """Highest percentile with at least ten operations beyond it, and
    that percentile.  A run with fewer than 40 operations has no such
    tail; it reports the 90th percentile by nearest rank instead, which
    leaves one or more operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 40:
        rank = math.ceil(0.9 * n)
        return ordered[rank - 1], 100.0 * rank / n
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except OSError:
        git_rev = "unknown"
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    src_lines += handle.read().count(b"\n")
    return {
        "git_rev": git_rev,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def pin_to_one_cpu() -> None:
    """Run the benchmark, and the children it starts, on one CPU.  The
    shared machine's CPUs run at different speeds at the same moment (the
    probe took 6.3 ms on one and 9.6 ms on the other, and a minute later
    the reverse), so a probe measures the work only on the CPU it runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def make_workload(name: str, seed: int, workdir: str):
    if name == "cli_bulk":
        from workload_cli import CliBulk
        return CliBulk(workdir, seed)
    if name == "stream_fit":
        from workload_stream import StreamFit
        return StreamFit(seed)
    from workload_uniform import UniformJoint
    return UniformJoint(seed)


class Run:
    """Rounds of one workload, their timings, and their check results;
    with setup_argv, also the set-up starts made between the rounds.

    Untraced rounds and set-up starts are probed: the workload calls
    probe() before each round (each command on cli_bulk), and a set-up
    start follows one.  A round's wall time, an operation's latency and a
    set-up start enter wall_s, op_p50_ms and setup_s multiplied by the
    median of the factors measured within SCALE_WINDOW_S of their start."""

    def __init__(self, workload, tracer=None, setup_argv=None):
        self.workload = workload
        self.tracer = tracer
        self.setup_argv = setup_argv
        self.setup_times: list[tuple[float, float]] = []  # (start, seconds)
        self.round_walls = {False: [], True: []}
        self.probes: list[tuple[float, float]] = []  # (when, speed_scale())
        self.in_probes = 0.0  # seconds spent probing, kept out of the rounds
        # (start, wall, [(start, latency)]) of each recorded untraced round
        self.timed: list[tuple[float, float, list]] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.layers: list[dict] = []
        self.counts: list[dict] = []
        self.uncovered: list[float] = []
        self.info: dict = {}

    def probe(self) -> None:
        t0 = perf_counter()
        self.probes.append((t0, speed_scale()))
        self.in_probes += perf_counter() - t0

    def round(self, traced: bool, record: bool = True) -> None:
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.active = self.workload.in_process
        probed = self.in_probes
        t0 = perf_counter()
        try:
            records = self.workload.run_round(
                tracer, None if traced or not record else self.probe)
        finally:
            wall = perf_counter() - t0 - (self.in_probes - probed)
            if tracer is not None:
                tracer.active = False
        if tracer is not None:
            import tracing

            spans, counts = tracer.take()
            layers, covered = tracing.aggregate(spans)
            self.layers.append(layers)
            self.counts.append(counts)
            self.uncovered.append(wall - covered)
        latencies = []  # (start, seconds); starts are t0 plus the
        # latencies before, which leaves out the probes and the glue
        for op, latency, output in records:
            if isinstance(output, Exception):
                problems = [f"raised {output!r}"]
            else:
                problems = self.workload.check(op, output)
            if record:
                self.attempted += 1
                self.failed += bool(problems)
                if latency is not None:
                    start = latencies[-1][0] + latencies[-1][1] if (
                        latencies) else t0
                    latencies.append((start, latency))
            if problems and op not in self.workload.kept_fault:
                self.correct = False
                for problem in problems[:3]:
                    line = f"{op}: {problem}"
                    if len(self.problems) < 20 and line not in self.problems:
                        self.problems.append(line)
        if record:
            self.round_walls[traced].append(wall)
            if not traced:
                self.timed.append((t0, wall, latencies))

    def scale_at(self, when: float) -> float:
        """Median factor of the probes within SCALE_WINDOW_S of ``when``,
        or the nearest probe's if none is that close."""
        near = [k for t, k in self.probes if abs(t - when) <= SCALE_WINDOW_S]
        if not near:
            near = [min(self.probes, key=lambda p: abs(p[0] - when))[1]]
        return statistics.median(near)

    def repeat(self, seconds: float, trace: bool) -> None:
        for _ in range(self.workload.warmup_rounds):
            self.round(traced=False, record=False)
        starts = SETUP_STARTS if self.setup_argv else 0
        start = perf_counter()
        in_setup = 0.0  # set-up starts do not count towards the seconds
        traced = False
        while True:
            self.round(traced)
            if trace:
                traced = not traced
            # the i-th set-up start is due i/starts of the way through
            while (len(self.setup_times) < starts
                   and perf_counter() - start - in_setup
                   >= seconds * len(self.setup_times) / starts):
                t0 = perf_counter()
                self.probe()
                self.setup_times.append(
                    (perf_counter(), time_child(self.setup_argv)))
                in_setup += perf_counter() - t0
            done = perf_counter() - start - in_setup >= seconds
            if (done and len(self.setup_times) == starts
                    and (not trace or self.round_walls[True])):
                return

    def end_to_end(self) -> dict:
        scales = [self.scale_at(start) for start, _, _ in self.timed]
        wall = statistics.median(
            w * k for (_, w, _), k in zip(self.timed, scales))
        measured = [lat for _, _, lats in self.timed for lat in lats]
        latencies = [lat * self.scale_at(start) for start, lat in measured]
        # The slowest operations are those a stall hit, which the probes
        # do not see; scaling them by the factor of other moments only
        # widens the tail's spread, so it is reported as measured.
        tail, pct = tail_latency([lat for _, lat in measured])
        setup = statistics.median(seconds * self.scale_at(start)
                                  for start, seconds in self.setup_times)
        if self.workload.in_process:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.info = {"ops": len(latencies), "tail_percentile": pct,
                     "rounds": len(self.timed),
                     "speed_scale_median": statistics.median(scales),
                     "measured_wall_s": statistics.median(
                         self.round_walls[False]),
                     "measured_setup_s": [s for _, s in self.setup_times]}
        return {
            "setup_s": (setup, "s"),
            "wall_s": (wall, "s"),
            "values_per_s": (self.workload.values_per_round / wall, "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        }

    def per_layer(self, import_s: float) -> dict:
        """Per-layer metrics as means per traced round."""
        import tracing

        rounds = len(self.layers)
        per: dict = {}
        for layers in self.layers:
            for layer, row in layers.items():
                total = per.setdefault(layer, [0.0, 0, 0])
                for i, value in enumerate(row):
                    total[i] += value / rounds
        counts: dict = {}
        for c in self.counts:
            for name, value in c.items():
                counts[name] = counts.get(name, 0) + value / rounds

        m = {name: (layer_metric(per, name), LAYER_UNITS[name.rsplit(".", 1)[1]])
             for name in tracing.METRICS}
        if self.workload.in_process:
            m["import.self_ms"] = (import_s * 1e3, "ms")
        else:
            # one CLI child per operation, each with its own import span
            children = per.get("cli.main", (0.0, 0, 0))[1]
            m["import.self_ms"] = (
                m["import.self_ms"][0] / children if children else 0.0, "ms")
        m["conjugate_uniform.quad.calls"] = (
            counts.get("conjugate_uniform.quad", 0), "count")
        traced_wall = statistics.median(self.round_walls[True])
        m["bench.self_ms"] = (statistics.mean(self.uncovered) * 1e3, "ms")
        m["trace.wall_s"] = (traced_wall, "s")
        m["trace.overhead_s"] = (
            traced_wall - statistics.median(self.round_walls[False]), "s")
        m["trace.layer_share_pct"] = (
            100.0 * sum(row[0] for row in per.values())
            / statistics.mean(self.round_walls[True]), "%")
        self.info = {"traced_rounds": rounds,
                     "untraced_rounds": len(self.round_walls[False])}
        return m


LAYER_UNITS = {"calls": "count", "self_ms": "ms", "self_us": "us",
               "values_per_s": "1/s", "points_per_s": "1/s",
               "us_per_point": "us"}


def layer_metric(per: dict, name: str) -> float:
    """One per-layer figure from a layer's [self s, calls, points] per
    round; the metric name's last part says which figure."""
    layer, kind = name.rsplit(".", 1)
    self_s, calls, points = per.get(layer, (0.0, 0, 0))
    if kind == "calls":
        return calls
    if kind == "self_ms":
        return self_s * 1e3
    if kind == "self_us":
        return self_s / calls * 1e6 if calls else 0.0
    if kind == "us_per_point":
        return self_s / points * 1e6 if points else 0.0
    return points / self_s if self_s > 0 else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tailbayes", "__init__.py")):
        print(f"error: no tailbayes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        return run(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    if args.workload == "cli_bulk":
        setup_argv = [sys.executable, "-m", "tailbayes.cli", "--help"]
    else:
        setup_argv = [sys.executable, "-c", "import tailbayes"]
    pin_to_one_cpu()
    time_child(setup_argv)  # writes bytecode; not a user-visible cost
    speed_scale()  # numpy's first calls are slower than the later ones

    t0 = perf_counter()
    import tailbayes
    import_s = perf_counter() - t0
    if not os.path.abspath(tailbayes.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"tailbayes imported from {tailbayes.__file__}, "
                           f"not from {SRC}")

    workload = make_workload(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        if workload.in_process:
            tracer.install()
    bench = Run(workload, tracer, None if args.trace else setup_argv)
    try:
        bench.repeat(args.seconds, bool(args.trace))
    finally:
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        metrics = bench.per_layer(import_s)
    else:
        metrics = bench.end_to_end()
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "run": bench.info,
              "problems": bench.problems, "result": result}
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("environment", "run")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
