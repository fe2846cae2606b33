"""Print one digest line per CLI command, to compare two checkouts.

The commands are predict and support on each state document under
tests/data/states, verify, simulate for each family at fixed parameters
and seed, plotdata for each figure, and the data commands (fit, fit
--update, pot and validate) on small CSV and JSONL files written from a
fixed seed.  Each runs in this process through tailbayes.cli.main, and
its line holds the exit code, a SHA-256 of its stdout, stderr and written
file, and the command.  tailbayes is imported from the Python path, so
the same script checks any checkout:

    PYTHONPATH=src python3 scripts/identity_digest.py > change.txt
    PYTHONPATH=/path/to/parent/src python3 scripts/identity_digest.py > parent.txt
    diff parent.txt change.txt
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from tailbayes import cli

REPO = Path(__file__).resolve().parents[1]
STATES = REPO / "tests" / "data" / "states"
SIMULATE = {
    "gamma": "shape=3.2,rate=0.7",
    "gp": "theta=0.5,sigma=2,xi=-0.7",
    "log_power": "a=1.5,b=0.9",
    "lomax": "alpha=2.5,l=1.3",
    "pareto": "alpha=1.5,l=2",
    "power": "a=4,b=2.3",
    "shifted_exp": "alpha=0.8,l=-2",
    "uniform": "l=-1,u=3.5",
}
FIGURES = ("gp", "pareto", "exp", "power")
OUT = "OUT"   # stands for a file a command writes and no later one reads
# Pareto(alpha, l) draws for the data commands, one file per name: CSV
# with a header (the vectorised reader), bare-number JSONL, JSONL objects
# read by --field (the per-line reader), and a holdout partly below l,
# which the fitted model rejects
ALPHA, BOUND, SEED = 1.7, 2.0, 7
INPUTS = {"data.csv": 500, "batch.jsonl": 300, "holdout.csv": 200,
          "records.jsonl": 200, "below.csv": 20}
# the inputs, the two states that fit writes and later commands read, and OUT
FILES = (*INPUTS, "s1.json", "s2.json", OUT)


def commands():
    """Each command as its argv, state paths relative to the repo; each of
    FILES stands for that file in the scratch directory."""
    for state in sorted(STATES.glob("*.json")):
        for command in ("predict", "support"):
            yield [command, "--state", state.relative_to(REPO).as_posix()]
    yield ["verify"]
    for family, params in SIMULATE.items():
        yield ["simulate", "--family", family, "--params", params,
               "--n", "1000", "--seed", "7"]
    for figure in FIGURES:
        yield ["plotdata", "--figure", figure, "--out", OUT]
    yield ["fit", "--family", "pareto", "--case", "shape", "--prior",
           "g0=1.8,n0=3", "--known", f"l={BOUND}", "--data", "data.csv",
           "--out", "s1.json"]
    yield ["fit", "--update", "--state", "s1.json", "--data", "batch.jsonl",
           "--out", "s2.json"]
    yield ["validate", "--state", "s2.json", "--holdout", "holdout.csv"]
    yield ["validate", "--state", "s2.json", "--holdout", "below.csv"]
    yield ["fit", "--family", "pareto", "--case", "joint", "--prior",
           "l0=2.5,n0=2,g0=4,n0_shape=3", "--data", "records.jsonl",
           "--field", "ms", "--out", OUT]
    yield ["pot", "--data", "data.csv", "--k", "40", "--view", "excess",
           "--family", "shifted_exp", "--case", "shape", "--noninformative",
           "--known", "l=0", "--out", OUT]
    yield ["pot", "--data", "data.csv", "--k", "40", "--family", "pareto",
           "--case", "location", "--noninformative", "--known",
           f"alpha={ALPHA}", "--out", OUT]


def write_inputs(scratch: Path) -> None:
    """The data files of the data commands, the same on every run."""
    rng = np.random.default_rng(SEED)
    for name, n in INPUTS.items():
        values = BOUND * rng.random(n) ** (-1.0 / ALPHA)
        if name == "below.csv":
            values[::2] *= 0.5
        if name == "records.jsonl":
            lines = [json.dumps({"ms": v}) for v in values.tolist()]
        else:
            lines = [repr(v) for v in values.tolist()]
        if name == "data.csv":
            lines.insert(0, "latency_ms")
        (scratch / name).write_text("\n".join(lines) + "\n")


def digest(argv, scratch: Path) -> tuple[int, str]:
    """The exit code of argv and a SHA-256 over its stdout, stderr and the
    file it wrote (empty if none).  Each of FILES in argv names that file
    in scratch, whose path is hashed as the word "scratch"."""
    args = [str(scratch / a) if a in FILES else a for a in argv]
    out = Path(args[args.index("--out") + 1]) if "--out" in args else None
    if out is not None:
        out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(args)
        except SystemExit as exc:   # argparse refusals
            code = exc.code
    written = out.read_bytes() if out is not None and out.exists() else b""
    total = hashlib.sha256()
    texts = (stream.getvalue().replace(str(scratch), "scratch").encode()
             for stream in (stdout, stderr))
    for part in (*texts, written):
        total.update(hashlib.sha256(part).digest())
    return code, total.hexdigest()


def main() -> None:
    os.chdir(REPO)   # the state paths are relative to it
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch))
        for argv in commands():
            code, hexdigest = digest(argv, Path(scratch))
            print(code, hexdigest, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
