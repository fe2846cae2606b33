"""Print one digest line per CLI command, to compare two checkouts.

The commands are predict and support on each state document under
tests/data/states, verify, simulate for each family at fixed parameters
and seed, and plotdata for each figure.  Each runs in this process
through tailbayes.cli.main, and its line holds the exit code, a SHA-256
of its stdout, stderr and written file, and the command.  tailbayes is
imported from the Python path, so the same script checks any checkout:

    PYTHONPATH=src python3 scripts/identity_digest.py > change.txt
    PYTHONPATH=/path/to/parent/src python3 scripts/identity_digest.py > parent.txt
    diff parent.txt change.txt
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

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
OUT = "OUT"   # stands for the file a command writes


def commands():
    """Each command as its argv, state paths relative to the repo."""
    for state in sorted(STATES.glob("*.json")):
        for command in ("predict", "support"):
            yield [command, "--state", state.relative_to(REPO).as_posix()]
    yield ["verify"]
    for family, params in SIMULATE.items():
        yield ["simulate", "--family", family, "--params", params,
               "--n", "1000", "--seed", "7"]
    for figure in FIGURES:
        yield ["plotdata", "--figure", figure, "--out", OUT]


def digest(argv, scratch: Path) -> tuple[int, str]:
    """The exit code of argv and a SHA-256 over its stdout, stderr and the
    file it wrote (empty if none)."""
    out = scratch / "out"
    out.unlink(missing_ok=True)
    args = [str(out) if a == OUT else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(args)
        except SystemExit as exc:   # argparse refusals
            code = exc.code
    written = out.read_bytes() if out.exists() else b""
    total = hashlib.sha256()
    for part in (stdout.getvalue().encode(), stderr.getvalue().encode(), written):
        total.update(hashlib.sha256(part).digest())
    return code, total.hexdigest()


def main() -> None:
    os.chdir(REPO)   # the state paths are relative to it
    with tempfile.TemporaryDirectory() as scratch:
        for argv in commands():
            code, hexdigest = digest(argv, Path(scratch))
            print(code, hexdigest, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
