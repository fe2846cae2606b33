"""scripts/identity_digest.py: one line per command, the same on every run."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "identity_digest.py"
COMMANDS = 2 * 20 + 1 + 8 + 4 + 7   # predict and support per state, verify,
                                    # simulate per family, plotdata per figure,
                                    # the data commands


def test_two_runs_print_the_same_lines_with_exit_0():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    runs = [subprocess.Popen([sys.executable, str(SCRIPT)], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(2)]
    outs = [run.communicate(timeout=300) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outs]
    first, second = (out.splitlines() for out, _ in outs)
    assert first == second
    assert len(first) == COMMANDS
    assert all(line.split()[0] == "0" for line in first)
