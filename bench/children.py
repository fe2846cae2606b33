"""Child processes of the benchmark: Python interpreters that import
tailbayes from the checkout's ``src/``, run from the checkout's root."""

from __future__ import annotations

import os
import subprocess

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 150


def run_child(argv, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run(argv, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          **kwargs)
