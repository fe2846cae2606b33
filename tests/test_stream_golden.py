"""A seeded stream through all 12 cells, compared bit for bit with a record.

tests/data/stream_golden.json holds, as float hex, what the stream gave
when it was written: statistics, posterior and predictive fields, the
support report, the holdout score, log_pdf/pdf/cdf on a grid across each
support edge and quantiles, as arrays and as scalars.  Changes that are
meant to keep every value compare equal here; a change that moves values
on purpose regenerates the file with tests/data/make_stream_golden.py and
says so.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_stream_golden", DATA / "make_stream_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stream_matches_golden_bit_for_bit():
    gen = _generator()
    want = json.loads(gen.GOLDEN.read_text())
    got = gen.build()
    moved = gen.moved(want, got)
    assert not moved, f"{len(moved)} value(s) moved, first: {moved[:5]}"
    assert got == want
    assert len(got["cells"]) == 12


def test_recorded_scalars_equal_their_array_values():
    # a scalar is evaluated as a one-point array, so each grid point has
    # one value, alone or inside the grid
    record = json.loads(_generator().GOLDEN.read_text())
    compared, unequal = 0, []
    for cell, steps in record["cells"].items():
        for i, step in enumerate(steps):
            for method in ("log_pdf", "pdf", "cdf"):
                together, alone = step[method], step["scalar"][method]
                assert len(alone) == len(together) == len(step["grid"])
                compared += len(alone)
                unequal += [f"{cell}[{i}].{method}[{j}]"
                            for j, (a, b) in enumerate(zip(together, alone)) if a != b]
    assert compared == 3483
    assert not unequal, unequal
