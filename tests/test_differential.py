"""Generated queries answered through ``cli.main`` against independent checks.

The benchmark's seeded ``warm_small`` blocks reach every subcommand, and
each query carries a check that predicts its answer without the code under
test (``bench/oracle.py`` over ``tests/reference_models.py``).  Answers
come from sets and dicts of value records, so this also exercises record
equality and hashing end to end.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from longsol.cli import main

BENCH = str(Path(__file__).resolve().parent.parent / "bench")

sys.path.insert(0, BENCH)
try:
    import oracle
    import workloads
finally:
    sys.path.remove(BENCH)


def answer(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("seed", range(20))
def test_warm_small_block(seed, monkeypatch):
    for name in ("LONGSOL_DEPTH", "LONGSOL_INDEX_BOUND"):
        monkeypatch.delenv(name, raising=False)
    for q in workloads.block_warm_small(workloads.Gen(seed), smoke=True):
        rc, out = answer(q.json_argv())
        assert rc == 0, (q.argv, out)
        doc = json.loads(out)
        assert q.check(doc) is None, (q.argv, q.check(doc))
        if q.text:
            assert answer(q.argv) == (0, "\n".join(oracle.flatten(doc)) + "\n"), q.argv
