"""Generated queries answered through ``cli.main`` against independent checks.

The benchmark's seeded ``warm_small`` blocks reach every subcommand, and
the smoke blocks of ``verify_large`` and ``enumerate_large`` run deep
orbits, thread checks and extensions under those workloads' raised bounds.
Each query carries a check that predicts its answer without the code under
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
from hypothesis import given, settings, strategies as st

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


def check_smoke_block(name, seed):
    workload = workloads.WORKLOADS[name]
    with pytest.MonkeyPatch.context() as monkeypatch:
        for bound in ("LONGSOL_DEPTH", "LONGSOL_INDEX_BOUND"):
            monkeypatch.delenv(bound, raising=False)
        for bound, value in workload.env.items():
            monkeypatch.setenv(bound, value)
        for q in workload.block(workloads.Gen(seed), smoke=True):
            rc, out = answer(q.json_argv())
            assert rc == 0, (q.argv, out)
            doc = json.loads(out)
            assert q.check(doc) is None, (q.argv, q.check(doc))
            if q.text:
                assert answer(q.argv) == (0, "\n".join(oracle.flatten(doc)) + "\n"), q.argv


@pytest.mark.parametrize("seed", range(20))
def test_warm_small_block(seed):
    check_smoke_block("warm_small", seed)


# top stages up to 4096: recipes, addresses and tower points built at scale
@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("name", ["verify_large", "enumerate_large"])
def test_large_block(name, seed):
    check_smoke_block(name, seed)


# the fixed seeds above stay; Hypothesis draws more from the whole 32-bit
# range (it refuses function-scoped fixtures, so each block sets its bounds
# in its own MonkeyPatch context)
@pytest.mark.parametrize("name", ["warm_small", "verify_large", "enumerate_large"])
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_drawn_block(name, seed):
    check_smoke_block(name, seed)
