"""The comparison tool in ``tools/`` runs, and counts one tree alike twice.

``tools/ab_workers.py`` compares two trees by CPU time and by bytecode
instructions.  Given the same tree on both sides (an A/A run) it must
find no differing output, and its instruction counts, taken under a fixed
``PYTHONHASHSEED``, must be equal on every subcommand: the count is
meant to be the instrument that does not move between two runs of one
tree.  On ``cli_cold`` it runs a fresh interpreter per query and side.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_ab_workers_counts_one_tree_alike():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_workers.py"), str(ROOT), str(ROOT),
         "--workload", "warm_small", "--blocks", "1", "--passes", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "differing outputs: 0"
    sizes = next(line for line in lines if line.startswith("src/longsol/*.py lines:"))
    old, new = sizes.split(":")[1].split(",")
    assert old.split()[-1] == new.split()[-1], sizes
    header = next(i for i, line in enumerate(lines) if line.startswith("subcommand"))
    rows = lines[header + 1:-1]
    assert rows and rows[-1].startswith("total")
    assert [row.split()[-1] for row in rows] == ["1.000"] * len(rows), run.stdout


def test_ab_workers_reads_argvs_from_a_file(tmp_path):
    # an argv file reaches what no workload sends: errors, help, no argv
    argvs = tmp_path / "argvs.json"
    argvs.write_text(json.dumps([["ord", "--expr=--"], ["fiber", "--m", "x"], ["-h"],
                                 ["thread", "extend", "-h"], [], ["ord", "--expr", "w"]]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_workers.py"), str(ROOT), str(ROOT),
         "--workload", "warm_small", "--passes", "1", "--argvs", str(argvs)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("6 queries x 1 passes")
    assert lines[-1] == "differing outputs: 0"
    header = next(i for i, line in enumerate(lines) if line.startswith("subcommand"))
    assert {line.split()[0] for line in lines[header + 1:-1]} == {
        "ord", "fiber", "(none)", "thread", "total"}


def test_ab_workers_times_fresh_interpreters_alike():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_workers.py"), str(ROOT), str(ROOT),
         "--workload", "cli_cold", "--blocks", "1", "--passes", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    queries = int(lines[0].split()[0])
    assert lines[0].endswith("cli_cold, seed 1") and queries > 0
    assert lines[2].endswith("no instruction count is taken")
    assert lines[-1] == "differing outputs: 0"
    header = next(i for i, line in enumerate(lines) if line.startswith("subcommand"))
    total = lines[-2].split()
    assert total[:2] == ["total", str(queries)]
    assert len(lines[header + 1:-1]) > 2


@pytest.mark.parametrize("argv, leaf", [
    (["thread", "extend", "--p", "2", "--points", "inf0"], "thread extend"),
    (["--format", "text", "thread", "extend", "--p", "2"], "thread extend"),
    (["--format=text", "thread", "extend", "--p", "2"], "thread extend"),
    (["--format=text", "fiber", "--m", "8"], "fiber"),
    ([], "(none)"),
    (["--format"], "(none)"),
])
def test_subcommand_skips_a_leading_format(argv, leaf):
    spec = importlib.util.spec_from_file_location("ab_workers", ROOT / "tools" / "ab_workers.py")
    ab_workers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_workers)
    assert ab_workers.subcommand(argv) == leaf
