"""Golden transcript of the command line: exit code and exact stdout.

``cli_golden.json`` holds one entry per (environment, argv) pair of the
corpus below, with the exit code and the exact stdout of ``main(argv)``.
The corpus covers the README examples, the argvs of ``test_cli.py``, the
error branches of every handler (positivity, both work bounds at each
place they are checked, the ordinal nesting bound, error positions),
argparse failures, and the text format, each under every environment in
``ENVS``.  Argparse lists choices and missing flags in the order they were
registered, so the transcript pins that order too.

After a deliberate change of output, record the transcript again with
``PYTHONPATH=src python3 tests/test_cli_golden.py`` and review the diff.
The transcript is also replayed under each other interpreter on ``PATH``
by ``golden_replay.py``, which needs only the standard library.
"""

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest
from golden_replay import GOLDEN, bounds, call, differing, load

ENVS = (
    {},
    {"LONGSOL_DEPTH": "2"},
    {"LONGSOL_DEPTH": "zebra"},
    {"LONGSOL_INDEX_BOUND": "5"},
    {"LONGSOL_INDEX_BOUND": "0"},
)


def deep(depth):
    """An ordinal literal whose value has the given nesting depth."""
    return "w^(" * (depth - 1) + "1" + ")" * (depth - 1)


_README = [
    ["ord", "--expr", "w + w^2"],
    ["ord", "--a", "2", "--mul", "w"],
    ["classify", "--tower", "2", "--point", "[5]"],
    ["classify", "--long", "--point", "w1*(2)+1/2"],
    ["orbit", "--tower", "2", "--p", "2", "--x", "inf0; inf1", "--y", "inf0; inf0"],
    ["fiber", "--m", "2", "--n", "3", "--point", "inf1"],
    ["thread", "verify", "--p", "2,3", "--points", "inf0; inf1; inf3"],
    ["thread", "extend", "--p", "2,3", "--points", "inf0", "--levels", "2"],
    ["indecomp", "--pn", "2", "--n", "1", "--c-arc", "0..0+1/2",
     "--g-arc", "0+2/5..0+1/10"],
    ["chain-check", "--n", "1",
     "--arcs", "0..0+3/10,0+1/4..0+11/20,0+1/2..0+4/5,0+3/4..0+1/20"],
    ["cohomology", "invariant", "--s", "12:5"],
    ["cohomology", "equiv", "--a", ":2", "--b", "3:2"],
    ["cohomology", "member", "--s", ":2", "--r", "5/8"],
    ["cohomology", "sum", "--s", ":2,3", "--a", "5/6", "--b", "1/2"],
    ["cohomology", "degree", "--m", "3", "--n", "2"],
]

_TEST_CLI = [
    ["ord", "--a", "w", "--mul", "2"],
    ["ord", "--a", "w", "--cmp", "w+1"],
    ["ord", "--omega-pow", "2"],
    ["ord", "--a", "w"],
    ["ord", "--expr", "w", "--add", "1"],
    ["ord", "--expr", "w^"],
    ["ord", "--expr", "w+1"],
    ["classify", "--long", "--point", "w1*(2)"],
    ["classify", "--long", "--point", "w1*(2)+w*5+1/2"],
    ["classify", "--point", "[5]"],
    ["orbit", "--tower", "2", "--p", "2", "--x", "inf0", "--y", "(0| [3; w])"],
    ["orbit", "--long", "--p", "2", "--x", "inf0", "--y", "(0| w1*(2))"],
    ["orbit", "--tower", "2", "--p", "2", "--x", "(0| [3]); (0| [3])",
     "--y", "(0| [8]); (0| [8])"],
    ["fiber", "--m", "2", "--n", "1", "--long", "--point", "(0| w^2)"],
    ["fiber", "--m", "7", "--n", "7", "--point", "inf0"],
    ["fiber", "--m", "2", "--n", "3", "--point", "inf0"],
    ["thread", "verify", "--p", "2,3", "--points", "inf0; inf1; inf4"],
    ["thread", "verify", "--p", "2,3", "--points", "inf0; infX"],
    ["thread", "extend", "--p", "2", "--points", "inf0", "--levels", "2"],
    ["thread", "extend", "--p", "2", "--points", "inf0"],
    ["indecomp", "--pn", "2", "--n", "1", "--c-arc", "0..0+1/2",
     "--g-arc", "0+3/5..0+9/10"],
    ["chain-check", "--n", "1", "--arcs", "0..0+1/5,0+1/10..0+3/10,0+1/2..0+3/5"],
    ["cohomology", "equiv", "--a", ":2", "--b", ":3"],
    ["cohomology", "member", "--s", ":2", "--r", "1/3"],
    ["cohomology", "degree", "--m", "1", "--n", "1"],
    ["--format", "text", "classify", "--tower", "2", "--point", "[5]"],
    ["--format", "text", "cohomology", "invariant", "--s", "12:5"],
]

_ERRORS = [
    # ord: option combinations, parse errors, the nesting bound
    ["ord"],
    ["ord", "--omega-pow", "2", "--expr", "w"],
    ["ord", "--omega-pow", "2", "--add", "1"],
    ["ord", "--a", "w", "--add", "1", "--mul", "2"],
    ["ord", "--add", "1"],
    ["ord", "--a", "w", "--add", "w^(2"],
    ["ord", "--expr", "w + + 1"],
    ["ord", "--expr", deep(16)],
    ["ord", "--expr", deep(17)],
    ["ord", "--expr", deep(601)],
    ["ord", "--a", deep(30), "--mul", "w"],
    ["ord", "--a", deep(16), "--cmp", deep(15)],
    ["ord", "--omega-pow", deep(15)],
    ["ord", "--omega-pow", deep(16)],
    # classify: mode, error positions inside brackets, deep coordinates
    ["classify", "--tower", "0", "--point", "[5]"],
    ["classify", "--tower", "x", "--point", "[5]"],
    ["classify", "--tower", "2"],
    ["classify", "--tower", "2", "--long", "--point", "[5]"],
    ["classify", "--tower", "2", "--point", "[3)]"],
    ["classify", "--tower", "3", "--point", "   [1; w^(2]"],
    ["classify", "--long", "--point", "w + w1*(2)"],
    ["classify", "--long", "--point", "w1*(%s)" % deep(17)],
    ["classify", "--tower", "1", "--point", "[; %s]" % deep(17)],
    # orbit: mode, exponent positivity against the stage bound, depth bound
    ["orbit", "--tower", "2", "--p", "0", "--x", "inf0", "--y", "inf0"],
    ["orbit", "--tower", "2", "--p", "100,0", "--x", "inf0", "--y", "inf0"],
    ["orbit", "--tower", "2", "--p", "0,100", "--x", "inf0", "--y", "inf0"],
    ["orbit", "--tower", "2", "--p", "2,2,2,2,2,2", "--x", "inf0", "--y", "inf0"],
    ["orbit", "--tower", "2", "--p", "2,2,2,2,2", "--x", "inf0", "--y", "inf1"],
    ["orbit", "--tower", "2", "--p", "2,3", "--x", "inf0", "--y", "inf1"],
    ["orbit", "--p", "2", "--x", "inf0", "--y", "inf0"],
    ["orbit", "--tower", "0", "--p", "2", "--x", "inf0", "--y", "inf0"],
    ["orbit", "--tower", "2", "--p", "", "--x", "inf0", "--y", "inf0"],
    ["orbit", "--tower", "2", "--p", "2,,3", "--x", "inf0", "--y", "inf0"],
    ["orbit", "--tower", "2", "--x", "inf0", "--y", "inf0"],
    ["orbit", "--tower", "2"],
    ["orbit", "--long", "--p", "2", "--x", "inf0; inf1", "--y", "inf0; inf0"],
    ["orbit", "--tower", "2", "--long", "--p", "2", "--x", "inf0", "--y", "inf0"],
    # fiber: positivity before the stage bound, mode only for inner points
    ["fiber", "--m", "0", "--n", "3", "--point", "inf0"],
    ["fiber", "--m", "2", "--n", "0", "--point", "inf0"],
    ["fiber", "--m", "100", "--n", "0", "--point", "inf0"],
    ["fiber", "--m", "1", "--n", "5", "--point", "inf0"],
    ["fiber", "--m", "2", "--n", "3", "--point", "(0| [3])"],
    ["fiber", "--m", "2", "--n", "3", "--tower", "2", "--point", "(0| [3])"],
    ["fiber", "--m", "2", "--n", "3", "--tower", "0", "--point", "inf1"],
    ["fiber", "--m", "2", "--n", "3", "--tower", "0", "--point", "(0| [3])"],
    ["fiber", "--m", "2", "--n", "3", "--point", "inf9"],
    ["fiber", "--m", "2", "--n", "3"],
    # thread verify and extend
    ["thread", "verify", "--p", "0", "--points", "inf0"],
    ["thread", "verify", "--p", "100,0", "--points", "inf0"],
    ["thread", "verify", "--p", "0,100", "--points", "inf0"],
    ["thread", "verify", "--p", "2,3", "--tower", "0", "--points", "inf0"],
    ["thread", "verify", "--p", "2", "--tower", "2", "--long", "--points", "inf0"],
    ["thread", "verify", "--long", "--p", "2", "--points", "(0| w); (1| w)"],
    ["thread", "verify", "--tower", "2", "--p", "2", "--points", "(0| [3]); (1| [3])"],
    ["thread", "verify", "--p", "2", "--points", "(0| [3])"],
    ["thread", "verify", "--p", "2,2,2,2,2,2", "--points", "inf0"],
    ["thread", "verify", "--p", "2,2,2,2,2", "--points", "inf0"],
    ["thread", "extend", "--p", "2,3", "--points", "inf0", "--levels", "0"],
    ["thread", "extend", "--p", "2,3", "--points", "inf0; infX", "--levels", "0"],
    ["thread", "extend", "--p", "2,3", "--points", "inf0", "--levels", "x"],
    ["thread", "extend", "--p", "2,2,2,2,2", "--points", "inf0", "--levels", "5"],
    ["thread", "extend", "--p", "2,2,2,2,2", "--points", "inf0; inf0", "--levels", "5"],
    ["thread", "extend", "--p", "2,3", "--points", "inf0; inf1"],
    ["thread", "extend", "--long", "--p", "2,3", "--points", "(0| w)", "--levels", "2"],
    ["thread"],
    ["thread", "frob"],
    # indecomp and chain-check
    ["indecomp", "--pn", "2", "--n", "0", "--c-arc", "0..0+1/2", "--g-arc", "0..0+1/2"],
    ["indecomp", "--pn", "0", "--n", "1", "--c-arc", "0..0+1/2", "--g-arc", "0..0+1/2"],
    ["indecomp", "--pn", "0", "--n", "0", "--c-arc", "0..0+1/2", "--g-arc", "0..0+1/2"],
    ["indecomp", "--pn", "7", "--n", "7", "--c-arc", "0..0+1/2", "--g-arc", "0..0+1/2"],
    ["indecomp", "--pn", "3", "--n", "2", "--c-arc", "0..0+1/2", "--g-arc", "1..1+1/2"],
    ["indecomp", "--pn", "2", "--n", "1", "--c-arc", "0..x", "--g-arc", "0..0+1/2"],
    ["indecomp", "--pn", "2", "--n", "1", "--c-arc", "0..0+1/2"],
    ["chain-check", "--n", "0", "--arcs", "0..0+1/2"],
    ["chain-check", "--n", "1", "--arcs", "0..0+1/2,0+1/2..x"],
    ["chain-check", "--n", "1", "--arcs", ""],
    ["chain-check", "--n", "2", "--arcs", "0..1+1/2,(1..0"],
    # cohomology
    ["cohomology", "invariant", "--s", "12"],
    ["cohomology", "invariant", "--s", "2,x:3"],
    ["cohomology", "equiv", "--a", ":2", "--b", "x:2"],
    ["cohomology", "member", "--s", ":2", "--r", "x"],
    ["cohomology", "sum", "--s", ":2", "--a", "1/3", "--b", "1/2"],
    ["cohomology", "degree", "--m", "0", "--n", "2"],
    ["cohomology", "degree", "--m", "2", "--n", "0"],
    ["cohomology", "degree", "--m", "x", "--n", "1"],
    ["cohomology", "degree", "--m", "3"],
    ["cohomology"],
    ["cohomology", "frob"],
    # argparse: empty argv, choices, options, the text format
    [],
    ["frob"],
    ["--format", "xml", "ord", "--expr", "w"],
    ["--format", "text", "ord", "--expr", "w"],
    ["--format", "text", "thread", "extend", "--p", "2,3", "--points", "inf0",
     "--levels", "2"],
    ["--format", "text", "fiber", "--m", "7", "--n", "7", "--point", "inf0"],
    ["ord", "--expr", "w", "--zzz"],
    ["ord", "--expr"],
    # literals read ASCII digits only: ARABIC-INDIC DIGIT THREE and ONE
    ["ord", "--expr", "\u0663"],
    ["fiber", "--m", "2", "--n", "3", "--point", "inf\u0661"],
    # and so do integer flags: no other script's digits, underscores or '+'
    ["fiber", "--m", "\u0663", "--n", "1", "--point", "inf0"],
    ["fiber", "--m", "1_0", "--n", "1", "--point", "inf0"],
    ["fiber", "--m", "+2", "--n", "1", "--point", "inf0"],
]

# answers no other entry reaches: hats that are mappings (a level-1 base
# pair, a base pair under a top shift, a depth-2 stop pair, a long-line
# same-block pair), the long-line distinctness verdicts, direct-limit sums
# whose canonical level is above 0, a '|' inside the brackets of a
# stage-point literal, and a stray --a beside --expr or --omega-pow
_PINNED = [
    ["orbit", "--tower", "1", "--p", "2", "--x", "(0| [; w]); (1| [; w])",
     "--y", "(0| [; w*2+1/2]); (0| [; w*2+1/2])"],
    ["orbit", "--tower", "2", "--p", "2", "--x", "(0| [3; w]); (0| [3; w])",
     "--y", "(0| [5; w+1]); (1| [5; w+1])"],
    ["orbit", "--tower", "3", "--p", "2,3", "--x",
     "(0| [1,2]); (1| [1,2]); (3| [1,2])",
     "--y", "(0| [4,7]); (0| [4,7]); (2| [4,7])"],
    ["orbit", "--long", "--p", "2", "--x", "(0| w1*(1)+w); (1| w1*(1)+w)",
     "--y", "(0| w1*(1)+1/3); (0| w1*(1)+1/3)"],
    ["orbit", "--long", "--p", "2", "--x", "(0| w1*(w))", "--y", "(0| w1*(w^2))"],
    ["orbit", "--long", "--p", "2", "--x", "(0| w1*(2)); (0| w1*(2))",
     "--y", "(0| w1*(3)); (1| w1*(3))"],
    ["cohomology", "sum", "--s", ":2", "--a", "1/4", "--b", "1/4"],
    ["cohomology", "sum", "--s", "3:2,5", "--a", "1/6", "--b", "1/10"],
    ["fiber", "--m", "2", "--n", "3", "--tower", "2", "--point", "([1|2])"],
    ["fiber", "--m", "2", "--n", "3", "--tower", "2", "--point", "(1)|(2)"],
    ["fiber", "--m", "2", "--n", "3", "--tower", "2", "--point", "([1|2]| [3])"],
    ["ord", "--expr", "w", "--a", "3"],
    ["ord", "--omega-pow", "2", "--a", "3"],
]

# fibers and thread extensions printed from an inner coordinate's template:
# tower and long inners near the default stage bound, a one-point fiber,
# both formats, extensions over three levels
_LISTINGS = [
    ["fiber", "--m", "6", "--n", "8", "--tower", "3",
     "--point", "(5| [1,-2; w^2*3+1/2])"],
    ["fiber", "--m", "4", "--n", "12", "--long",
     "--point", "(7| w1*(w+1)+w^2*3+1/3)"],
    ["fiber", "--m", "1", "--n", "3", "--tower", "1", "--point", "(2| [; w*2])"],
    ["--format", "text", "fiber", "--m", "3", "--n", "4", "--tower", "2",
     "--point", "(2| [3; w+1/4])"],
    ["--format", "text", "thread", "extend", "--long", "--p", "2,3,2",
     "--points", "(0| w1*(2)+1/2)", "--levels", "3"],
    ["thread", "extend", "--tower", "3", "--p", "2,2,3,2",
     "--points", "(0| [1,-2; w^2+1/4]); (1| [1,-2; w^2+1/4])", "--levels", "3"],
]

# parse errors no other entry reaches: a stage point that is neither a joint
# nor a bracketed copy, an arc end with two fractions, a long-line point with
# two unit offsets, an omega_1 block in a tower coordinate, a block count
# without its closing parenthesis, and text after a complete point
_RAISES = [
    ["fiber", "--m", "2", "--n", "3", "--tower", "2", "--point", "x"],
    ["indecomp", "--pn", "2", "--n", "1", "--c-arc", "0+1/2+1/3..0+1/4",
     "--g-arc", "0+1/5..0+1/10"],
    ["classify", "--long", "--point", "w1*(2)+1/2+1/3"],
    ["classify", "--tower", "1", "--point", "[;w1*(2)]"],
    ["classify", "--long", "--point", "w1*(2)x"],
    ["classify", "--long", "--point", "1/2x"],
]

ARGVS = _README + _TEST_CLI + _ERRORS + _PINNED + _LISTINGS + _RAISES


def transcript(env):
    with bounds(env):
        entries = []
        for argv in ARGVS:
            code, stdout = call(argv)
            entries.append({"env": env, "argv": argv, "code": code, "stdout": stdout})
        return entries


def test_golden_covers_the_corpus():
    assert [(e["env"], e["argv"]) for e in load()] == [
        (env, argv) for env in ENVS for argv in ARGVS
    ]


@pytest.mark.parametrize("env", ENVS, ids=lambda env: ",".join(
    "%s=%s" % item for item in env.items()) or "default")
def test_golden_transcript(env):
    diffs = differing([e for e in load() if e["env"] == env])
    assert not diffs, _report(diffs)


def _report(diffs):
    return "\n".join("%s\n  want %r\n  got  %r" % (" ".join(d["argv"])[:120], *d["outcomes"])
                     for d in diffs)


REPLAY = Path(__file__).with_name("golden_replay.py")


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_golden_transcript_under_other_interpreters(python):
    path = shutil.which(python)
    if path is None:
        pytest.skip("no %s on PATH" % python)
    # a pyenv shim is on PATH even where no installed version provides the
    # name, and then exits with "command not found"
    ran = subprocess.run([path, "--version"], capture_output=True, text=True, timeout=60)
    if ran.returncode != 0:
        pytest.skip("%s --version exits %d" % (python, ran.returncode))
    env = {k: v for k, v in os.environ.items() if not k.startswith("LONGSOL_")}
    env.update(PYTHONPATH=str(REPLAY.parents[1] / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([path, str(REPLAY)], capture_output=True, text=True,
                          env=env, timeout=300)
    version = (ran.stdout or ran.stderr).strip()
    assert done.stdout, "%s (%s) failed:\n%s" % (python, version, done.stderr)
    report = json.loads(done.stdout)
    diffs = report["differing"]
    assert not diffs, "%s (%s): %d of %d entries differ\n%s" % (
        python, report["version"], len(diffs), report["entries"], _report(diffs[:3]))


if __name__ == "__main__":
    entries = [entry for env in ENVS for entry in transcript(env)]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print("%d entries -> %s" % (len(entries), GOLDEN))
