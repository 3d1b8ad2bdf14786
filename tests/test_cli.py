"""End-to-end checks of the command line layer and its JSON contract."""

import argparse
import importlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from fractions import Fraction as F
from io import StringIO
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from golden_replay import BOUNDS, bounds, call, differing, load
from reference_models import (
    ref_extension_threads,
    ref_fiber_points,
    ref_parse_args,
    ref_render,
)
from test_cli_golden import _README, ARGVS

from longsol import (
    ZERO,
    LongSolError,
    Address,
    LongPoint,
    StagePoint,
    Thread,
    TowerPoint,
    add,
    extend_thread,
    fiber,
    nat,
    omega_pow,
)
from longsol import cli
from longsol.cli import (
    COMMANDS,
    OPERATION_COVERAGE,
    _decimal,
    _Listing,
    _read_args,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_text(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.rstrip("\n").split("\n")


def test_ord(capsys):
    assert run(capsys, "ord", "--expr", "w + w^2") == (0, {"normal": "w^2"})
    assert run(capsys, "ord", "--a", "2", "--mul", "w") == (0, {"result": "w"})
    assert run(capsys, "ord", "--a", "w", "--mul", "2") == (0, {"result": "w*2"})
    assert run(capsys, "ord", "--a", "w", "--cmp", "w+1") == (0, {"order": "less"})
    assert run(capsys, "ord", "--omega-pow", "2") == (0, {"result": "w^2"})
    code, doc = run(capsys, "ord", "--a", "w")
    assert code == 1
    assert doc["error"]["code"] == "bad-command"
    code, doc = run(capsys, "ord", "--expr", "w", "--add", "1")
    assert code == 1


def test_classify(capsys):
    assert run(capsys, "classify", "--tower", "2", "--point", "[5]") == (
        0,
        {"kappa": 2, "type": 2},
    )
    assert run(capsys, "classify", "--long", "--point", "w1*(2)") == (
        0,
        {"class": "ng", "gamma": "2"},
    )
    code, doc = run(capsys, "classify", "--long", "--point", "w1*(2)+w*5+1/2")
    assert (code, doc) == (0, {"class": "interval", "gamma": "2"})
    code, doc = run(capsys, "classify", "--point", "[5]")
    assert code == 1
    assert doc["error"]["code"] == "bad-command"


def test_orbit_rotation(capsys):
    code, doc = run(
        capsys, "orbit", "--tower", "2", "--p", "2",
        "--x", "inf0; inf1", "--y", "inf0; inf0",
    )
    assert code == 0
    assert doc["status"] == "recipe"
    assert doc["verified"] is True
    assert doc["maps_x_to_y"] is True
    assert [lvl["rot"] for lvl in doc["recipe"]] == [0, 1]


def test_orbit_verdicts(capsys):
    code, doc = run(
        capsys, "orbit", "--tower", "2", "--p", "2",
        "--x", "inf0", "--y", "(0| [3; w])",
    )
    assert (code, doc) == (0, {"status": "proven_distinct"})
    code, doc = run(
        capsys, "orbit", "--long", "--p", "2",
        "--x", "inf0", "--y", "(0| w1*(2))",
    )
    assert (code, doc) == (0, {"status": "unknown"})


CENSUS_RHOS = [ZERO, nat(1), nat(4), omega_pow(nat(1)), add(omega_pow(nat(1)), nat(1)),
               omega_pow(nat(2))]


@st.composite
def census_inners(draw, kappa, kind):
    """An inner point of the given type on the level-kappa tower, in the
    shapes of ``test_acceptance._tower_point_of_type``: type 1 a base,
    type t from 2 to kappa an integer stop at depth kappa + 1 - t, and
    type kappa + 1 the joint (None)."""
    if kind == kappa + 1:
        return None
    length = kappa - 1 if kind == 1 else kappa + 1 - kind
    ints = tuple(draw(st.lists(st.integers(-6, 6), min_size=length, max_size=length)))
    if kind > 1:
        return TowerPoint(kappa, Address(ints))
    rho = draw(st.sampled_from(CENSUS_RHOS))
    frac = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3)] + [F(0)] * (rho != ZERO)))
    return TowerPoint(kappa, Address(ints, rho, frac))


@st.composite
def censuses(draw):
    """(kappa, p, [(type, thread)]): two threads of each of the kappa + 1
    point types, at depth len(p) + 1 with a drawn top index each."""
    kappa = draw(st.integers(1, 4))
    p = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2)))
    threads = []
    for kind in range(1, kappa + 2):
        for _ in range(2):
            inner = draw(census_inners(kappa, kind))
            top = draw(st.integers(0, prod(p) - 1))
            sizes = [prod(p[:level]) for level in range(len(p) + 1)]
            threads.append((kind, Thread(p, tuple(StagePoint(n, top % n, inner)
                                                  for n in sizes))))
    return kappa, p, threads


@settings(max_examples=50, deadline=None)
@given(censuses())
def test_orbit_census_counts_kappa_plus_one_classes(census):
    # the paper's count through cli.main: within a type every pair is a
    # verified recipe, across types every pair is proven distinct, so the
    # verdicts split the threads into exactly kappa + 1 classes
    kappa, p, threads = census
    same = {}
    with bounds({}):
        for (i, (_, x)), (j, (_, y)) in itertools.combinations(enumerate(threads), 2):
            code, out = call(["orbit", "--tower", str(kappa), "--p", ",".join(map(str, p)),
                              "--x", str(x), "--y", str(y)])
            doc = json.loads(out)
            same[i, j] = doc.get("status") == "recipe"
            if same[i, j]:
                assert (code, doc["verified"], doc["maps_x_to_y"]) == (0, True, True), (x, y)
            else:
                assert (code, doc) == (0, {"status": "proven_distinct"}), (x, y)
    # each thread joins the class of the first earlier thread it has a
    # recipe with; the verdicts partition the threads when every pair
    # within a class has a recipe and no pair across classes does
    home = []
    for j in range(len(threads)):
        home.append(next((home[i] for i in range(j) if same[i, j]), j))
    assert all(same[i, j] == (home[i] == home[j]) for i, j in same)
    assert len(set(home)) == kappa + 1
    assert all((home[i] == home[j]) == (threads[i][0] == threads[j][0]) for i, j in same)


def test_orbit_translation_recipe(capsys):
    code, doc = run(
        capsys, "orbit", "--tower", "2", "--p", "2",
        "--x", "(0| [3]); (0| [3])", "--y", "(0| [8]); (0| [8])",
    )
    assert code == 0
    assert doc["status"] == "recipe"
    assert doc["verified"] is True
    assert all(lvl["trans"] == 5 for lvl in doc["recipe"])


def test_fiber(capsys):
    assert run(capsys, "fiber", "--m", "2", "--n", "3", "--point", "inf1") == (
        0,
        {"stage": 6, "points": ["inf1", "inf4"]},
    )
    code, doc = run(
        capsys, "fiber", "--m", "2", "--n", "1", "--long",
        "--point", "(0| w^2)",
    )
    assert (code, doc) == (0, {"stage": 2, "points": ["(0| w^2)", "(1| w^2)"]})
    code, doc = run(capsys, "fiber", "--m", "7", "--n", "7", "--point", "inf0")
    assert code == 1
    assert "LONGSOL_INDEX_BOUND" in doc["error"]["message"]


def test_thread_verify(capsys):
    code, doc = run(
        capsys, "thread", "verify", "--p", "2,3", "--points", "inf0; inf1; inf3"
    )
    assert (code, doc) == (0, {"valid": True, "depth": 3, "top_stage": 6})
    code, doc = run(
        capsys, "thread", "verify", "--p", "2,3", "--points", "inf0; inf1; inf4"
    )
    assert code == 0
    assert doc["valid"] is False
    assert "bond" in doc["reason"]
    code, doc = run(
        capsys, "thread", "verify", "--p", "2,3", "--points", "inf0; infX"
    )
    assert code == 1
    assert doc["error"]["code"] == "parse-error"
    assert doc["error"]["position"] == 6


def test_exponent_one_is_a_bonding_exponent(capsys):
    # the CLI, threads and recipes all take any positive exponent
    code, doc = run(capsys, "thread", "verify", "--p", "1", "--points", "inf0; inf0")
    assert (code, doc) == (0, {"valid": True, "depth": 2, "top_stage": 1})
    code, doc = run(capsys, "orbit", "--tower", "2", "--p", "1,2",
                    "--x", "inf0; inf0; inf1", "--y", "inf0")
    assert (code, doc["error"]["code"]) == (1, "thread-mismatch")  # depths differ
    code, doc = run(capsys, "orbit", "--tower", "2", "--p", "1,2",
                    "--x", "inf0; inf0; inf1", "--y", "inf0; inf0; inf0")
    assert code == 0
    assert (doc["status"], doc["verified"], doc["maps_x_to_y"]) == ("recipe", True, True)
    assert [level["rot"] for level in doc["recipe"]] == [0, 0, 1]


def test_thread_verify_reports_bound_errors(capsys):
    # a representation bound says nothing about validity: exit 1 with the
    # position, as in every other subcommand
    deep = "w^(" * 16 + "1" + ")" * 16
    for argv, position in [
        (["--points", "inf0; inf" + LONG], 6),
        (["--long", "--points", "(0| %s); (1| %s)" % (deep, deep)], 4 + 45),
    ]:
        code, doc = run(capsys, "thread", "verify", "--p", "2", *argv)
        assert code == 1
        assert doc["error"]["code"] == OVERFLOW
        assert doc["error"]["position"] == position


def test_thread_extend(capsys):
    code, doc = run(
        capsys, "thread", "extend", "--p", "2,3", "--points", "inf0",
        "--levels", "2",
    )
    assert code == 0
    assert doc["count"] == 6
    assert len(doc["threads"]) == 6
    assert doc["threads"][0] == "inf0; inf0; inf0"
    code, doc = run(
        capsys, "thread", "extend", "--p", "2", "--points", "inf0",
        "--levels", "2",
    )
    assert code == 1
    assert doc["error"]["code"] == "domain-error"


def test_depth_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("LONGSOL_DEPTH", "2")
    code, doc = run(
        capsys, "thread", "extend", "--p", "2,3", "--points", "inf0",
        "--levels", "2",
    )
    assert code == 1
    assert "LONGSOL_DEPTH" in doc["error"]["message"]
    monkeypatch.setenv("LONGSOL_DEPTH", "zebra")
    code, doc = run(capsys, "thread", "extend", "--p", "2", "--points", "inf0")
    assert code == 1
    assert doc["error"]["code"] == "bad-command"


def test_index_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("LONGSOL_INDEX_BOUND", "5")
    code, doc = run(capsys, "fiber", "--m", "2", "--n", "3", "--point", "inf0")
    assert code == 1
    assert "exceeds" in doc["error"]["message"]


@pytest.mark.parametrize("value", [" \u0669", "1_0", "+9", "", "9" * 4301])
def test_bound_env_reads_ascii_integers(capsys, monkeypatch, value):
    # a bound is read by the rule of every integer literal, not by int()
    monkeypatch.setenv("LONGSOL_INDEX_BOUND", value)
    assert run(capsys, "fiber", "--m", "2", "--n", "1", "--point", "inf0") == (
        1, {"error": {"code": "bad-command",
                      "message": "LONGSOL_INDEX_BOUND must be an integer"}})
    monkeypatch.setenv("LONGSOL_INDEX_BOUND", " 9 ")
    assert run(capsys, "fiber", "--m", "9", "--n", "1", "--point", "inf0")[0] == 0


BOTH_BOUNDS = {"LONGSOL_INDEX_BOUND": 1, "LONGSOL_DEPTH": 1}


@pytest.mark.parametrize("argv, reads", [
    (["orbit", "--tower", "1", "--p", "2,2,2,2,2",
      "--x", "inf0; inf0; inf0; inf0; inf0; inf0",
      "--y", "inf0; inf1; inf3; inf7; inf15; inf31"], BOTH_BOUNDS),
    (["thread", "extend", "--p", "2,3", "--points", "inf0", "--levels", "2"],
     BOTH_BOUNDS),
    (["fiber", "--m", "2", "--n", "3", "--point", "inf1"],
     {"LONGSOL_INDEX_BOUND": 1}),
    (["ord", "--expr", "w + 1"], {}),
], ids=["orbit", "thread-extend", "fiber", "ord"])
def test_each_bound_is_read_at_most_once_per_call(capsys, monkeypatch, argv, reads):
    # a bound is read at its first check and kept for the rest of the call;
    # a subcommand that checks no bound reads none
    counted, get = {}, os.environ.get

    def counting_get(name, default=None):
        if name.startswith("LONGSOL_"):
            counted[name] = counted.get(name, 0) + 1
        return get(name, default)

    monkeypatch.setattr(os.environ, "get", counting_get)
    assert main(argv) == 0
    capsys.readouterr()
    assert counted == reads


def test_bounds_are_read_afresh_by_each_call(capsys, monkeypatch):
    fiber6 = ("fiber", "--m", "2", "--n", "3", "--point", "inf1")
    over = (1, {"error": {"code": "bad-command",
                          "message": "stage size 6 exceeds LONGSOL_INDEX_BOUND=5"}})
    monkeypatch.setenv("LONGSOL_INDEX_BOUND", "5")
    assert run(capsys, *fiber6) == over
    monkeypatch.setenv("LONGSOL_INDEX_BOUND", "6")
    assert run(capsys, *fiber6)[0] == 0
    monkeypatch.setenv("LONGSOL_INDEX_BOUND", "5")
    assert run(capsys, *fiber6) == over
    monkeypatch.setenv("LONGSOL_INDEX_BOUND", "zebra")
    assert run(capsys, *fiber6)[1]["error"]["message"] == (
        "LONGSOL_INDEX_BOUND must be an integer")
    monkeypatch.delenv("LONGSOL_INDEX_BOUND")
    assert run(capsys, *fiber6)[0] == 0


def test_indecomp(capsys):
    code, doc = run(
        capsys, "indecomp", "--pn", "2", "--n", "1",
        "--c-arc", "0..0+1/2", "--g-arc", "0+2/5..0+1/10",
    )
    assert code == 0
    assert doc["witness"] is True
    assert doc["c_components"] == ["0..0+1/2", "1..1+1/2"]
    assert doc["c_separators"] == ["0+3/4", "1+3/4"]
    assert len(doc["uncovered"]) == 4
    code, doc = run(
        capsys, "indecomp", "--pn", "2", "--n", "1",
        "--c-arc", "0..0+1/2", "--g-arc", "0+3/5..0+9/10",
    )
    assert code == 1
    assert doc["error"]["code"] == "invalid-witness-input"


def test_chain_check(capsys):
    arcs = "0..0+3/10,0+1/4..0+11/20,0+1/2..0+4/5,0+3/4..0+1/20"
    assert run(capsys, "chain-check", "--n", "1", "--arcs", arcs) == (
        0,
        {"circular": True},
    )
    code, doc = run(
        capsys, "chain-check", "--n", "1",
        "--arcs", "0..0+1/5,0+1/10..0+3/10,0+1/2..0+3/5",
    )
    assert (code, doc) == (0, {"circular": False})


def test_cohomology(capsys):
    assert run(capsys, "cohomology", "invariant", "--s", "12:5") == (
        0,
        {"finite": {"2": 2, "3": 1}, "infinite": [5]},
    )
    assert run(capsys, "cohomology", "equiv", "--a", ":2", "--b", "3:2") == (
        0,
        {"equivalent": True},
    )
    assert run(capsys, "cohomology", "equiv", "--a", ":2", "--b", ":3") == (
        0,
        {"equivalent": False},
    )
    assert run(capsys, "cohomology", "member", "--s", ":2", "--r", "5/8") == (
        0,
        {"member": True},
    )
    assert run(capsys, "cohomology", "member", "--s", ":2", "--r", "1/3") == (
        0,
        {"member": False},
    )
    assert run(
        capsys, "cohomology", "sum", "--s", ":2,3", "--a", "5/6", "--b", "1/2"
    ) == (0, {"level": 2, "numerator": 8, "value": "4/3"})
    assert run(capsys, "cohomology", "degree", "--m", "3", "--n", "2") == (
        0,
        {"degree": 3},
    )


def _answer(*argv):
    """The JSON answer of a call that must succeed."""
    code, out = call(argv)
    assert code == 0, (argv, out)
    return json.loads(out)


def _descriptor(prefix, cycle):
    return "%s:%s" % (",".join(map(str, prefix)), ",".join(map(str, cycle)))


bond_lists = st.lists(st.integers(2, 40), max_size=3)
bond_cycles = st.lists(st.integers(2, 40), min_size=1, max_size=3)


@st.composite
def group_elements(draw, prefix, cycle):
    """A numerator over the product of the first few bonding entries."""
    level = draw(st.integers(0, 6))
    entries = (prefix + cycle * level)[:level]
    return F(draw(st.integers(-60, 60)), prod(entries))


@given(st.data(), bond_lists, bond_cycles)
def test_member_is_closed_under_sum_and_negation(data, prefix, cycle):
    # values go as --r=VALUE: "--r -24/5" would read -24/5 as a flag
    s = _descriptor(prefix, cycle)
    a = data.draw(group_elements(prefix, cycle))
    b = data.draw(group_elements(prefix, cycle))
    for r in (a, -a):
        assert _answer("cohomology", "member", "--s", s, "--r=%s" % r) == {"member": True}
    value = _answer("cohomology", "sum", "--s", s, "--a=%s" % a, "--b=%s" % b)["value"]
    assert F(value) == a + b
    assert _answer("cohomology", "member", "--s", s, "--r=" + value) == {"member": True}


@given(bond_lists, bond_lists, bond_cycles, st.integers(0, 2))
def test_invariant_keeps_its_infinite_part(prefix, other, cycle, turn):
    # a changed finite prefix, or a rotated cycle, keeps the cycle's primes
    def infinite(prefix, cycle):
        return _answer("cohomology", "invariant", "--s", _descriptor(prefix, cycle))["infinite"]

    rotated = cycle[turn % len(cycle):] + cycle[:turn % len(cycle)]
    want = infinite(prefix, cycle)
    assert infinite(other, cycle) == want
    assert infinite(prefix, rotated) == want


def test_cohomology_large_numbers(capsys):
    # past the exact primality range (about 3.3e24), found factors prove it
    for base, exponent in ((1009, 12), (17, 30)):
        argv = ["cohomology", "invariant", "--s", ":%d" % base**exponent]
        assert run(capsys, *argv) == (0, {"finite": {}, "infinite": [base]})
    # about 4200 digits, answered by trial division before: a prime below
    # the gcd cut, a perfect power above it, and a mixed prefix
    for base, exponent in ((999983, 700), (9999991, 600)):
        argv = ["cohomology", "invariant", "--s", ":%d" % base**exponent]
        assert run(capsys, *argv) == (0, {"finite": {}, "infinite": [base]})
    argv = ["cohomology", "invariant", "--s", "%d:2" % (999983**699 * 1000003)]
    assert run(capsys, *argv) == (
        0, {"finite": {"999983": 699, "1000003": 1}, "infinite": [2]},
    )
    prime = 10**18 + 3
    assert run(capsys, "cohomology", "invariant", "--s", ":%d" % prime) == (
        0, {"finite": {}, "infinite": [prime]},
    )
    assert run(capsys, "cohomology", "member", "--s", ":2", "--r", "1/%d" % prime) == (
        0, {"member": False},
    )
    code, doc = run(
        capsys, "cohomology", "sum", "--s", ":2", "--a", "1/%d" % 2**3000, "--b", "1/2"
    )
    assert (code, doc["level"], doc["numerator"]) == (0, 3000, 2**2999 + 1)
    # a 25-digit probable prime past that range, and a semiprime inside it
    # whose factors rho does not reach within its budget: never a guess
    for n in (4000000000000000000000027, 1000000000039 * 2000000000003):
        start = time.perf_counter()
        code, doc = run(capsys, "cohomology", "invariant", "--s", ":%d" % n)
        assert time.perf_counter() - start < 2
        assert (code, doc["error"]["code"]) == (1, "representation-overflow")
        assert "%d-bit cofactor" % n.bit_length() in doc["error"]["message"]


def test_cohomology_factoring_work_is_bounded(capsys):
    # eight 4200-digit entries: the gcd pass of each counts against the rho
    # budget, so distinct ones overflow within it, and equal ones are
    # factored once
    powers = [p**700 for p in (999907, 999917, 999931, 999953, 999959, 999961,
                               999979, 999983)]
    for entries, want in [
        (powers, (1, "representation-overflow")),
        (powers[-1:] * 8, (0, {"finite": {}, "infinite": [999983]})),
    ]:
        start = time.perf_counter()
        code, doc = run(capsys, "cohomology", "invariant", "--s",
                        ":" + ",".join(map(str, entries)))
        assert time.perf_counter() - start < 1.5
        assert (code, doc["error"]["code"] if code else doc) == want


def test_parse_error_contract(capsys):
    code, doc = run(capsys, "ord", "--expr", "w^")
    assert code == 1
    assert doc == {
        "error": {
            "code": "parse-error",
            "message": "expected an exponent",
            "position": 2,
        }
    }


LONG = "7" * 5001
OVERFLOW, PARSE = "representation-overflow", "parse-error"


def test_positioned_integer_errors(capsys):
    # integer literals that int() would refuse: too many digits, or digits
    # that are not decimal; each is a positioned error, never exit 2
    for argv, code, position in [
        (["classify", "--tower", "2", "--point", "[%s]" % LONG], OVERFLOW, 1),
        (["cohomology", "invariant", "--s", "%s:2" % LONG], OVERFLOW, 0),
        (["ord", "--expr", LONG], OVERFLOW, 0),
        (["thread", "verify", "--p", LONG, "--points", "inf0"], OVERFLOW, 0),
        (["fiber", "--m", "2", "--n", "1", "--point", "inf" + LONG], OVERFLOW, 0),
        (["ord", "--expr", "\u00b2"], PARSE, 0),
        (["fiber", "--m", "2", "--n", "1", "--point", "inf\u00b2"], PARSE, 0),
        (["thread", "verify", "--p", "2,\u00b3", "--points", "inf0"], PARSE, 2),
        (["cohomology", "invariant", "--s", ":1\u00b2"], PARSE, 1),
        (["chain-check", "--n", "1", "--arcs", "0..0+ x/2"], PARSE, 6),
    ]:
        status, doc = run(capsys, *argv)
        assert status == 1, argv[:2]
        assert doc["error"]["code"] == code, argv[:2]
        assert doc["error"]["position"] == position, argv[:2]


def test_closed_stdout_exits_quietly():
    # far more output than a pipe buffers; the reader leaves after 10 bytes
    env = dict(os.environ, LONGSOL_DEPTH="13", LONGSOL_INDEX_BOUND="4096")
    argv = ["thread", "extend", "--p", ",".join(["2"] * 12), "--points", "inf0",
            "--levels", "12"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "longsol", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{"count": '
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (1, b"")


def test_ordinal_nesting_bound(capsys):
    deep = "w^(" * 599 + "1" + ")" * 599
    deep30 = "w^(" * 29 + "1" + ")" * 29
    for argv in (["ord", "--expr", deep], ["ord", "--a", deep30, "--mul", "w"]):
        code, doc = run(capsys, *argv)
        assert code == 1
        assert doc["error"]["code"] == "representation-overflow"
        assert doc["error"]["position"] == 45


def test_degree_answers_without_walking_joints(capsys):
    start = time.perf_counter()
    code, doc = run(capsys, "cohomology", "degree", "--m", "100000000", "--n", "100000")
    assert (code, doc) == (0, {"degree": 100000000})
    assert time.perf_counter() - start < 1.5


def _readme_examples():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        if line.startswith("longsol "):
            command, _, shown = line.partition("  # ")
            yield shlex.split(command)[1:], shown.strip()


def test_readme_examples(capsys):
    examples = list(_readme_examples())
    assert len(examples) >= 15
    for argv, shown in examples:
        code, doc = run(capsys, *argv)
        assert code == 0, argv
        if shown.startswith("{"):
            for key, value in json.loads(shown.replace(", ...", "")).items():
                assert doc[key] == value, (argv, key)


def test_internal_error_contract(capsys, monkeypatch):
    from longsol import cohomology

    def boom(m, n):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cohomology, "h1_action", boom)
    code, doc = run(capsys, "cohomology", "degree", "--m", "1", "--n", "1")
    assert code == 2
    assert doc["error"]["code"] == "internal"


def test_text_format(capsys):
    code, lines = run_text(
        capsys, "--format", "text", "classify", "--tower", "2", "--point", "[5]"
    )
    assert code == 0
    assert lines == ["kappa: 2", "type: 2"]
    code, lines = run_text(
        capsys, "--format", "text", "cohomology", "invariant", "--s", "12:5"
    )
    assert code == 0
    assert "finite.2: 2" in lines
    assert "infinite.0: 5" in lines


def _sub_choices(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


# argvs that reach operations no golden argv reaches: two long-line inner
# threads, and two distinct base points at tower level 1
COVERAGE_SAMPLES = [
    ["orbit", "--long", "--p", "2", "--x", "(0| w1*(1)+w); (0| w1*(1)+w)",
     "--y", "(0| w1*(1)+w*2); (0| w1*(1)+w*2)"],
    ["orbit", "--tower", "1", "--p", "2", "--x", "(0| [; w]); (0| [; w])",
     "--y", "(0| [; w^2]); (0| [; w^2])"],
]


def _codes_called(argv):
    """The code object of every Python function that main(argv) calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with redirect_stdout(StringIO()):
            main(argv)
    finally:
        sys.setprofile(None)
    return codes


def test_operation_coverage_table(monkeypatch):
    top = _sub_choices(build_parser())
    paths = set()
    for name, sub in top.items():
        nested = _sub_choices(sub)
        if nested:
            paths.update("%s %s" % (name, inner) for inner in nested)
        else:
            paths.add(name)
    # every table entry names a real operation and a real subcommand,
    # and no subcommand is left without a library operation behind it
    assert set(OPERATION_COVERAGE.values()) == paths
    for dotted in OPERATION_COVERAGE:
        module_name, func_name = dotted.split(".")
        module = importlib.import_module("longsol." + module_name)
        assert callable(getattr(module, func_name)), dotted
    # and the row's sample argvs, from the golden corpus and COVERAGE_SAMPLES,
    # call every operation the row names
    for name in ("LONGSOL_DEPTH", "LONGSOL_INDEX_BOUND"):
        monkeypatch.delenv(name, raising=False)
    called = {}
    for argv in ARGVS + COVERAGE_SAMPLES:
        try:
            handler = _read_args(argv).handler
        except LongSolError:
            continue
        called.setdefault(handler, set()).update(_codes_called(argv))
    for path, handler, *_, operations in COMMANDS:
        for dotted in operations:
            module_name, func_name = dotted.split(".")
            func = getattr(importlib.import_module("longsol." + module_name), func_name)
            assert func.__code__ in called[handler], (path, dotted)


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "longsol", "ord", "--expr", "w+1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"normal": "w+1"}


# ---------------------------------------------------------------------------
# main() reads every argv by argparse's rules (_read_args), and builds the
# argparse tree only to print help.  argparse stays the oracle: the reader
# must answer each argv with argparse's namespace, message or help, on
# whichever Python's argparse runs the tests.


def _golden(*argvs):
    """The golden (exit code, stdout) of each argv, with no bound set."""
    entries = {tuple(e["argv"]): (e["code"], e["stdout"])
               for e in load() if not e["env"]}
    return [entries[tuple(argv)] for argv in argvs]


def _read(argv):
    """The reader's outcome, in ``ref_parse_args``' terms; help is what
    ``main`` prints."""
    try:
        args = _read_args(argv)
    except LongSolError as err:
        return "error", str(err)
    if args is not None:
        return "args", vars(args)
    out = StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    return "help", out.getvalue()


# argparse 3.10 to 3.12 read the value of a "--flag=--" token as [], where
# the reader, as argparse 3.13 does, reads "--"
_DASHES_AS_LIST = ref_parse_args(["ord", "--expr=--"])[1]["expr"] == []
# argparse 3.13 reads -h run into other characters (-hx, -hh=) as help and
# an unknown option, and -h= followed by an h (-h=h, -h=hx) as -h given that
# text, or words the error otherwise; the reader skips the h's after -h or
# -h= and fails on what follows them, as 3.10 to 3.12 do
_HELP_RUNS_ON = ref_parse_args(["-hx"])[0] == "help"


def _oracle_differs(argv):
    """Whether the running argparse reads argv otherwise than the reader by
    design: one of the two families above, on an argparse that has it."""
    return any(
        _DASHES_AS_LIST and token.startswith("--") and token.endswith("=--")
        or _HELP_RUNS_ON and token[:2] == "-h" and token.rstrip("h") != "-"
        and (token[2] != "=" or token[3:4] == "h")
        for token in argv)


def test_reader_agrees_with_argparse_on_the_golden_argvs():
    for argv in ARGVS:
        assert _read(argv) == ref_parse_args(argv), argv


FORMAT_FLAGS = (["--format", "text"], ["--format", "json"], ["--format=text"],
                ["--format=json"], ["--format=xml"], ["--format="], ["--format"])
DASHED = ("-1", "-w", "-h", "--", "-", "--expr", "--format", "--tower",
          "-hh", "-hx", "-1.5", "-x y")
STRAYS = ("-h", "--help", "frob", "--zzz", "--", "-x", "text", "verify", "",
          "-h=x", "-h=hx", "--help=x", "--=x", "a b")


@st.composite
def mutated_argvs(draw):
    """A golden argv with one to three of: a token or a flag and its value
    dropped or repeated, a flag joined by '=' to its value, to nothing or
    to "--", a flag abbreviated, a value starting with '-', a --format
    placed anywhere, and -h or an unknown token inserted."""
    argv = list(draw(st.sampled_from(ARGVS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        token = argv[i] if i < len(argv) else ""
        op = draw(st.sampled_from(
            ["drop", "repeat", "abbreviate", "equals", "dash", "format", "stray"]))
        if op == "drop":
            del argv[i:i + draw(st.integers(1, 2))]
        elif op == "repeat":
            at = draw(st.integers(0, len(argv)))
            argv[at:at] = argv[i:i + 2]
        elif op == "abbreviate" and len(token) > 3 and token.startswith("--"):
            argv[i] = token[:draw(st.integers(3, len(token) - 1))]
        elif op == "equals" and token.startswith("--"):
            if i + 1 < len(argv) and draw(st.booleans()):
                argv[i:i + 2] = [token + "=" + argv[i + 1]]
            else:
                argv[i] = token + "=" + draw(st.sampled_from(("", "--")))
        elif op == "dash" and i < len(argv):
            argv[i] = draw(st.sampled_from(DASHED))
        elif op == "format":
            at = draw(st.sampled_from((0, 1, 2, i)))
            argv[at:at] = draw(st.sampled_from(FORMAT_FLAGS))
        elif op == "stray":
            argv.insert(i, draw(st.sampled_from(STRAYS)))
    return argv


@settings(max_examples=300, deadline=None)
@example(["ord", "--expr=--"])
@example(["ord", "--expr=-w", "--format", "text"])
@example(["ord", "--expr", "w", "--=x"])  # ambiguous at the top level
@example(["-hx"])
@example(["-hh"])
@example(["-h=x"])
@example(["-h=h"])
@example(["-h=hx"])
@example(["--", "ord"])
@example(["ord", "--expr", "-1.5"])
@example(["ord", "--expr", "-x y"])
@example(["classify", "--long", "--poi", "w1*(2)"])
@given(mutated_argvs())
def test_reader_never_disagrees_with_argparse(argv):
    if not _oracle_differs(argv):
        assert _read(argv) == ref_parse_args(argv)


# a "--flag=--" token: argparse 3.10 to 3.12 read [] there, and the call
# exited 2 (internal); the reader reads "--" on every interpreter
@pytest.mark.parametrize("argv, error", [
    (["ord", "--expr=--"],
     {"code": "parse-error", "message": "expected a term", "position": 0}),
    (["fiber", "--m=--", "--n", "1", "--point", "inf0"],
     {"code": "bad-command", "message": "argument --m: invalid int value: '--'"}),
    (["cohomology", "invariant", "--s=--"],
     {"code": "parse-error", "message": "descriptors read PREFIX:CYCLE", "position": 2}),
    (["--format=--", "ord", "--expr", "w"],
     {"code": "bad-command",
      "message": "argument --format: invalid choice: '--' (choose from 'json', 'text')"}),
])
def test_flag_given_dashes_by_equals_fails_alike_everywhere(capsys, argv, error):
    assert run(capsys, *argv) == (1, {"error": error})


# -h run into other characters, or given h's by '=': the reader skips the
# h's and fails on what follows them, as argparse 3.10 to 3.12 do, on every
# interpreter (argparse 3.13 prints help for -hx and fails on -h=h)
@pytest.mark.parametrize("argv, explicit", [
    (["-hh"], None), (["-h=h"], None), (["ord", "-h=hh"], None),
    (["-hx"], "x"), (["-h=hx"], "x"), (["-hh=x"], "=x"), (["-h="], ""),
])
def test_help_run_into_other_characters_reads_alike_everywhere(argv, explicit):
    expected = ("help",) if explicit is None else (
        "error", "argument -h/--help: ignored explicit argument %r" % explicit)
    assert _read(argv)[:len(expected)] == expected


@pytest.mark.parametrize("argv, value", [
    (["classify", "--long=x", "--point", "w1*(2)"], "x"),
    (["classify", "--long=", "--point", "w1*(2)"], ""),
    (["--format=text", "fiber", "--m", "2", "--n", "1", "--long=1", "--point", "(0| w)"],
     "1"),
])
def test_store_true_flag_given_a_value_goes_to_argparse(capsys, monkeypatch, argv, value):
    # the reader words argparse's message without building the parser
    monkeypatch.setattr(cli, "build_parser", None)
    assert run(capsys, *argv) == (1, {"error": {
        "code": "bad-command",
        "message": "argument --long: ignored explicit argument %r" % value}})


def test_plain_argvs_never_build_the_parser(monkeypatch):
    # no golden argv asks for help, errors included
    def refuse():
        raise AssertionError("build_parser() called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for name in BOUNDS:
        monkeypatch.delenv(name, raising=False)
    assert differing(load()) == []
    # the README has an argv for every row
    handlers = {_read_args(argv).handler for argv in _README}
    assert handlers == {handler for _, handler, *_ in COMMANDS}


def test_help_and_irregular_argvs_go_through_argparse(monkeypatch, capsys):
    # only help builds the parser; the reader answers an irregular argv
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    for name in BOUNDS:
        monkeypatch.delenv(name, raising=False)
    extend = ["thread", "extend", "--p", "2,3", "--points", "inf0"]
    # an abbreviated flag answers as the golden argv that spells it out,
    # and a separate value starting with '-' as a golden one that fails
    # the same check
    for argv, twin in [(extend + ["--lev", "2"], extend + ["--levels", "2"]),
                       (["classify", "--tower", "-1", "--point", "[5]"],
                        ["classify", "--tower", "0", "--point", "[5]"])]:
        assert [call(argv)] == _golden(twin)
    assert built == []
    with pytest.raises(SystemExit) as stop:
        main(["-h"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()
    assert len(built) == 1


# ---------------------------------------------------------------------------
# the command line renders fiber and thread extend text from index
# arithmetic; the library builds StagePoint and Thread objects.  Both must
# print the same.

RHOS = (ZERO, nat(3), omega_pow(nat(1)), add(omega_pow(nat(2)), nat(1)))


@st.composite
def inner_points(draw):
    """(mode flags, inner coordinate): a joint, a tower stop or base point
    at kappa 1-4, or a long-line point."""
    kind = draw(st.sampled_from(["joint", "tower", "long"]))
    if kind == "joint":
        return [], None
    rho = draw(st.sampled_from(RHOS))
    frac = draw(st.sampled_from([F(0), F(1, 2), F(3, 8)]))
    if rho.is_zero and frac == 0:
        frac = F(1, 4)
    if kind == "long":
        gamma = draw(st.sampled_from([ZERO, nat(1), nat(2)]))
        return ["--long"], LongPoint(gamma, rho, frac)
    kappa = draw(st.integers(1, 4))
    small = st.integers(-9, 9)
    if kappa > 1 and draw(st.booleans()):
        depth = draw(st.integers(1, kappa - 1))
        ints = draw(st.lists(small, min_size=depth, max_size=depth))
        return ["--tower", str(kappa)], TowerPoint(kappa, Address(tuple(ints)))
    ints = draw(st.lists(small, min_size=kappa - 1, max_size=kappa - 1))
    return ["--tower", str(kappa)], TowerPoint(kappa, Address(tuple(ints), rho, frac))


def _stdout(argv):
    out = StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def _json_line(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 11), inner_points())
def test_fiber_text_matches_library(m, n, index, inner):
    flags, x = inner
    q = StagePoint(n, index, x)
    argv = ["fiber", "--m", str(m), "--n", str(n), "--point", str(q)] + flags
    expected = {"stage": m * n, "points": [str(pt) for pt in fiber(m, n, q)]}
    assert _stdout(argv) == _json_line(expected)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(0, 47),
    inner_points(),
    st.data(),
)
def test_thread_extend_text_matches_library(p, given_depth, top, inner, data):
    while prod(p) > 48:  # the default LONGSOL_INDEX_BOUND
        p.pop()
    given_depth = min(given_depth, len(p))
    levels = data.draw(st.integers(1, len(p) - given_depth + 1))
    flags, x = inner
    sizes = [prod(p[:k]) for k in range(given_depth)]
    thread = Thread(tuple(p), tuple(StagePoint(n, top, x) for n in sizes))
    argv = ["thread", "extend", "--p", ",".join(map(str, p)),
            "--points", str(thread), "--levels", str(levels)] + flags
    threads = [str(t) for t in extend_thread(thread, levels)]
    assert _stdout(argv) == _json_line({"count": len(threads), "threads": threads})


# The command line keeps both answers as a template and indices and joins
# the document once; reference_models keeps the strings-then-json.dumps
# renderer.  Both must print the same bytes, at sizes up to the bench's.

BIG_BOUNDS = {"LONGSOL_INDEX_BOUND": "65536", "LONGSOL_DEPTH": "13"}
FORMATS = st.sampled_from(["json", "text"])


def _stdout_under(env, argv):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in env.items():
            mp.setenv(name, value)
        return _stdout(argv)


def assert_same_text(got, want):
    # say where the outputs part: pytest's own diff takes minutes on
    # megabyte strings
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        low = max(at - 40, 0)
        pytest.fail("outputs part at character %d: %r != %r"
                    % (at, got[low : at + 40], want[low : at + 40]))


@st.composite
def fiber_sizes(draw):
    """(m, n, index) with m*n up to 65536."""
    n = draw(st.integers(1, 256))
    return draw(st.integers(1, 65536 // n)), n, draw(st.integers(0, n - 1))


@settings(max_examples=40, deadline=None)
@example((65536, 1, 0), ([], None), "text")
@example((65536, 1, 0), ([], None), "json")
@example((256, 256, 255), (["--long"], LongPoint(nat(2), nat(3), F(1, 2))), "json")
@given(fiber_sizes(), inner_points(), FORMATS)
def test_fiber_renders_as_materialised(size, inner, fmt):
    (m, n, index), (flags, x) = size, inner
    q = StagePoint(n, index, x)
    argv = ["--format", fmt, "fiber", "--m", str(m), "--n", str(n),
            "--point", str(q)] + flags
    doc = {"stage": m * n, "points": ref_fiber_points(m, n, q)}
    assert_same_text(_stdout_under(BIG_BOUNDS, argv), ref_render(doc, fmt) + "\n")


@st.composite
def extensions(draw):
    """(flags, thread, levels): depth up to 13, stages up to 65536 and at
    most 4096 extensions."""
    flags, x = draw(inner_points())
    p = draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=12))
    while prod(p) > 65536:
        p.pop()
    given_depth = draw(st.integers(1, len(p)))
    levels = draw(st.integers(1, len(p) - given_depth + 1))
    while prod(p[given_depth - 1 : given_depth - 1 + levels]) > 4096:
        levels -= 1
    top = draw(st.integers(0, 65535))
    sizes = [prod(p[:k]) for k in range(given_depth)]
    thread = Thread(tuple(p), tuple(StagePoint(n, top, x) for n in sizes))
    return flags, thread, levels


@settings(max_examples=40, deadline=None)
@example(([], Thread((2,) * 12, (StagePoint(1, 0),)), 12), "json")
@example((["--tower", "4"], Thread((2,) * 12, (StagePoint(
    1, 0, TowerPoint(4, Address((1, -2, 3), nat(5), F(1, 3)))),)), 12), "text")
@example(([], Thread((1, 2, 1, 3), (StagePoint(1, 0),)), 4), "json")
@example(([], Thread((1, 2, 1, 3), (StagePoint(1, 0), StagePoint(1, 0))), 3), "text")
@example((["--tower", "2"], Thread((3, 5), (StagePoint(1, 0, TowerPoint(
    2, Address((7,), nat(1), F(1, 2)))), StagePoint(3, 2, TowerPoint(
    2, Address((7,), nat(1), F(1, 2)))))), 1), "json")
@example((["--long"], Thread((4,) * 6, (StagePoint(
    1, 0, LongPoint(nat(2), nat(3), F(1, 2))),)), 6), "json")
@given(extensions(), FORMATS)
def test_thread_extend_renders_as_materialised(case, fmt):
    flags, thread, levels = case
    argv = ["--format", fmt, "thread", "extend", "--p", ",".join(map(str, thread.p)),
            "--points", str(thread), "--levels", str(levels)] + flags
    threads = ref_extension_threads(thread, levels)
    doc = {"count": len(threads), "threads": threads}
    assert_same_text(_stdout_under(BIG_BOUNDS, argv), ref_render(doc, fmt) + "\n")


def _listing_json(listing):
    return "".join(listing.json_pieces())


def test_listing_json_escapes_template_as_json_dumps_does():
    # a quote, a backslash, control characters and non-ASCII characters,
    # each of which json.dumps writes as an escape
    template = 'a"b\\c\x01d\u00e9 %d \u2028\x7f\t"'
    # a fiber is the one level of its point under exponent m, with no root:
    # the children of index i on stage n are i, i + n, ..., past 1000 in
    # the last two
    for m, n, i in ((6, 7, 3), (1, 5, 4), (700, 3, 2), (4, 1000, 997)):
        fiber = _Listing(template, "", (m,), StagePoint(n, i))
        want = [template % j for j in range(i, m * n, n)]
        assert _listing_json(fiber) == json.dumps(want)
    # an extension of a top point (1| ...) on stage 2 by exponents 2 and 3:
    # children 1, 3 on stage 4, then 1, 5, 9 and 3, 7, 11 on stage 12
    root, t = '"\\\x1f\u0663', "; " + template
    first = [root + t % 1, root + t % 3]
    threads = [first[0] + t % 1, first[0] + t % 5, first[0] + t % 9,
               first[1] + t % 3, first[1] + t % 7, first[1] + t % 11]
    # one parent below a level of exponent 1, and a one-level extension
    # whose 1500 children run past 1000
    ones = [root + t % 1 + t % j for j in (1, 3, 5)]
    wide = [root + t % j for j in range(1, 3000, 2)]
    for exponents, want in (((2, 3), threads), ((2,), first), ((1, 1), [first[0] + t % 1]),
                            ((1, 3), ones), ((1500,), wide)):
        extension = _Listing(t, root, exponents, StagePoint(2, 1))
        assert _listing_json(extension) == json.dumps(want)


def test_render_sorts_the_keys_of_values_beside_a_listing():
    # each value beside a listing is written by its own json.dumps, which
    # sorts a nested dict's keys as the whole document's json.dumps does
    fiber = _Listing("(%d| w)", "", (3,), StagePoint(2, 1))
    doc = {"z": {"b": [1, {"y": 2, "x": 3}], "a": None}, "points": fiber, "k": 1}
    written = dict(doc, points=json.loads(_listing_json(fiber)))
    assert cli._render(doc) == json.dumps(written, sort_keys=True)


def _descendants(template, root, exponents, top):
    """The child rule applied level by level, one string at a time."""
    strings, n = [(root, top.index)], top.n
    for m in exponents:
        strings = [(s + template % (j + c * n), j + c * n)
                   for s, j in strings for c in range(m)]
        n *= m
    return [s for s, _ in strings]


# characters json.dumps escapes, and plain ones; a root may hold a '%'
ESCAPED = st.sampled_from('a "\\\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600;|(')


@given(st.text(ESCAPED | st.just("%")), st.text(ESCAPED), st.text(ESCAPED),
       st.lists(st.integers(1, 3), max_size=2), st.integers(1, 1100),
       st.integers(1, 2000), st.integers(0, 10**6))
def test_listing_writes_json_dumps_of_its_strings(root, head, tail, above, m, n, index):
    template, top = head + "%d" + tail, StagePoint(n, index)
    listing = _Listing(template, root, (*above, m), top)
    want = _descendants(template, root, (*above, m), top)
    assert _listing_json(listing) == json.dumps(want)
    assert json.loads(_listing_json(listing)) == want


# _decimal writes one parent's children by blocks of a thousand; its pieces
# must make the plain join at every block edge and at any step

DECIMAL_STARTS = (0, 1, 999, 1000, 1001, 12345)
DECIMAL_STEPS = (1, 2, 7, 125, 999, 1000, 1001, 10**8)
DECIMAL_STOPS = (1000, 1001, 10000, 10001, 65536, 65537)


def test_decimal_equals_plain_join_at_block_edges():
    for start, step, stop in product(DECIMAL_STARTS, DECIMAL_STEPS, DECIMAL_STOPS):
        r = range(start, stop, step)
        if len(r) > 10**5:
            continue
        for sep in ("", '", "inf'):
            assert "".join(_decimal(r, sep)) == sep.join(map(str, r)), (
                start, step, stop, sep)


@st.composite
def fiber_shapes(draw):
    """(i, n, m) with m*n up to 2^17."""
    n = draw(st.integers(1, 2**17))
    return draw(st.integers(0, n - 1)), n, draw(st.integers(1, 2**17 // n))


@settings(max_examples=60, deadline=None)
@given(fiber_shapes())
def test_decimal_writes_a_fiber_as_the_plain_join(shape):
    i, n, m = shape
    r = range(i, m * n, n)
    assert "".join(_decimal(r, ", ")) == ", ".join(map(str, r))


def test_sparse_huge_fiber_answers_in_bounded_time(capsys):
    # three indices spread over 2*10^8 blocks of a thousand: the block
    # writer steps from one non-empty block to the next
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LONGSOL_INDEX_BOUND", str(10**12))
        t0 = time.perf_counter()
        answer = run(capsys, "fiber", "--m", "3", "--n", str(10**11), "--point", "inf5")
        elapsed = time.perf_counter() - t0
    assert answer == (0, {"stage": 3 * 10**11, "points": [
        "inf5", "inf100000000005", "inf200000000005"]})
    assert elapsed < 0.5


# Linux's limit on one argument (MAX_ARG_STRLEN, 128 KiB with its NUL)
ARG_MAX = 131071


@lru_cache(maxsize=None)
def _longest(template):
    """``template`` with ``{0}`` the longest sum w^k*3 + ... + w^2*3 that
    leaves it within one argument: the order of terms a left fold would
    rescan at every step."""
    def build(k):
        return template.format("+".join("w^%d*3" % e for e in range(k, 1, -1)))

    lo, hi = 2, ARG_MAX // 6
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if len(build(mid)) <= ARG_MAX else (lo, mid - 1)
    return build(lo)


# per family, an argv whose {0} arguments _longest fills
BOUNDED_ARGVS = {
    "expr": ("ord", "--expr", "{0}"),
    "add": ("ord", "--a", "{0}", "--add", "{0}"),
    "mul": ("ord", "--a", "{0}", "--mul", "{0}"),
    "cmp": ("ord", "--a", "{0}", "--cmp", "{0}"),
    "long-sum": ("classify", "--long", "--point", "{0}+1/2"),
    "long-block": ("classify", "--long", "--point", "w1*({0})"),
    "tower": ("classify", "--tower", "1", "--point", "[; {0}]"),
    "thread": ("thread", "verify", "--long", "--p", "2", "--points",
               "(0| {0}+1/2); (0| {0}+1/2)"),
}


@pytest.mark.parametrize("family", BOUNDED_ARGVS)
def test_longest_ordinal_arguments_answer_in_bounded_time(capsys, family):
    # each literal is summed once, so it is read in time linear in its
    # length; summing term by term would rescan the kept terms at each '+'
    argv = [_longest(arg) if "{0}" in arg else arg for arg in BOUNDED_ARGVS[family]]
    t0 = time.perf_counter()
    code, doc = run(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert code == 0, doc
    ord_text = _longest("{0}")
    if family == "expr":
        assert doc == {"normal": ord_text}
    elif family == "add":
        head, _, rest = ord_text.partition("*3+")
        assert doc == {"result": "%s*6+%s" % (head, rest)}
    elif family == "cmp":
        assert doc == {"order": "equal"}
    elif family == "thread":
        assert doc == {"valid": True, "depth": 2, "top_stage": 2}
    assert elapsed < 1.0, elapsed


def _longest_chain():
    """``--n`` and ``--arcs`` for the chain 0..1+1/2, 1..2+1/2, ...,
    (N-1)..0+1/2 with the most arcs whose list fits in one argument."""
    def build(n):
        return ",".join("%d..%d+1/2" % (k, (k + 1) % n) for k in range(n))

    lo, hi = 4, ARG_MAX // 8
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if len(build(mid)) <= ARG_MAX else (lo, mid - 1)
    return str(lo), build(lo)


def test_longest_chain_answers_in_bounded_time(capsys):
    # the sweep sorts the endpoints once; comparing every pair of arcs
    # took 2.7 s in-process at 600 arcs
    n, arcs = _longest_chain()
    t0 = time.perf_counter()
    answer = run(capsys, "chain-check", "--n", n, "--arcs", arcs)
    elapsed = time.perf_counter() - t0
    assert answer == (0, {"circular": True})
    assert elapsed < 1.0, elapsed


def _levels(piece, sep=";"):
    """``piece`` once per level, joined by ``sep``, as many levels as fit
    in one argument, and that count."""
    count = (ARG_MAX + 1) // (len(piece) + len(sep))
    return sep.join([piece] * count), count


@pytest.mark.parametrize("piece, sep", [
    ("(0| w+1); (1| w+1)", ";"),
    ("(0|w+1)", ";"),
    ("(0| %s+1/2)" % "+".join("w^%d*3" % e for e in range(149, 1, -1)), ";"),
    ("(0| w+1)", "; "),
], ids=["printed", "spaced", "1KiB-body", "printed-form"])
def test_longest_thread_answers_in_bounded_time(capsys, piece, sep):
    # past the levels p covers, a thread in its printed form ("; " between
    # levels, one body) is read at once; any other is read one level at a
    # time, each level's inner literal read anew
    points, count = _levels(piece, sep)
    depth = count * (piece.count(";") + 1)
    t0 = time.perf_counter()
    answer = run(capsys, "thread", "verify", "--long", "--p", "2", "--points", points)
    elapsed = time.perf_counter() - t0
    assert answer == (0, {"valid": False, "reason": "depth %d needs at least %d bonding "
                                                    "exponents" % (depth, depth - 1)})
    assert elapsed < 1.0, elapsed


TWOS = ",".join(["2"] * 999)


@pytest.mark.parametrize("descriptor, a", [
    (":%s,3" % TWOS, 3**100),
    (":%s,3" % TWOS, 3**400),
    (":2,3", 3**9000),
    (":%s,3" % ",".join(["2"] * 65000), 3**9000),
], ids=["999-twos-3^100", "999-twos-3^400", "2,3-3^9000", "65000-twos-3^9000"])
def test_longest_level_search_answers_in_bounded_time(capsys, descriptor, a):
    # the level comes from the cycle count, found by doubling and bisection,
    # and a numerator past the digit limit is refused before it is built;
    # trying each level in turn took 10.4 s on the first argv
    t0 = time.perf_counter()
    code, doc = run(capsys, "cohomology", "sum", "--s", descriptor, "--a", "1/%d" % a,
                    "--b", "1/2")
    elapsed = time.perf_counter() - t0
    assert (code, doc["error"]["code"]) == (1, "representation-overflow")
    assert elapsed < 1.0, elapsed


def test_sum_builds_only_the_printed_numerator(capsys):
    # the summands' own numerators, 3^10000, pass the digit limit; the sum's is 3
    a, b = "1/%d" % 2**10000, "%d/%d" % (2**9999 - 1, 2**10000)
    assert run(capsys, "cohomology", "sum", "--s", ":6", "--a", a, "--b", b) == (
        0, {"level": 1, "numerator": 3, "value": "1/2"})


# ---------------------------------------------------------------------------
# the contract: any argv ends, within the per-call bound, in an answer
# (exit 0) or a structured error (exit 1), as one JSON document on stdout
# and nothing on stderr.


def _long_int(sign, digits, length):
    """A signed literal of `length` digits, the drawn digits repeated; from
    4301 digits on it is past int's default digit limit."""
    return sign + (digits * length)[:length]


VALUES = st.one_of(
    st.integers(-60, 60).map(str),
    st.builds(_long_int, st.sampled_from(["", "-"]),
              st.text("0123456789", min_size=1, max_size=5), st.integers(4300, 4400)),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-10**9, 10**9)),
    st.builds("{}.{}".format, st.integers(-99, 99), st.integers(0, 99)),
    st.text(max_size=8),
)
# one or two templates per subcommand; each {} takes a drawn value
TEMPLATES = [
    ["ord", "--expr", "{}"],
    ["ord", "--a", "w^{}+{}", "--mul", "{}"],
    ["ord", "--omega-pow", "{}"],
    ["classify", "--tower", "{}", "--point", "[{},{}]"],
    ["classify", "--long", "--point", "w1*({})+{}+1/{}"],
    ["orbit", "--tower", "2", "--p", "{}", "--x", "(0| [{}]); (0| [{}])",
     "--y", "(0| [{}]); (0| [{}])"],
    ["orbit", "--long", "--p", "2", "--x", "inf{}; inf0", "--y", "(0| w1*({})+w*{})"],
    ["fiber", "--m", "{}", "--n", "{}", "--point", "inf{}"],
    ["thread", "verify", "--p", "{},2", "--points", "inf0; inf{}"],
    ["thread", "extend", "--p", "{},2", "--points", "inf{}", "--levels", "{}"],
    ["indecomp", "--pn", "{}", "--n", "1", "--c-arc", "0..0+1/{}",
     "--g-arc", "0+1/{}..0+1/{}"],
    ["chain-check", "--n", "{}", "--arcs", "0..0+1/{},0+1/{}..0"],
    ["cohomology", "invariant", "--s", "{}:{}"],
    ["cohomology", "equiv", "--a", ":{}", "--b", "{}:2"],
    ["cohomology", "member", "--s", "{}:{}", "--r", "{}"],
    ["cohomology", "sum", "--s", "{},{}:2", "--a", "{}", "--b", "{}"],
    ["cohomology", "degree", "--m", "{}", "--n", "{}"],
]


@st.composite
def argvs(draw):
    """A template filled with drawn values, each flag that takes a value
    given it apart, joined to it by '=' or joined to "--" instead."""
    template = draw(st.sampled_from(TEMPLATES))
    argv = []
    for token in template:
        head, *rest = token.split("{}")
        argv.append(head + "".join(draw(VALUES) + tail for tail in rest))
    for i in reversed(range(len(argv) - 1)):
        if template[i].startswith("--") and not template[i + 1].startswith("--"):
            joined = draw(st.sampled_from((None, argv[i + 1], "--")))
            if joined is not None:
                argv[i:i + 2] = [argv[i] + "=" + joined]
    return argv


NINES, SEVENS, EIGHTS = "9" * 4300, "7" * 4300, "8" * 4300


@settings(max_examples=30, deadline=None)
@example(["ord", "--expr=--"])
@example(["fiber", "--m=--", "--n", "1", "--point", "inf0"])
@example(["cohomology", "invariant", "--s=--"])
@example(["--format=--", "ord", "--expr", "w"])
@example(["cohomology", "sum", "--s", ":10", "--a", "1e-20000", "--b", "0"])
@example(["orbit", "--tower", "2", "--p", "2",
          "--x", "(0| [%s]); (0| [%s])" % (NINES, NINES),
          "--y", "(0| [-%s]); (0| [-%s])" % (NINES, NINES)])
@example(["indecomp", "--pn", "2", "--n", "1", "--c-arc", "0..0+1/" + SEVENS,
          "--g-arc", "0+1/%s..0+1/%s" % (EIGHTS, NINES)])
@example(["cohomology", "sum", "--s", "%d,%d:2" % (10**4000 + 1, 10**4000 + 1),
          "--a", "1/2", "--b", "0"])
@example(["cohomology", "member", "--s", ":2", "--r", "1e-100000"])
@example(["cohomology", "member", "--s", ":2", "--r", "1e400000000"])
@given(argvs())
def test_every_argv_answers_or_fails_cleanly(argv):
    out, err = StringIO(), StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2, argv[:2]
    assert code in (0, 1), argv[:2]
    assert err.getvalue() == ""
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    json.loads(text)
