"""Literal grammars round-trip with printing, and errors carry positions."""

from fractions import Fraction as F
import sys
from itertools import accumulate
from operator import mul as times

import pytest
from hypothesis import example, given, settings, strategies as st
from reference_models import (
    RefThread,
    per_level,
    ref_parse_ordinal,
    ref_parse_thread,
    ref_parse_unit_fraction,
    ref_split_top,
)

from longsol import (
    OMEGA,
    ONE,
    ZERO,
    Address,
    DEFAULT_DEPTH_BOUND,
    Arc,
    DepthBoundError,
    LongPoint,
    LongSolError,
    ParseError,
    SequenceDescriptor,
    StagePoint,
    Thread,
    ThreadMismatchError,
    TowerPoint,
    add,
    mul,
    nat,
    omega_pow,
    parse_arc,
    parse_descriptor,
    parse_long_point,
    parse_ordinal,
    parse_rational,
    parse_stage_point,
    parse_thread,
    parse_tower_point,
)
from longsol import parsing
from longsol.stages import point_format

W = OMEGA
W2 = omega_pow(nat(2))


def test_parse_ordinal_frozen():
    assert parse_ordinal("w^2*3 + w + 5") == add(
        add(mul(W2, nat(3)), W), nat(5)
    )
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("w*0") == ZERO
    assert parse_ordinal("7") == nat(7)
    assert parse_ordinal("w^w") == omega_pow(W)
    assert parse_ordinal("w^w^2") == omega_pow(W2)
    assert parse_ordinal("w^(w*2+1)*4") == mul(
        omega_pow(add(mul(W, nat(2)), ONE)), nat(4)
    )


def test_parse_ordinal_normalizes():
    # sums arrive in any order and come out in normal form
    assert parse_ordinal("w + w^2") == W2
    assert parse_ordinal("1 + w") == W
    assert parse_ordinal("w + 1 + w") == add(W, add(ONE, W))


def test_parse_ordinal_errors():
    too_long = "integer literal longer than %d digits" % sys.get_int_max_str_digits()
    too_deep = "ordinal literal nests deeper than the depth bound %d" % DEFAULT_DEPTH_BOUND
    cases = [
        (parse_ordinal, "", ParseError, 0, "expected a term"),
        (parse_ordinal, "w^", ParseError, 2, "expected an exponent"),
        (parse_ordinal, "w++1", ParseError, 2, "expected a term"),
        (parse_ordinal, "3 4", ParseError, 2, "unexpected trailing input"),
        (parse_ordinal, "w^(w", ParseError, 4, "expected ')'"),
        (parse_ordinal, "^2", ParseError, 0, "expected a term"),
        (parse_ordinal, "w^x", ParseError, 2, "expected an exponent"),
        (parse_ordinal, "w* 1\u0663", ParseError, 4, "unexpected trailing input"),
        (parse_ordinal, "w*\u0663", ParseError, 2, "expected a number"),
        (parse_ordinal, "w^(1 + 2 ", ParseError, 9, "expected ')'"),
        (parse_ordinal, "w*" + "7" * (sys.get_int_max_str_digits() + 1),
         DepthBoundError, 2, too_long),
        (parse_ordinal, "w^" * 15 + "w", DepthBoundError, 30, too_deep),
        # the unit offset of a long point, N/D
        (parse_long_point, "/2", ParseError, 0, "expected a number"),
        (parse_long_point, "1/x", ParseError, 2, "expected a number"),
        (parse_long_point, "1 2/3", ParseError, 2, "expected '/'"),
        (parse_long_point, "1/2 3", ParseError, 4, "unexpected trailing input"),
        (parse_long_point, "w + 1/ 0", ParseError, 6, "zero denominator"),
        (parse_long_point, "w + 3/2", ParseError, 4, "unit offsets lie in [0, 1)"),
        (parse_long_point, "1/" + "7" * (sys.get_int_max_str_digits() + 1),
         DepthBoundError, 2, too_long),
    ]
    for parse, text, error, position, message in cases:
        with pytest.raises(LongSolError) as err:
            parse(text)
        assert (type(err.value), err.value.position, str(err.value)) == (
            error, position, message), text


def _nested(depth):
    return "w^(" * (depth - 1) + "1" + ")" * (depth - 1)


def test_parse_ordinal_depth_bound():
    assert parse_ordinal(_nested(DEFAULT_DEPTH_BOUND)).depth == DEFAULT_DEPTH_BOUND
    assert parse_ordinal("w^" * (DEFAULT_DEPTH_BOUND - 2) + "w").depth == 16
    # the w that would head a depth-17 value is where the literal stops
    for text, position in [
        (_nested(DEFAULT_DEPTH_BOUND + 1), 3 * (DEFAULT_DEPTH_BOUND - 1)),
        (_nested(600), 3 * (DEFAULT_DEPTH_BOUND - 1)),
        (_nested(30), 45),
        ("1 + " + "w^" * (DEFAULT_DEPTH_BOUND - 1) + "w", 34),
    ]:
        with pytest.raises(DepthBoundError) as err:
            parse_ordinal(text)
        assert err.value.position == position, text
    with pytest.raises(DepthBoundError) as err:
        parse_long_point("w1*(%s)" % _nested(30))
    assert err.value.position == 49
    with pytest.raises(DepthBoundError):
        parse_tower_point("[; %s]" % _nested(17), 1)


def test_parse_long_point():
    assert parse_long_point("w1*(2) + w*5 + 1/2") == LongPoint(
        nat(2), mul(W, nat(5)), F(1, 2)
    )
    assert parse_long_point("w1*(w+2)") == LongPoint(add(W, nat(2)))
    assert parse_long_point("1/2") == LongPoint(frac=F(1, 2))
    assert parse_long_point("w^3+4") == LongPoint(rho=add(omega_pow(nat(3)), nat(4)))
    assert parse_long_point("0") == LongPoint()


def test_parse_long_point_errors():
    with pytest.raises(ParseError):
        parse_long_point("w + w1*(2)")  # block count must come first
    with pytest.raises(ParseError):
        parse_long_point("1/2 + 3")  # offset must come last
    with pytest.raises(ParseError) as err:
        parse_long_point("w1*(2) + 3/2")
    assert err.value.position == 9
    with pytest.raises(ParseError):
        parse_long_point("1/0")
    with pytest.raises(ParseError):
        parse_long_point("w + + 1")


def test_parse_tower_point():
    assert parse_tower_point("inf", 3) == TowerPoint(3)
    assert parse_tower_point("[5]", 2) == TowerPoint(2, Address((5,)))
    assert parse_tower_point("[1,-3]", 3) == TowerPoint(3, Address((1, -3)))
    assert parse_tower_point("[2; w+1/2]", 2) == TowerPoint(
        2, Address((2,), W, F(1, 2))
    )
    assert parse_tower_point("[; w]", 1) == TowerPoint(1, Address((), W))


def test_parse_tower_point_errors():
    for text in ["[", "[]", "[1;2;3]", "[1.5]", "[2; ]", "5"]:
        with pytest.raises(ParseError):
            parse_tower_point(text, 3)
    # positions inside the brackets count from the start of the input
    for text, position in [("[3)]", 2), ("   [1; w^(2]", 11)]:
        with pytest.raises(ParseError) as err:
            parse_tower_point(text, 3)
        assert err.value.position == position, text


def test_parse_stage_point():
    assert parse_stage_point("inf4", 6) == StagePoint(6, 4)
    assert parse_stage_point("inf7", 6) == StagePoint(6, 1)
    assert parse_stage_point("(2| [3])", 5, mode="tower", kappa=2) == StagePoint(
        5, 2, TowerPoint(2, Address((3,)))
    )
    assert parse_stage_point("(0| w1*(1))", 3, mode="long") == StagePoint(
        3, 0, LongPoint(nat(1))
    )
    assert parse_stage_point("(-1| [2])", 4, mode="tower", kappa=2) == StagePoint(
        4, 3, TowerPoint(2, Address((2,)))
    )


def test_parse_stage_point_errors():
    with pytest.raises(ParseError):
        parse_stage_point("inf", 6)  # the joint literal carries its index
    with pytest.raises(ParseError):
        parse_stage_point("(2 [3])", 6, mode="tower", kappa=2)
    with pytest.raises(ParseError):
        parse_stage_point("(2| [3])", 6)  # inner points need a mode
    with pytest.raises(ParseError):
        parse_stage_point("(2| [3])", 6, mode="tower")  # and tower mode a level


def test_parse_thread():
    t = parse_thread((2, 3), "inf0; inf1; inf3")
    assert t == Thread((2, 3), (0, 1, 3))
    assert t.points == (StagePoint(1, 0), StagePoint(2, 1), StagePoint(6, 3))
    tower = parse_thread((2,), "(0| [3]); (1| [3])", mode="tower", kappa=2)
    assert tower.depth == 2
    with pytest.raises(ThreadMismatchError):
        parse_thread((2, 3), "inf0; inf1; inf4")
    with pytest.raises(ParseError) as err:
        parse_thread((2, 3), "inf0; infX; inf3")
    assert err.value.position == 6
    # the lowest level that does not bond is named, whether its index or
    # its inner point is the one that differs
    for text, level in [("(0| [1]);(1| [2]);(4| [1]);(4| [1])", 2),
                        ("(0| [1]);(1| [1]);(2| [1]);(3| [2])", 3),
                        ("(0| [1]);(1| [1]);(3| [2]);(8| [1])", 3)]:
        with pytest.raises(ThreadMismatchError, match="^level %d point does not bond onto "
                           "level %d$" % (level, level - 1)):
            parse_thread((2, 3, 5), text, mode="tower", kappa=2)


def test_parse_descriptor():
    assert parse_descriptor("2,3:5") == SequenceDescriptor((2, 3), (5,))
    assert parse_descriptor(":2") == SequenceDescriptor((), (2,))
    for text in ["2,3", "2:", ":", "a:2", "2:3:5"]:
        with pytest.raises(ParseError):
            parse_descriptor(text)


def test_parse_rational():
    assert parse_rational("5/8") == F(5, 8)
    assert parse_rational("-3") == F(-3)
    assert parse_rational(" -6/4 ") == F(-3, 2)
    # [-]N[/D] only: no exponent, decimal or underscore forms, no sign on D,
    # no blanks inside; each error sits at the literal's start
    for text in ["abc", "1/0", "", "+3", "1e5", "1e-100000", "2.5", "1_000",
                 "3 /4", "3/ 4", "3/-4", "-", "2/", "/2"]:
        with pytest.raises(ParseError) as err:
            parse_rational(text, 7)
        assert (str(err.value), err.value.position) == ("expected a rational N/D", 7)
    # N and D obey the digit limit of every integer literal, where they start
    long = "7" * 4301
    for text, position in [(long, 7), (" -%s/2" % long, 8), ("1/" + long, 9)]:
        with pytest.raises(DepthBoundError) as err:
            parse_rational(text, 7)
        assert err.value.position == position


def test_literals_read_ascii_digits_only():
    # int() reads the decimal digits of every script; the grammar's are 0-9.
    # Each literal below holds one other digit (Arabic-Indic, Devanagari,
    # fullwidth, mathematical bold) where the grammar reads a number.
    cases = [
        (parse_ordinal, ("\u0663",), 0),
        (parse_ordinal, ("w*\u0967",), 2),
        (parse_ordinal, ("w^\uff12",), 2),
        (parse_stage_point, ("inf\u0661", 3), 0),
        (parse_tower_point, ("[1,\U0001d7d0]", 2), 3),
        (parse_long_point, ("w+1/\u0663",), 4),
        (parse_descriptor, (":\u0662",), 1),
        (parse_rational, ("\u0663/4",), 0),
    ]
    for parse, args, position in cases:
        with pytest.raises(ParseError) as err:
            parse(*args)
        assert err.value.position == position, (parse.__name__, args)


def test_parse_arc():
    assert parse_arc("1+1/2..0", 2) == Arc(2, F(3, 2), 0)
    assert parse_arc("0..1+1/2", 2) == Arc(2, 0, F(3, 2))
    for text in ["1..2..3", "5..0", "0+3/2..1", "0"]:
        with pytest.raises(ParseError):
            parse_arc(text, 3)
    # a fraction's errors count from the input, blanks included
    for text, position in [("0..0+ x/2", 6), ("0+  1/0..1", 6), ("0.. 1+2/1", 6)]:
        with pytest.raises(ParseError) as err:
            parse_arc(text, 3)
        assert err.value.position == position, text


# ---------------------------------------------------------------------------
# printed forms parse back to the same value

exponents = st.one_of(
    st.integers(0, 5).map(nat),
    st.just(OMEGA),
    st.just(add(OMEGA, ONE)),
)


def _build(terms):
    total = ZERO
    for e, c in terms:
        total = add(total, mul(omega_pow(e), nat(c)))
    return total


ordinals = st.lists(
    st.tuples(exponents, st.integers(1, 4)), max_size=3
).map(_build)

unit_fracs = st.integers(0, 7).map(lambda k: F(k, 8))


@given(ordinals)
def test_ordinal_round_trip(x):
    assert parse_ordinal(str(x)) == x


@given(ordinals, ordinals, unit_fracs)
def test_long_point_round_trip(gamma, rho, frac):
    finite = all(e.is_finite for e, _ in gamma.terms)
    if not finite:
        return
    x = LongPoint(gamma, rho, frac)
    assert parse_long_point(str(x)) == x


small_ints = st.integers(-9, 9)


@st.composite
def tower_points(draw):
    kappa = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["joint", "stop", "base"]))
    if shape == "joint" or (shape == "stop" and kappa == 1):
        return TowerPoint(kappa)
    if shape == "stop":
        depth = draw(st.integers(1, kappa - 1))
        ints = tuple(draw(st.lists(small_ints, min_size=depth, max_size=depth)))
        return TowerPoint(kappa, Address(ints))
    ints = tuple(
        draw(st.lists(small_ints, min_size=kappa - 1, max_size=kappa - 1))
    )
    rho = draw(ordinals)
    frac = draw(unit_fracs)
    if rho.is_zero and frac == 0:
        frac = F(1, 2)
    return TowerPoint(kappa, Address(ints, rho, frac))


@given(tower_points())
def test_tower_point_round_trip(x):
    assert parse_tower_point(str(x), x.kappa) == x


@given(st.integers(1, 6), st.integers(0, 5), tower_points())
def test_stage_point_round_trip(n, index, inner):
    x = StagePoint(n, index, None if inner.is_joint else inner)
    mode = None if x.inner is None else "tower"
    assert parse_stage_point(str(x), n, mode=mode, kappa=inner.kappa) == x


@given(st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=3),
       st.integers(0, 29), st.none() | tower_points().filter(lambda x: not x.is_joint))
def test_thread_round_trip(p, seed, inner):
    # joints, or one inner tower point at every level
    indices = [0]
    size = 1
    for m in p:
        indices.append(indices[-1] + (seed % m) * size)
        size *= m
    t = Thread(tuple(p), indices, inner)
    assert str(t) == "; ".join(map(str, t.points))
    mode, kappa = (None, None) if inner is None else ("tower", inner.kappa)
    assert parse_thread(tuple(p), str(t), mode, kappa) == t


# ---------------------------------------------------------------------------
# a thread answers as the per-level reader: the same values and errors

finite_ordinals = st.lists(
    st.tuples(st.integers(0, 5).map(nat), st.integers(1, 4)), max_size=3
).map(_build)
long_points = st.builds(LongPoint, finite_ordinals, ordinals, unit_fracs)

# printed forms carry no blanks; these write the same value with some
SPACED = [
    lambda t: t,
    lambda t: " " + t + "\t",
    lambda t: t.replace(",", " , ").replace("+", " + "),
    lambda t: t.replace("[", "[ ").replace(";", " ;"),
]
BAD_INDICES = ["", "x", "1.5", "\u0663", "--1", "1 2"]


@st.composite
def thread_literals(draw):
    """(p, text, mode, kappa): p a tuple or a list, one inner literal at
    every level, written as ``str(Thread)`` prints it or with blanks that
    vary by level, maybe one level with another inner, and maybe a bad
    index, an index that does not bond, a joint or a malformed inner at a
    later level."""
    if draw(st.booleans()):
        inner, other = draw(tower_points()), draw(tower_points())
        mode, kappa = "tower", inner.kappa
    else:
        inner, other = draw(long_points), draw(long_points)
        mode, kappa = "long", None
    p = draw(st.sampled_from([tuple, list]))(
        draw(st.lists(st.sampled_from([2, 3, 5]), max_size=5)))
    depth = len(p) + 1
    top = draw(st.integers(0, 10**4))
    indices = [str(top % n) for n in accumulate(p, times, initial=1)]
    printed = draw(st.booleans())  # the form read without the scanner
    bodies = [str(inner) if printed else draw(st.sampled_from(SPACED))(str(inner))
              for _ in range(depth)]
    if draw(st.booleans()):
        bodies[draw(st.integers(0, depth - 1))] = str(other)
    fault = draw(st.sampled_from(["none", "index", "bond", "joint", "inner"]))
    if fault != "none" and depth > 1:
        level = draw(st.integers(1, depth - 1))
        if fault == "index":
            indices[level] = draw(st.sampled_from(BAD_INDICES))
        elif fault == "bond":  # from level 3 on, one more does not bond
            indices[level] = str(int(indices[level]) + 1)
        elif fault == "inner":
            body = bodies[level]
            at = draw(st.integers(0, len(body)))
            bodies[level] = body[:at] + draw(st.sampled_from("@;|()[]w+/,-0 ")) + body[at:]
    pieces = ["(%s| %s)" % pair for pair in zip(indices, bodies)]
    if fault == "joint" and depth > 1:
        pieces[level] = "inf" + indices[level]
    sep = "; " if printed else draw(st.sampled_from([";", "; ", " ;  "]))
    return p, sep.join(pieces), mode, kappa


def _outcome(read, *args):
    try:
        return read(*args)
    except LongSolError as err:
        return type(err), err.code, err.position, str(err)


DIGITS_18, DIGITS_19 = "9" * 18, "1" * 19


@settings(max_examples=200)
@given(thread_literals(), st.integers(0, 3))
# printed all-joint threads: one that bonds, one that does not
@example(((2, 3), "inf1; inf3; inf9", None, None), 2)
@example(((2, 2), "inf0; inf1; inf2", None, None), 0)
# a body holding '|' or '); (', read as the scanner splits it
@example(((2,), "(0| [1|2]); (1| [1|2])", "tower", 2), 0)
@example(((2,), "(0| w| 1); (1| w| 1)", "long", None), 1)
@example(((2, 2), "(0| w); (1); (1| w); (1)", "long", None), 0)
@example(((2, 2), "(0| [1]); (1); (1| [1]); (1)", "tower", 2), 3)
# indices of 18 digits (read at once) and of 19 (left to the scanner)
@example(((2,), "(%s| [1; w]); (%s| [1; w])" % (DIGITS_18, DIGITS_18), "tower", 2), 0)
@example(((2,), "(%s| [1; w]); (%s| [1; w])" % (DIGITS_19, DIGITS_19), "tower", 2), 0)
@example(((2,), "inf%s; inf%s" % (DIGITS_19, DIGITS_19), None, None), 0)
# another body at a level above the last, and indices in other scripts
@example(((2, 2), "(0| [1]); (1| [3]); (1| [1])", "tower", 2), 0)
@example(((2,), "(0| w+1); (1| w+2)", "long", None), 0)
@example(((2,), "inf0; inf\u0663", None, None), 0)
@example(((2,), "(0| [1]); (\u00b9| [1])", "tower", 2), 0)
# joints and a piece that is not one: left to the scanner
@example(((2,), "inf0; abc1", None, None), 0)
@example(((2,), " inf0; inf1", None, None), 0)
# text the one split takes apart otherwise than the printed form: no
# "| ", a bare head, a trailing "; ", both forms mixed, a body ending in
# "| ", and a joint-like piece not starting with "inf"
@example(((2,), "(", "long", None), 0)
@example(((2,), "(12345", "long", None), 0)
@example(((2,), "inf", None, None), 0)
@example(((2,), "inf0; ", None, None), 0)
@example(((2,), "(0| w); ", "long", None), 0)
@example(((2,), "inf0; (1| w)", "long", None), 0)
@example(((2,), "(0| w); inf1", "long", None), 0)
@example(((2,), "(0| ", "long", None), 0)
@example(((2,), "(0| w); (1| ", "long", None), 0)
@example(((), "abc1", None, None), 0)
# two faults, hand-spaced: the inner point moves at one level and an
# index fails to bond at another, either one lower
@example(((2, 3, 5), "(0| [1]);(1| [2]);(4| [1]);(4| [1])", "tower", 2), 0)
@example(((2, 3, 5), "(0| [1]);(1| [1]);(2| [1]);(3| [2])", "tower", 2), 1)
@example(((2, 3, 5), "(0| w);(1| w);(3| w+1);(8| w)", "long", None), 2)
# p shorter than the depth
@example(((2,), "inf0; inf1; inf1", None, None), 0)
@example(((2,), "(0| w);(1| w+1);(1| w)", "long", None), 0)
@example(((), "(0| w+1); (0| w+1)", "long", None), 0)
def test_thread_reader_matches_per_level_reader(case, offset):
    p, text, mode, kappa = case
    args = (p, text, mode, kappa, offset)
    assert _outcome(per_level(parse_thread), *args) == _outcome(ref_parse_thread, *args)


@st.composite
def printed_threads(draw, kind):
    """(p, depth, text, mode, kappa): a thread of up to len(p) + 3 levels
    over a tuple p, written from its point template: all joints, or one
    tower stop or base at kappa 1..4, or one long point at every level.
    Past the len(p) + 1 levels p covers, the stage keeps its size, as
    ``stage_size`` gives it."""
    p = tuple(draw(st.lists(st.sampled_from([2, 3, 5]), max_size=5)))
    depth = draw(st.integers(1, len(p) + 3))
    sizes = list(accumulate(p + (1, 1), times, initial=1))[:depth]
    mode, kappa, inner = None, None, None
    if kind == "tower":
        inner = draw(tower_points().filter(lambda x: not x.is_joint))
        mode, kappa = "tower", inner.kappa
    elif kind == "long":
        inner = draw(long_points.filter(lambda x: not x.is_zero))
        mode = "long"
    top, template = draw(st.integers(0, 10**4)), point_format(inner)
    return p, depth, "; ".join(template % (top % n) for n in sizes), mode, kappa


@pytest.mark.parametrize("kind", ["joints", "tower", "long"])
@given(data=st.data())
def test_printed_threads_skip_the_scanner(kind, data):
    # a printed thread is read without being split into levels, and one
    # deeper than p covers is refused by Thread as the per-level reader
    # refuses it
    p, depth, text, mode, kappa = data.draw(printed_threads(kind))
    want = _outcome(ref_parse_thread, p, text, mode, kappa)
    if depth <= len(p) + 1:
        assert isinstance(want, RefThread)
    else:
        assert want == (ThreadMismatchError, "thread-mismatch", None,
                        "depth %d needs at least %d bonding exponents" % (depth, depth - 1))
    split = parsing._split_top

    def refuse(piece, *args):  # the body's own literals still split
        if piece == text:
            raise AssertionError("the printed form is not split into levels")
        return split(piece, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parsing, "_split_top", refuse)
        assert _outcome(per_level(parse_thread), p, text, mode, kappa) == want


def _split_outcome(split, *args):
    try:
        return split(*args)
    except ParseError as err:
        return str(err), err.position


@settings(max_examples=300)
@given(st.one_of(st.text("ab ,;+:", max_size=20), st.text("ab,;+:()[]", max_size=20)),
       st.sampled_from(",;+:"), st.integers(0, 5))
@example("a,b", ",", 0)
@example("(a,b],c", ",", 2)
@example("a)b,c", ",", 1)
@example("[a;b", ";", 0)
def test_split_top_matches_depth_loop(text, sep, offset):
    assert _split_outcome(parsing._split_top, text, sep, offset) == _split_outcome(
        ref_split_top, text, sep, offset)


@pytest.mark.parametrize("mode, kappa, bodies", [
    ("tower", 3, ["[1,-2; w^2*2+7/9]"]),
    ("tower", 3, ["[1,-2; w^2*2+7/9]", " [1, -2; w^2*2 + 7/9]"]),
    ("long", None, ["w1*(3) + w + 1/2"]),
    ("long", None, ["w1*(3) + w + 1/2", "w1*(3)+w+1/2"]),
])
def test_thread_reads_each_inner_literal_once(monkeypatch, mode, kappa, bodies):
    # bodies spell one inner point; a thread printed with any one of them,
    # "(0| B); (1| B); (3| B); ...", reads B once
    name = "parse_tower_point" if mode == "tower" else "parse_long_point"
    reader, calls = getattr(parsing, name), []

    def counted(text, *args):
        calls.append(text)
        return reader(text, *args)

    monkeypatch.setattr(parsing, name, counted)
    p = (2,) * 9
    indices = [1023 % n for n in accumulate(p, times, initial=1)]
    for body in bodies:
        calls.clear()
        text = "; ".join("(%d| %s)" % (i, body) for i in indices)
        thread = per_level(parse_thread)(p, text, mode, kappa)
        assert calls == [" " + body]
        assert thread == ref_parse_thread(p, text, mode, kappa)


@given(st.lists(st.sampled_from([2, 3, 12]), max_size=2),
       st.lists(st.sampled_from([2, 5, 6]), min_size=1, max_size=2))
def test_descriptor_round_trip(prefix, cycle):
    s = SequenceDescriptor(tuple(prefix), tuple(cycle))
    assert parse_descriptor(str(s)) == s


@given(st.integers(1, 4), st.integers(0, 95), st.integers(0, 95))
def test_arc_round_trip(n, a, b):
    start, end = F(a, 24) % n, F(b, 24) % n
    if start == end:
        return
    arc = Arc(n, start, end)
    assert parse_arc(str(arc), n) == arc


# ---------------------------------------------------------------------------
# each reader answers as its oracle or its general reader: the same value,
# or the same error type, code, position and message

LIMIT = sys.get_int_max_str_digits()
NATS = st.integers(0, 12).map(str)


def _sums(exponents):
    terms = st.one_of(NATS, st.builds(
        "w{}{}".format,
        st.one_of(st.just(""), exponents.map("^{}".format)),
        st.one_of(st.just(""), NATS.map("*{}".format))))
    return st.builds(lambda ts, sep: sep.join(ts), st.lists(terms, min_size=1, max_size=4),
                     st.sampled_from(["+", " + ", "+  ", "\t+"]))


# grammar literals, in any order, with blanks between tokens
ORDINAL_TEXTS = _sums(st.recursive(
    st.one_of(NATS, st.just("w")),
    lambda e: st.one_of(e.map("w^{}".format), _sums(e).map("({})".format)),
    max_leaves=10))
# the grammar's characters, blanks, and digits of other scripts
MUTATIONS = "w^*+()0123456789 \t٣２/x"


def _mutated(text, at, new, kind):
    at %= len(text) + 1
    if kind == "insert":
        return text[:at] + new + text[at:]
    return text[:at] + (new if kind == "replace" else "") + text[at + 1:]


MUTATED = st.builds(_mutated, ORDINAL_TEXTS, st.integers(0, 200),
                    st.sampled_from(MUTATIONS), st.sampled_from(["insert", "replace", "delete"]))


def _split_number(text, at):
    """The text with a blank between two digits, if it has two in a row."""
    cuts = [i for i in range(1, len(text)) if text[i - 1:i + 1].isdigit()]
    if not cuts:
        return text
    cut = cuts[at % len(cuts)]
    return text[:cut] + " " + text[cut:]


def _nested_forms(depth):
    return [_nested(depth), "w^" * (depth - 2) + "w", "1 + " + "w^" * (depth - 2) + "w*2",
            "w^(" + "w^" * (depth - 3) + "w + 1)"]


SPLIT_NUMBERS = st.builds(_split_number, ORDINAL_TEXTS.filter(lambda t: any(
    a.isdigit() and b.isdigit() for a, b in zip(t, t[1:]))), st.integers(0, 20))
NESTED = st.sampled_from([15, 16, 17]).flatmap(lambda d: st.sampled_from(_nested_forms(d)))
AT_THE_LIMIT = st.builds("{}{}{}".format, st.sampled_from(["w*", "w^", "", "w+"]),
                         st.sampled_from([LIMIT - 1, LIMIT, LIMIT + 1]).map("7".__mul__),
                         st.sampled_from(["", "+1", "*2"]))


@settings(max_examples=400)
@given(st.one_of(ORDINAL_TEXTS, MUTATED, ordinals.map(str), SPLIT_NUMBERS, NESTED, AT_THE_LIMIT))
@example("3 4")
@example("w^2 1")
@example("w*1 0")
@example("٣")
@example("w^２")
@example("w*" + "7" * LIMIT)
@example("w*" + "7" * (LIMIT + 1))
@example("7" * (LIMIT + 1) + "+w")
@example("w^(" + "1" * LIMIT + ")")
@example("w + 1 + w^2*0 + 0")
@example("w^(w*0) + 1")
@example("")
@example(" ")
@example("w^()")
def test_ordinal_reader_agrees_with_scanner(text):
    for offset in (0, 7):
        assert _outcome(parse_ordinal, text, offset) == _outcome(ref_parse_ordinal, text, offset)


@pytest.mark.parametrize("depth", [15, 16, 17])
def test_ordinal_reader_keeps_the_depth_bound(depth):
    for text in _nested_forms(depth):
        read = _outcome(parse_ordinal, text)
        if depth > DEFAULT_DEPTH_BOUND:
            assert read[0] is DepthBoundError, text
        else:
            assert read.depth == depth, text
        assert read == _outcome(ref_parse_ordinal, text)


# numbers with blanks inside, digits of other scripts and runs at the limit
FRACTION_NUMBERS = st.one_of(
    st.integers(0, 30).map(str), st.sampled_from(["0", "00", "", "x", "\u0663", "\uff12", "\u00b9"]),
    st.builds("{} {}".format, NATS, NATS),
    st.sampled_from([LIMIT - 1, LIMIT, LIMIT + 1]).map("7".__mul__))
BLANKS = st.sampled_from(["", " ", "\t ", "\u2003"])


@settings(max_examples=300)
@given(st.one_of(
    st.builds("{1}{0}{1}/{1}{2}{1}{3}".format, FRACTION_NUMBERS, BLANKS, FRACTION_NUMBERS,
              st.sampled_from(["", " 3", "/2", "x", "+1", "\u0663"])),
    st.text("0123/ x\u0663", max_size=10)), st.integers(0, 5))
@example("1/2", 0)
@example("2/2", 3)
@example("1/ 0", 0)
@example("1/0 x", 0)
@example("1 2/3", 0)
@example("1/" + "7" * LIMIT, 0)
@example("1/" + "7" * (LIMIT + 1), 0)
def test_unit_fraction_reader_agrees_with_scanner(text, offset):
    assert _outcome(parsing._parse_unit_fraction, text, offset) == _outcome(
        ref_parse_unit_fraction, text, offset)


def _position_texts(n):
    number = st.one_of(st.integers(0, 30).map(str), st.sampled_from(
        ["0" * 3, "1" * LIMIT, "1" * (LIMIT + 1), "٣", "-0", "-1", "+1", "1 2", " 1", ""]))
    return st.one_of(number, st.builds("{}+{}/{}".format, number, number, number),
                     st.builds("{}+{}".format, number, number), st.text("0123+/ -", max_size=8))


@settings(max_examples=300)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), _position_texts(n))))
@example((3, "2+2/3"))
@example((3, "3"))
@example((3, "1+3/3"))
@example((3, "1+0/0"))
@example((3, "01+02/04"))
@example((3, "1+1/" + "7" * LIMIT))
@example((3, "1+1/" + "7" * (LIMIT - 4)))
def test_position_reader_agrees_with_scanner(case):
    n, text = case
    assert _outcome(parsing._read_position, text, n, 3) == _outcome(
        parsing._parse_position, text, n, 3)
    assert _outcome(parse_arc, text + "..0", n) == _outcome(
        lambda: Arc(n, parsing._parse_position(text, n, 0), 0))


def _entrywise(text):
    return tuple(parsing._parse_int(piece, start) for piece, start in parsing._split_top(text, ","))


@settings(max_examples=300)
@given(st.one_of(
    st.lists(st.integers(0, 10**6).map(str), min_size=1, max_size=6).map(",".join),
    st.text("0123456789,-+ ٣_\t\x0b\x1c", max_size=12)))
@example("2,2,2")
@example("1_0")
@example("+3")
@example("\x1c3")
@example("0" * LIMIT + "1")
@example("-" + "7" * (LIMIT + 1))
@example("2,,2")
@example("")
@example(",")
@example("7" * LIMIT)
@example("2," + "7" * (LIMIT + 1))
@example(" 2,3")
@example("2,-3")
@example("٣")
def test_exponent_reader_agrees_with_entrywise_reader(text):
    assert _outcome(parsing.parse_exponents, text) == _outcome(_entrywise, text)
