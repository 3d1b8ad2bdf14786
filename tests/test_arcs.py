"""Arc combinatorics: preimages, the covering witness, chain patterns."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from reference_models import (
    ref_arcs_intersect,
    ref_chain_check,
    ref_contains,
    ref_format_position,
    ref_indecomposability_witness,
    ref_preimage_components,
    ref_uncovered_point,
)

from longsol import (
    Arc,
    StageDomainError,
    WitnessInputError,
    arcs_intersect,
    circular_chain_check,
    format_position,
    indecomposability_witness,
    preimage_components,
    uncovered_point,
)


def test_arc_basics():
    wrap = Arc(3, 2, 1)
    assert wrap.length == 2
    assert wrap.contains(F(5, 2))
    assert wrap.contains(0)
    assert not wrap.contains(F(3, 2))
    assert str(Arc(2, F(3, 2), 0)) == "1+1/2..0"
    with pytest.raises(StageDomainError):
        Arc(2, 0, 2)
    with pytest.raises(StageDomainError):
        Arc(2, 1, 1)
    with pytest.raises(StageDomainError):
        Arc(0, 0, 0)


def test_format_position():
    assert format_position(F(0)) == "0"
    assert format_position(F(5, 2)) == "2+1/2"


def test_arcs_intersect():
    a = Arc(1, 0, F(1, 2))
    assert arcs_intersect(a, Arc(1, F(1, 4), F(3, 4)))
    assert arcs_intersect(a, Arc(1, F(1, 2), F(3, 4)))  # touching endpoints
    assert not arcs_intersect(a, Arc(1, F(3, 5), F(9, 10)))
    assert arcs_intersect(Arc(1, F(3, 4), F(1, 4)), a)  # wrap-around
    with pytest.raises(StageDomainError):
        arcs_intersect(a, Arc(2, 0, 1))


def test_uncovered_point():
    a = Arc(1, 0, F(1, 2))
    b = Arc(1, F(1, 4), F(3, 4))
    assert uncovered_point(a, b) == F(7, 8)
    covering = Arc(1, F(1, 3), 0)
    assert uncovered_point(a, covering) is None
    assert uncovered_point(covering, a) is None
    with pytest.raises(StageDomainError, match="arcs live on different stages"):
        uncovered_point(a, Arc(2, 0, F(1, 2)))


def test_preimage_components_frozen():
    comps = preimage_components(Arc(3, 1, F(3, 2)), 2)
    assert comps == [Arc(6, 1, F(3, 2)), Arc(6, 4, F(9, 2))]
    wrapping = preimage_components(Arc(3, 2, F(1, 2)), 2)
    assert wrapping == [Arc(6, 2, F(7, 2)), Arc(6, 5, F(1, 2))]
    with pytest.raises(StageDomainError):
        preimage_components(Arc(3, 0, 1), 0)


positions = st.integers(0, 59).map(lambda k: F(k, 20))


@given(st.integers(1, 3), positions, positions, st.integers(1, 4), positions)
def test_preimage_is_exact_lift(n, start, end, m, probe):
    start, end = start % n, end % n
    if start == end:
        return
    arc = Arc(n, start, end)
    comps = preimage_components(arc, m)
    assert len(comps) == m
    for i, c in enumerate(comps):
        assert c.length == arc.length
        for j in range(i + 1, m):
            assert not arcs_intersect(c, comps[j])
    lifted_probe = probe % (n * m)
    in_some = any(c.contains(lifted_probe) for c in comps)
    assert in_some == arc.contains(lifted_probe % n)


def test_witness_report():
    c = Arc(1, 0, F(1, 2))
    g = Arc(1, F(2, 5), F(1, 10))
    report = indecomposability_witness(2, 1, c, g)
    assert report.multiplicity == 2
    assert report.stage == 1
    assert report.c_components == (Arc(2, 0, F(1, 2)), Arc(2, 1, F(3, 2)))
    assert report.c_separators == (F(3, 4), F(7, 4))
    assert len(report.pair_uncovered) == 4
    for (i, j), point in report.pair_uncovered:
        assert not report.c_components[i].contains(point)
        assert not report.g_components[j].contains(point)
    for sep in report.c_separators:
        assert not any(comp.contains(sep) for comp in report.c_components)
    for sep in report.g_separators:
        assert not any(comp.contains(sep) for comp in report.g_components)
    assert report.witnesses_indecomposability


def test_witness_rejections():
    c = Arc(1, 0, F(1, 2))
    g = Arc(1, F(2, 5), F(1, 10))
    with pytest.raises(WitnessInputError):
        indecomposability_witness(1, 1, c, g)
    with pytest.raises(WitnessInputError):
        indecomposability_witness(2, 2, Arc(2, 0, 1), g)
    sparse = Arc(1, F(3, 5), F(9, 10))
    with pytest.raises(WitnessInputError):
        indecomposability_witness(2, 1, c, sparse)


CHAIN = (
    Arc(1, 0, F(3, 10)),
    Arc(1, F(1, 4), F(11, 20)),
    Arc(1, F(1, 2), F(4, 5)),
    Arc(1, F(3, 4), F(1, 20)),
)


def test_chain_check_true():
    assert circular_chain_check(list(CHAIN))
    assert circular_chain_check([CHAIN[0]])
    assert circular_chain_check([CHAIN[0], Arc(1, F(1, 4), F(3, 4))])


def test_chain_check_false():
    # an adjacent pair that misses breaks the pattern, already with three arcs
    assert not circular_chain_check(
        [Arc(1, 0, F(1, 5)), Arc(1, F(1, 10), F(3, 10)), Arc(1, F(1, 2), F(3, 5))]
    )
    # with four arcs an opposite pair can intersect and break it
    assert not circular_chain_check(
        [Arc(1, 0, F(3, 5)), Arc(1, F(1, 2), F(7, 10)),
         Arc(1, F(11, 20), F(9, 10)), Arc(1, F(17, 20), F(1, 10))]
    )
    assert not circular_chain_check([Arc(1, 0, F(1, 4)), Arc(1, F(1, 2), F(3, 4))])


def test_chain_check_rejections():
    with pytest.raises(StageDomainError):
        circular_chain_check([])
    with pytest.raises(StageDomainError):
        circular_chain_check([Arc(1, 0, F(1, 2)), Arc(2, 0, 1)])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_chain_pulls_back_to_chain(m):
    lifted = [
        preimage_components(arc, m)[k] for k in range(m) for arc in CHAIN
    ]
    assert circular_chain_check(lifted)


@st.composite
def arc_lists(draw):
    """Arcs with endpoints on a grid of halves, thirds or quarters, so that
    shared endpoints and arcs wrapping past 0 are common; half the lists
    are jittered chains, each arc ending near the next one's start."""
    n = draw(st.integers(1, 4))
    grid = n * draw(st.integers(2, 4))
    t = draw(st.integers(1, min(8, grid)))
    if draw(st.booleans()):
        starts = sorted(draw(st.lists(st.integers(0, grid - 1), min_size=t,
                                      max_size=t, unique=True)))
        jitter = st.sampled_from((-1, 0, 0, 0, 1))
        ends = [starts[(i + 1) % t] + draw(jitter) for i in range(t)]
        turn = draw(st.integers(0, t - 1))
        starts, ends = starts[turn:] + starts[:turn], ends[turn:] + ends[:turn]
    else:
        cells = st.lists(st.integers(0, grid - 1), min_size=t, max_size=t)
        starts, ends = draw(cells), draw(cells)
    arcs = []
    for s, e in zip(starts, ends):
        e = e % grid if e % grid != s else (s + 1) % grid
        arcs.append(Arc(n, F(s * n, grid), F(e * n, grid)))
    return arcs


@given(arc_lists())
def test_chain_check_matches_every_pair(arcs):
    assert circular_chain_check(arcs) == ref_chain_check(arcs)


# ---------------------------------------------------------------------------
# the integer two-arc rules give the Fraction rules' values

# small denominators, and large ones that are prime, coprime or share a factor
DENOMINATORS = st.one_of(st.integers(1, 30), st.sampled_from(
    [999983, 10**9 + 7, 2**61 - 1, 3**40, 2**64, 6**30, 10**40 + 1]))


@st.composite
def unit_fractions(draw):
    """A fraction in [0, 1)."""
    den = draw(DENOMINATORS)
    return F(draw(st.integers(0, den - 1)), den)


@st.composite
def drawn_arcs(draw, n):
    start = draw(st.integers(0, n - 1)) + draw(unit_fractions())
    end = draw(st.integers(0, n - 1)) + draw(unit_fractions())
    return Arc(n, start, end if end != start else (start + F(1, 2)) % n)


@st.composite
def covering_pairs(draw):
    """(n, c, g) with c and g covering the stage, c from s to s + lc and g
    from s + lc - d1 round to s + d2: the two overlap by d1 and d2 at its
    ends.  Every length is a drawn fraction, so four denominators meet."""
    n = draw(st.integers(1, 3))
    s = draw(st.integers(0, n - 1)) + draw(unit_fractions())
    d1, d2 = (n * (draw(unit_fractions()) + 1) / 8 for _ in range(2))
    lc = d1 + d2 + (n - d1 - d2) * (draw(unit_fractions()) + 1) / 2
    if lc >= n:
        lc = (d1 + d2 + n) / 2
    return n, Arc(n, s % n, (s + lc) % n), Arc(n, (s + lc - d1) % n, (s + d2) % n)


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    drawn_arcs(n), drawn_arcs(n), st.integers(0, n - 1).flatmap(
        lambda i: unit_fractions().map(lambda f: i + f)))), st.integers(1, 4))
def test_integer_rules_match_fraction_rules(case, m):
    a, b, pos = case
    assert a.contains(pos) == ref_contains(a, pos)
    assert a.contains(a.start) and a.contains(a.end)
    assert arcs_intersect(a, b) == ref_arcs_intersect(a, b)
    assert uncovered_point(a, b) == ref_uncovered_point(a, b)
    assert preimage_components(a, m) == ref_preimage_components(a, m)
    assert format_position(pos) == ref_format_position(pos)


def _witness_outcome(witness, *args):
    try:
        return witness(*args)
    except WitnessInputError:
        return None


@settings(max_examples=150)
@given(st.one_of(covering_pairs(), st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), drawn_arcs(n), drawn_arcs(n)))), st.integers(2, 4))
def test_integer_witness_matches_fraction_witness(case, m):
    n, c, g = case
    report = _witness_outcome(indecomposability_witness, m, n, c, g)
    assert report == ref_indecomposability_witness(m, n, c, g)
    if report is not None:
        assert report.witnesses_indecomposability
        for comp in report.c_components + report.g_components:
            assert comp == Arc(comp.n, comp.start, comp.end)
