"""Direct-limit cohomology groups and their supernatural invariants.

The closed-form invariant (cycle primes go infinite, leftover prefix
primes keep finite counts) is cross-checked against ``ref_supernatural``,
which expands the sequence to two horizons and compares prime counts,
and ``ref_member``, which scans partial products directly; direct-limit
canonical forms are checked against ``ref_dl_element``, which divides
exponents out of the numerator walking down from the given level.  The
factoring behind the invariant is checked against ``prime_counts``, plain
trial division.
"""

import itertools
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from longsol import (
    DepthBoundError,
    DirectLimitElement,
    InvalidPointError,
    SequenceDescriptor,
    StageDomainError,
    SupernaturalNumber,
    dl_add,
    dl_element,
    dl_of_rational,
    dl_value,
    h1_action,
    inequivalent_family,
    mccord_equivalent,
    member,
    supernatural_of,
)
from longsol.cohomology import MR_EXACT_BELOW, PRIME_CUT, _factorize
from reference_models import (
    prime_counts,
    ref_dl_element,
    ref_h1_action,
    ref_member,
    ref_supernatural,
)


def d(prefix, cycle):
    return SequenceDescriptor(tuple(prefix), tuple(cycle))


DESCRIPTORS = [
    d(p, c)
    for p in [(), (2,), (12,), (2, 3), (8, 9), (4,)]
    for c in [(2,), (3,), (5,), (2, 3), (6,), (10,), (2, 2)]
]


def test_descriptor_basics():
    s = d((2, 3), (5, 7))
    assert [s.entry(i) for i in range(1, 7)] == [2, 3, 5, 7, 5, 7]
    assert s.partial_product(0) == 1
    assert s.partial_product(4) == 210
    assert str(s) == "2,3:5,7"
    assert str(d((), (2,))) == ":2"
    with pytest.raises(InvalidPointError):
        d((2,), ())
    with pytest.raises(InvalidPointError):
        d((1,), (2,))
    with pytest.raises(InvalidPointError):
        s.entry(0)


def test_supernatural_number_basics():
    v = SupernaturalNumber(((3, 1), (2, 2)), frozenset({5}))
    assert v.finite == ((2, 2), (3, 1))
    assert v.infinite == frozenset({5})
    with pytest.raises(InvalidPointError):
        SupernaturalNumber(((2, 0),))
    with pytest.raises(InvalidPointError):
        SupernaturalNumber(((2, 1),), frozenset({2}))


def test_supernatural_frozen():
    assert supernatural_of(d((12,), (5,))) == SupernaturalNumber(
        ((2, 2), (3, 1)), frozenset({5})
    )
    assert supernatural_of(d((), (2,))) == SupernaturalNumber((), frozenset({2}))
    # prefix primes swallowed by the cycle lose their finite count
    assert supernatural_of(d((6,), (6,))) == SupernaturalNumber(
        (), frozenset({2, 3})
    )
    assert supernatural_of(d((8, 9), (5, 7))) == SupernaturalNumber(
        ((2, 3), (3, 2)), frozenset({5, 7})
    )


def test_supernatural_matches_expansion_model():
    for s in DESCRIPTORS:
        finite, infinite = ref_supernatural(s)
        got = supernatural_of(s)
        assert dict(got.finite) == finite, str(s)
        assert got.infinite == frozenset(infinite), str(s)


def test_mccord_frozen():
    assert mccord_equivalent(d((), (2,)), d((3,), (2,)))
    assert not mccord_equivalent(d((), (2,)), d((), (3,)))
    assert mccord_equivalent(d((), (2, 3)), d((), (6,)))
    assert mccord_equivalent(d((), (4,)), d((), (2,)))
    assert not mccord_equivalent(d((), (2,)), d((), (2, 5)))
    assert mccord_equivalent(d((2,), (3,)), d((), (3,)))


def test_mccord_hand_built_pairs():
    pairs_equivalent = [
        (d((), (2,)), d((2,), (2,))),
        (d((5,), (6,)), d((7,), (2, 3))),
        (d((), (10,)), d((), (2, 5))),
        (d((2, 2, 2), (3,)), d((), (9,))),
        (d((), (12,)), d((), (6, 2))),
    ]
    for a, b in pairs_equivalent:
        assert mccord_equivalent(a, b), "%s ~ %s" % (a, b)
        assert mccord_equivalent(b, a)
    pairs_distinct = [
        (d((), (2,)), d((), (6,))),
        (d((3,), (2,)), d((2,), (3,))),
        (d((), (5,)), d((5,), (7,))),
        (d((), (30,)), d((), (6,))),
    ]
    for a, b in pairs_distinct:
        assert not mccord_equivalent(a, b), "%s !~ %s" % (a, b)
        assert not mccord_equivalent(b, a)


small_descriptors = st.builds(
    SequenceDescriptor,
    st.lists(st.sampled_from([2, 3, 4, 12]), max_size=2).map(tuple),
    st.lists(st.sampled_from([2, 3, 5, 6]), min_size=1, max_size=2).map(tuple),
)


@given(small_descriptors, small_descriptors, small_descriptors)
def test_mccord_is_an_equivalence(a, b, c):
    assert mccord_equivalent(a, a)
    assert mccord_equivalent(a, b) == mccord_equivalent(b, a)
    if mccord_equivalent(a, b) and mccord_equivalent(b, c):
        assert mccord_equivalent(a, c)


def test_member_frozen():
    s = d((), (2,))
    assert member(s, F(5, 8))
    assert not member(s, F(1, 3))
    twelve_five = d((12,), (5,))
    assert member(twelve_five, F(1, 6))
    assert not member(twelve_five, F(1, 9))
    assert member(twelve_five, 7)


def test_member_matches_partial_product_scan():
    rationals = [F(a, b) for a in (0, 1, 5, -3) for b in (1, 2, 3, 8, 9, 12, 25)]
    for s in DESCRIPTORS:
        for r in rationals:
            assert member(s, r) == ref_member(s, r), "%s, %s" % (s, r)


def test_dl_canonicalization():
    s = d((), (2, 3))
    assert dl_element(s, 2, 6) == DirectLimitElement(0, 1)
    assert dl_element(s, 1, 2) == DirectLimitElement(0, 1)
    assert dl_element(s, 2, 8) == DirectLimitElement(2, 8)
    assert dl_element(s, 3, 0) == DirectLimitElement(0, 0)
    with pytest.raises(InvalidPointError):
        DirectLimitElement(-1, 1)


def test_dl_add_frozen():
    doubling = d((), (2,))
    u = dl_element(doubling, 1, 1)
    total = dl_add(doubling, u, u)
    assert total == DirectLimitElement(0, 1)
    assert dl_value(doubling, total) == 1
    s = d((), (2, 3))
    mixed = dl_add(s, dl_element(s, 0, 1), dl_element(s, 2, 1))
    assert mixed == DirectLimitElement(2, 7)
    assert dl_value(s, mixed) == F(7, 6)


elements = st.tuples(st.integers(0, 4), st.integers(-24, 24))
descriptors_2_30 = st.builds(
    SequenceDescriptor,
    st.lists(st.integers(2, 30), max_size=3).map(tuple),
    st.lists(st.integers(2, 30), min_size=1, max_size=3).map(tuple),
)


@given(small_descriptors, elements, elements, elements)
def test_dl_group_laws(s, eu, ev, ew):
    u = dl_element(s, *eu)
    v = dl_element(s, *ev)
    w = dl_element(s, *ew)
    zero = DirectLimitElement(0, 0)
    assert dl_add(s, u, v) == dl_add(s, v, u)
    assert dl_add(s, dl_add(s, u, v), w) == dl_add(s, u, dl_add(s, v, w))
    assert dl_add(s, u, zero) == u
    assert dl_add(s, u, DirectLimitElement(u.level, -u.numerator)) == zero
    assert dl_value(s, dl_add(s, u, v)) == dl_value(s, u) + dl_value(s, v)


@given(small_descriptors, elements)
def test_dl_membership_and_round_trip(s, eu):
    u = dl_element(s, *eu)
    r = dl_value(s, u)
    assert member(s, r)
    assert dl_of_rational(s, r) == u


levels = st.integers(0, 8)
numerators = st.one_of(st.just(0), st.integers(-(10**6), 10**6))


@settings(max_examples=200)
@given(descriptors_2_30, levels, numerators, levels, numerators)
@example(SequenceDescriptor((), (5,)), -1, 5, 0, 0)
def test_dl_matches_downward_walk(s, lu, nu, lv, nv):
    if lu < 0:
        for canonical in (dl_element, ref_dl_element):
            with pytest.raises(InvalidPointError):
                canonical(s, lu, nu)
        return
    u, v = DirectLimitElement(lu, nu), DirectLimitElement(lv, nv)
    cu, cv = ref_dl_element(s, lu, nu), ref_dl_element(s, lv, nv)
    assert dl_element(s, lu, nu) == cu
    assert dl_of_rational(s, F(nu, s.partial_product(lu))) == cu
    top = max(lu, lv)
    lifted = sum(x.numerator * s.partial_product(top) // s.partial_product(x.level)
                 for x in (u, v))
    assert dl_add(s, u, v) == ref_dl_element(s, top, lifted)
    assert (dl_value(s, u) == dl_value(s, v)) == (cu == cv)
    # the same element written lv levels deeper
    deeper = DirectLimitElement(lu + lv, nu * s.partial_product(lu + lv)
                                // s.partial_product(lu))
    assert dl_value(s, u) == dl_value(s, deeper) and ref_dl_element(s, deeper.level, deeper.numerator) == cu


# long prefixes and cycles of entries sharing primes, up to levels that
# take many whole cycles: the level search takes the prefix, doubles and
# bisects on the cycle count, then walks within one cycle
@settings(max_examples=200)
@given(st.builds(SequenceDescriptor,
                 st.lists(st.sampled_from([2, 3, 4, 6, 9, 10, 12]), max_size=6).map(tuple),
                 st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9]), min_size=1, max_size=5)
                 .map(tuple)),
       st.integers(0, 300), numerators)
@example(SequenceDescriptor((), (2,)), 4000, 1)
@example(SequenceDescriptor((4, 6), (2, 3)), 37, 5)
def test_dl_deep_levels_match_downward_walk(s, level, numerator):
    walked = 1
    for i in range(1, level + 1):
        walked *= s.entry(i)
    assert s.partial_product(level) == walked
    assert dl_element(s, level, numerator) == ref_dl_element(s, level, numerator)


def test_dl_of_rational_refuses_numerators_past_the_digit_limit():
    # 1/2^k over ":6" sits at level k with numerator 3^k: 4294 digits fit,
    # 4772 do not, and that numerator is never built
    assert dl_of_rational(d((), (6,)), F(1, 2**9000)).numerator == 3**9000
    with pytest.raises(DepthBoundError, match="printed integer longer than 4300 digits"):
        dl_of_rational(d((), (6,)), F(1, 2**10000))


def test_dl_of_rational_rejects_non_members():
    with pytest.raises(StageDomainError):
        dl_of_rational(d((), (2,)), F(1, 3))


def test_h1_action():
    assert h1_action(3, 2) == 3
    for n in range(1, 7):
        assert h1_action(1, n) == 1
    for m in range(1, 7):
        for n in range(1, 7):
            assert h1_action(m, n) == ref_h1_action(m, n) == m
    # the closed form does no work per joint
    assert h1_action(10**8, 10**5) == 10**8
    # covering multiplicities compose
    for m1, m2, n in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
        assert h1_action(m1 * m2, n) == h1_action(m1, m2 * n) * h1_action(m2, n)
    with pytest.raises(StageDomainError):
        h1_action(0, 2)


def test_inequivalent_family():
    family = inequivalent_family(12)
    assert len(family) == 12
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            assert not mccord_equivalent(a, b)
            assert supernatural_of(a).infinite != supernatural_of(b).infinite
    assert inequivalent_family(1) == [d((), (2,))]
    assert inequivalent_family(0) == []


# ---------------------------------------------------------------------------
# factoring: trial division below 100, Miller-Rabin, gcd with runs of the
# primes below PRIME_CUT, perfect powers, budgeted rho

# the trial-division primes end at 97, the runs at PRIME_CUT = 2^22;
# these sit on either side of the two cuts
ABOVE_CUT = [101, 103, 107, 109, 113, 127, 131, 9973, 10007,
             4194301, 4194319, 4194329]
factors = st.tuples(
    st.one_of(
        st.integers(2, 10**7 - 1),
        st.sampled_from(ABOVE_CUT),
        st.sampled_from([2, 3, 97, 1009]),
    ),
    st.integers(1, 3),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(factors, min_size=1, max_size=4), st.lists(factors, max_size=2))
def test_factorize_matches_trial_division(one, two):
    terms = [[k] * e for k, e in one], [[k] * e for k, e in two]
    numbers = [prod(sum(t, [])) for t in terms]
    assert _factorize(numbers) == [prime_counts(sum(t, [])) for t in terms]


def test_factorize_hand_cases():
    assert _factorize([1009**12, 17**30]) == [{1009: 12}, {17: 30}]
    assert 1009**12 > MR_EXACT_BELOW and 17**30 > MR_EXACT_BELOW
    assert 4194301 < PRIME_CUT < 4194319 < 9999991
    assert _factorize([10**18 + 3]) == [{10**18 + 3: 1}]
    assert _factorize([1, 2**3000 * 101]) == [{}, {2: 3000, 101: 1}]
    # thousands of digits: primes below the cut by gcd, powers by roots
    assert _factorize([999983**700, 999983**699 * 1000003, 9999991**600]) == [
        {999983: 700}, {999983: 699, 1000003: 1}, {9999991: 600},
    ]
    assert _factorize([4194319**5 * 9999991**7 * 4194301]) == [
        {4194301: 1, 4194319: 5, 9999991: 7},
    ]
    # 9999991 * 9999973 needs rho; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7, so only a fifth base proves it composite
    assert _factorize([9999991 * 9999973, 3215031751]) == [
        {9999973: 1, 9999991: 1},
        {151: 1, 751: 1, 28351: 1},
    ]


def test_many_small_semiprimes_fit_the_budget():
    # each gcd pass over a 44-bit entry is charged 1024 steps, so 300 of
    # them fit the budget; a way round the pass must cost no more per entry
    primes = [p for p in range(PRIME_CUT - 1, PRIME_CUT - 20000, -2)
              if all(p % q for q in range(3, 2049, 2))][:600]
    pairs = list(zip(primes[::2], primes[1::2]))
    assert len(pairs) == 300 and max(primes) < PRIME_CUT
    assert _factorize([a * b for a, b in pairs]) == [{a: 1, b: 1} for a, b in pairs]


def test_factorize_overflow_gives_the_cofactor_size():
    # past int's digit limit the cofactor could not even be printed
    with pytest.raises(DepthBoundError) as err:
        _factorize([9999991**349 * 9999973**350])
    assert str(err.value).startswith("no factor of a 16255-bit cofactor found")


descriptors = st.builds(
    SequenceDescriptor,
    st.lists(st.integers(2, 40), max_size=3).map(tuple),
    st.lists(st.integers(2, 40), min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=60)
@given(descriptors, descriptors)
def test_mccord_matches_expansion_model(a, b):
    assert mccord_equivalent(a, b) == (ref_supernatural(a)[1] == ref_supernatural(b)[1])


@settings(max_examples=60)
@given(descriptors, st.integers(-30, 30), st.lists(st.integers(2, 40), max_size=3))
def test_member_matches_scan(s, numerator, den_terms):
    r = F(numerator, prod(den_terms))
    assert member(s, r) == ref_member(s, r)
