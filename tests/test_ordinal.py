"""Ordinal arithmetic: frozen cases, law suites, and the vector model."""

from functools import cmp_to_key, lru_cache, reduce

import pytest
from hypothesis import given, settings, strategies as st

from longsol import (
    DEFAULT_DEPTH_BOUND,
    OMEGA,
    ONE,
    ZERO,
    CnfOrdinal,
    DepthBoundError,
    add,
    compare,
    mul,
    nat,
    omega_pow,
    parse_ordinal,
)
from reference_models import (
    cnf_to_vec,
    vec_add,
    vec_compare,
    vec_mul,
    vec_to_cnf,
    vec_trim,
)

W2 = omega_pow(nat(2))
W3 = omega_pow(nat(3))


def _sum(*terms):
    total = ZERO
    for t in terms:
        total = add(total, t)
    return total


def test_compare_reflexive():
    assert compare(OMEGA, OMEGA) == 0


def test_compare_small():
    assert compare(add(OMEGA, ONE), mul(OMEGA, nat(2))) == -1


def test_compare_frozen():
    # w^3 against w^2*5 + w
    lhs = W3
    rhs = add(mul(W2, nat(5)), OMEGA)
    assert compare(lhs, rhs) == 1


def test_add_absorption_frozen():
    # (w^2 + w*3) + (w*2 + 1) = w^2 + w*5 + 1
    a = _sum(W2, mul(OMEGA, nat(3)))
    b = _sum(mul(OMEGA, nat(2)), ONE)
    expected = _sum(W2, mul(OMEGA, nat(5)), ONE)
    assert add(a, b) == expected


def test_add_simple():
    assert add(OMEGA, ONE) == CnfOrdinal(((ONE, 1), (ZERO, 1)))
    assert add(ONE, OMEGA) == OMEGA


def test_mul_limit_frozen():
    # (w^2 + w) * w = w^3
    assert mul(add(W2, OMEGA), OMEGA) == W3


def test_mul_small_identities():
    assert mul(nat(2), OMEGA) == OMEGA
    assert mul(OMEGA, nat(2)) == add(OMEGA, OMEGA)
    assert omega_pow(ZERO) == ONE
    assert omega_pow(nat(2)) == W2


def test_mul_zero_and_one():
    a = _sum(W2, mul(OMEGA, nat(3)), nat(4))
    assert mul(a, ZERO) == ZERO
    assert mul(ZERO, a) == ZERO
    assert mul(a, ONE) == a
    assert mul(ONE, a) == a


def test_no_right_distributivity():
    # (1+1)*w = w but 1*w + 1*w = w*2
    lhs = mul(add(ONE, ONE), OMEGA)
    rhs = add(mul(ONE, OMEGA), mul(ONE, OMEGA))
    assert lhs == OMEGA
    assert rhs == mul(OMEGA, nat(2))
    assert lhs != rhs


def test_depth_bound():
    x = ONE
    with pytest.raises(DepthBoundError) as err:
        for _ in range(DEFAULT_DEPTH_BOUND + 1):
            x = omega_pow(x)
    assert err.value.code == "representation-overflow"


def test_ordering_consistency():
    small = [ZERO, ONE, nat(3), OMEGA, add(OMEGA, ONE), mul(OMEGA, nat(2)), W2]
    for i, a in enumerate(small):
        for j, b in enumerate(small):
            want = 0 if i == j else (-1 if i < j else 1)
            assert compare(a, b) == want
    assert sorted(reversed(small), key=cmp_to_key(compare)) == small


# ---------------------------------------------------------------------------
# exhaustive cross-check against the dense-vector model


def _family(top_index, max_coeff):
    vectors = [()]
    for _ in range(top_index + 1):
        vectors = [v + (c,) for v in vectors for c in range(max_coeff + 1)]
    return sorted({vec_trim(v) for v in vectors})


FAMILY = _family(3, 2)


@lru_cache(maxsize=None)
def _mul_cached(a, b):
    return vec_mul(a, b)


def test_model_roundtrip():
    for v in FAMILY:
        assert cnf_to_vec(vec_to_cnf(v)) == v


def test_compare_matches_model():
    for a in FAMILY:
        for b in FAMILY:
            assert compare(vec_to_cnf(a), vec_to_cnf(b)) == vec_compare(a, b)


def test_add_matches_model():
    for a in FAMILY:
        for b in FAMILY:
            assert add(vec_to_cnf(a), vec_to_cnf(b)) == vec_to_cnf(vec_add(a, b))


def test_mul_matches_model():
    core = _family(2, 2)
    for a in core:
        for b in core:
            assert mul(vec_to_cnf(a), vec_to_cnf(b)) == vec_to_cnf(
                _mul_cached(a, b)
            )


# ---------------------------------------------------------------------------
# law suites over generated ordinals (nested exponents included)

finite_ordinals = st.integers(0, 5).map(nat)
exponents = st.one_of(finite_ordinals, st.just(OMEGA), st.just(add(OMEGA, ONE)))


def _normalize(pairs):
    ordered = sorted(
        {e: c for e, c in pairs}.items(),
        key=cmp_to_key(lambda x, y: compare(x[0], y[0])),
        reverse=True,
    )
    return CnfOrdinal(tuple(ordered))


def _ordinals(exps):
    return st.lists(st.tuples(exps, st.integers(1, 4)), max_size=3).map(_normalize)


ordinals = _ordinals(exponents)
# the ordinals of the dense-vector model: finite exponents only
vector_ordinals = _ordinals(finite_ordinals)


@given(ordinals, ordinals, ordinals)
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(ordinals, ordinals, ordinals)
@settings(max_examples=60)
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(ordinals, ordinals, ordinals)
def test_left_distributive(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(ordinals, ordinals)
def test_compare_antisymmetric(a, b):
    assert compare(a, b) == -compare(b, a)
    assert (compare(a, b) == 0) == (a == b)


@given(ordinals, ordinals)
def test_add_monotone(a, b):
    total = add(a, b)
    assert compare(total, a) >= 0
    assert compare(total, b) >= 0
    if not b.is_zero:
        assert compare(total, a) == 1


@given(ordinals)
def test_add_identity(a):
    assert add(a, ZERO) == a
    assert add(ZERO, a) == a


# ---------------------------------------------------------------------------
# the sum of any number of summands


def test_add_of_at_most_one_nonzero_summand_is_that_summand():
    assert add() is ZERO
    assert add(ZERO, W2, ZERO) is W2
    assert add(OMEGA, ZERO) is OMEGA


def test_add_absorbs_across_summands():
    # w + w^2*2 + w^3 + w + 1 + w = w^3 + w*2: one head pops two kept terms
    assert add(OMEGA, mul(W2, nat(2)), W3, OMEGA, ONE, OMEGA) == add(W3, mul(OMEGA, nat(2)))


@given(st.lists(vector_ordinals, max_size=6))
def test_nary_add_matches_model(xs):
    expected = vec_to_cnf(reduce(vec_add, map(cnf_to_vec, xs), ()))
    assert add(*xs) == expected
    assert reduce(add, xs, ZERO) == expected


@given(st.lists(ordinals, max_size=6))
def test_nary_add_is_the_left_fold_and_the_parsed_sum(xs):
    total = add(*xs)
    assert total == reduce(add, xs, ZERO)
    assert parse_ordinal("+".join(map(str, xs)) or "0") == total
