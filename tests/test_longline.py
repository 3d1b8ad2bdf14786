"""Orbit classes of the closed long line used for stage material."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from longsol import (
    EndpointError,
    IDENTITY_TOKEN,
    INTERVAL_KIND,
    InvalidPointError,
    LongPoint,
    NG_KIND,
    NOT_PROVEN,
    PROVEN_DISTINCT,
    SAME,
    UNKNOWN,
    add,
    distinct_orbit_proof,
    is_ng,
    mul,
    nat,
    omega_pow,
    partition_class,
    same_orbit_recipe,
)

W = omega_pow(nat(1))


def block(gamma_int, rho=None, frac=0):
    return LongPoint(
        gamma=nat(gamma_int),
        rho=rho if rho is not None else nat(0),
        frac=Fraction(frac),
    )


def test_point_validation():
    with pytest.raises(InvalidPointError):
        LongPoint(frac=Fraction(3, 2))
    with pytest.raises(InvalidPointError):
        LongPoint(gamma=omega_pow(W))  # needs every exponent finite


def test_ordering():
    pts = [
        LongPoint(),
        LongPoint(frac=Fraction(1, 2)),
        LongPoint(rho=W),
        LongPoint(gamma=nat(1)),
        LongPoint(gamma=nat(1), rho=nat(3)),
        LongPoint(gamma=W),
    ]
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert (a < b) == (i < j)


def test_is_ng_frozen():
    assert is_ng(LongPoint(gamma=add(W, nat(2))))
    assert not is_ng(LongPoint(gamma=nat(3), rho=omega_pow(nat(2))))
    assert not is_ng(LongPoint())


def test_partition_class_frozen():
    lbl = partition_class(block(2))
    assert (lbl.kind, lbl.gamma) == (NG_KIND, nat(2))
    lbl = partition_class(block(2, rho=mul(W, nat(5)), frac=Fraction(1, 2)))
    assert (lbl.kind, lbl.gamma) == (INTERVAL_KIND, nat(2))
    lbl = partition_class(LongPoint(rho=add(omega_pow(nat(3)), nat(4))))
    assert (lbl.kind, lbl.gamma) == (INTERVAL_KIND, nat(0))


def test_excluded_points():
    with pytest.raises(EndpointError):
        partition_class(LongPoint())
    with pytest.raises(EndpointError):
        same_orbit_recipe(LongPoint(), block(1))


def test_distinct_same_point():
    assert distinct_orbit_proof(block(2), block(2)) == NOT_PROVEN


def test_distinct_ng_vs_interval():
    assert distinct_orbit_proof(block(2), block(2, frac=Fraction(1, 3))) \
        == PROVEN_DISTINCT


def test_distinct_power_blocks():
    for a in range(4):
        for b in range(4):
            x = LongPoint(gamma=omega_pow(nat(a)))
            y = LongPoint(gamma=omega_pow(nat(b)))
            want = PROVEN_DISTINCT if a != b else NOT_PROVEN
            assert distinct_orbit_proof(x, y) == want


def test_distinct_nonpower_blocks_stay_open():
    assert distinct_orbit_proof(block(3), block(5)) == NOT_PROVEN
    assert distinct_orbit_proof(block(3), LongPoint(gamma=W)) == NOT_PROVEN


def test_same_identity():
    answer = same_orbit_recipe(block(4), block(4))
    assert answer.status == SAME
    assert answer.token.is_identity


def test_same_within_block():
    x = block(2, rho=W, frac=Fraction(1, 2))
    y = block(2, rho=mul(W, nat(3)))
    answer = same_orbit_recipe(x, y)
    assert answer.status == SAME
    token = answer.token
    assert not token.is_identity
    assert (token.source, token.target) == (x, y)
    assert token.fixed_below == LongPoint(gamma=nat(2))
    assert token.fixed_above == LongPoint(gamma=nat(3))


def test_same_point_within_block_identity_mode():
    x = block(1, frac=Fraction(1, 7))
    answer = same_orbit_recipe(x, x)
    assert answer.status == SAME
    assert answer.token == IDENTITY_TOKEN  # no fixed region on an identity


def test_cross_block_unknown():
    assert same_orbit_recipe(block(1, frac=Fraction(1, 2)),
                             block(2, frac=Fraction(1, 2))).status == UNKNOWN
    assert same_orbit_recipe(block(3), block(5)).status == UNKNOWN


gammas = st.integers(0, 5).map(nat)
rhos = st.one_of(
    st.integers(0, 9).map(nat),
    st.integers(1, 3).map(lambda k: mul(W, nat(k))),
    st.just(omega_pow(nat(2))),
)
fracs = st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1)


@given(gammas, rhos, fracs, rhos, fracs)
def test_labels_constant_in_block(g, r1, f1, r2, f2):
    x = LongPoint(gamma=g, rho=r1, frac=f1)
    y = LongPoint(gamma=g, rho=r2, frac=f2)
    if x.is_zero or y.is_zero:
        return
    if is_ng(x) == is_ng(y):
        assert partition_class(x) == partition_class(y)
        assert same_orbit_recipe(x, y).status == SAME
    else:
        assert partition_class(x) != partition_class(y)
        assert distinct_orbit_proof(x, y) == PROVEN_DISTINCT


@given(gammas, rhos, fracs)
def test_label_kind_tracks_ng(g, r, f):
    x = LongPoint(gamma=g, rho=r, frac=f)
    if x.is_zero:
        return
    lbl = partition_class(x)
    assert (lbl.kind == NG_KIND) == is_ng(x)
    assert lbl.gamma == x.gamma
