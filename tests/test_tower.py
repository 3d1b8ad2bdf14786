"""Tower levels, cross-checked against a neighborhood-germ classifier.

The closed-form type assignment (base 1, integer stop at depth j mapped
to kappa + 1 - j, joint on top) is validated point by point against
``ref_point_type``, which recomputes types from the order structure of
left-approach families and knows nothing about address depths.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from longsol import (
    IDENTITY_TOKEN,
    MIN,
    Address,
    InvalidPointError,
    LevelMismatchError,
    NotSameOrbitError,
    TowerPoint,
    add,
    base_automorphism_token,
    compare_base,
    mul,
    nat,
    omega_pow,
    point_type,
    same_orbit,
    strip_top,
    within_copy_hat,
)
from reference_models import ref_point_type

W = omega_pow(nat(1))

_BASE_COORDS = (
    (nat(0), Fraction(1, 2)),
    (nat(1), Fraction(0)),
    (nat(7), Fraction(1, 3)),
    (W, Fraction(0)),
    (mul(W, nat(2)), Fraction(2, 5)),
    (add(omega_pow(nat(2)), nat(1)), Fraction(0)),
)


def level_points(kappa, ints=(-2, 0, 1, 3)):
    """Every address shape at the level over small coordinate pools."""
    pts = [TowerPoint(kappa)]
    for depth in range(1, kappa):
        for tup in itertools.product(ints, repeat=depth):
            pts.append(TowerPoint(kappa, Address(tup)))
    for tup in itertools.product(ints, repeat=kappa - 1):
        for rho, frac in _BASE_COORDS:
            pts.append(TowerPoint(kappa, Address(tup, rho, frac)))
    return pts


_POINTS = {k: level_points(k) for k in (1, 2, 3, 4)}


def base(rho, frac=0):
    return TowerPoint(1, Address((), rho, Fraction(frac)))


def test_point_shapes_validated():
    with pytest.raises(InvalidPointError):
        TowerPoint(0)
    with pytest.raises(InvalidPointError):
        TowerPoint(1, Address((3,)))  # no stops on the bottom line
    with pytest.raises(InvalidPointError):
        TowerPoint(2, Address((1, 2)))  # depth past kappa - 1
    with pytest.raises(InvalidPointError):
        TowerPoint(2, Address((), nat(5)))  # base needs kappa - 1 integers
    with pytest.raises(InvalidPointError):
        Address((3,), nat(0), Fraction(0))  # written as the stop above it


def test_type_frozen_examples():
    assert point_type(TowerPoint(2, Address((5,)))) == 2
    assert point_type(TowerPoint(1)) == 2
    assert point_type(base(W)) == 1
    assert point_type(TowerPoint(3)) == 4
    assert point_type(TowerPoint(3, Address((0,)))) == 3
    assert point_type(TowerPoint(3, Address((2, 7)))) == 2
    assert point_type(TowerPoint(3, Address((1, -3), W, Fraction(1, 2)))) == 1
    assert point_type(TowerPoint(5)) == 6


@pytest.mark.parametrize("kappa", [1, 2, 3, 4])
def test_type_matches_germ_model(kappa):
    for p in _POINTS[kappa]:
        assert point_type(p) == ref_point_type(p), str(p)


@pytest.mark.parametrize("kappa", [1, 2, 3, 4, 5])
def test_level_has_kappa_plus_one_classes(kappa):
    pts = _POINTS.get(kappa) or level_points(kappa, ints=(0, 1))
    types = {point_type(p) for p in pts}
    assert types == set(range(1, kappa + 2))
    top = [p for p in pts if point_type(p) == kappa + 1]
    assert top == [TowerPoint(kappa)]


def test_same_orbit():
    assert same_orbit(TowerPoint(3, Address((4,))), TowerPoint(3, Address((9,))))
    assert not same_orbit(TowerPoint(3, Address((4,))),
                          TowerPoint(3, Address((4, 0))))
    assert not same_orbit(TowerPoint(2, Address((1,))),
                          TowerPoint(2, Address((1,), nat(0), Fraction(1, 2))))
    with pytest.raises(LevelMismatchError):
        same_orbit(TowerPoint(2), TowerPoint(3))


def test_strip_top():
    assert strip_top(TowerPoint(2, Address((5,)))) is MIN
    assert strip_top(TowerPoint(3, Address((2, 7)))) == TowerPoint(2, Address((7,)))
    assert strip_top(TowerPoint(2, Address((3,), W))) == base(W)
    with pytest.raises(InvalidPointError):
        strip_top(TowerPoint(3))
    with pytest.raises(InvalidPointError):
        strip_top(base(nat(4)))


def test_strip_preserves_type():
    for kappa in (2, 3, 4):
        for p in _POINTS[kappa]:
            if p.is_joint:
                continue
            rest = strip_top(p)
            if rest is MIN:
                assert point_type(p) == kappa
            else:
                assert point_type(rest) == point_type(p)


@given(st.integers(-50, 50))
def test_prefixing_keeps_type(z):
    for p in _POINTS[3]:
        if p.is_joint:
            continue
        a = p.address
        lifted = TowerPoint(4, Address((z,) + a.ints, a.rho, a.frac))
        assert point_type(lifted) == point_type(p)


def test_compare_base():
    assert compare_base(base(nat(3)), base(W)) == -1
    assert compare_base(base(nat(2), "1/4"), base(nat(2), "1/2")) == -1
    assert compare_base(base(W, "1/2"), base(W, "1/2")) == 0
    assert compare_base(base(add(W, nat(1))), base(W, "2/3")) == 1


def test_base_token_level_one():
    x, y = base(nat(5)), base(W, "1/2")
    token = base_automorphism_token(x, y)
    assert not token.is_identity
    assert (token.source, token.target, token.kappa) == (x, y, 1)
    assert token.fixed_above == base(add(W, nat(2)))
    assert base_automorphism_token(x, x) == IDENTITY_TOKEN  # no level, no ceiling


def test_base_token_translation():
    x = TowerPoint(2, Address((3,)))
    y = TowerPoint(2, Address((8,)))
    token = base_automorphism_token(x, y)
    assert (token.source, token.target, token.kappa, token.fixed_above) == (x, y, 2, None)
    assert within_copy_hat(x, y) == (5, IDENTITY_TOKEN)  # the shift goes to the recipe
    assert base_automorphism_token(x, x) == IDENTITY_TOKEN  # no level


def test_equal_points_give_the_identity_token():
    for p in (base(W, "1/2"), TowerPoint(2, Address((3,))),
              TowerPoint(2, Address((3,), W)), TowerPoint(3, Address((1, 4), W))):
        assert base_automorphism_token(p, p) == IDENTITY_TOKEN
        assert within_copy_hat(p, p) == (0, IDENTITY_TOKEN)


def test_base_token_rejections():
    with pytest.raises(InvalidPointError):
        base_automorphism_token(TowerPoint(2), TowerPoint(2, Address((1,))))
    with pytest.raises(LevelMismatchError):
        base_automorphism_token(TowerPoint(2, Address((1,))),
                                TowerPoint(3, Address((1,))))
    with pytest.raises(NotSameOrbitError):
        base_automorphism_token(
            TowerPoint(2, Address((3,))),
            TowerPoint(2, Address((3,), nat(0), Fraction(1, 2))),
        )


def test_within_copy_hat_is_the_base_token_of_the_rests():
    # kappa = 2: the hat is the level-1 base token of the rests, ceiling and all
    x, y = TowerPoint(2, Address((4,), nat(3))), TowerPoint(2, Address((6,), W))
    shift, hat = within_copy_hat(x, y)
    assert (shift, hat) == (2, base_automorphism_token(strip_top(x), strip_top(y)))
    assert hat.fixed_above == base(add(W, nat(2)))
    x, y = TowerPoint(3, Address((1, 4), W)), TowerPoint(3, Address((2, 9), mul(W, nat(2))))
    assert within_copy_hat(x, y) == (
        1, base_automorphism_token(strip_top(x), strip_top(y)))


def test_within_copy_hat():
    shift, hat = within_copy_hat(TowerPoint(2, Address((3,))),
                                 TowerPoint(2, Address((8,))))
    assert (shift, hat) == (5, IDENTITY_TOKEN)
    shift, hat = within_copy_hat(TowerPoint(3, Address((1, 4))),
                                 TowerPoint(3, Address((2, 9))))
    assert shift == 1
    assert not hat.is_identity
    assert hat.source == TowerPoint(2, Address((4,)))
    assert hat.target == TowerPoint(2, Address((9,)))
    assert hat.kappa == 2
    shift, hat = within_copy_hat(base(nat(2)), base(nat(6)))
    assert shift == 0
    assert hat == base_automorphism_token(base(nat(2)), base(nat(6)))
    shift, hat = within_copy_hat(TowerPoint(2, Address((2,), W)),
                                 TowerPoint(2, Address((2,), W)))
    assert (shift, hat) == (0, IDENTITY_TOKEN)
    with pytest.raises(NotSameOrbitError):
        within_copy_hat(TowerPoint(2, Address((1,))),
                        TowerPoint(2, Address((1,), nat(3))))
    for pair in ((TowerPoint(2), TowerPoint(2, Address((1,)))),
                 (TowerPoint(2, Address((1,))), TowerPoint(2))):
        with pytest.raises(InvalidPointError, match="joint has no within-copy"):
            within_copy_hat(*pair)
