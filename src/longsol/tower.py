"""Finite towers of long lines and their point classification.

Level 1 is the closed long line [0, omega_1].  Each further level is the
two-point compactification of integer-many copies of the previous level
with its right endpoint removed, ordered lexicographically.  On the
quotient circle (both endpoints identified into one joint) a point is:

  * the joint,
  * an address [z1, ..., zj] of integers ending at the minimum of the
    remaining factor (an "integer stop", 1 <= j <= kappa - 1), or
  * a full address [z1, ..., z(kappa-1)] ending in a base coordinate
    rho + t on the bottom long line, with (rho, t) != (0, 0).

Classification assigns type 1 to base points, type kappa + 1 - j to an
integer stop at depth j, and type kappa + 1 to the joint, giving exactly
kappa + 1 orbit classes with the joint alone on top.  The closed form is
validated in the test suite against an independent neighborhood-germ
classifier for the small levels.

On the solenoid S over the level-kappa tower, the orbit census of the
test suite (``test_orbit_census_counts_kappa_plus_one_classes``) finds
kappa + 1 classes as far as the verdicts go.  That reads as the paper's
1/K-homogeneous S with K = kappa + 1 >= 2 (K is the paper's cardinal,
kappa here the level); K = 1, infinite K and the long-line circle are
not modelled.  Across types the verdict ``proven_distinct`` assumes,
and nothing here proves, that a point's type is invariant under
homeomorphisms of S, not only of this level's circle: a point of S has
a neighborhood that is an arc around its inner coordinate times the
fiber over it, and each homeomorphism of S is assumed to carry the germ
of that arc onto a germ of the same type.
"""

from fractions import Fraction

from .errors import (
    InvalidPointError,
    LevelMismatchError,
    NotSameOrbitError,
    Record,
)
from .ordinal import add, compare, nat
from .tokens import IDENTITY_TOKEN, IntervalAutToken


class _MinMarker:
    """Left endpoint of a tower factor, produced when stripping addresses."""

    def __repr__(self):
        return "min"


MIN = _MinMarker()


class Address(Record):
    """Within-copy address; an integer stop when rho is None, else a base."""

    def __init__(self, ints=(), rho=None, frac=None):
        ints = tuple(ints)
        for z in ints:
            if not isinstance(z, int):
                raise InvalidPointError("address entries must be integers")
        if rho is None:
            if frac is not None:
                raise InvalidPointError("an integer stop carries no base coordinate")
        else:
            frac = Fraction(frac) if frac is not None else Fraction(0)
            if not 0 <= frac < 1:
                raise InvalidPointError("the unit offset must lie in [0, 1)")
            if rho.is_zero and frac == 0:
                raise InvalidPointError(
                    "a zero base coordinate is written as the integer stop above it"
                )
        self.__dict__.update(ints=ints, rho=rho, frac=frac)

    @property
    def is_base(self):
        return self.rho is not None

    @property
    def depth(self):
        return len(self.ints)

    def __str__(self):
        ints = ",".join(str(z) for z in self.ints)
        if not self.is_base:
            return "[%s]" % ints
        parts = []
        if not self.rho.is_zero:
            parts.append(str(self.rho))
        if self.frac != 0:
            parts.append("%d/%d" % (self.frac.numerator, self.frac.denominator))
        return "[%s; %s]" % (ints, "+".join(parts))


class TowerPoint(Record):
    """A point of the level-kappa quotient circle; address None is the joint."""

    def __init__(self, kappa, address=None):
        if not isinstance(kappa, int) or kappa < 1:
            raise InvalidPointError("tower levels start at 1")
        if address is not None:
            if address.is_base:
                if address.depth != kappa - 1:
                    raise InvalidPointError(
                        "a base address at level %d needs exactly %d integers"
                        % (kappa, kappa - 1)
                    )
            elif not 1 <= address.depth <= kappa - 1:
                raise InvalidPointError(
                    "an integer stop at level %d needs 1..%d integers"
                    % (kappa, kappa - 1)
                )
        self.__dict__.update(kappa=kappa, address=address)

    @property
    def is_joint(self):
        return self.address is None

    def __str__(self):
        return "inf" if self.is_joint else str(self.address)


def point_type(p):
    """Orbit type in 1..kappa+1: base 1, stop at depth j kappa+1-j, joint top."""
    if p.is_joint:
        return p.kappa + 1
    if p.address.is_base:
        return 1
    return p.kappa + 1 - p.address.depth


def same_orbit(x, y):
    """Equal types at equal levels; distinct levels are a caller error."""
    if x.kappa != y.kappa:
        raise LevelMismatchError(
            "cannot compare levels %d and %d" % (x.kappa, y.kappa)
        )
    return point_type(x) == point_type(y)


def strip_top(p):
    """Drop the leading integer: the within-copy rest one level down.

    A depth-1 integer stop strips to the minimum marker of the factor, the
    boundary point every endpoint-fixing automorphism leaves alone.
    """
    if p.is_joint or p.kappa < 2:
        raise InvalidPointError("only addressed points above level 1 can be stripped")
    a = p.address
    if not a.is_base and a.depth == 1:
        return MIN
    return TowerPoint(p.kappa - 1, Address(a.ints[1:], a.rho, a.frac))


def _countable_ceiling(x, y):
    """A countable ordinal strictly above both base coordinates."""
    top = x.address.rho if compare_base(x, y) >= 0 else y.address.rho
    return add(top, nat(2))


def compare_base(x, y):
    """Order of two level-1 base coordinates, -1 / 0 / 1."""
    by_rho = compare(x.address.rho, y.address.rho)
    if by_rho:
        return by_rho
    fx, fy = x.address.frac, y.address.frac
    return (fx > fy) - (fx < fy)


def base_automorphism_token(x, y):
    """Witness an endpoint-fixing automorphism of the level with A(x) = y.

    Equal points give ``IDENTITY_TOKEN``.  For level 1 the witness lives
    on an initial segment [0, alpha] with alpha countable and above both
    coordinates; beyond alpha everything is fixed.  For higher levels the
    token is the bare pair: the map factors as a top-integer shift by the
    difference of leading address entries composed with an automorphism
    of the stripped rest; ``within_copy_hat`` splits off that shift, which
    a recipe keeps as ``translate_by``.
    """
    if x.is_joint or y.is_joint:
        raise InvalidPointError("the joint has no within-copy component")
    if x.kappa != y.kappa:
        raise LevelMismatchError(
            "cannot relate levels %d and %d" % (x.kappa, y.kappa)
        )
    if point_type(x) != point_type(y):
        raise NotSameOrbitError(
            "types %d and %d are never related" % (point_type(x), point_type(y))
        )
    if x == y:
        return IDENTITY_TOKEN
    ceiling = (TowerPoint(1, Address((), _countable_ceiling(x, y), Fraction(0)))
               if x.kappa == 1 else None)
    return IntervalAutToken(source=x, target=y, fixed_above=ceiling)


def within_copy_hat(x, y):
    """Split a same-orbit pair into (top shift, hat token one level down).

    The hat token is what a stage recipe stores: the level-(kappa - 1)
    ``base_automorphism_token`` of the stripped rests, which acts inside
    every top-integer copy after the recorded shift has aligned the
    leading integers.  At level 1 the hat is the pair's own token, with no
    shift; depth-1 integer stops strip to the fixed minimum marker, so
    their hat is the identity.
    """
    if x.is_joint or y.is_joint:
        raise InvalidPointError("the joint has no within-copy component")
    if not same_orbit(x, y):
        raise NotSameOrbitError("within-copy pair must share an orbit class")
    if x.kappa == 1:
        return 0, base_automorphism_token(x, y)
    shift = y.address.ints[0] - x.address.ints[0]
    rest = strip_top(x)
    if rest is MIN:
        return shift, IDENTITY_TOKEN
    return shift, base_automorphism_token(rest, strip_top(y))
