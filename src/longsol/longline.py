"""Points and orbit classes of the closed long line used as circle material.

The ambient space is the interval from 0 up to the ordinal product
"omega_1 times w^w", with a copy of (0,1) glued between every ordinal and
its successor.  A point is coded as

    omega_1 * gamma + rho + t

where gamma is an ordinal below w^w (all exponents finite), rho is a
countable ordinal below epsilon_0, and t is an exact rational in [0,1).
Stage circles identify both endpoints into the joint, which a stage
point writes as ``inner=None``; so the right endpoint has no code here,
and 0, the left one, is excluded from classification.

Points that are non-Gdelta, or limits of such, are exactly the positive
multiples of omega_1; everything else lives in an open block between two
consecutive multiples.  Orbit classification is complete inside a block
and provable-distinctness across blocks is limited to the two recorded
argument patterns; the remaining cross-block cases are reported as not
proven rather than guessed.
"""

from fractions import Fraction

from .errors import EndpointError, InvalidPointError, Record
from .ordinal import ONE, ZERO, add, compare
from .tokens import IDENTITY_TOKEN, IntervalAutToken

NG_KIND = "ng"
INTERVAL_KIND = "interval"

PROVEN_DISTINCT = "proven_distinct"
NOT_PROVEN = "not_proven"

SAME = "same"
UNKNOWN = "unknown"


class LongPoint(Record):
    """A point omega_1 * gamma + rho + t."""

    def __init__(self, gamma=ZERO, rho=ZERO, frac=Fraction(0)):
        frac = Fraction(frac)
        if not 0 <= frac < 1:
            raise InvalidPointError("the unit offset must lie in [0, 1)")
        for exp, _ in gamma.terms:
            if not exp.is_finite:
                raise InvalidPointError(
                    "the omega_1 block count must stay below w^w "
                    "(every exponent finite)"
                )
        self.__dict__.update(gamma=gamma, rho=rho, frac=frac)

    @property
    def is_zero(self):
        return self.gamma.is_zero and self.rho.is_zero and self.frac == 0

    def __lt__(self, other):
        by_gamma = compare(self.gamma, other.gamma)
        if by_gamma:
            return by_gamma < 0
        by_rho = compare(self.rho, other.rho)
        if by_rho:
            return by_rho < 0
        return self.frac < other.frac

    def __str__(self):
        parts = []
        if not self.gamma.is_zero:
            parts.append("w1*(%s)" % self.gamma)
        if not self.rho.is_zero:
            parts.append(str(self.rho))
        if self.frac != 0:
            parts.append("%d/%d" % (self.frac.numerator, self.frac.denominator))
        return "+".join(parts) if parts else "0"


class OrbitClassLabel(Record):
    """Either the multiple-of-omega_1 with index gamma, or its open block."""

    def __init__(self, kind, gamma):
        if kind not in (NG_KIND, INTERVAL_KIND):
            raise ValueError("unknown orbit class kind %r" % kind)
        if kind == NG_KIND and gamma.is_zero:
            raise ValueError("multiples of omega_1 start at gamma = 1")
        self.__dict__.update(kind=kind, gamma=gamma)


class OrbitAnswer(Record):
    """Outcome of a same-orbit query: same with a witness token, or unknown."""

    def __init__(self, status, token=None):
        self.__dict__.update(status=status, token=token)


def is_ng(x):
    """True when x is a positive multiple of omega_1."""
    return (not x.gamma.is_zero) and x.rho.is_zero and x.frac == 0


def partition_class(x):
    """The orbit partition label of a nonzero interior point."""
    if x.is_zero:
        raise EndpointError("0 is identified into the joint and not classified here")
    if is_ng(x):
        return OrbitClassLabel(NG_KIND, x.gamma)
    return OrbitClassLabel(INTERVAL_KIND, x.gamma)


def _power_exponent(gamma):
    """The a with gamma = w^a, or None when gamma is not a power of w."""
    if len(gamma.terms) == 1 and gamma.terms[0][1] == 1:
        return gamma.terms[0][0]
    return None


def distinct_orbit_proof(x, y):
    """Report proven distinctness, using only the two recorded arguments.

    Two multiples of omega_1 whose block counts are distinct powers of w
    cannot share an orbit (tail segments of the longer block do not embed
    below it), and a multiple of omega_1 never shares an orbit with a
    block-interior point (the latter is Gdelta).  Everything else is
    reported as not proven; in particular distinct multiples of omega_1
    with non-power counts stay open by design.
    """
    ng_x, ng_y = is_ng(x), is_ng(y)
    if ng_x != ng_y:
        return PROVEN_DISTINCT
    if ng_x and ng_y:
        ax = _power_exponent(x.gamma)
        ay = _power_exponent(y.gamma)
        if ax is not None and ay is not None and ax != ay:
            return PROVEN_DISTINCT
    return NOT_PROVEN


def same_orbit_recipe(x, y):
    """Same-orbit witness for equal partition labels, unknown otherwise.

    Inside one open block the witness token fixes the two bounding
    multiples of omega_1 and maps x to y.  Equal points, and equal labels
    on multiples of omega_1 (which force x == y), yield
    ``IDENTITY_TOKEN``.  Distinct labels return unknown; callers wanting
    a distinctness proof ask :func:`distinct_orbit_proof` separately.
    """
    if x.is_zero or y.is_zero:
        raise EndpointError("0 is identified into the joint and not classified here")
    if partition_class(x) != partition_class(y):
        return OrbitAnswer(UNKNOWN)
    if x == y:
        return OrbitAnswer(SAME, IDENTITY_TOKEN)
    return OrbitAnswer(SAME, IntervalAutToken(
        source=x, target=y, fixed_below=LongPoint(gamma=x.gamma),
        fixed_above=LongPoint(gamma=add(x.gamma, ONE)),
    ))
