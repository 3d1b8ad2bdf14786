"""First-cohomology invariants of long solenoids.

The first Cech cohomology of the inverse limit over bonding exponents
p1, p2, ... is the additive group of rationals whose denominators divide
some finite product p1 * ... * pn.  Elements are handled as a direct
limit: a pair (level, numerator) meaning numerator over the product of
the first `level` exponents, canonical when the numerator is not
divisible by the level's exponent (or the level is 0).

Bonding sequences here are eventually periodic, given as a finite prefix
plus a repeating cycle.  Such a group is classified by its supernatural
invariant: primes dividing a cycle entry occur infinitely often and get
infinite multiplicity, primes confined to the prefix get their total
finite count.  Two sequences give homeomorphic solenoids exactly when
deleting finitely many terms from each equalizes every prime's count;
for eventually periodic sequences the whole prefix and any finite part
of the cycles can be deleted, so the test reduces to equality of the
infinite prime sets.  Distinct cycle prime sets therefore give
pairwise distinct homeomorphism types, and there are as many as one
wants of those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import InvalidPointError, StageDomainError


@dataclass(frozen=True)
class SequenceDescriptor:
    """Eventually periodic bonding sequence: finite prefix, repeating cycle."""

    prefix: tuple = ()
    cycle: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise InvalidPointError("the repeating cycle must be nonempty")
        for entry in self.prefix + self.cycle:
            if not isinstance(entry, int) or entry < 2:
                raise InvalidPointError("bonding entries are integers >= 2")

    def entry(self, i):
        """The 1-based i-th bonding exponent."""
        if i < 1:
            raise InvalidPointError("bonding entries are 1-based")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.cycle[(i - len(self.prefix) - 1) % len(self.cycle)]

    def partial_product(self, level):
        """p1 * ... * p_level (1 for level 0)."""
        return prod(self.entry(i) for i in range(1, level + 1))

    def __str__(self):
        return "%s:%s" % (
            ",".join(str(e) for e in self.prefix),
            ",".join(str(e) for e in self.cycle),
        )


@dataclass(frozen=True)
class SupernaturalNumber:
    """Prime multiplicities, finitely many finite plus a set at infinity."""

    finite: tuple = ()
    infinite: frozenset = frozenset()

    def __post_init__(self):
        pairs = tuple(sorted(dict(self.finite).items()))
        object.__setattr__(self, "finite", pairs)
        object.__setattr__(self, "infinite", frozenset(self.infinite))
        for prime, mult in pairs:
            if mult < 1:
                raise InvalidPointError("finite multiplicities are >= 1")
            if prime in self.infinite:
                raise InvalidPointError(
                    "a prime is either finite or infinite, not both"
                )

    def multiplicity(self, prime):
        """The exponent of a prime; None encodes infinity."""
        if prime in self.infinite:
            return None
        return dict(self.finite).get(prime, 0)


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def supernatural_of(s):
    """The supernatural invariant of an eventually periodic sequence."""
    infinite = set()
    for entry in s.cycle:
        infinite.update(_factorize(entry))
    finite = {}
    for entry in s.prefix:
        for prime, mult in _factorize(entry).items():
            if prime not in infinite:
                finite[prime] = finite.get(prime, 0) + mult
    return SupernaturalNumber(tuple(finite.items()), frozenset(infinite))


def mccord_equivalent(a, b):
    """Finitely many deletions equalize the sequences iff the infinite
    prime sets agree; prefixes and any finite part of a cycle can go."""
    return supernatural_of(a).infinite == supernatural_of(b).infinite


def member(s, r):
    """Is the rational r in the subgroup of Q the sequence generates?

    r = a/b in lowest terms lies in the group iff b divides some partial
    product, iff every prime power of b fits under the supernatural
    multiplicity of its prime.
    """
    r = Fraction(r)
    invariant = supernatural_of(s)
    for prime, power in _factorize(r.denominator).items():
        mult = invariant.multiplicity(prime)
        if mult is not None and mult < power:
            return False
    return True


@dataclass(frozen=True)
class DirectLimitElement:
    """numerator over the product of the first `level` bonding exponents."""

    level: int
    numerator: int

    def __post_init__(self):
        if self.level < 0:
            raise InvalidPointError("levels are non-negative")


def dl_element(s, level, numerator):
    """Canonical direct-limit element: divide out trailing exponents."""
    if numerator == 0:
        return DirectLimitElement(0, 0)
    while level >= 1 and numerator % s.entry(level) == 0:
        numerator //= s.entry(level)
        level -= 1
    return DirectLimitElement(level, numerator)


def dl_value(s, u):
    """The rational the element denotes."""
    return Fraction(u.numerator, s.partial_product(u.level))


def _lift(s, u, level):
    factor = prod(s.entry(i) for i in range(u.level + 1, level + 1))
    return u.numerator * factor


def dl_add(s, u, v):
    """Group addition by lifting both to the deeper level."""
    level = max(u.level, v.level)
    return dl_element(s, level, _lift(s, u, level) + _lift(s, v, level))


def dl_neg(u):
    return DirectLimitElement(u.level, -u.numerator)


def dl_equal(s, u, v):
    """Equality after canonicalization at a common level."""
    return dl_element(s, u.level, u.numerator) == dl_element(s, v.level, v.numerator)


def dl_of_rational(s, r):
    """The canonical element denoting r; r must belong to the group."""
    r = Fraction(r)
    if not member(s, r):
        raise StageDomainError("%s is not in the group of %s" % (r, s))
    level = 0
    while s.partial_product(level) % r.denominator != 0:
        level += 1
    numerator = r.numerator * (s.partial_product(level) // r.denominator)
    return dl_element(s, level, numerator)


def h1_action(m, n):
    """Induced map on first cohomology of the m-fold bond onto stage n.

    The image of the covering stage, walked once around, passes forward
    through the base joint of the target stage once per sheet, so the
    degree is the covering multiplicity m.  ``ref_h1_action`` in the test
    models counts those passes joint by joint.
    """
    if m < 1 or n < 1:
        raise StageDomainError("bond multiplicity and stage size must be >= 1")
    return m


def _primes(count):
    """The first `count` primes by a plain sieve."""
    if count < 1:
        return []
    limit = 16
    while True:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
        found = [i for i in range(limit + 1) if sieve[i]]
        if len(found) >= count:
            return found[:count]
        limit *= 2


def inequivalent_family(count):
    """`count` pairwise inequivalent descriptors via distinct cycle primes."""
    return [SequenceDescriptor((), (p,)) for p in _primes(count)]
