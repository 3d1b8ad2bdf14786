"""First-cohomology invariants of long solenoids.

The first Cech cohomology of the inverse limit over bonding exponents
p1, p2, ... is the additive group of rationals whose denominators divide
some finite product p1 * ... * pn.  Elements are handled as a direct
limit: a pair (level, numerator) meaning numerator over the product of
the first `level` exponents, canonical at the least level: the first whose
product the reduced denominator divides, where the numerator is not
divisible by the level's exponent (or the level is 0).

Bonding sequences here are eventually periodic, given as a finite prefix
plus a repeating cycle.  Such a group is classified by its supernatural
invariant: primes dividing a cycle entry occur infinitely often and get
infinite multiplicity, primes confined to the prefix get their total
finite count.  Two sequences give isomorphic groups H^1 exactly when
deleting finitely many terms from each equalizes every prime's count; for
eventually periodic ones that is equality of the infinite prime sets, the
test ``cohomology equiv`` makes.  For classical metric solenoids isomorphic
H^1 means homeomorphic (McCord, Trans. AMS 114, 1965; Aarts and Fokkink,
Proc. AMS 111, 1991); nothing is claimed here for long solenoids, where
":2" against "3:2" is open.  Distinct H^1 still means distinct spaces, so
there are as many homeomorphism types as one wants.

Membership and equivalence need only gcds: stripping b against c (divide
by gcd until it is 1) removes every prime they share.  a/b in lowest terms
is in the group iff b stripped against the cycle product divides the
prefix product; two sequences are equivalent iff each cycle product
strips to 1 against the other.  Only the invariant factors: trial
division below 100, Miller-Rabin with the first 13 prime bases (exact
below 3317044064679887385961981; Sorenson and Webster, Math. Comp. 2017);
a cofactor it does not prove prime loses its primes below 2^22 by gcd
with products of runs of them, then its perfect powers, and Pollard-Brent
rho (Brent, BIT 1980) from fixed start values splits the rest.  One step
budget per call pays for the gcds and rho; a cofactor rho does not split
within it raises ``representation-overflow``; no factorisation is ever
guessed.

Only the functions that build a ``Fraction`` import ``fractions``, as in
``parsing``, so ``invariant``, ``equiv`` and ``degree`` never import it.
"""

import functools
import itertools
from math import gcd, isqrt, log2, log10, prod
import sys

from .errors import DepthBoundError, InvalidPointError, Record, StageDomainError


class SequenceDescriptor(Record):
    """Eventually periodic bonding sequence: finite prefix, repeating cycle."""

    def __init__(self, prefix=(), cycle=()):
        prefix, cycle = tuple(prefix), tuple(cycle)
        if not cycle:
            raise InvalidPointError("the repeating cycle must be nonempty")
        for entry in prefix + cycle:
            if not isinstance(entry, int) or entry < 2:
                raise InvalidPointError("bonding entries are integers >= 2")
        self.__dict__.update(prefix=prefix, cycle=cycle)

    def partial_product(self, level):
        """p1 * ... * p_level (1 for level 0)."""
        head, whole, count, tail = self._product_factors(level)
        return head * whole**count * tail

    def _product_factors(self, level):
        """(H, C, k, T) with H * C^k * T the product of the first ``level``
        entries: C is the cycle's product, k the whole cycles among them."""
        if level <= len(self.prefix):
            return _product(self.prefix[: max(level, 0)]), 1, 0, 1
        count, rest = divmod(level - len(self.prefix), len(self.cycle))
        return (_product(self.prefix), _product(self.cycle), count,
                _product(self.cycle[:rest]))

    def __str__(self):
        return "%s:%s" % (
            ",".join(str(e) for e in self.prefix),
            ",".join(str(e) for e in self.cycle),
        )


def _product(entries):
    """The product of a tuple, by halves: one long list costs about one
    multiplication of the final size, not one per entry."""
    if len(entries) <= 64:
        return prod(entries)
    half = len(entries) // 2
    return _product(entries[:half]) * _product(entries[half:])


class SupernaturalNumber(Record):
    """Prime multiplicities, finitely many finite plus a set at infinity."""

    def __init__(self, finite=(), infinite=frozenset()):
        finite, infinite = tuple(sorted(dict(finite).items())), frozenset(infinite)
        for prime, mult in finite:
            if mult < 1:
                raise InvalidPointError("finite multiplicities are >= 1")
            if prime in infinite:
                raise InvalidPointError(
                    "a prime is either finite or infinite, not both"
                )
        self.__dict__.update(finite=finite, infinite=infinite)


_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % d for d in range(2, p)))
# the least strong pseudoprime to the first 13 prime bases
MR_EXACT_BELOW = 3317044064679887385961981
# a cofactor loses its primes below the cut by gcd with products of runs
PRIME_CUT, _RUN = 1 << 22, 1 << 12
# rho steps one invariant may take; a step mod a b-bit n counts
# 1 + b^2 / 2^18, roughly its cost against one below 512 bits, and so does
# each gcd of a b-bit n with a run product, at 1 + b / 48
RHO_STEP_BUDGET = 1 << 20


def _run(flags, start):
    """The primes in [start, start + _RUN), from the sieve flags."""
    return itertools.compress(range(start, start + _RUN), flags[start : start + _RUN])


@functools.cache
def _sieve():
    """Prime flags below PRIME_CUT, and (product of the run, start) for the
    runs from 100 on."""
    flags = bytearray([0, 0]) + bytearray([1]) * (PRIME_CUT - 2)
    for i in range(2, isqrt(PRIME_CUT) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, PRIME_CUT, i)))
    return flags, [(prod(_run(flags, lo)), lo) for lo in range(100, PRIME_CUT, _RUN)]


def _root(n, primes):
    """(r, k) with r^k = n for the least prime k, else (n, 1).  n has no
    prime below PRIME_CUT, so r >= PRIME_CUT bounds k."""
    for k in primes:
        if n < PRIME_CUT**k:
            break
        e = log2(n) / k
        s = max(int(e) - 30, 0)
        x = (int(2 ** (e - s)) + 2) << s  # just above the root; Newton descends
        while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
            x = y
        if x**k == n:
            return x, k
    return n, 1


def _is_composite(n):
    """Miller-Rabin with the first 13 prime bases; True is a proof (n > 97)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return True
    return False


def _rho_split(n, budget):
    """(a proper factor of n, budget left) by Pollard-Brent rho from y = 2
    with c = 1, 2, ...; (None, 0) once a round would pass the budget."""
    unit = 1 + n.bit_length() ** 2 // (1 << 18)
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r * unit
            if budget < 0:
                return None, 0
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g != n:  # n: every factor closed in one batch; try the next c
            return g, budget


def _factorize(numbers):
    """Proven prime -> multiplicity for each n >= 1, under one rho budget.
    Miller-Rabin decides below MR_EXACT_BELOW; any other cofactor loses its
    primes below PRIME_CUT, then its perfect powers, then rho splits it.
    Every later cofactor of n divides n, so one gcd pass per n finds all
    its primes below PRIME_CUT; the pass draws on the budget first."""
    budget, result = RHO_STEP_BUDGET, []
    for n in numbers:
        out, pending, sieved = {}, [(n, 1)], False  # (m, e) stands for m^e
        while pending:
            n, e = pending.pop()
            # a split's primes are known before its cofactor comes up
            for prime in _SMALL_PRIMES + tuple(out):
                while n % prime == 0:
                    out[prime] = out.get(prime, 0) + e
                    n //= prime
            if n == 1:
                continue
            if n < MR_EXACT_BELOW and not _is_composite(n):
                out[n] = out.get(n, 0) + e
                continue
            flags, runs = _sieve()
            found = []
            if not sieved:
                sieved, budget = True, budget - len(runs) * (1 + n.bit_length() // 48)
                hits = (_run(flags, lo) for b, lo in runs
                        if budget >= 0 and gcd(n, b) > 1)
                found = [p for run in hits for p in run if n % p == 0]
            # past the budget, rho gives up at once
            root, k = (n, 1) if found or budget < 0 else _root(n, _run(flags, 0))
            if found or k > 1:  # the next pass divides the found primes out
                out.update(dict.fromkeys(found, 0))
                pending.append((root, e * k))
                continue
            factor, budget = _rho_split(n, budget)
            if factor is None:
                raise DepthBoundError(
                    "no factor of a %d-bit cofactor found within %d rho steps%s" % (
                        n.bit_length(), RHO_STEP_BUDGET, "" if n < MR_EXACT_BELOW else
                        ", and past %d no prime is proven" % MR_EXACT_BELOW))
            pending += [(n // factor, e), (factor, e)]
        result.append(out)
    return result


def supernatural_of(s):
    """The supernatural invariant of an eventually periodic sequence."""
    distinct = tuple(dict.fromkeys(s.cycle + s.prefix))  # each factored once
    counts = dict(zip(distinct, _factorize(distinct)))
    infinite = frozenset().union(*(counts[e] for e in s.cycle))
    finite = {}
    for entry in s.prefix:
        for prime in counts[entry].keys() - infinite:
            finite[prime] = finite.get(prime, 0) + counts[entry][prime]
    return SupernaturalNumber(tuple(finite.items()), infinite)


def _strip(b, c):
    """b with every prime it shares with c divided out.  g holds every prime
    b still shares with c, and squaring it lets each pass take twice the
    power the last one did, so a prime power p^e goes in O(log e) passes."""
    g = gcd(b, c)
    while g > 1:
        b //= g
        g = gcd(b, g * g)
    return b


def mccord_equivalent(a, b):
    """Finitely many deletions equalize the sequences iff the infinite
    prime sets agree; prefixes and any finite part of a cycle can go.
    The sets agree iff each cycle product strips to 1 against the other."""
    ca, cb = _product(a.cycle), _product(b.cycle)
    return _strip(ca, cb) == 1 and _strip(cb, ca) == 1


def member(s, r):
    """Is the rational r = a/b in the subgroup of Q the sequence generates,
    that is, does b divide a partial product?  Cycle primes come with any
    multiplicity, so iff b stripped of them divides the prefix product."""
    import fractions

    r = fractions.Fraction(r)
    return _product(s.prefix) % _strip(r.denominator, _product(s.cycle)) == 0


class DirectLimitElement(Record):
    """numerator over the product of the first `level` bonding exponents."""

    def __init__(self, level, numerator):
        if level < 0:
            raise InvalidPointError("levels are non-negative")
        self.__dict__.update(level=level, numerator=numerator)


def dl_element(s, level, numerator):
    """The canonical form of numerator over the product of `level` exponents."""
    import fractions

    if level < 0:
        raise InvalidPointError("levels are non-negative")
    return dl_of_rational(s, fractions.Fraction(numerator, s.partial_product(level)))


def dl_value(s, u):
    """The rational the element denotes."""
    import fractions

    return fractions.Fraction(u.numerator, s.partial_product(u.level))


def dl_add(s, u, v):
    """Group addition, on the rationals the elements denote."""
    return dl_of_rational(s, dl_value(s, u) + dl_value(s, v))


def _in_group(s, r):
    """r as a Fraction, which must belong to the group of s."""
    import fractions

    r = fractions.Fraction(r)
    if not member(s, r):
        raise StageDomainError("%s is not in the group of %s" % (r, s))
    return r


def dl_of_rational(s, r):
    """The canonical element denoting r: the least level whose product the
    denominator divides.  r must belong to the group.

    d divides e * X exactly when d / gcd(d, e) divides X, so the level is
    where the denominator, divided by its gcd with each entry in turn,
    reaches 1.  That walk takes the prefix, then the whole cycles at once:
    their count is the least k whose C^k (C the cycle's product) the rest
    divides, found by doubling and bisection on pow(C, k, rest), so no
    number grows past the denominator; then at most one more cycle.  A
    numerator that would print past ``sys.get_int_max_str_digits()`` is
    refused, by its logarithm, before it is built.
    """
    r = _in_group(s, r)
    rest, level = r.denominator, 0
    for entry in s.prefix:
        if rest == 1:
            break
        rest //= gcd(rest, entry)
        level += 1
    if rest > 1:
        cycle = _product(s.cycle) % rest
        low, high = 0, 1  # pow(cycle, low, rest) != 0 throughout
        while pow(cycle, high, rest):
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if pow(cycle, mid, rest) else (low, mid)
        rest //= gcd(rest, pow(cycle, low, rest))
        level += low * len(s.cycle)
        for entry in s.cycle:
            if rest == 1:
                break
            rest //= gcd(rest, entry)
            level += 1
    limit = sys.get_int_max_str_digits()
    if limit and r.numerator:
        head, whole, count, tail = s._product_factors(level)
        digits = (log10(abs(r.numerator)) + log10(head) + count * log10(whole)
                  + log10(tail) - log10(r.denominator))
        if digits >= limit + 1:
            raise DepthBoundError("printed integer longer than %d digits" % limit)
    return DirectLimitElement(
        level, r.numerator * (s.partial_product(level) // r.denominator))


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


def inequivalent_family(count):
    """`count` pairwise inequivalent descriptors via distinct cycle primes."""
    primes = (n for n in itertools.count(2) if _factorize([n]) == [{n: 1}])
    return [SequenceDescriptor((), (next(primes),)) for _ in range(count)]
