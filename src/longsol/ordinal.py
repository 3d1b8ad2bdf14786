"""Cantor normal form arithmetic for ordinals below epsilon_0.

An ordinal is written as w^e1*c1 + ... + w^ek*ck with strictly decreasing
exponents (themselves ordinals in the same form) and integer coefficients
ci >= 1; the empty sum is 0.  This representation is unique, so structural
equality is ordinal equality.  It is the substrate for every symbolic
coordinate in the package: block counts on the long line, countable
remainders, and tower base coordinates.

Addition and multiplication are the usual non-commutative ordinal
operations, written as the functions ``add`` and ``mul``.  ``add`` takes
any number of summands and sums them by one rule, in time linear in their
terms: a summand's leading term absorbs the smaller terms before it and
merges into an equal one.  Nesting depth is bounded at 16
(``DEFAULT_DEPTH_BOUND``, fixed) so that ``omega_pow`` cannot silently
build towers the rest of the code cannot afford to normalize; exceeding
the bound raises :class:`DepthBoundError`.
"""

from .errors import DepthBoundError, Record

DEFAULT_DEPTH_BOUND = 16


class CnfOrdinal(Record):
    """An ordinal below epsilon_0 as a tuple of (exponent, coefficient) terms."""

    def __init__(self, terms=()):
        self.__dict__["terms"] = tuple(terms)
        self.__post_init__()

    def __post_init__(self):
        prev = None
        for term in self.terms:
            exp, coeff = term
            if not isinstance(exp, CnfOrdinal):
                raise TypeError("exponents must be CnfOrdinal instances")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError("coefficients must be integers >= 1")
            if prev is not None and compare(prev, exp) <= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_finite(self):
        """True for 0 and for naturals w^0*c."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def depth(self):
        """Nesting depth: 0 for 0, else 1 + the deepest exponent."""
        if not self.terms:
            return 0
        return 1 + max(exp.depth for exp, _ in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            if exp.is_zero:
                parts.append(str(coeff))
                continue
            if exp == ONE:
                base = "w"
            else:
                shown = str(exp)
                if "+" in shown or "*" in shown:
                    shown = "(%s)" % shown
                base = "w^" + shown
            parts.append(base if coeff == 1 else "%s*%d" % (base, coeff))
        return "+".join(parts)

    def __repr__(self):
        return "ord[%s]" % self


ZERO = CnfOrdinal()
ONE = CnfOrdinal(((ZERO, 1),))
OMEGA = CnfOrdinal(((ONE, 1),))


def nat(n):
    """The finite ordinal n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("naturals must be integers >= 0")
    return ZERO if n == 0 else CnfOrdinal(((ZERO, n),))


def compare(a, b):
    """Total order on ordinals: -1, 0 or 1.

    Term lists are compared lexicographically, exponent before coefficient;
    a longer list extends a shorter equal prefix and is therefore larger.
    """
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea is not eb and (by_exp := compare(ea, eb)):
            return by_exp
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def add(*summands):
    """Ordinal sum of any number of summands, left to right; 0 for none.

    Each summand is in normal form, so only its leading term meets the
    terms kept so far: it absorbs the kept terms of smaller exponent and
    merges its coefficient into one of equal exponent, and its other terms
    follow as they are.  Every comparison keeps the head or pops a kept
    term, so the cost is linear in the number of terms, and the result is
    built once.  A sum with at most one nonzero summand is that summand.
    """
    nonzero = [x for x in summands if x.terms]
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else ZERO
    terms = list(nonzero[0].terms)
    for x in nonzero[1:]:
        lead, coeff = x.terms[0]
        rel = -1
        while terms and (rel := compare(terms[-1][0], lead)) < 0:
            terms.pop()
        if rel == 0:
            coeff += terms.pop()[1]
        terms.append((lead, coeff))
        terms.extend(x.terms[1:])
    return CnfOrdinal(terms)


def mul(a, b):
    """Ordinal product a * b (left distributive over b's normal form).

    For a limit power on the right, a * w^f = w^(e1 + f) where e1 is a's
    leading exponent; a finite right factor scales a's leading coefficient
    and keeps the tail.
    """
    if not a.terms or not b.terms:
        return ZERO
    e1, c1 = a.terms[0]
    out = []
    for exp, coeff in b.terms:
        if exp.is_zero:
            out.append((e1, c1 * coeff))
            out.extend(a.terms[1:])
        else:
            out.append((add(e1, exp), coeff))
    return CnfOrdinal(tuple(out))


def omega_pow(a):
    """w raised to the ordinal a, subject to the nesting depth bound."""
    if a.depth + 1 > DEFAULT_DEPTH_BOUND:
        raise DepthBoundError(
            "w^(%s) would exceed the nesting depth bound %d" % (a, DEFAULT_DEPTH_BOUND)
        )
    return CnfOrdinal(((a, 1),))
