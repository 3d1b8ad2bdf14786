"""Cyclic arcs on a stage circle, chain patterns, and the lift witness.

Positions on the size-n stage are rationals in [0, n): the integer part
is the copy index, the fractional part a symbolic location inside that
copy (0 is the joint itself).  An arc is the closed cyclic interval from
``start`` to ``end`` travelling in the increasing direction; since start
and end differ it is always a proper subset.

Component counting under a bond preimage is purely combinatorial: the
preimage of an arc under the m-fold bond is m translates spaced one
stage apart, which are pairwise disjoint because the arc is shorter than
one full turn of the base stage.  That is what makes the defining
sequence indecomposable: a connected lift of one arc sits inside a
single preimage component and therefore misses the others, and one
component of each preimage never covers the whole covering stage.

Arcs keep their positions as ``Fraction``s, but the two-arc rules
(``arcs_intersect``, ``uncovered_point``, ``preimage_components`` and
``indecomposability_witness``, and the containment test they share) work
on integers: the positions involved, at most four denominators, are scaled by
their lcm, or twice it where a midpoint is taken, so every position and
midpoint is an integer no larger than the input's own numbers.  Only the
values returned are built as ``Fraction``s.  The ``Fraction`` forms of the
rules are kept in the test suite's reference models.
"""

from fractions import Fraction
from math import lcm

from .errors import Record, StageDomainError, WitnessInputError


class Arc(Record):
    """Closed cyclic interval on the size-n stage, start to end, increasing."""

    def __init__(self, n, start, end):
        if not isinstance(n, int) or n < 1:
            raise StageDomainError("stage sizes are integers >= 1")
        start, end = Fraction(start), Fraction(end)
        if not (0 <= start < n and 0 <= end < n):
            raise StageDomainError("arc endpoints must lie in [0, n)")
        if start == end:
            raise StageDomainError("degenerate arcs are not used here")
        self.__dict__.update(n=n, start=start, end=end)

    @property
    def length(self):
        return (self.end - self.start) % self.n

    def __str__(self):
        return "%s..%s" % (format_position(self.start), format_position(self.end))


def _arc(n, start, end):
    """The Arc of endpoints already known to be distinct Fractions in [0, n)."""
    arc = object.__new__(Arc)
    arc.__dict__.update(n=n, start=start, end=end)
    return arc


def _scaled(scale, *positions):
    """Each position times ``scale``, which its denominator divides."""
    return [p.numerator * (scale // p.denominator) for p in positions]


def _within(s, e, p, c):
    """Does the closed arc from s to e hold p, on the circle of integer
    circumference c?"""
    return (p - s) % c <= (e - s) % c


def format_position(pos):
    whole = int(pos)
    rest = pos.numerator - whole * pos.denominator  # over the same denominator
    if rest == 0:
        return str(whole)
    return "%d+%d/%d" % (whole, rest, pos.denominator)


def arcs_intersect(a, b):
    """Closed cyclic intervals meet iff either contains the other's start."""
    if a.n != b.n:
        raise StageDomainError("arcs live on different stages")
    scale = lcm(a.start.denominator, a.end.denominator,
                b.start.denominator, b.end.denominator)
    sa, ea, sb, eb = _scaled(scale, a.start, a.end, b.start, b.end)
    c = a.n * scale
    return _within(sa, ea, sb, c) or _within(sb, eb, sa, c)


def _gap_point(sa, ea, sb, eb, c):
    """A point in neither closed arc, sa to ea and sb to eb, on the circle of
    circumference c, or None if they cover it.  The gaps are the open arcs
    from each end to its start; the point is the midpoint of their first
    overlap, so every argument must be even."""
    la, lb = (sa - ea) % c, (sb - eb) % c
    for shift in (-c, 0, c):
        low = max(ea, eb + shift)
        high = min(ea + la, eb + shift + lb)
        if low < high:
            return (low + high) // 2 % c
    return None


def uncovered_point(a, b):
    """A position on the stage missed by both arcs, or None if they cover it."""
    if a.n != b.n:
        raise StageDomainError("arcs live on different stages")
    scale = 2 * lcm(a.start.denominator, a.end.denominator,
                    b.start.denominator, b.end.denominator)
    point = _gap_point(*_scaled(scale, a.start, a.end, b.start, b.end), a.n * scale)
    return None if point is None else Fraction(point, scale)


def preimage_components(arc, m):
    """The m components of the bond preimage, ascending around the circle."""
    if m < 1:
        raise StageDomainError("bond multiplicity must be >= 1")
    scale = lcm(arc.start.denominator, arc.end.denominator)
    s, e = _scaled(scale, arc.start, arc.end)
    step = arc.n * scale
    length, big = (e - s) % step, m * step
    return [_arc(arc.n * m, Fraction(start, scale), Fraction((start + length) % big, scale))
            for start in range(s, big, step)]


class WitnessReport(Record):
    """Exhibits why no pair of connected lifts can cover the covering stage.

    c_components / g_components   the preimage components of each arc.
    c_separators / g_separators   points strictly between consecutive
                                  components, proving they are disjoint,
                                  so a connected lift stays inside one.
    pair_uncovered                for every choice of one component from
                                  each preimage, a point in neither.
    """

    def __init__(self, multiplicity, stage, c_components, g_components,
                 c_separators, g_separators, pair_uncovered):
        self.__dict__.update(
            multiplicity=multiplicity, stage=stage, c_components=c_components,
            g_components=g_components, c_separators=c_separators,
            g_separators=g_separators, pair_uncovered=pair_uncovered,
        )

    @property
    def witnesses_indecomposability(self):
        return (
            self.multiplicity >= 2
            and len(self.pair_uncovered) == self.multiplicity ** 2
        )


def _separators(ends, big):
    """One point in the open gap after each component, given as scaled
    (start, end) pairs on the circle of even circumference big; the gap is
    never empty because components are translates shorter than their
    spacing."""
    return [(e + (nxt - e) % big // 2) % big
            for (_, e), (nxt, _) in zip(ends, ends[1:] + ends[:1])]


def indecomposability_witness(multiplicity, n, c_arc, g_arc):
    """Witness one inverse-limit step of the indecomposability argument.

    The two arcs must be proper and together cover the size-n stage.
    Each preimage under the multiplicity-fold bond splits into that many
    disjoint components; the report carries separating points and, for
    every pair of one component from each side, a point their union
    misses.  Hence no union of one connected lift per arc is the whole
    covering stage.
    """
    if multiplicity < 2:
        raise WitnessInputError("the argument needs a bond multiplicity >= 2")
    if c_arc.n != n or g_arc.n != n:
        raise WitnessInputError("arcs must live on the size-%d stage" % n)
    if uncovered_point(c_arc, g_arc) is not None:
        raise WitnessInputError("the two arcs must cover the stage")
    c_comps = preimage_components(c_arc, multiplicity)
    g_comps = preimage_components(g_arc, multiplicity)
    # the components' denominators are their arc's: scale as for the arcs
    scale = 2 * lcm(c_arc.start.denominator, c_arc.end.denominator,
                    g_arc.start.denominator, g_arc.end.denominator)
    big = n * multiplicity * scale
    c_ends, g_ends = ([_scaled(scale, a.start, a.end) for a in comps]
                      for comps in (c_comps, g_comps))
    missed = []
    for i, c_comp in enumerate(c_ends):
        for j, g_comp in enumerate(g_ends):
            point = _gap_point(*c_comp, *g_comp, big)
            if point is None:
                raise WitnessInputError(
                    "component pair (%d, %d) unexpectedly covers the stage" % (i, j)
                )
            missed.append(((i, j), Fraction(point, scale)))
    c_separators, g_separators = (
        tuple(Fraction(p, scale) for p in _separators(ends, big))
        for ends in (c_ends, g_ends))
    return WitnessReport(
        multiplicity=multiplicity,
        stage=n,
        c_components=tuple(c_comps),
        g_components=tuple(g_comps),
        c_separators=c_separators,
        g_separators=g_separators,
        pair_uncovered=tuple(missed),
    )


def circular_chain_check(arcs):
    """True when the arcs meet exactly in the circular chain pattern.

    Arc i and arc j must intersect precisely when their cyclic index
    distance is at most 1.  With three arcs every pair is adjacent, so a
    genuinely non-adjacent pair needs at least four links.

    The t adjacent pairs are checked first.  Past three arcs, a sweep
    collects the meeting pairs in one pass over the sorted endpoints, and
    the arcs are a chain unless it finds more than those t.  Each start
    meets every arc open there: starts come before ends at a shared
    position, and an arc that wraps past 0 is open from 0 to its end.
    A pair is found at most twice, from each arc's start, so the sweep
    stops within 2t + 2 finds, O(t log t) in all.
    """
    if not arcs:
        raise StageDomainError("a chain needs at least one arc")
    n = arcs[0].n
    for arc in arcs:
        if arc.n != n:
            raise StageDomainError("chain arcs live on different stages")
    if not all(arcs_intersect(arcs[i - 1], arc) for i, arc in enumerate(arcs)):
        return False
    t = len(arcs)
    if t <= 3:
        return True
    events, opened, pairs = [], {}, set()
    for i, arc in enumerate(arcs):
        events += ((arc.start, False, i), (arc.end, True, i))
        if arc.end < arc.start:
            opened[i] = None
    for _, is_end, i in sorted(events):
        if is_end:
            del opened[i]
            continue
        for j in opened:
            pairs.add((min(i, j), max(i, j)))
            if len(pairs) > t:
                return False
        opened[i] = None
    return True
