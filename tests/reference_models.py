"""Independent reference models the test suite checks the library against.

Each model recomputes expected answers by a different route than the
implementation:

* ordinals with finite exponents live as dense little-endian coefficient
  vectors; comparison is positional, addition works by absorption on the
  vector, finite multiplication is repeated addition, and multiplication
  by w is found as the least strict upper bound of the enumerated
  truncations a*1, a*2, ... over a candidate grid (never by the CNF
  product rule being tested);
* tower point types come from the recursive left-neighborhood structure
  of the compactifications (what kind of family approaches the point
  from below, and what the members of that family are), not from the
  closed-form depth rule;
* supernatural invariants come from literally expanding a descriptor
  into terms and counting prime factors at two horizons;
* group membership comes from scanning partial products for a divisible
  denominator;
* the canonical form of a direct-limit element comes from dividing
  trailing exponents out of the numerator while they divide it, walking
  down from the given level, instead of from the least level whose
  product absorbs the denominator;
* the degree of a bond on first cohomology comes from walking the joints
  of the covering stage and counting passes through the base joint;
* the circular chain pattern comes from testing every pair of arcs, each
  unrolled onto the line, instead of from a sweep over sorted endpoints;
* the two-arc rules (containment, meeting, an uncovered point, preimage
  components and the witness) come from ``Fraction`` arithmetic on the
  positions, instead of from integers scaled by a common denominator;
* the bond itself is written here (``ref_bond``: the copy index mod n),
  sharing no code with the library's fiber rule;
* bond-compatibility of a recipe comes from checking every copy of every
  stage, joints and integer stops alike, instead of copy 0 alone;
* a thread is checked level by level (``ref_thread``): each point on the
  stage its level gives, and each bonding onto the one before it, index
  and inner point alike, instead of as copy indices over one inner point;
* a recipe's image of a thread comes from mapping each level's point by
  that level's own map, instead of mapping the one inner coordinate once;
* a hat's value comes from the token's own assertions, with a point one
  level above the token cut at its top integer by slicing the address and
  its base compared in the dense-vector ordinal model, instead of from the
  library's evaluator, ``strip_top`` and ``compare_base``;
* ordinal literals and unit offsets ``N/D`` come from a recursive-descent
  scanner, one method call per character class, instead of from the
  library's token reader;
* a thread literal is split by its own bracket-depth loop and read one
  level at a time, instead of in the printed form at once;
* thread extensions come from trying every point of each new stage and
  keeping the ones the bond sends onto the level below, instead of from
  the index rule;
* the command line's fiber and thread-extend answers come from lists of
  strings, one ``%`` format per point (a fiber's points found by trying
  every index against the bond), rendered by one ``json.dumps`` or
  flattened one item at a time, instead of from a template escaped once
  and a join over the indices;
* an argv's namespace, error message or help text comes from argparse
  itself, over a tree built as ``cli.build_parser()`` builds the one it
  prints help with, instead of from the command line's own reader of
  ``COMMANDS``.
"""

import argparse
import json
import sys
from collections import namedtuple
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

from longsol import (
    DEFAULT_DEPTH_BOUND,
    ONE,
    ZERO,
    Address,
    Arc,
    CnfOrdinal,
    CommandError,
    DepthBoundError,
    DirectLimitElement,
    ParseError,
    StagePoint,
    ThreadMismatchError,
    TokenUndefinedError,
    TowerPoint,
    UnsupportedTranslationError,
    WitnessReport,
    add,
    nat,
    parse_stage_point,
    stage_size,
)
from longsol import OMEGA as W  # this module's OMEGA is a point-type label
from longsol import cli
from longsol.stages import point_format

# ---------------------------------------------------------------------------
# dense-vector ordinal model (finite exponents only)


def vec_trim(v):
    v = tuple(v)
    while v and v[-1] == 0:
        v = v[:-1]
    return v


def vec_compare(a, b):
    a, b = vec_trim(a), vec_trim(b)
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            return -1 if a[i] < b[i] else 1
    return 0


def vec_add(a, b):
    a, b = vec_trim(a), vec_trim(b)
    if not b:
        return a
    h = len(b) - 1
    out = list(b)
    if len(a) > h:
        out[h] += a[h]
        out.extend(a[h + 1 :])
    return vec_trim(out)


def vec_mul_nat(a, n):
    out = ()
    for _ in range(n):
        out = vec_add(out, a)
    return out


def _ascending_vectors(top_index, max_coeff):
    """Every vector up to the given shape, in ascending ordinal order."""
    shapes = [()]
    for _ in range(top_index + 1):
        shapes = [s + (c,) for s in shapes for c in range(max_coeff + 1)]
    return sorted(
        (vec_trim(s) for s in shapes),
        key=lambda v: (len(v), tuple(reversed(v))),
    )


def vec_times_omega(a, coeff_cap=4):
    """a * w as the least strict upper bound of a*1, a*2, ...

    Any candidate sharing a's top index is beaten by a truncation with a
    larger leading coefficient, so the first survivor of the ascending
    scan is exact.
    """
    a = vec_trim(a)
    if not a:
        return ()
    truncations = [vec_mul_nat(a, n) for n in range(1, coeff_cap + 3)]
    for cand in _ascending_vectors(len(a), coeff_cap):
        if all(vec_compare(cand, t) > 0 for t in truncations):
            return cand
    raise AssertionError("candidate grid exhausted")


def vec_mul(a, b):
    """Left-distribute a over b's terms, highest power of w first."""
    a, b = vec_trim(a), vec_trim(b)
    if not a or not b:
        return ()
    out = ()
    for idx in range(len(b) - 1, -1, -1):
        if b[idx] == 0:
            continue
        piece = a
        for _ in range(idx):
            piece = vec_times_omega(piece)
        out = vec_add(out, vec_mul_nat(piece, b[idx]))
    return out


def vec_to_cnf(v):
    v = vec_trim(v)
    terms = []
    for i in range(len(v) - 1, -1, -1):
        if v[i]:
            terms.append((nat(i), v[i]))
    return CnfOrdinal(tuple(terms))


def cnf_to_vec(x):
    """Only ordinals whose exponents are all finite fit in the model."""
    out = {}
    for exp, coeff in x.terms:
        assert exp.is_finite, "vector model holds finite exponents only"
        out[exp.terms[0][1] if exp.terms else 0] = coeff
    if not out:
        return ()
    return vec_trim(tuple(out.get(i, 0) for i in range(max(out) + 1)))


# ---------------------------------------------------------------------------
# left-neighborhood tower type model

REAL = "real"
OMEGA1 = "omega1"
OMEGA = "omega"


def left_family(p):
    """The canonical family approaching a tower point from below.

    Returns (kind, members): REAL for points with an interval on their
    left, OMEGA1 for points approached along a copy of [0, omega_1), and
    OMEGA with representative members for countable limits.  The members
    are read off the order structure of the iterated compactification:
    the stop written [.., z] is approached through the copy written
    [.., z-1], whose own cofinal chain is its sequence of depth-one
    stops; the top joint is approached through the stops [z].
    """
    if p.address is None:
        if p.kappa == 1:
            return OMEGA1, ()
        return OMEGA, tuple(
            TowerPoint(p.kappa, Address((z,))) for z in (1, 2, 3)
        )
    a = p.address
    if a.is_base:
        if a.frac != 0:
            return REAL, ()
        last_exp, _ = a.rho.terms[-1]
        if last_exp.is_zero:
            return REAL, ()
        member = TowerPoint(p.kappa, Address(a.ints, ZERO, Fraction(1, 2)))
        return OMEGA, (member,)
    if a.depth == p.kappa - 1:
        return OMEGA1, ()
    below = a.ints[:-1] + (a.ints[-1] - 1,)
    return OMEGA, tuple(
        TowerPoint(p.kappa, Address(below + (z,))) for z in (0, 1, 2)
    )


def ref_point_type(p):
    """Type by recursion on the approach structure.

    Interval neighbors or countable limits of type-1 points stay type 1;
    an uncountable-cofinality approach makes type 2; a countable limit
    of type-t points (t >= 2) sits one type above them.
    """
    kind, members = left_family(p)
    if kind == REAL:
        return 1
    if kind == OMEGA1:
        return 2
    t = max(ref_point_type(m) for m in members)
    return 1 if t == 1 else t + 1


# ---------------------------------------------------------------------------
# expansion models for the cohomology invariants


def expand_terms(descriptor, count):
    terms = list(descriptor.prefix)
    while len(terms) < count:
        terms.extend(descriptor.cycle)
    return terms[:count]


def prime_counts(terms):
    counts = {}
    for term in terms:
        n = term
        d = 2
        while d * d <= n:
            while n % d == 0:
                counts[d] = counts.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            counts[n] = counts.get(n, 0) + 1
    return counts


def ref_supernatural(descriptor):
    """(finite multiplicities, infinite primes) by comparing horizons."""
    horizon = len(descriptor.prefix) + 8 * len(descriptor.cycle)
    near = prime_counts(expand_terms(descriptor, horizon))
    far = prime_counts(expand_terms(descriptor, 2 * horizon))
    finite, infinite = {}, set()
    for prime, count in far.items():
        if count > near.get(prime, 0):
            infinite.add(prime)
        else:
            finite[prime] = count
    return finite, infinite


def ref_member(descriptor, r, level_cap=64):
    """Does some partial product absorb the denominator?"""
    r = Fraction(r)
    product = 1
    if r.denominator == 1:
        return True
    for term in expand_terms(descriptor, level_cap):
        product *= term
        if product % r.denominator == 0:
            return True
    return False


def ref_dl_element(descriptor, level, numerator):
    """Canonical (level, numerator) by the downward walk: while the level's
    exponent divides the numerator, divide it out and step a level down."""
    if numerator == 0:
        return DirectLimitElement(0, 0)
    prefix, cycle = descriptor.prefix, descriptor.cycle
    while level >= 1:
        if level <= len(prefix):
            entry = prefix[level - 1]
        else:
            entry = cycle[(level - len(prefix) - 1) % len(cycle)]
        if numerator % entry:
            break
        numerator //= entry
        level -= 1
    return DirectLimitElement(level, numerator)


def ref_h1_action(m, n):
    """Walk the m*n joints of the covering stage once around; the image
    walk advances one target joint per step, and each forward pass through
    the base joint of the n-joint target counts +1."""
    crossings = 0
    for i in range(m * n):
        if (i + 1) % n == 0:
            crossings += 1
    return crossings


# ---------------------------------------------------------------------------
# arcs on a stage circle


def _ref_arcs_meet(a, b):
    """Unrolled onto the line from its start, a meets a copy of b shifted
    by -n, 0 or n exactly when the closed arcs meet on the circle."""
    n = a.n
    a_end = a.start + (a.end - a.start) % n
    b_len = (b.end - b.start) % n
    return any(
        max(a.start, b.start + k) <= min(a_end, b.start + k + b_len) for k in (-n, 0, n)
    )


def ref_contains(arc, pos):
    return (Fraction(pos) - arc.start) % arc.n <= arc.length


def ref_arcs_intersect(a, b):
    return ref_contains(a, b.start) or ref_contains(b, a.start)


def ref_uncovered_point(a, b):
    """The midpoint of the first overlap of the two open gaps, each the
    arc from an end around to its start, tried at shifts -n, 0 and n."""
    n = Fraction(a.n)
    s1, l1 = a.end, a.n - a.length
    s2, l2 = b.end, b.n - b.length
    for shift in (-n, Fraction(0), n):
        low = max(s1, s2 + shift)
        high = min(s1 + l1, s2 + shift + l2)
        if low < high:
            return ((low + high) / 2) % n
    return None


def ref_preimage_components(arc, m):
    big = arc.n * m
    components = []
    for k in range(m):
        start = (arc.start + k * arc.n) % big
        components.append(Arc(big, start, (start + arc.length) % big))
    return components


def ref_separators(components):
    """The midpoint of the gap after each component."""
    out = []
    total = Fraction(components[0].n)
    for idx, comp in enumerate(components):
        nxt = components[(idx + 1) % len(components)]
        gap_len = (nxt.start - comp.end) % total
        out.append((comp.end + gap_len / 2) % total)
    return tuple(out)


def ref_indecomposability_witness(multiplicity, n, c_arc, g_arc):
    """The report's fields, or None where the arcs do not cover the stage
    or some component pair does."""
    if ref_uncovered_point(c_arc, g_arc) is not None:
        return None
    c_comps = ref_preimage_components(c_arc, multiplicity)
    g_comps = ref_preimage_components(g_arc, multiplicity)
    missed = []
    for i, c_comp in enumerate(c_comps):
        for j, g_comp in enumerate(g_comps):
            point = ref_uncovered_point(c_comp, g_comp)
            if point is None:
                return None
            missed.append(((i, j), point))
    return WitnessReport(
        multiplicity=multiplicity, stage=n, c_components=tuple(c_comps),
        g_components=tuple(g_comps), c_separators=ref_separators(c_comps),
        g_separators=ref_separators(g_comps), pair_uncovered=tuple(missed))


def ref_format_position(pos):
    whole = int(pos)
    rest = pos - whole
    if rest == 0:
        return str(whole)
    return "%d+%d/%d" % (whole, rest.numerator, rest.denominator)


def ref_chain_check(arcs):
    """Every pair of arcs meets exactly when their cyclic index distance is
    at most 1."""
    t = len(arcs)
    return all(
        _ref_arcs_meet(arcs[i], arcs[j]) == (min((i - j) % t, (j - i) % t) <= 1)
        for i in range(t) for j in range(i + 1, t)
    )


def _base_key(p):
    """A tower base coordinate as a sort key: rho in the dense-vector model,
    then the unit offset."""
    v = cnf_to_vec(p.address.rho)
    return len(v), tuple(reversed(v)), p.address.frac


def ref_hat(hat, x):
    """A mapping token at one inner point, from what the token asserts: its
    source goes to its target and its fixed region stays.  A tower point one
    level above the token is a copy of the token's level at its top integer:
    a lone integer is that copy's minimum and stays, anything else keeps the
    top integer and maps the address after it."""
    if hat.kappa is not None and hat.kappa == x.kappa - 1:
        a = x.address
        if not a.is_base and len(a.ints) == 1:
            return x
        rest = ref_hat(hat, TowerPoint(hat.kappa, Address(a.ints[1:], a.rho, a.frac)))
        b = rest.address
        return TowerPoint(x.kappa, Address(a.ints[:1] + b.ints, b.rho, b.frac))
    if hat.kappa is not None and hat.kappa != x.kappa:
        raise TokenUndefinedError(
            "token lives at level %s, point at level %d" % (hat.kappa, x.kappa))
    if x == hat.source:
        return hat.target
    low, high = hat.fixed_below, hat.fixed_above
    if hat.kappa is not None:
        if high is not None and x.address.is_base and _base_key(x) >= _base_key(high):
            return x
    elif (low is not None and not low < x) or (high is not None and not x < high):
        return x
    raise TokenUndefinedError("token is only evaluable at its source and its fixed region")


def _ref_map_inner(hat, k, x):
    """Hat, then translation, at one within-copy point; the joint stays."""
    if x is None:
        return None
    if not hat.is_identity:
        if isinstance(x, TowerPoint) and hat.kappa is None:
            raise TokenUndefinedError("long-line token applied to a tower point")
        if not isinstance(x, TowerPoint) and hat.kappa is not None:
            raise TokenUndefinedError("tower token applied to a long-line point")
        x = ref_hat(hat, x)
    if not k:
        return x
    if not isinstance(x, TowerPoint) or x.kappa < 2:
        raise UnsupportedTranslationError(
            "translation needs an integer-indexed tower level (kappa >= 2)")
    a = x.address
    return TowerPoint(x.kappa, Address((a.ints[0] + k,) + a.ints[1:], a.rho, a.frac))


def level_map(recipe, level):
    """The stage map at a 1-based level, one point at a time: hat, then
    translation, then rotation."""
    l, hat, k = recipe.rotations[level - 1], recipe.hat, recipe.translate_by
    return lambda p: StagePoint(p.n, p.index + l, _ref_map_inner(hat, k, p.inner))


def ref_apply_recipe(recipe, thread):
    """Each level's point of a thread of the recipe's depth and exponents
    through its own level map, checked as a thread."""
    return ref_thread(thread.p, [
        level_map(recipe, level)(pt) for level, pt in enumerate(thread.points, 1)
    ])


def ref_bond(m, n, p):
    """The m-fold bond from the size m*n stage onto size n: the copy index
    taken mod n, the within-copy coordinate kept."""
    if p.n != m * n:
        raise ValueError("point lives on stage %d, bond expects %d" % (p.n, m * n))
    return StagePoint(n, p.index % n, p.inner)


def ref_verify_commutes(recipe, thread=None):
    """Check the recipe against every bond on all n joints and, given a
    thread, all 17*n integer stops [-8]..[8] of each copy at the level of
    the thread's point (when that is a tower level >= 2), then the thread's
    point; the whole check list of a stage is built before the first
    comparison on it."""
    x = None if thread is None else thread.points[0].inner
    kappa = x.kappa if isinstance(x, TowerPoint) else None
    for level in range(1, recipe.depth):
        m = recipe.p[level - 1]
        n = stage_size(recipe.p, level)
        size = m * n
        pts = [StagePoint(size, i) for i in range(size)]
        if kappa is not None and kappa >= 2:
            pts += [
                StagePoint(size, i, TowerPoint(kappa, Address((z,))))
                for i in range(size)
                for z in range(-8, 9)
            ]
        if thread is not None:
            pts.append(thread.points[level])
        low_map = level_map(recipe, level)
        high_map = level_map(recipe, level + 1)
        for pt in pts:
            lhs = ref_bond(m, n, high_map(pt))
            rhs = low_map(ref_bond(m, n, pt))
            if lhs != rhs:
                return False, {
                    "level": level,
                    "point": str(pt),
                    "bond_then_low": str(rhs),
                    "high_then_bond": str(lhs),
                }
    return True, None


# ---------------------------------------------------------------------------
# literal grammars


def _decimal(text, position, message):
    """The value of ``text``, which must be ASCII digits (``int`` reads any
    script's) no more than ``sys.get_int_max_str_digits()`` long (0: no
    limit); otherwise a positioned error, never one from ``int``."""
    if not (text.isascii() and text.isdecimal()):
        raise ParseError(message, position=position)
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        raise DepthBoundError(
            "integer literal longer than %d digits" % limit, position=position
        )
    return int(text)


class _Scanner:
    def __init__(self, text, offset=0):
        self.text = text
        self.i = 0
        self.offset = offset

    def error(self, message):
        raise ParseError(message, position=self.offset + self.i)

    def ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def try_eat(self, ch):
        self.ws()
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def expect(self, ch):
        self.ws()
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.i += 1

    def nat(self):
        self.ws()
        start = self.i
        while self.i < len(self.text) and "0" <= self.text[self.i] <= "9":
            self.i += 1
        digits = self.text[start : self.i]
        return _decimal(digits, self.offset + start, "expected a number")

    def done(self):
        self.ws()
        return self.i >= len(self.text)


def ref_parse_ordinal(text, offset=0):
    """An ordinal literal read by a recursive-descent scanner, one method
    call per character class and one ``add`` over the terms of each sum."""
    s = _Scanner(text, offset)
    value = _ordinal(s, 0)
    if not s.done():
        s.error("unexpected trailing input")
    return value


def _ordinal(s, nest):
    terms = [_term(s, nest)]
    while s.try_eat("+"):
        terms.append(_term(s, nest))
    return add(*terms)


def _omega(s, nest):
    """Consume a ``w`` found inside ``nest`` exponents."""
    if nest + 2 > DEFAULT_DEPTH_BOUND:
        raise DepthBoundError(
            "ordinal literal nests deeper than the depth bound %d"
            % DEFAULT_DEPTH_BOUND,
            position=s.offset + s.i,
        )
    s.i += 1


def _term(s, nest):
    s.ws()
    ch = s.peek()
    if "0" <= ch <= "9":
        return nat(s.nat())
    if ch != "w":
        s.error("expected a term")
    _omega(s, nest)
    exponent = ONE
    if s.try_eat("^"):
        exponent = _exponent(s, nest + 1)
    coeff = 1
    if s.try_eat("*"):
        coeff = s.nat()
    if coeff == 0:
        return ZERO
    return CnfOrdinal(((exponent, coeff),))


def _exponent(s, nest):
    s.ws()
    ch = s.peek()
    if ch == "(":
        s.i += 1
        value = _ordinal(s, nest)
        s.expect(")")
        return value
    if "0" <= ch <= "9":
        return nat(s.nat())
    if ch != "w":
        s.error("expected an exponent")
    _omega(s, nest)
    if s.try_eat("^"):
        return CnfOrdinal(((_exponent(s, nest + 1), 1),))
    return W


def ref_parse_unit_fraction(text, offset):
    """``N/D`` with 0 <= N/D < 1, read by the scanner."""
    s = _Scanner(text, offset)
    num = s.nat()
    s.expect("/")
    den_pos = s.offset + s.i
    den = s.nat()
    if not s.done():
        s.error("unexpected trailing input")
    if den == 0:
        raise ParseError("zero denominator", position=den_pos)
    value = Fraction(num, den)
    if not 0 <= value < 1:
        raise ParseError("unit offsets lie in [0, 1)", position=offset)
    return value


def ref_split_top(text, sep, offset=0):
    """(piece, input position) for the pieces between the separators at
    bracket depth zero: the cut positions are found first, then sliced.  A
    closer with no opener fails at its position, an opener left open at
    the end of the text."""
    cuts, depth = [], 0
    for i, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if depth < 0:
            raise ParseError("unbalanced bracket", position=offset + i)
        if depth == 0 and ch == sep:
            cuts.append(i)
    if depth:
        raise ParseError("unbalanced bracket", position=offset + len(text))
    starts = [0] + [i + 1 for i in cuts]
    return [(text[a:b], offset + a) for a, b in zip(starts, cuts + [len(text)])]


RefThread = namedtuple("RefThread", "p points")


def ref_thread(p, points):
    """The thread through ``points``, one per level, checked by the
    per-level rules in ``Thread``'s order and with its errors: the
    exponents and the depth, each point's stage size, then each point
    bonding onto the one before it, index and inner point alike.  It
    builds no ``Thread``."""
    p, points = tuple(p), tuple(points)
    if not all(type(k) is int and k >= 1 for k in p):
        raise ThreadMismatchError("bonding exponents are integers >= 1")
    if len(p) < len(points) - 1:
        raise ThreadMismatchError("depth %d needs at least %d bonding exponents"
                                  % (len(points), len(points) - 1))
    if not points:
        raise ThreadMismatchError("threads carry at least one point")
    for level, pt in enumerate(points, 1):
        if pt.n != stage_size(p, level):
            raise ThreadMismatchError("level %d point lives on stage %d, expected %d"
                                      % (level, pt.n, stage_size(p, level)))
    for level, (low, high) in enumerate(zip(points, points[1:]), 2):
        if ref_bond(p[level - 2], low.n, high) != low:
            raise ThreadMismatchError(
                "level %d point does not bond onto level %d" % (level, level - 1))
    return RefThread(p, points)


def per_level(read):
    """``read`` answering a ``Thread`` as the oracles answer: its per-level
    ``RefThread``."""
    def answer(*args):
        thread = read(*args)
        return RefThread(thread.p, thread.points)
    return answer


def ref_parse_thread(p, text, mode=None, kappa=None, offset=0):
    """A thread literal read one stage point literal per level, each with
    its own ``parse_stage_point`` call, then checked by ``ref_thread``."""
    points = []
    for level, (piece, start) in enumerate(ref_split_top(text, ";", offset), start=1):
        points.append(parse_stage_point(piece, stage_size(p, level), mode, kappa, start))
    return ref_thread(p, points)


def ref_extensions(thread, levels):
    """Point tuples of every extension by `levels` more stages: each new
    level tries all points of its stage with the thread's inner coordinate
    and keeps those that bond onto the level below, in index order."""
    stacks = [thread.points]
    n = thread.points[-1].n
    inner = thread.points[-1].inner
    for m in thread.p[thread.depth - 1 : thread.depth - 1 + levels]:
        stacks = [
            stack + (pt,)
            for stack in stacks
            for pt in (StagePoint(m * n, i, inner) for i in range(m * n))
            if ref_bond(m, n, pt) == stack[-1]
        ]
        n *= m
    return stacks


# ---------------------------------------------------------------------------
# command line answers as materialised strings


def ref_fiber_points(m, n, q):
    """The fiber of q under the m-fold bond, one string per point: the
    indices j < m*n that the bond takes to q's index, j mod n (as
    ``ref_bond`` states it), ascending."""
    text = point_format(q.inner)
    return [text % j for j in range(m * n) if j % n == q.index]


def ref_extension_threads(thread, levels):
    """Every extension's text, from the closed form: the extension through
    top index J has index J mod n_k on each new stage n_k.  The J = t
    (mod n_top) below the last stage size, ordered by those per-level
    indices, each printed after the thread's own text."""
    depth, top = thread.depth, thread.points[-1]
    sizes = [stage_size(thread.p, k) for k in range(depth + 1, depth + levels + 1)]
    tops = range(top.index, sizes[-1] if sizes else top.n, top.n)
    text = "; " + point_format(top.inner)
    return [str(thread) + "".join(text % i for i in key)
            for key in sorted(tuple(j % n for n in sizes) for j in tops)]


def ref_flatten(doc, prefix=""):
    """``key: value`` lines, one recursive call per dict value or list item."""
    lines = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            lines.extend(ref_flatten(doc[key], prefix + key + "."))
    elif isinstance(doc, (list, tuple)):
        for i, item in enumerate(doc):
            lines.extend(ref_flatten(item, prefix + "%d." % i))
    else:
        lines.append("%s: %s" % (prefix[:-1], doc))
    return lines


def ref_render(doc, fmt="json"):
    """The stdout text of an answer in either ``--format``, without the
    final newline."""
    if fmt == "text":
        return "\n".join(ref_flatten(doc))
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# the command line's argv, read by argparse


def _ref_raise(message):
    raise CommandError(message)


def _ref_check_value(action, value):
    # the choices worded with repr: later argparse releases word them with str
    if action.choices is not None and value not in action.choices:
        raise argparse.ArgumentError(action, "invalid choice: %r (choose from %s)" % (
            value, ", ".join(map(repr, action.choices))))


def _ref_int(text):
    try:
        return cli._int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def ref_parse_args(argv):
    """("args", the namespace's vars), ("error", the message) or ("help", the
    help text) of ``cli.build_parser().parse_args(argv)``, over a tree of
    its own, with errors
    raised instead of printed, choices worded alike on every interpreter,
    and integer flags failing as argparse words a failed conversion."""
    parsers = [cli.build_parser.__wrapped__()]  # a tree of its own to patch
    for parser in parsers:
        parser.error, parser._check_value = _ref_raise, _ref_check_value
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            if action.type is cli._int:
                action.type = _ref_int
    out = StringIO()
    try:
        with redirect_stdout(out):
            return "args", vars(parsers[0].parse_args(argv))
    except CommandError as err:
        return "error", str(err)
    except SystemExit as stop:
        assert stop.code == 0, stop.code
        return "help", out.getvalue()
