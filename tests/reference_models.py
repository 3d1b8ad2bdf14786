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
* the bond itself is written here (``ref_bond``: the copy index mod n),
  sharing no code with the library's fiber rule;
* bond-compatibility of a recipe comes from checking every copy of every
  stage, joints and integer stops alike, instead of copy 0 alone;
* a recipe's image of a thread comes from mapping each level's point by
  that level's own map, instead of mapping the one inner coordinate once;
* a hat's value comes from the token's own assertions, with a point one
  level above the token cut at its top integer by slicing the address and
  its base compared in the dense-vector ordinal model, instead of from the
  library's evaluator, ``strip_top`` and ``compare_base``;
* a thread literal is read one level at a time, each level's inner literal
  parsed anew, instead of each distinct inner literal once per thread;
* thread extensions come from trying every point of each new stage and
  keeping the ones the bond sends onto the level below, instead of from
  the index rule;
* the command line's fiber and thread-extend answers come from lists of
  strings, one ``%`` format per point, rendered by one ``json.dumps`` or
  flattened one item at a time, instead of from a template escaped once
  and a join over the indices.
"""

import json
from fractions import Fraction

from longsol import (
    ZERO,
    Address,
    CnfOrdinal,
    DirectLimitElement,
    StagePoint,
    Thread,
    TokenUndefinedError,
    TowerPoint,
    UnsupportedTranslationError,
    nat,
    parse_stage_point,
    stage_size,
)
from longsol.parsing import _split_top
from longsol.stages import extension_indices, fiber_indices, point_format

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
    while level >= 1 and numerator % descriptor.entry(level) == 0:
        numerator //= descriptor.entry(level)
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
    return Thread(thread.p, [
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


def ref_parse_thread(p, text, mode=None, kappa=None, offset=0):
    """A thread literal read one stage point literal per level, each with
    its own ``parse_stage_point`` call."""
    points = []
    for level, (piece, start) in enumerate(_split_top(text, ";", offset), start=1):
        points.append(parse_stage_point(piece, stage_size(p, level), mode, kappa, start))
    return Thread(tuple(p), tuple(points))


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
    """The fiber of q under the m-fold bond, one string per point."""
    text = point_format(q.inner)
    return [text % j for j in fiber_indices(m, n, q)]


def ref_extension_threads(thread, levels):
    """Every extension's text: each level extends its parents' strings."""
    text = "; " + point_format(thread.points[0].inner)
    threads = [str(thread)]
    for level in extension_indices(thread, levels):
        threads = [threads[i] + text % j for i, j in level]
    return threads


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
