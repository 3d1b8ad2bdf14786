"""Independent expected answers for the benchmark's generated queries.

The generators in ``workloads`` build every input from structured values,
so each answer can be predicted without the code under test:

* ordinals with finite exponents go through the dense coefficient-vector
  model in ``tests/reference_models.py``; deeper ordinals through the small
  nested-tuple Cantor normal form model below;
* tower point types come from ``ref_point_type``;
* cohomology invariants and membership come from ``ref_supernatural`` and
  ``ref_member``, except that entries holding 10 to 13 digit primes are
  factored from the primes the generator chose (trial division there
  would cost the oracle seconds per query);
* thread, fiber, arc and orbit answers are checked against the structure
  the generator built.

A check returns None when the answer is right and a short message when
it is not.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import prod

import reference_models as ref
from longsol import Address, SequenceDescriptor, TowerPoint

# ---------------------------------------------------------------------------
# nested-tuple Cantor normal form: a tuple of (exponent, coefficient) with
# strictly decreasing exponents, each exponent itself such a tuple

ZERO = ()
ONE = ((ZERO, 1),)


def o_nat(n):
    return ZERO if n == 0 else ((ZERO, n),)


def o_cmp(a, b):
    for (ea, ca), (eb, cb) in zip(a, b):
        by_exp = o_cmp(ea, eb)
        if by_exp:
            return by_exp
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def o_add(a, b):
    if not b:
        return a
    lead, coeff = b[0]
    keep = []
    for exp, c in a:
        rel = o_cmp(exp, lead)
        if rel > 0:
            keep.append((exp, c))
        elif rel == 0:
            return tuple(keep) + ((lead, c + coeff),) + b[1:]
        else:
            break
    return tuple(keep) + b


def o_mul(a, b):
    if not a or not b:
        return ZERO
    e1, c1 = a[0]
    out = []
    for exp, c in b:
        if not exp:
            out.append((e1, c1 * c))
            out.extend(a[1:])
        else:
            out.append((o_add(e1, exp), c))
    return tuple(out)


def o_str(a):
    """The canonical literal, the same text the library prints."""
    if not a:
        return "0"
    parts = []
    for exp, coeff in a:
        if not exp:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        else:
            shown = o_str(exp)
            if "+" in shown or "*" in shown:
                shown = "(%s)" % shown
            base = "w^" + shown
        parts.append(base if coeff == 1 else "%s*%d" % (base, coeff))
    return "+".join(parts)


def o_of_vec(v):
    v = ref.vec_trim(v)
    return tuple(
        (o_nat(i), v[i]) for i in range(len(v) - 1, -1, -1) if v[i]
    )


def vec_str(v):
    return o_str(o_of_vec(v))


@functools.lru_cache(maxsize=4096)
def vec_mul(a, b):
    return ref.vec_mul(a, b)


# ---------------------------------------------------------------------------
# literal helpers shared by generators and checks


def frac_str(f):
    return "%d/%d" % (f.numerator, f.denominator)


def position_str(pos):
    whole = pos.numerator // pos.denominator
    rest = pos - whole
    return str(whole) if rest == 0 else "%d+%s" % (whole, frac_str(rest))


def split_top(text, sep):
    """Split on sep outside brackets (literals nest () and [])."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            pieces.append(text[start:i].strip())
            start = i + 1
    pieces.append(text[start:].strip())
    return pieces


def stage_point_str(index, inner):
    return "inf%d" % index if inner is None else "(%d| %s)" % (index, inner)


def read_stage_point(text):
    """(index, inner text or None) of a printed stage point."""
    if text.startswith("inf"):
        return int(text[3:]), None
    bar = text.index("|")
    return int(text[1:bar]), text[bar + 1 : -1].strip()


def stage_sizes(p, depth):
    return [prod(p[: k - 1]) for k in range(1, depth + 1)]


def thread_points(p, depth, top_index, inner):
    """Points of the thread through top_index at the given depth."""
    return [(top_index % n, inner) for n in stage_sizes(p, depth)]


def thread_str(points):
    return "; ".join(stage_point_str(i, inner) for i, inner in points)


def tower_type(kappa, ints, rho_vec, frac):
    """Reference type of a tower point; ints None is the joint."""
    if ints is None:
        return ref.ref_point_type(TowerPoint(kappa))
    if rho_vec is None:
        return ref.ref_point_type(TowerPoint(kappa, Address(ints)))
    rho = ref.vec_to_cnf(rho_vec)
    return ref.ref_point_type(TowerPoint(kappa, Address(ints, rho, frac)))


# ---------------------------------------------------------------------------
# checks: each factory returns doc -> None | message


def _diff(got, want):
    return None if got == want else "got %r, want %r" % (got, want)


def expect_doc(want):
    return lambda doc: _diff(doc, want)


def expect_orbit(status):
    def check(doc):
        if doc.get("status") != status:
            return "status %r, want %r" % (doc.get("status"), status)
        if status == "recipe" and not (
            doc.get("verified") is True and doc.get("maps_x_to_y") is True
        ):
            return "recipe not verified or does not map x to y: %r" % (
                {k: doc.get(k) for k in ("verified", "maps_x_to_y")},
            )
        return None

    return check


def expect_thread_valid(valid, depth, top_stage):
    def check(doc):
        if not valid:
            if doc.get("valid") is False and isinstance(doc.get("reason"), str):
                return None
            return "invalid thread accepted: %r" % (doc,)
        return _diff(doc, {"valid": True, "depth": depth, "top_stage": top_stage})

    return check


def expect_extension(p, given, levels):
    """Count is the product of the consumed exponents; results are distinct,
    extend the given points, and bond level by level."""
    depth = len(given) + levels
    sizes = stage_sizes(p, depth)
    count = prod(p[len(given) - 1 : depth - 1])
    inner = given[0][1]

    def check(doc):
        threads = doc.get("threads", [])
        if doc.get("count") != count or len(threads) != count:
            return "count %r with %d threads, want %d" % (
                doc.get("count"), len(threads), count,
            )
        if len(set(threads)) != count:
            return "extensions are not distinct"
        for text in threads:
            pts = [read_stage_point(t) for t in split_top(text, ";")]
            if len(pts) != depth or pts[: len(given)] != list(given):
                return "extension %r does not extend the thread" % text
            for k in range(depth):
                idx, pin = pts[k]
                if pin != inner or not 0 <= idx < sizes[k]:
                    return "bad point %r in %r" % (pts[k], text)
                if k and idx % sizes[k - 1] != pts[k - 1][0]:
                    return "level %d does not bond in %r" % (k + 1, text)
        return None

    return check


def expect_fiber(m, n, index, inner):
    """Points index + k*n for k < m, built one at a time in the check so
    that a large fiber's expected answer is never held whole."""

    def check(doc):
        points = doc.get("points")
        if set(doc) != {"stage", "points"} or doc["stage"] != m * n:
            return "keys %r, stage %r, want stage %d" % (sorted(doc), doc.get("stage"), m * n)
        if not isinstance(points, list) or len(points) != m:
            return "%s points, want %d" % (len(points) if isinstance(points, list) else "no", m)
        for k, got in enumerate(points):
            want = stage_point_str(index + k * n, inner)
            if got != want:
                return "point %d is %r, want %r" % (k, got, want)
        return None

    return check


def _cyclic_contains(start, length, pos, n):
    return (pos - start) % n <= length


def expect_indecomp(pn, n, c_arc, g_arc):
    """Components are the pn translates of each arc; every pair of one
    component from each side misses the reported point."""
    big = pn * n
    comps = {}
    for key, (s, e) in (("c", c_arc), ("g", g_arc)):
        length = (e - s) % n
        comps[key] = [((s + k * n) % big, length) for k in range(pn)]

    def check(doc):
        for key in ("c", "g"):
            want = [
                "%s..%s" % (position_str(s), position_str((s + ln) % big))
                for s, ln in comps[key]
            ]
            if doc.get(key + "_components") != want:
                return "%s components %r, want %r" % (
                    key, doc.get(key + "_components"), want,
                )
        if doc.get("multiplicity") != pn or doc.get("stage") != n:
            return "multiplicity/stage %r/%r" % (doc.get("multiplicity"), doc.get("stage"))
        uncovered = doc.get("uncovered", [])
        if len(uncovered) != pn * pn or doc.get("witness") is not True:
            return "witness %r with %d uncovered pairs" % (doc.get("witness"), len(uncovered))
        for entry in uncovered:
            pieces = entry["point"].split("+")
            pos = Fraction(pieces[0]) + (Fraction(pieces[1]) if len(pieces) > 1 else 0)
            for key, idx in (("c", entry["c"]), ("g", entry["g"])):
                s, ln = comps[key][idx]
                if _cyclic_contains(s, ln, pos, big):
                    return "point %s lies in %s component %d" % (entry["point"], key, idx)
        return None

    return check


def _sup_doc(finite, infinite):
    return {
        "finite": {str(p): m for p, m in finite.items()},
        "infinite": sorted(infinite),
    }


def _factor(n, known):
    """Prime factorization using the generator's large primes first."""
    out = {}
    for q in known:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    for prime, mult in ref.prime_counts([n]).items() if n > 1 else ():
        out[prime] = out.get(prime, 0) + mult
    return out


def supernatural(prefix, cycle, known=()):
    """(finite multiplicities, infinite primes) of PREFIX:CYCLE."""
    if not known:
        return ref.ref_supernatural(SequenceDescriptor(prefix, cycle))
    infinite = set()
    for entry in cycle:
        infinite.update(_factor(entry, known))
    finite = {}
    for entry in prefix:
        for prime, mult in _factor(entry, known).items():
            if prime not in infinite:
                finite[prime] = finite.get(prime, 0) + mult
    return finite, infinite


def member(prefix, cycle, r):
    return ref.ref_member(SequenceDescriptor(prefix, cycle), r)


def expect_invariant(prefix, cycle, known=()):
    return expect_doc(_sup_doc(*supernatural(prefix, cycle, known)))


def expect_equiv(a, b, known=()):
    same = supernatural(*a, known)[1] == supernatural(*b, known)[1]
    return expect_doc({"equivalent": same})


def expect_sum(prefix, cycle, a, b):
    total = a + b

    def partial(level):
        terms = list(prefix)
        while len(terms) < level:
            terms.extend(cycle)
        return prod(terms[:level])

    def check(doc):
        try:
            level, num = doc["level"], doc["numerator"]
            ok = Fraction(doc["value"]) == total and Fraction(num, partial(level)) == total
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
            return "malformed sum %r (%s)" % (doc, err)
        return None if ok else "sum %r, want %s" % (doc, total)

    return check


def flatten(doc, prefix=""):
    """The documented ``--format text`` lines of a JSON answer."""
    if isinstance(doc, dict):
        return [line for key in sorted(doc) for line in flatten(doc[key], prefix + key + ".")]
    if isinstance(doc, list):
        return [line for i, item in enumerate(doc) for line in flatten(item, "%s%d." % (prefix, i))]
    return ["%s: %s" % (prefix[:-1], doc)]
