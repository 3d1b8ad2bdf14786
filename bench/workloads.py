"""Seeded query streams for the four benchmark workloads.

A workload is an endless sequence of blocks.  Every block has the same
composition (families, sizes and exponent shapes are fixed per slot), and
the seed chooses the concrete literals: points, indices, levels, primes,
ordinals.  Fixed composition keeps the latency distribution the same from
seed to seed, so runs with different seeds can be compared; fresh inputs in
every block keep any cache keyed on inputs from seeing repeats.

Each query carries the check that the oracle applies to its answer.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import prod

import oracle as o
import reference_models as ref

DEFAULT_ENV = {}
LARGE_VERIFY_ENV = {"LONGSOL_DEPTH": "13", "LONGSOL_INDEX_BOUND": "4096"}
LARGE_ENUM_ENV = {"LONGSOL_DEPTH": "13", "LONGSOL_INDEX_BOUND": "65536"}

# the four ROADMAP bounded-time inputs; each must answer (exit 0) or fail
# with a structured error (exit 1) within PROBE_LIMIT_S
PROBE_LIMIT_S = 1.5
PROBE_PRIME = 10**18 + 3
PROBE_NESTING = 600


class Query:
    """One CLI call: argv, the family it belongs to and its answer check.

    A text query asks for ``--format text``; the oracle compares its lines
    with the flattened JSON answer of the same call.
    """

    __slots__ = ("family", "argv", "check", "probe", "text")

    def __init__(self, family, argv, check, probe=False):
        self.family = family
        self.argv = argv
        self.check = check
        self.probe = probe
        self.text = False

    def json_argv(self):
        return self.argv[2:] if self.text else self.argv


def as_text(queries, count, rng):
    """Switch `count` of the queries to ``--format text``."""
    for q in rng.sample(queries, count):
        q.text = True
        q.argv = ["--format", "text"] + q.argv
    return queries


def probes():
    nested = "w^(" * PROBE_NESTING + "1" + ")" * PROBE_NESTING
    return [
        Query("probe.degree", ["cohomology", "degree", "--m", "100000000", "--n", "100000"],
              o.expect_doc({"degree": 100000000}), probe=True),
        Query("probe.invariant", ["cohomology", "invariant", "--s", ":%d" % PROBE_PRIME],
              o.expect_doc({"finite": {}, "infinite": [PROBE_PRIME]}), probe=True),
        Query("probe.member", ["cohomology", "member", "--s", ":2", "--r", "1/%d" % PROBE_PRIME],
              o.expect_doc({"member": False}), probe=True),
        Query("probe.nesting", ["ord", "--expr", nested],
              o.expect_doc({"normal": "^".join(["w"] * PROBE_NESTING)}), probe=True),
    ]


def _is_prime(n):
    """Deterministic Miller-Rabin for n below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Gen:
    """Literal and query builders drawing from one seeded stream."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    # -- ordinals -----------------------------------------------------------

    def vec(self, top, cap=5):
        r = self.rng
        v = ref.vec_trim(r.randint(0, cap) for _ in range(top + 1))
        return v or (r.randint(1, cap),)

    def deep(self, depth):
        """A random ordinal of exactly the given nesting depth."""
        r = self.rng
        if depth == 0:
            return o.ZERO
        if depth == 1:
            return o.o_nat(r.randint(1, 9))
        exps = {self.deep(depth - 1)}
        for _ in range(r.randint(0, 2)):
            exps.add(self.deep(r.randint(0, min(2, depth - 2))))
        ordered = sorted(exps, key=_o_key, reverse=True)
        return tuple((e, r.randint(1, 4)) for e in ordered)

    def ord_query(self, kind, deep):
        r = self.rng
        if kind == "expr":
            if deep:
                d = r.randint(12, 15)
                terms = [(self.deep(r.randint(d - 3, d - 1)), r.randint(1, 5))
                         for _ in range(r.randint(2, 4))]
                terms.append((self.deep(d - 1), r.randint(1, 5)))
                want = o.ZERO
                for term in terms:
                    want = o.o_add(want, (term,))
                text = " + ".join(o.o_str((t,)) for t in terms)
            else:
                terms = [tuple([0] * i + [r.randint(1, 6)]) for i in
                         (r.randint(0, 3) for _ in range(r.randint(2, 5)))]
                acc = ()
                for t in terms:
                    acc = ref.vec_add(acc, t)
                want = o.o_of_vec(acc)
                text = " + ".join(o.vec_str(t) for t in terms)
            return Query("ord", ["ord", "--expr", text],
                         o.expect_doc({"normal": o.o_str(want)}))
        if kind == "omega_pow":
            if deep:
                a = self.deep(r.randint(12, 14))
                return Query("ord", ["ord", "--omega-pow", o.o_str(a)],
                             o.expect_doc({"result": o.o_str(((a, 1),))}))
            k = r.randint(0, 5)
            return Query("ord", ["ord", "--omega-pow", str(k)],
                         o.expect_doc({"result": o.o_str(((o.o_nat(k), 1),))}))
        if deep:
            d = r.randint(12, 15)
            a = self.deep(d)
            b = a if kind == "cmp" and r.random() < 0.3 else self.deep(r.randint(d - 2, d))
            s_a, s_b = o.o_str(a), o.o_str(b)
            result = {"add": lambda: o.o_add(a, b), "mul": lambda: o.o_mul(a, b)}
        else:
            a = self.vec(2 if kind == "mul" else 3)
            b = self.vec(1) if kind == "mul" else self.vec(3)
            if kind == "cmp" and r.random() < 0.3:
                b = a
            s_a, s_b = o.vec_str(a), o.vec_str(b)
            result = {
                "add": lambda: o.o_of_vec(ref.vec_add(a, b)),
                "mul": lambda: o.o_of_vec(o.vec_mul(a, b)),
            }
        if kind == "cmp":
            order = o.o_cmp(a, b) if deep else ref.vec_compare(a, b)
            want = {"order": {-1: "less", 0: "equal", 1: "greater"}[order]}
        else:
            want = {"result": o.o_str(result[kind]())}
        return Query("ord", ["ord", "--a", s_a, "--" + kind, s_b], o.expect_doc(want))

    # -- points -------------------------------------------------------------

    def frac(self, allow_zero=True):
        r = self.rng
        d = r.randint(2, 9)
        return Fraction(r.randint(0 if allow_zero else 1, d - 1), d)

    def tower_point(self, kappa, kind, fixed=False):
        """(literal, type) of a tower point; kind is joint, stop or base.

        fixed keeps the literal's shape (kappa - 1 integers, a three-term
        ordinal and a nonzero fraction) so that only digits change with the
        seed; verification cost depends on the shape.
        """
        r = self.rng
        if kind == "joint":
            return "inf", o.tower_type(kappa, None, None, None)
        if kind == "stop":
            length = kappa - 1 if fixed else r.randint(1, kappa - 1)
            ints = tuple(r.randint(-9, 9) for _ in range(length))
            return "[%s]" % ",".join(map(str, ints)), o.tower_type(kappa, ints, None, None)
        ints = tuple(r.randint(-9, 9) for _ in range(kappa - 1))
        if fixed:
            rho = tuple(r.randint(2, 3) for _ in range(3))
        else:
            rho = self.vec(2, 3) if r.random() < 0.7 else ()
        frac = self.frac(allow_zero=bool(rho) and not fixed)
        parts = ([o.vec_str(rho)] if rho else []) + ([o.frac_str(frac)] if frac else [])
        literal = "[%s; %s]" % (",".join(map(str, ints)), "+".join(parts))
        return literal, o.tower_type(kappa, ints, rho, frac)

    def inner_kind(self, kappa):
        return self.rng.choice(("stop", "base")) if kappa >= 2 else "base"

    def long_point(self, gamma=None, ng=None):
        """(literal, gamma vector, is_ng) of a nonzero long-line point."""
        r = self.rng
        if gamma is None:
            gamma = self.vec(2, 3) if r.random() < 0.8 else ()
        if ng is None:
            ng = bool(gamma) and r.random() < 0.4
        parts = ["w1*(%s)" % o.vec_str(gamma)] if gamma else []
        if not ng:
            rho = self.vec(2, 3) if r.random() < 0.6 else ()
            frac = self.frac(allow_zero=bool(rho))
            parts += ([o.vec_str(rho)] if rho else []) + ([o.frac_str(frac)] if frac else [])
        return "+".join(parts), gamma, ng

    def classify_query(self, long_mode):
        r = self.rng
        if long_mode:
            text, gamma, ng = self.long_point()
            return Query("classify", ["classify", "--long", "--point", text], o.expect_doc(
                {"class": "ng" if ng else "interval", "gamma": o.vec_str(gamma)}))
        kappa = r.randint(1, 6)
        kind = r.choice(("joint", "base") if kappa == 1 else ("joint", "stop", "base", "base"))
        text, t = self.tower_point(kappa, kind)
        return Query("classify", ["classify", "--tower", str(kappa), "--point", text],
                     o.expect_doc({"kappa": kappa, "type": t}))

    # -- stages and threads -------------------------------------------------

    def exponents(self, max_product, max_len):
        r = self.rng
        p = [r.choice((2, 2, 3, 4))]
        while len(p) < max_len and prod(p) * 2 <= max_product and r.random() < 0.7:
            p.append(r.choice([k for k in (2, 3, 4, 5) if prod(p) * k <= max_product]))
        return p

    def tower_orbit(self, p, kappa, same, kind=None, fixed=False):
        """Orbit over exponents p between threads of equal or distinct type;
        kind (joint, stop or base) fixes the first thread's point kind and
        fixed the shape of both points."""
        r = self.rng
        depth = len(p) + 1
        top = prod(p)
        kinds = ["joint", "base"] + (["stop"] if kappa >= 2 else [])
        while True:
            kx = kind or r.choice(kinds)
            ky = kx if same else r.choice(kinds)
            lx, tx = self.tower_point(kappa, kx, fixed)
            ly, ty = self.tower_point(kappa, ky, fixed)
            if (tx == ty) == same and (not fixed or _apart(lx, ly)):
                break
        x = o.thread_points(p, depth, r.randrange(top), None if kx == "joint" else lx)
        y = o.thread_points(p, depth, r.randrange(top), None if ky == "joint" else ly)
        argv = ["orbit", "--tower", str(kappa), "--p", ",".join(map(str, p)),
                "--x", o.thread_str(x), "--y", o.thread_str(y)]
        return Query("orbit", argv, o.expect_orbit("recipe" if same else "proven_distinct"))

    def long_orbit(self, p, category):
        """Long-line orbit whose verdict is fixed by the category."""
        r = self.rng
        depth = len(p) + 1
        top = prod(p)
        g = self.vec(2, 3)
        power_a, power_b = r.sample(range(0, 4), 2)

        def power(k):
            return tuple([0] * k + [1])

        nonpower = (r.randint(1, 3), r.randint(1, 3)) if r.random() < 0.5 else (0, r.randint(2, 4))
        x, y, status = {
            "same_block": lambda: (self.long_point(g, False)[0], self.long_point(g, False)[0], "recipe"),
            "same_ng": lambda: (lambda t: (t, t, "recipe"))(self.long_point(g, True)[0]),
            "ng_vs_interval": lambda: (self.long_point(g, True)[0], self.long_point(None, False)[0],
                                       "proven_distinct"),
            "ng_powers": lambda: (self.long_point(power(power_a), True)[0],
                                  self.long_point(power(power_b), True)[0], "proven_distinct"),
            "ng_nonpower": lambda: (self.long_point(nonpower, True)[0],
                                    self.long_point(power(power_a), True)[0], "unknown"),
            "cross_block": lambda: (self.long_point(g, False)[0],
                                    self.long_point(ref.vec_add(g, (1,)), False)[0], "unknown"),
            "joint_vs_ng": lambda: (None, self.long_point(g, True)[0], "unknown"),
            "joint_vs_interval": lambda: (None, self.long_point(None, False)[0], "proven_distinct"),
            "joints": lambda: (None, None, "recipe"),
        }[category]()
        tx = o.thread_points(p, depth, r.randrange(top), x)
        ty = o.thread_points(p, depth, r.randrange(top), y)
        if r.random() < 0.5:
            tx, ty = ty, tx
        argv = ["orbit", "--long", "--p", ",".join(map(str, p)),
                "--x", o.thread_str(tx), "--y", o.thread_str(ty)]
        return Query("orbit", argv, o.expect_orbit(status))

    def random_inner(self, kind=None, fixed=False):
        """(mode flags, inner literal) for a stage point, None for a joint.

        kind is "joint", "tower" or "long"; None draws one.  fixed keeps the
        literal's shape (kappa 3, three-term ordinals) so that only digits
        change with the seed and output sizes stay the same.
        """
        r = self.rng
        if kind is None:
            kind = r.choices(("joint", "tower", "long"), (3, 4, 3))[0]
        if kind == "joint":
            return [], None
        if not fixed:
            if kind == "tower":
                kappa = r.randint(1, 4)
                return ["--tower", str(kappa)], self.tower_point(kappa, self.inner_kind(kappa))[0]
            return ["--long"], self.long_point()[0]

        def three_terms():
            return o.vec_str(tuple(r.randint(2, 3) for _ in range(3)))

        frac = o.frac_str(self.frac(allow_zero=False))
        if kind == "tower":
            ints = "%d,%d" % (r.randint(0, 9), r.randint(0, 9))
            return ["--tower", "3"], "[%s; %s+%s]" % (ints, three_terms(), frac)
        return ["--long"], "w1*(%s)+%s+%s" % (three_terms(), three_terms(), frac)

    def fiber_query(self, m, n, kind=None, fixed=False):
        index = self.rng.randrange(n)
        flags, inner = self.random_inner(kind, fixed)
        argv = ["fiber", "--m", str(m), "--n", str(n),
                "--point", o.stage_point_str(index, inner)] + flags
        return Query("fiber", argv, o.expect_fiber(m, n, index, inner))

    def thread_verify(self, p, valid):
        r = self.rng
        if not valid and len(p) < 2:
            p = p + [2]
        depth = len(p) + 1
        flags, inner = self.random_inner()
        pts = o.thread_points(p, depth, r.randrange(prod(p)), inner)
        if not valid:
            k = r.randrange(2, depth)  # level k+1 >= 3 sits over a stage of size >= 2
            idx, pin = pts[k]
            n_k = prod(p[:k])
            pts[k] = ((idx + 1) % n_k, pin)
        argv = ["thread", "verify", "--p", ",".join(map(str, p)),
                "--points", o.thread_str(pts)] + flags
        return Query("thread", argv, o.expect_thread_valid(valid, depth, prod(p)))

    def thread_extend(self, p, given_depth, kind=None, fixed=False):
        r = self.rng
        depth = len(p) + 1
        flags, inner = self.random_inner(kind, fixed)
        given = o.thread_points(p, given_depth, r.randrange(prod(p)), inner)
        levels = depth - given_depth
        argv = ["thread", "extend", "--p", ",".join(map(str, p)),
                "--points", o.thread_str(given), "--levels", str(levels)] + flags
        return Query("thread", argv, o.expect_extension(p, given, levels))

    # -- arcs -----------------------------------------------------------------

    def indecomp_query(self):
        r = self.rng
        pn = r.randint(2, 4)
        n = r.randint(1, 3)
        unit = Fraction(1, 20)
        s = r.randrange(20 * n) * unit
        lc = r.randint(5, 20 * n - 5) * unit  # longer than d1 + d2: g is proper
        d1, d2 = r.randint(1, 2) * unit, r.randint(1, 2) * unit
        c = (s, (s + lc) % n)
        g = ((s + lc - d1) % n, (s + d2) % n)
        argv = ["indecomp", "--pn", str(pn), "--n", str(n),
                "--c-arc", "%s..%s" % tuple(map(o.position_str, c)),
                "--g-arc", "%s..%s" % tuple(map(o.position_str, g))]
        return Query("indecomp", argv, o.expect_indecomp(pn, n, c, g))

    def chain_query(self):
        r = self.rng
        n, t = r.randint(1, 3), r.randint(4, 6)
        eps = Fraction(n, t * r.randint(3, 5))
        shift = Fraction(r.randrange(20 * n), 20)
        q = [Fraction(i * n, t) + shift for i in range(t + 1)]
        broken = r.randrange(t) if r.random() < 0.4 else None
        arcs = []
        for i in range(t):
            start = q[i] + (eps if broken is not None and i == (broken + 1) % t else -eps)
            end = q[i + 1] + (-eps if i == broken else eps)
            arcs.append("%s..%s" % (o.position_str(start % n), o.position_str(end % n)))
        return Query("chain-check", ["chain-check", "--n", str(n), "--arcs", ",".join(arcs)],
                     o.expect_doc({"circular": broken is None}))

    # -- cohomology -------------------------------------------------------------

    def descriptor(self):
        r = self.rng
        return (tuple(r.randint(2, 30) for _ in range(r.randint(0, 2))),
                tuple(r.randint(2, 30) for _ in range(r.randint(1, 3))))

    def cohomology_query(self, kind):
        r = self.rng
        pre, cyc = self.descriptor()
        s = _desc_str(pre, cyc)
        if kind == "invariant":
            return _coh(["invariant", "--s", s], o.expect_invariant(pre, cyc))
        if kind == "equiv":
            if r.random() < 0.5:
                primes = sorted(o.supernatural(pre, cyc)[1])
                r.shuffle(primes)
                other = (tuple(r.randint(2, 30) for _ in range(r.randint(0, 2))), tuple(primes))
            else:
                other = self.descriptor()
            return _coh(["equiv", "--a", s, "--b", _desc_str(*other)],
                        o.expect_equiv((pre, cyc), other))
        if kind == "member":
            den = prod(r.choice((2, 3, 5, 7, 11, 13)) for _ in range(r.randint(1, 3)))
            value = Fraction(r.randint(1, 50), den)
            return _coh(["member", "--s", s, "--r", o.frac_str(value)],
                        o.expect_doc({"member": o.member(pre, cyc, value)}))
        if kind == "sum":
            a, b = (self.member_value(pre, cyc, r.randint(0, 4)) for _ in range(2))
            return _coh(["sum", "--s", s, "--a=" + o.frac_str(a), "--b=" + o.frac_str(b)],
                        o.expect_sum(pre, cyc, a, b))
        m, n = r.randint(1, 50), r.randint(1, 50)
        return _coh(["degree", "--m", str(m), "--n", str(n)], o.expect_doc({"degree": m}))

    def member_value(self, pre, cyc, level):
        terms = list(pre)
        while len(terms) < level:
            terms.extend(cyc)
        return Fraction(self.rng.randint(-40, 40), prod(terms[:level]))

    def prime(self, digits):
        """A prime just above 10^(d-1): trial division costs about the same
        for every seed."""
        low = 10 ** (digits - 1)
        n = self.rng.randrange(low, low + low // 10) | 1
        while not _is_prime(n):
            n += 2
        return n

    def big_cohomology(self, kind, digits):
        r = self.rng
        big = self.prime(digits)
        small = r.choice((2, 3, 5, 6, 10, 12))
        if kind == "invariant":
            pre, cyc = ((r.randint(2, 30), big), (small,)) if r.random() < 0.5 else ((small,), (big,))
            return _coh(["invariant", "--s", _desc_str(pre, cyc)],
                        o.expect_invariant(pre, cyc, (big,)))
        if kind == "member":
            pre, cyc = (small,), (big, r.randint(2, 9))
            value = Fraction(r.randint(1, 99), big * r.choice((1, 2, 3, 4, 9)))
            return _coh(["member", "--s", _desc_str(pre, cyc), "--r", o.frac_str(value)],
                        o.expect_doc({"member": o.member(pre, cyc, value)}))
        if kind == "equiv":
            a = ((r.randint(2, 30),), (big,))
            b = r.choice((((small,), (big,)), ((), (big * small,)), ((big,), (small,))))
            return _coh(["equiv", "--a", _desc_str(*a), "--b", _desc_str(*b)],
                        o.expect_equiv(a, b, (big,)))
        pre, cyc = (big,), (small,)
        a, b = (self.member_value(pre, cyc, r.randint(1, 2)) for _ in range(2))
        return _coh(["sum", "--s", _desc_str(pre, cyc), "--a=" + o.frac_str(a),
                     "--b=" + o.frac_str(b)], o.expect_sum(pre, cyc, a, b))

    # -- mixes ------------------------------------------------------------------

    def small_orbit(self, long_mode, recipe):
        r = self.rng
        p = self.exponents(48, 5)
        if long_mode:
            pool = (("same_block", "same_ng", "joints") if recipe else
                    ("ng_vs_interval", "ng_powers", "ng_nonpower", "cross_block",
                     "joint_vs_ng", "joint_vs_interval"))
            return self.long_orbit(p, r.choice(pool))
        return self.tower_orbit(p, r.randint(1, 4), recipe)

    def one_of_each(self):
        """One small query per subcommand family, at default bounds."""
        r = self.rng
        return [
            self.ord_query(r.choice(("expr", "add", "mul", "cmp", "omega_pow")), False),
            self.ord_query(r.choice(("expr", "add", "mul", "cmp", "omega_pow")), True),
            self.classify_query(False),
            self.classify_query(True),
            self.small_orbit(False, r.random() < 0.6),
            self.small_orbit(True, r.random() < 0.5),
            self.fiber_query(r.randint(2, 8), r.randint(1, 6)),
            self.thread_verify(self.exponents(48, 5), r.random() < 0.7),
            self.thread_extend(*self._extend_shape()),
            self.indecomp_query(),
            self.chain_query(),
        ] + [self.cohomology_query(k) for k in ("invariant", "equiv", "member", "sum", "degree")]

    def _extend_shape(self):
        p = self.exponents(48, 5)
        return p, self.rng.randint(1, len(p))


_o_key = functools.cmp_to_key(o.o_cmp)


def _apart(a, b):
    """Whether two fixed tower literals differ in every integer and in the
    rest, so that a recipe between them always translates and, above a
    depth-1 stop, carries a non-identity hat: a coincidence would make the
    orbit markedly cheaper than the others of its slot."""
    if a == "inf":
        return True
    ints_a, _, rest_a = a.strip("[]").partition(";")
    ints_b, _, rest_b = b.strip("[]").partition(";")
    return (all(i != j for i, j in zip(ints_a.split(","), ints_b.split(",")))
            and (rest_a != rest_b or not rest_a))


def _desc_str(pre, cyc):
    return "%s:%s" % (",".join(map(str, pre)), ",".join(map(str, cyc)))


def _coh(argv, check):
    return Query("cohomology", ["cohomology"] + argv, check)


# ---------------------------------------------------------------------------
# block compositions


def block_cli_cold(g, smoke):
    qs = g.one_of_each()
    g.rng.shuffle(qs)
    return as_text(qs, 1, g.rng)


def block_warm_small(g, smoke):
    r = g.rng
    qs = []
    for kind in ("expr", "expr", "add", "mul", "cmp", "omega_pow"):
        qs.append(g.ord_query(kind, False))
        qs.append(g.ord_query(kind, True))
    qs += [g.classify_query(False) for _ in range(4)]
    qs += [g.classify_query(True) for _ in range(3)]
    # fixed shapes: the top-24 orbit is the costliest small query, so the
    # tail is about the same for every seed, while verification stays a
    # small share of the block
    qs += [g.tower_orbit([2, 2, 2, 3], 3, True, "stop"), g.tower_orbit([2, 3], 2, True, "base")]
    qs += [g.small_orbit(False, False), g.small_orbit(True, True), g.small_orbit(True, True)]
    qs += [g.small_orbit(True, False) for _ in range(3)]
    qs += [g.fiber_query(r.randint(2, 8), r.randint(1, 6)) for _ in range(3)]
    qs += [g.thread_verify(g.exponents(48, 5), v) for v in (True, True, False)]
    qs += [g.thread_extend(*g._extend_shape()) for _ in range(2)]
    qs += [g.indecomp_query(), g.indecomp_query(), g.chain_query(), g.chain_query()]
    qs += [g.cohomology_query(k) for k in ("invariant", "equiv", "member", "sum", "degree")]
    if smoke:
        qs = qs[::6]
    r.shuffle(qs)
    return as_text(qs, 1 if smoke else 4, r)


# The block is built around its two latency quantiles.  A quantile read
# from a sorted list jumps with the seed when it falls in a gap between
# query sizes, so each sits in the middle of a cluster of equal-cost
# orbits: 21 small queries, 24 top-256 stop orbits (the median cluster),
# 20 top-512 base orbits (the tail cluster, 10 samples beyond its middle)
# and one top-4096 orbit, the ROADMAP's 2x12 case.  The median stays in the
# middle of its cluster whatever that cluster's size, as long as the small
# queries equal the tail cluster and the top orbit in number; the run length
# sets its size, and larger is steadier, because the same query's latency
# varies by up to 1.8x from one second to the next on a shared 2-vCPU host.
# Cost grows with the stage sizes and depends on the point kind, so shape,
# kappa and kind are fixed per slot, and _apart keeps every recipe
# translating with a non-identity hat; only the digits change with the seed.
# Slots are (exponent shape, kappa, point kind, count).
VERIFY_SLOTS = [
    ((2,) * 8, 3, "stop", 24), ((4, 2, 4, 2, 4, 2), 4, "base", 20), ((2,) * 12, 2, "joint", 1),
    ((4, 4, 4), 2, "base", 1), ((4, 4, 4), 4, "stop", 1), ((2,) * 6, 3, "joint", 1),
    ((8, 8), 4, "base", 1), ((2, 2, 2, 3), 2, "stop", 1), ((4, 4, 2, 2), 3, "base", 1),
    ((2, 2, 2, 2, 2), 4, "joint", 1), ((3, 3, 3), 3, "stop", 1), ((8, 4), 2, "joint", 1),
    ((2, 4, 2, 4), 4, "stop", 1), ((6, 6), 3, "base", 1),
]
SMOKE_VERIFY_SLOTS = [((2,) * 6, 3, "stop", 2), ((4, 4, 2), 4, "base", 1)]


def block_verify_large(g, smoke):
    r = g.rng
    qs = [g.tower_orbit(list(shape), kappa, True, kind, fixed=True)
          for shape, kappa, kind, count in (SMOKE_VERIFY_SLOTS if smoke else VERIFY_SLOTS)
          for _ in range(count)]
    for shape in ((2,) * 12, (4,) * 6):
        qs.append(g.tower_orbit(list(shape), 3, False, "stop", fixed=True))
    qs += [g.thread_verify(list(shape), valid) for shape, valid in
           (((2,) * 12, True), ((2, 3, 4, 2, 2, 2, 2), True), ((4,) * 6, False))]
    # small queries reaching the layers verification skips
    qs += [g.long_orbit(g.exponents(48, 5), "same_block"), g.chain_query(), g.fiber_query(4, 3),
           g.thread_extend([2, 3, 2], 1), g.cohomology_query("degree")]
    r.shuffle(qs)
    return qs


# (exponent shape, depth of the given thread): 4096 down to 256 results
EXTEND_SHAPES = [((2,) * 12, 1), ((4,) * 6, 1), ((2,) * 12, 2), ((8, 4, 4, 4, 4), 2),
                 ((2,) * 11, 2), ((4,) * 6, 2), ((2,) * 10, 2), ((2,) * 10, 1)]
FIBER_SIZES = [(60000, 1), (30000, 2), (20000, 3), (10000, 1), (10000, 6), (5000, 4)]
BIG_COHOMOLOGY = [("invariant", 13), ("invariant", 10), ("member", 12), ("member", 11),
                  ("equiv", 11), ("equiv", 10), ("sum", 10), ("sum", 11)]
DEGREE_SIZES = [10**7, 10**6, 10**6, 10**5, 10**5, 3 * 10**5]
INNER_KINDS = ("joint", "tower", "long")


def block_enumerate_large(g, smoke):
    if smoke:
        return [g.thread_extend([2] * 6, 1), g.fiber_query(500, 2),
                g.big_cohomology("invariant", 8), g.big_cohomology("sum", 8),
                g.cohomology_query("degree")]
    return [q for _ in range(3) for q in _enumerate_slots(g)]


def _enumerate_slots(g):
    r = g.rng
    qs = [g.thread_extend(list(shape), given, INNER_KINDS[i % 3], fixed=True)
          for i, (shape, given) in enumerate(EXTEND_SHAPES)]
    qs += [g.fiber_query(m, n, INNER_KINDS[i % 3], fixed=True)
           for i, (m, n) in enumerate(FIBER_SIZES)]
    qs += [g.big_cohomology(kind, digits) for kind, digits in BIG_COHOMOLOGY]
    for size in DEGREE_SIZES:
        n = r.randint(1, 100)
        m = size // n
        qs.append(_coh(["degree", "--m", str(m), "--n", str(n)], o.expect_doc({"degree": m})))
    # small queries reaching the layers enumeration skips
    qs += [g.small_orbit(False, True), g.small_orbit(True, True), g.chain_query()]
    r.shuffle(qs)
    return qs


class Workload:
    """Name, bounds in force, how queries are issued and what a block holds.

    block_s is the nominal seconds of one block on the machine the
    benchmark was tuned on.  A run issues round(seconds / block_s) whole
    blocks, so its sample set does not depend on the speed of the machine.
    """

    def __init__(self, name, env, subprocess, block, trace_blocks, block_s):
        self.name = name
        self.env = env
        self.subprocess = subprocess
        self.block = block
        self.trace_blocks = trace_blocks
        self.block_s = block_s

    def blocks(self, seed, smoke):
        """The endless block stream for a seed."""
        g = Gen(seed)
        while True:
            yield self.block(g, smoke)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_cold", DEFAULT_ENV, True, block_cli_cold, 2, 3.0),
        Workload("warm_small", DEFAULT_ENV, False, block_warm_small, 30, 0.25),
        Workload("verify_large", LARGE_VERIFY_ENV, False, block_verify_large, 1, 20.0),
        Workload("enumerate_large", LARGE_ENUM_ENV, False, block_enumerate_large, 1, 10.0),
    )
}
