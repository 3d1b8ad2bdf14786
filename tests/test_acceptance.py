"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
test keeps its own wall-clock budget; a blown budget fails the criterion
just like a wrong value.
"""

import itertools
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from io import StringIO

from longsol import (
    ONE,
    PROVEN_DISTINCT,
    RECIPE,
    ZERO,
    Address,
    Arc,
    HomeoRecipe,
    LongPoint,
    OMEGA,
    SequenceDescriptor,
    StagePoint,
    Thread,
    TowerPoint,
    add,
    apply_recipe,
    arcs_intersect,
    circular_chain_check,
    compare,
    distinct_orbit_proof,
    dl_add,
    dl_element,
    dl_of_rational,
    dl_value,
    extend_thread,
    fiber,
    h1_action,
    indecomposability_witness,
    inequivalent_family,
    is_ng,
    mccord_equivalent,
    member,
    mul,
    nat,
    omega_pow,
    partition_class,
    point_type,
    preimage_components,
    same_orbit,
    stage_size,
    supernatural_of,
    synthesize_recipe,
    verify_commutes,
)
from longsol.cli import main
from reference_models import ref_bond, ref_member

W = OMEGA


def _report(num, name, ok):
    print("criterion %02d %s: %s" % (num, name, "PASS" if ok else "FAIL"))


def _finish(num, name, start, budget, failures):
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        failures.append("budget blown: %.1fs >= %ds" % (elapsed, budget))
    ok = not failures
    _report(num, name, ok)
    assert ok, failures[:5]


def test_01_covering_fibers():
    start = time.perf_counter()
    failures = []
    for m in range(1, 13):
        for n in range(1, 13):
            for i in range(n):
                q = StagePoint(n, i)
                lifts = fiber(m, n, q)
                if len(lifts) != m or len(set(lifts)) != m:
                    failures.append("fiber size m=%d n=%d i=%d" % (m, n, i))
                    continue
                for x in lifts:
                    if ref_bond(m, n, x) != q:
                        failures.append(
                            "bond(fiber) != id at m=%d n=%d i=%d" % (m, n, i)
                        )
    _finish(1, "covering-fibers", start, 10, failures)


def _ordinal_pool():
    singles = [ZERO]
    for e in range(4):
        for c in range(1, 5):
            singles.append(mul(omega_pow(nat(e)), nat(c)))
    pool = list(singles)
    for a in singles[1:]:
        for b in singles[1:]:
            pool.append(add(a, b))
    return list(dict.fromkeys(pool))


def test_02_ordinal_laws():
    start = time.perf_counter()
    failures = []
    if mul(nat(2), W) != W:
        failures.append("2*w != w")
    if mul(W, nat(2)) != add(W, W):
        failures.append("w*2 != w+w")
    if omega_pow(ZERO) != ONE:
        failures.append("w^0 != 1")
    pool = _ordinal_pool()
    core = pool[:9]
    triples = list(itertools.product(core, repeat=3))
    rng = random.Random(2)
    triples += [
        (rng.choice(pool), rng.choice(pool), rng.choice(pool))
        for _ in range(2500)
    ]
    for a, b, c in triples:
        if add(add(a, b), c) != add(a, add(b, c)):
            failures.append("add assoc at %s,%s,%s" % (a, b, c))
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            failures.append("mul assoc at %s,%s,%s" % (a, b, c))
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            failures.append("left dist at %s,%s,%s" % (a, b, c))
        if failures:
            break
    _finish(2, "ordinal-laws", start, 10, failures)


def _factor_sequence(n):
    seq = []
    d = 2
    while n > 1:
        while n % d == 0:
            seq.append(d)
            n //= d
        d += 1
    return tuple(seq)


def test_03_recipes_commute_with_bonds():
    start = time.perf_counter()
    failures = []
    for top in range(2, 49):
        p = _factor_sequence(top)
        depth = len(p) + 1
        sizes = [stage_size(p, lvl) for lvl in range(1, depth + 1)]
        # a level-2 thread, so translations meet the integer stops too
        thread = _tower_thread(p, depth, TowerPoint(2, Address((3,))), 0)
        recipes = []
        for r in {0, 1, top // 2, top - 1}:
            rotations = tuple(r % s for s in sizes)
            recipes.append(HomeoRecipe(p=p, rotations=rotations))
            recipes.append(HomeoRecipe(p=p, rotations=rotations, translate_by=-2))
        for k in (1, 5):
            recipes.append(HomeoRecipe(p=p, rotations=(0,) * depth, translate_by=k))
        for recipe in recipes:
            ok, witness = verify_commutes(recipe, thread)
            if not ok:
                failures.append("top=%d witness=%s" % (top, witness))
    _finish(3, "recipes-commute-with-bonds", start, 30, failures)


def _shapes(kappa):
    pts = [TowerPoint(kappa)]
    for depth in range(1, kappa):
        for tup in itertools.product((0, 1), repeat=depth):
            pts.append(TowerPoint(kappa, Address(tup)))
    bases = [
        (nat(0), F(1, 2)),
        (nat(2), F(0)),
        (W, F(0)),
        (add(omega_pow(nat(2)), nat(3)), F(1, 3)),
    ]
    for tup in itertools.product((0, 1), repeat=kappa - 1):
        for rho, frac in bases:
            pts.append(TowerPoint(kappa, Address(tup, rho, frac)))
    return pts


def test_04_orbit_class_count():
    start = time.perf_counter()
    failures = []
    for kappa in range(1, 6):
        pts = _shapes(kappa)
        reps = []
        classes = {}
        for p in pts:
            for rep in reps:
                if same_orbit(p, rep):
                    classes[rep].append(p)
                    break
            else:
                reps.append(p)
                classes[p] = [p]
        if len(reps) != kappa + 1:
            failures.append("kappa=%d has %d classes" % (kappa, len(reps)))
            continue
        joint_class = [
            members
            for rep, members in classes.items()
            if any(q.is_joint for q in members)
        ]
        if len(joint_class) != 1 or len(joint_class[0]) != 1:
            failures.append("kappa=%d joint class not alone" % kappa)
    _finish(4, "orbit-class-count", start, 10, failures)


_RHOS = [nat(1), nat(4), W, add(W, ONE), mul(W, nat(2)), omega_pow(nat(2))]
_FRACS = [F(0), F(1, 2), F(1, 3), F(2, 3)]


def _tower_point_of_type(kappa, t, rng):
    if t == kappa + 1:
        return TowerPoint(kappa)
    draw = lambda: rng.randrange(-6, 7)
    if t == 1:
        ints = tuple(draw() for _ in range(kappa - 1))
        return TowerPoint(kappa, Address(ints, rng.choice(_RHOS), rng.choice(_FRACS)))
    depth = kappa + 1 - t
    return TowerPoint(kappa, Address(tuple(draw() for _ in range(depth))))


def _tower_thread(p, depth, inner, top_index):
    pts = []
    for level in range(1, depth + 1):
        size = stage_size(p, level)
        pts.append(StagePoint(size, top_index % size, inner))
    return Thread(p, tuple(pts))


def test_05_synthesis_decisions():
    start = time.perf_counter()
    failures = []
    rng = random.Random(11)
    for trial in range(200):
        kappa = rng.randrange(1, 4)
        depth = rng.randrange(1, 6)
        p = tuple(rng.choice((2, 3)) for _ in range(depth - 1))
        t = rng.randrange(1, kappa + 2)
        a = _tower_point_of_type(kappa, t, rng)
        b = _tower_point_of_type(kappa, t, rng)
        top = stage_size(p, depth)
        x = _tower_thread(p, depth, None if a.is_joint else a, rng.randrange(top))
        y = _tower_thread(p, depth, None if b.is_joint else b, rng.randrange(top))
        result = synthesize_recipe(x, y)
        if result.status != RECIPE:
            failures.append("trial %d: no recipe for equal types" % trial)
            continue
        ok, witness = verify_commutes(result.recipe, x)
        if not ok:
            failures.append("trial %d: verify failed %s" % (trial, witness))
        elif apply_recipe(result.recipe, x) != y:
            failures.append("trial %d: recipe misses y" % trial)
        if failures:
            break
    for trial in range(200):
        kappa = rng.randrange(1, 4)
        depth = rng.randrange(1, 6)
        p = tuple(rng.choice((2, 3)) for _ in range(depth - 1))
        t1 = rng.randrange(1, kappa + 2)
        t2 = rng.choice([t for t in range(1, kappa + 2) if t != t1])
        a = _tower_point_of_type(kappa, t1, rng)
        b = _tower_point_of_type(kappa, t2, rng)
        top = stage_size(p, depth)
        x = _tower_thread(p, depth, None if a.is_joint else a, rng.randrange(top))
        y = _tower_thread(p, depth, None if b.is_joint else b, rng.randrange(top))
        result = synthesize_recipe(x, y)
        if result.status != PROVEN_DISTINCT:
            failures.append(
                "trial %d: types %d vs %d gave %s"
                % (trial, t1, t2, result.status)
            )
            break
    _finish(5, "synthesis-decisions", start, 60, failures)


def _exponent_prefixes(limit):
    out = []

    def rec(prefix, product):
        for k in range(2, limit // product + 1):
            seq = prefix + (k,)
            out.append(seq)
            rec(seq, product * k)

    rec((), 1)
    return out


def test_06_thread_extension_counts():
    start = time.perf_counter()
    failures = []
    for p in _exponent_prefixes(64):
        seed = Thread(p, (StagePoint(1, 0),))
        grown = extend_thread(seed, len(p))
        want = 1
        for k in p:
            want *= k
        if len(grown) != want:
            failures.append("p=%s count %d != %d" % (p, len(grown), want))
        elif len(set(grown)) != want:
            failures.append("p=%s extensions collide" % (p,))
        if failures:
            break
    _finish(6, "thread-extension-counts", start, 10, failures)


def test_07_lifted_arcs_miss_components():
    start = time.perf_counter()
    failures = []
    rng = random.Random(7)
    for trial in range(60):
        m = rng.choice((2, 3, 5))
        n = rng.randrange(1, 7)
        grid = sorted(rng.sample(range(12 * n), 3))
        a, b, c = (F(k, 12) for k in grid)
        if a == (a + b) / 2:
            continue
        c_arc = Arc(n, a, c)
        g_arc = Arc(n, b, (a + b) / 2)
        report = indecomposability_witness(m, n, c_arc, g_arc)
        c_comps = preimage_components(c_arc, m)
        g_comps = preimage_components(g_arc, m)
        if len(c_comps) != m or len(g_comps) != m:
            failures.append("trial %d: wrong component count" % trial)
            break
        # a connected lift lies inside one preimage component, so pairwise
        # disjointness means it misses the other m - 1 components
        for comps in (c_comps, g_comps):
            for lift, other in itertools.combinations(comps, 2):
                if arcs_intersect(lift, other):
                    failures.append("trial %d: components overlap" % trial)
        if not report.witnesses_indecomposability:
            failures.append("trial %d: witness incomplete" % trial)
        if len(report.pair_uncovered) != m * m:
            failures.append("trial %d: missing uncovered pair" % trial)
        if failures:
            break
    _finish(7, "lifted-arcs-miss-components", start, 10, failures)


def test_08_block_distinctness():
    start = time.perf_counter()
    failures = []
    for a in range(7):
        for b in range(7):
            x = LongPoint(gamma=omega_pow(nat(a)))
            y = LongPoint(gamma=omega_pow(nat(b)))
            verdict = distinct_orbit_proof(x, y)
            want = PROVEN_DISTINCT if a != b else "not_proven"
            if verdict != want:
                failures.append("powers %d,%d gave %s" % (a, b, verdict))
    rng = random.Random(5)
    gammas = [nat(k) for k in range(1, 6)] + [W, add(W, nat(2)), omega_pow(nat(2))]
    for trial in range(120):
        gamma = rng.choice(gammas)
        pts = []
        for _ in range(2):
            rho = rng.choice(_RHOS)
            frac = rng.choice(_FRACS)
            pts.append(LongPoint(gamma=gamma, rho=rho, frac=frac))
        labels = {partition_class(q) for q in pts}
        if len(labels) != 1:
            failures.append("trial %d: label moved inside block" % trial)
            break
        ng_label = partition_class(LongPoint(gamma=gamma))
        if ng_label in labels:
            failures.append("trial %d: ng label leaked" % trial)
            break
    _finish(8, "block-distinctness", start, 5, failures)


_MCCORD_PAIRS = [
    (((), (2,)), ((3,), (2,)), True),
    (((), (2, 3)), ((), (6,)), True),
    (((), (4,)), ((), (2,)), True),
    (((5,), (6,)), ((7,), (2, 3)), True),
    (((), (10,)), ((), (2, 5)), True),
    (((2, 2, 2), (3,)), ((), (9,)), True),
    (((), (12,)), ((), (6, 2)), True),
    (((2,), (3,)), ((), (3,)), True),
    (((), (8,)), ((), (2, 4)), True),
    (((), (15,)), ((), (3, 5)), True),
    (((), (2,)), ((), (3,)), False),
    (((), (2,)), ((), (6,)), False),
    (((3,), (2,)), ((2,), (3,)), False),
    (((), (5,)), ((5,), (7,)), False),
    (((), (30,)), ((), (6,)), False),
    (((), (2,)), ((), (2, 5)), False),
    (((), (7,)), ((), (11,)), False),
    (((2,), (5,)), ((5,), (2,)), False),
    (((), (4,)), ((), (6,)), False),
    (((), (9,)), ((), (6,)), False),
]


def test_09_cohomology_group():
    start = time.perf_counter()
    failures = []
    for m in range(1, 13):
        for n in range(1, 13):
            if h1_action(m, n) != m:
                failures.append("h1_action(%d,%d) != %d" % (m, n, m))
    rng = random.Random(17)
    pool = [
        SequenceDescriptor(pre, cyc)
        for pre in ((), (2,), (12,), (2, 3))
        for cyc in ((2,), (3,), (2, 3), (6,), (5, 2))
    ]
    zero = dl_element(pool[0], 0, 0)
    for _ in range(250):
        s = rng.choice(pool)
        u, v, w = (
            dl_element(s, rng.randrange(0, 7), rng.randrange(-40, 41))
            for _ in range(3)
        )
        if dl_add(s, u, v) != dl_add(s, v, u):
            failures.append("dl_add not commutative on %s" % (s,))
        if dl_add(s, dl_add(s, u, v), w) != dl_add(s, u, dl_add(s, v, w)):
            failures.append("dl_add not associative on %s" % (s,))
        if dl_add(s, u, zero) != u:
            failures.append("zero not neutral on %s" % (s,))
        if dl_add(s, u, dl_element(s, u.level, -u.numerator)) != zero:
            failures.append("negation fails on %s" % (s,))
        if failures:
            break
    small = [
        SequenceDescriptor(pre, cyc)
        for pre in ((), (2,), (8,), (6, 4))
        for cyc in ((2,), (3,), (8,), (2, 7), (5,))
    ]
    rationals = [F(a, b) for a in (0, 1, -5, 9) for b in (1, 2, 3, 7, 8, 16, 21)]
    for s in small:
        for r in rationals:
            got = member(s, r)
            if got != ref_member(s, r):
                failures.append("member(%s, %s) wrong" % (s, r))
            elif got:
                u = dl_of_rational(s, r)
                if dl_value(s, u) != r:
                    failures.append("round trip lost %s in %s" % (r, s))
    for pre_a, pre_b, want in _MCCORD_PAIRS:
        s_a = SequenceDescriptor(*pre_a)
        s_b = SequenceDescriptor(*pre_b)
        if mccord_equivalent(s_a, s_b) != want or mccord_equivalent(s_b, s_a) != want:
            failures.append("mccord pair %s, %s" % (s_a, s_b))
    for s_a in pool:
        if not mccord_equivalent(s_a, s_a):
            failures.append("mccord not reflexive on %s" % (s_a,))
        for s_b in pool:
            ab = mccord_equivalent(s_a, s_b)
            if ab != mccord_equivalent(s_b, s_a):
                failures.append("mccord not symmetric")
            for s_c in pool[::3]:
                if ab and mccord_equivalent(s_b, s_c):
                    if not mccord_equivalent(s_a, s_c):
                        failures.append("mccord not transitive")
    _finish(9, "cohomology-group", start, 30, failures)


def test_10_inequivalent_generator():
    start = time.perf_counter()
    failures = []
    for count in (1, 10, 1000):
        family = inequivalent_family(count)
        if len(family) != count:
            failures.append("family size %d != %d" % (len(family), count))
            continue
        invariants = [supernatural_of(s).infinite for s in family]
        if len(set(invariants)) != count:
            failures.append("invariants collide at count %d" % count)
    sample = inequivalent_family(40)
    for i, s_a in enumerate(sample):
        for s_b in sample[i + 1 :]:
            if mccord_equivalent(s_a, s_b):
                failures.append("%s ~ %s" % (s_a, s_b))
    _finish(10, "inequivalent-generator", start, 10, failures)


_LONG_GAMMAS = [ZERO, nat(1), nat(2), W, add(W, ONE), omega_pow(nat(2))]
_LONG_RHOS = [ZERO, nat(3), W, omega_pow(nat(2))]


def _long_inner(rng):
    """A long-line inner point, or None (the joint) when all parts are 0;
    multiples of omega_1 and block counts that are powers of w both occur."""
    gamma, rho = rng.choice(_LONG_GAMMAS), rng.choice(_LONG_RHOS)
    frac = rng.choice((F(0), F(0), F(1, 2)))
    if gamma.is_zero and rho.is_zero and frac == 0:
        return None
    return LongPoint(gamma, rho, frac)


def _drawn_pair(rng):
    p = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randrange(0, 4)))
    depth = len(p) + 1
    top = stage_size(p, depth)
    if rng.random() < 0.5:
        kappa = rng.randrange(1, 4)
        t1 = rng.randrange(1, kappa + 2)
        t2 = t1 if rng.random() < 0.5 else rng.randrange(1, kappa + 2)
        a = _tower_point_of_type(kappa, t1, rng)
        b = _tower_point_of_type(kappa, t2, rng)
        a, b = (None if pt.is_joint else pt for pt in (a, b))
    else:
        a, b = _long_inner(rng), _long_inner(rng)
    return (_tower_thread(p, depth, a, rng.randrange(top)),
            _tower_thread(p, depth, b, rng.randrange(top)))


def test_11_orbit_symmetry():
    # metamorphic: being in one orbit is symmetric, so the verdicts for
    # (x, y) and (y, x) agree and each recipe maps its first thread onto
    # the second, though no oracle predicts the verdict itself
    start = time.perf_counter()
    failures = []
    rng = random.Random(13)
    for trial in range(4000):
        x, y = _drawn_pair(rng)
        there, back = synthesize_recipe(x, y), synthesize_recipe(y, x)
        if there.status != back.status:
            failures.append("trial %d: %s one way, %s back"
                            % (trial, there.status, back.status))
        elif there.status == RECIPE and (apply_recipe(there.recipe, x) != y
                                         or apply_recipe(back.recipe, y) != x):
            failures.append("trial %d: a recipe misses its target" % trial)
        if failures:
            break
    _finish(11, "orbit-symmetry", start, 10, failures)


def _cli(*argv):
    """(exit code, answer document) of one ``cli.main`` call."""
    out = StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


def test_12_kappa_two_through_the_cli(monkeypatch):
    """The abstract's kappa = 2 case (1/2-homogeneous, indecomposable and
    circle-like) as the CLI asks it, on the one set of bonds p = 2,2.

    How far each query reaches:
    - ``orbit --tower 1`` over depth-3 threads of both point types finds 2
      classes: each base pair a verified recipe, each base against joint
      ``proven_distinct``.  A recipe is checked on a finite verification
      set; the cross-type verdict rests on the type-invariance assumption
      README names (a point's type is kept by homeomorphisms of S, not
      only of Lambda).
    - ``indecomp`` finds the two-arc witness on the bond of degree 4 from
      stage 1 to stage 3.  A witness at finitely many stages does not
      prove that the limit is indecomposable.
    - ``chain-check`` audits a circular chain of arcs on the 4-copy stage
      and answers false for one with a gap: a chain at one stage, not a
      proof that the limit is circle-like.
    """
    start = time.perf_counter()
    failures = []
    for name in ("LONGSOL_DEPTH", "LONGSOL_INDEX_BOUND"):
        monkeypatch.delenv(name, raising=False)
    bases = ["[; w]", "[; w^2+3+1/3]", "[; 1/2]"]
    threads = ["(0| %s); (%d| %s); (%d| %s)" % (b, top % 2, b, top, b)
               for b, top in zip(bases, (1, 2, 3))]
    threads += ["inf0; inf1; inf3", "inf0; inf0; inf2"]
    home = list(range(len(threads)))  # the first thread with a recipe to it
    for (i, x), (j, y) in itertools.combinations(enumerate(threads), 2):
        code, doc = _cli("orbit", "--tower", "1", "--p", "2,2", "--x", x, "--y", y)
        recipe = code == 0 and doc.get("status") == "recipe"
        if recipe:
            home[j] = min(home[j], home[i])
        if (i < 3) == (j < 3):  # base pair or joint pair
            if not (recipe and doc["verified"] and doc["maps_x_to_y"]):
                failures.append("no verified recipe from %s to %s: %s" % (x, y, doc))
        elif (code, doc) != (0, {"status": "proven_distinct"}):
            failures.append("%s and %s not proven distinct: %s" % (x, y, doc))
    if len(set(home)) != 2:
        failures.append("%d classes under --tower 1" % len(set(home)))
    code, doc = _cli("indecomp", "--pn", "4", "--n", "1",
                     "--c-arc", "0..0+1/2", "--g-arc", "0+2/5..0+1/10")
    if (code, doc.get("multiplicity"), doc.get("witness")) != (0, 4, True):
        failures.append("no indecomposability witness: %s" % doc)
    chain = ["0..1+1/2", "1..2+1/2", "2..3+1/2", "3..0+1/2"]
    broken = chain[:2] + ["2+3/4..3+1/2"] + chain[3:]
    for arcs, want in ((chain, True), (broken, False)):
        code, doc = _cli("chain-check", "--n", "4", "--arcs", ",".join(arcs))
        if (code, doc) != (0, {"circular": want}):
            failures.append("chain %s: %s" % (arcs, doc))
    _finish(12, "kappa-two-through-the-cli", start, 10, failures)
