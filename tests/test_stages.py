"""Stage circles, bonds, threads, and homeomorphism recipes."""

import json
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st
from reference_models import (
    level_map,
    per_level,
    ref_apply_recipe,
    ref_bond,
    ref_extensions,
    ref_verify_commutes,
)

from longsol import (
    IDENTITY_TOKEN,
    PROVEN_DISTINCT,
    RECIPE,
    UNKNOWN,
    Address,
    HomeoRecipe,
    InvalidPointError,
    IntervalAutToken,
    LongPoint,
    StageDomainError,
    StagePoint,
    Thread,
    ThreadMismatchError,
    TokenUndefinedError,
    TowerPoint,
    UnsupportedTranslationError,
    add,
    apply_recipe,
    extend_thread,
    fiber,
    mul,
    nat,
    omega_pow,
    stage_size,
    synthesize_recipe,
    verify_commutes,
    within_copy_hat,
)
from longsol import cli, stages

W = omega_pow(nat(1))
W2 = omega_pow(nat(2))


def joint(n, i):
    return StagePoint(n, i)


def stop(n, i, *ints, kappa=None):
    kappa = kappa if kappa is not None else len(ints) + 1
    return StagePoint(n, i, TowerPoint(kappa, Address(ints)))


def stage_map(n, rot=0, shift=0, hat=IDENTITY_TOKEN):
    """The level-2 map of a recipe over p = (n,), on the size-n stage: the
    rotation by rot, the translation by shift and the hat, or any one.  It
    runs the library's apply_recipe on the depth-2 thread through the point
    (``level_map`` is the reference model's)."""
    recipe = HomeoRecipe(p=(n,), rotations=(0, rot), translate_by=shift, hat=hat)
    return lambda pt: apply_recipe(
        recipe, Thread((n,), (0, pt.index), pt.inner)).points[1]


def test_stage_point_basics():
    assert joint(3, 4).index == 1
    assert str(joint(6, 2)) == "inf2"
    assert str(stop(2, 0, 3)) == "(0| [3])"
    with pytest.raises(StageDomainError):
        StagePoint(0, 0)
    with pytest.raises(InvalidPointError):
        StagePoint(2, 0, TowerPoint(2))
    with pytest.raises(InvalidPointError):
        StagePoint(2, 0, LongPoint())
    with pytest.raises(InvalidPointError):
        StagePoint(2, 0, "not a point")
    for index in (1.5, 1.0, Fraction(1), "1"):
        with pytest.raises(StageDomainError):
            StagePoint(3, index)


def test_bond_frozen():
    assert ref_bond(2, 3, joint(6, 4)) == joint(3, 1)
    x = TowerPoint(2, Address((5,)))
    assert ref_bond(3, 2, StagePoint(6, 5, x)) == StagePoint(2, 1, x)


def test_fiber_frozen():
    assert fiber(2, 3, joint(3, 1)) == [joint(6, 1), joint(6, 4)]
    inner = LongPoint(rho=W)
    lifts = fiber(3, 2, StagePoint(2, 0, inner))
    assert lifts == [StagePoint(6, k, inner) for k in (0, 2, 4)]
    with pytest.raises(StageDomainError, match="^point lives on stage 6, fiber expects 3$"):
        fiber(2, 3, joint(6, 0))
    with pytest.raises(StageDomainError, match="^bond multiplicity and target size"):
        fiber(0, 3, joint(3, 0))


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 63))
def test_bond_section_roundtrip(m, n, i):
    q = joint(n, i)
    for lift in fiber(m, n, q):
        assert ref_bond(m, n, lift) == q


def test_rotate():
    assert stage_map(6, rot=4)(joint(6, 3)) == joint(6, 1)
    x = stop(4, 1, 7)
    twice = stage_map(4, rot=2)(stage_map(4, rot=5)(x))
    assert twice == stage_map(4, rot=7)(x) == StagePoint(4, 0, x.inner)


def test_translate():
    x = StagePoint(5, 2, TowerPoint(3, Address((-2, 7))))
    assert stage_map(5, shift=3)(x) == StagePoint(5, 2, TowerPoint(3, Address((1, 7))))
    assert stage_map(5, shift=9)(joint(5, 2)) == joint(5, 2)
    with pytest.raises(UnsupportedTranslationError):
        stage_map(5, shift=1)(StagePoint(5, 2, LongPoint(rho=W)))
    with pytest.raises(UnsupportedTranslationError):
        stage_map(5, shift=1)(StagePoint(5, 2, TowerPoint(1, Address((), W))))


def test_stage_size():
    assert [stage_size((2, 3, 5), lvl) for lvl in (1, 2, 3, 4)] == [1, 2, 6, 30]
    with pytest.raises(StageDomainError):
        stage_size((2,), 0)


def test_thread_validation():
    t = Thread((2, 3), (0, 0, 2))
    assert t.depth == 3
    assert str(t) == "inf0; inf0; inf2"
    assert t.points == (joint(1, 0), joint(2, 0), joint(6, 2))
    # each index is taken mod its stage size, then bonds onto the one before
    assert Thread((2, 3), (5, -1, 9), stop(1, 0, 3).inner).indices == (0, 1, 3)
    with pytest.raises(ThreadMismatchError, match="^level 3 point does not bond"):
        Thread((3, 2), t.indices)  # inf2 of stage 6 bonds onto inf2 of stage 3
    with pytest.raises(ThreadMismatchError):
        Thread((2, 3), ())
    with pytest.raises(ThreadMismatchError):
        Thread((2,), t.indices)  # depth 3 needs two exponents
    with pytest.raises(ThreadMismatchError):
        Thread((2, 3), (0, 1, 4))  # inf4 bonds onto inf0, not inf1
    for index in (1.0, Fraction(1), "1"):
        with pytest.raises(StageDomainError, match="^copy indices are integers$"):
            Thread((2,), (0, index))
    with pytest.raises(InvalidPointError):
        Thread((2,), (0, 1), TowerPoint(2))  # the tower joint is no inner point


def test_exponent_one_repeats_a_stage():
    # the bonding exponents are any positive integers, one rule for threads
    # and recipes alike
    t = Thread((1, 2), (0, 0, 1))
    assert [pt.n for pt in t.points] == [1, 1, 2]
    assert t.indices == (0, 0, 1)
    assert verify_commutes(HomeoRecipe(p=(1, 2), rotations=(0, 0, 1))) == (True, None)
    for bad in ((0, 2), (2, -1), (2.0,)):
        with pytest.raises(ThreadMismatchError, match="integers >= 1"):
            Thread(bad, (0,))
        with pytest.raises(ThreadMismatchError, match="integers >= 1"):
            HomeoRecipe(p=bad, rotations=(0,))


def test_extend_thread_counts():
    seed = Thread((2, 3), (0,))
    assert extend_thread(seed, 0) == [seed]
    assert len(extend_thread(seed, 1)) == 2
    ext = extend_thread(seed, 2)
    assert len(ext) == 6
    assert len(set(ext)) == 6
    tops = sorted(t.indices[-1] for t in ext)
    assert tops == [0, 1, 2, 3, 4, 5]
    cube = extend_thread(Thread((2, 2, 2), (0,)), 3)
    assert len(cube) == len(set(cube)) == 8


def test_extend_thread_from_depth_two():
    t = Thread((2, 3), (0, 1))
    ext = extend_thread(t, 1)
    assert [e.points[-1] for e in ext] == [joint(6, 1), joint(6, 3), joint(6, 5)]


@settings(max_examples=50)
@given(
    st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(0, 95),
    st.sampled_from([None, TowerPoint(2, Address((4,))), LongPoint(rho=W)]),
)
def test_extend_thread_matches_every_point(p, given_depth, top, inner):
    given_depth = min(given_depth, len(p))
    thread = Thread(tuple(p), (top,) * given_depth, inner)
    levels = len(p) + 1 - given_depth
    assert [t.points for t in extend_thread(thread, levels)] == ref_extensions(
        thread, levels
    )


def test_extension_order(capsys):
    # lexicographic in the per-level indices, not ascending in the top index:
    # over p = 2,2 the tops run 0, 2, 1, 3, in the library and on the CLI
    seed = Thread((2, 2), (0,))
    assert [list(t.indices) for t in extend_thread(seed, 2)] == [
        [0, 0, 0], [0, 0, 2], [0, 1, 1], [0, 1, 3]]
    argv = ["thread", "extend", "--p", "2,2", "--points", "inf0", "--levels", "2"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["threads"] == [
        "inf0; inf0; inf0", "inf0; inf0; inf2", "inf0; inf1; inf1", "inf0; inf1; inf3"]
    assert [pt.index for pt in fiber(3, 4, joint(4, 5))] == [1, 5, 9]


def test_extend_thread_rejections():
    seed = Thread((2,), (0,))
    with pytest.raises(StageDomainError):
        extend_thread(seed, -1)
    with pytest.raises(StageDomainError):
        extend_thread(seed, 2)  # only one exponent on hand


def test_recipe_normalization():
    r = HomeoRecipe(p=(2, 3), rotations=(5, 7, 11))
    assert r.rotations == (0, 1, 5)
    assert r.depth == 3
    assert HomeoRecipe(p=(2, 3), rotations=iter((5, 7, 11))) == r
    for bad in (dict(rotations=(0, 2.5)), dict(rotations=(0, 1), translate_by=0.5)):
        with pytest.raises(ThreadMismatchError, match="integers"):
            HomeoRecipe(p=(2,), **bad)
    with pytest.raises(ThreadMismatchError):
        HomeoRecipe(p=(2, 3), rotations=())
    with pytest.raises(ThreadMismatchError):
        HomeoRecipe(p=(), rotations=(0, 1))
    with pytest.raises(ThreadMismatchError):
        HomeoRecipe(p=(2, 0), rotations=(0, 1, 0))  # no stage has zero copies


def test_recipe_is_its_level_maps():
    # the level a recipe is verified at is read from the thread it moves
    for extra in (dict(kappa=3), dict(tracked=Thread((2,), (0, 1)))):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            HomeoRecipe(p=(2,), rotations=(0, 1), **extra)


@pytest.mark.parametrize("verify", [verify_commutes, ref_verify_commutes])
def test_level_one_hat_on_a_level_three_thread(verify):
    # the recipe cannot claim a level of its own; the thread's decides
    hat = IntervalAutToken(TowerPoint(1, Address((), W)), TowerPoint(1, Address((), W2)))
    recipe = HomeoRecipe(p=(2,), rotations=(0, 1), hat=hat)
    inner = TowerPoint(3, Address((1, 2), W))
    thread = Thread((2,), (0, 1), inner)
    with pytest.raises(TokenUndefinedError,
                       match="^token lives at level 1, point at level 3$"):
        verify(recipe, thread)
    # at the hat's own level the source goes to the target, and no stops
    # of another level are checked
    at_source = Thread((2,), (0, 1), hat.source)
    assert verify(recipe, at_source) == (True, None)


def test_level_map_order():
    # hat first, then translation, then rotation
    hat = IntervalAutToken(
        source=TowerPoint(1, Address((), W)),
        target=TowerPoint(1, Address((), W2)),
    )
    recipe = HomeoRecipe(p=(2,), rotations=(0, 1), translate_by=3, hat=hat)
    x = StagePoint(2, 0, TowerPoint(2, Address((4,), W)))
    out = level_map(recipe, 2)(x)
    assert out == StagePoint(2, 1, TowerPoint(2, Address((7,), W2)))


def test_pure_rotation_recipe():
    x = Thread((2, 2), (0, 0, 0))
    y = Thread((2, 2), (0, 1, 3))
    result = synthesize_recipe(x, y)
    assert result.status == RECIPE
    recipe = result.recipe
    assert recipe.rotations == (0, 1, 3)
    ok, why = verify_commutes(recipe, x)
    assert ok and why is None
    assert apply_recipe(recipe, x) == y
    assert level_map(recipe, 2)(joint(2, 0)) == joint(2, 1)


def test_corrupted_recipe_fails_verification():
    recipe = HomeoRecipe(p=(2, 3), rotations=(0, 1, 2))
    ok, why = verify_commutes(recipe)
    assert not ok
    assert why == {
        "level": 2,
        "point": "inf0",
        "bond_then_low": "inf1",
        "high_then_bond": "inf0",
    }


def _tower_inner(draw, kappa):
    ints = draw(st.lists(st.integers(-9, 9), min_size=kappa - 1, max_size=kappa - 1))
    if kappa >= 2 and draw(st.booleans()):
        return TowerPoint(kappa, Address(ints[: draw(st.integers(1, kappa - 1))]))
    rho = draw(st.sampled_from([nat(0), nat(1), W, W2]))
    frac = Fraction(1, 2) if rho.is_zero else draw(st.sampled_from([0, Fraction(1, 3)]))
    return TowerPoint(kappa, Address(ints, rho, frac))


def _long_inner(draw):
    return LongPoint(
        gamma=nat(draw(st.integers(0, 2))), rho=draw(st.sampled_from([W, W2, nat(3)]))
    )


CEILING = TowerPoint(1, Address((), W2))


def _token_inner(draw, hat):
    """A point where the mapping token hat is put to work: its source at the
    token's level, a point one level up whose rest is the source or the
    target, or a base at or above a level-1 ceiling, alone or as a rest."""
    kinds = ["source", "rest"]
    if hat.kappa is not None and hat.fixed_above is not None:
        kinds.insert(0, "above ceiling")
    kind = draw(st.sampled_from(kinds))
    if kind == "source" or hat.kappa is None:
        return hat.source
    if kind == "rest":
        rest = draw(st.sampled_from([hat.source, hat.target]))
    else:
        rho = draw(st.sampled_from([W2, add(W2, nat(1)), omega_pow(nat(3))]))
        rest = TowerPoint(1, Address((), rho, draw(st.sampled_from([0, Fraction(1, 3)]))))
        if draw(st.booleans()):
            return rest
    a = rest.address
    top = draw(st.integers(-9, 9))
    return TowerPoint(rest.kappa + 1, Address((top,) + a.ints, a.rho, a.frac))


def _inner(draw, kappa, hat):
    kinds = ["joint", "tower", "other tower", "long"]
    if not hat.is_identity:
        kinds.insert(0, "token")  # Hypothesis favours the first choice
    kind = draw(st.sampled_from(kinds))
    if kind == "joint":
        return None
    if kind == "long":
        return _long_inner(draw)
    if kind == "token":
        return _token_inner(draw, hat)
    if kind == "other tower" or kappa is None or kappa < 2:
        kappa = draw(st.integers(1, 4))
    return _tower_inner(draw, kappa)


def _hat(draw, kappa):
    kind = draw(st.sampled_from(["tower", "long", "identity"]))
    if kind == "identity":
        return IDENTITY_TOKEN
    if kind == "long":
        source, target = _long_inner(draw), _long_inner(draw)
        return IntervalAutToken(
            source=source, target=target,
            fixed_below=draw(st.sampled_from([None, LongPoint(gamma=nat(1))])),
            fixed_above=draw(st.sampled_from([None, LongPoint(gamma=nat(2))])),
        )
    # right level (one below the points), the points' own level, or elsewhere
    level = max(1, draw(st.sampled_from([(kappa or 2) - 1, kappa or 1, 1, 2, 3])))
    source, target = _tower_inner(draw, level), _tower_inner(draw, level)
    fixed_above = draw(st.sampled_from([CEILING, None])) if level == 1 else None
    return IntervalAutToken(source=source, target=target, fixed_above=fixed_above)


def _thread(draw, p, depth, kappa, hat):
    """A thread of the given depth over p, at a drawn copy and inner point."""
    seed, inner = draw(st.integers(0, 30)), _inner(draw, kappa, hat)
    return Thread(p, (seed,) * depth, inner)


@st.composite
def recipes_and_threads(draw):
    """A recipe and a thread of its depth and exponents; the thread's level
    is drawn beside the hat's, so the two may disagree."""
    p = tuple(draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3)))
    depth = draw(st.integers(1, len(p) + 1))
    base = draw(st.integers(0, 30))
    rotations = tuple(
        base if draw(st.booleans()) else draw(st.integers(-30, 30))
        for _ in range(depth)
    )
    kappa = draw(st.sampled_from([None, 1, 2, 3]))
    hat = _hat(draw, kappa)
    recipe = HomeoRecipe(
        p=p,
        rotations=rotations,
        translate_by=draw(st.sampled_from([0, 0, 1, -2, 5])),
        hat=hat,
    )
    return recipe, _thread(draw, p, depth, kappa, hat)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # the error itself is part of the answer
        return type(err), str(err)


@given(recipes_and_threads(), st.booleans())
def test_verify_commutes_matches_every_copy(pair, joints_only):
    args = pair[:1] if joints_only else pair
    outcome = _outcome(verify_commutes, *args)
    assert outcome == _outcome(ref_verify_commutes, *args)
    # the split shows under --hypothesis-show-statistics
    event("error" if isinstance(outcome[0], type) else "ok" if outcome[0] else "fail")


@given(recipes_and_threads())
def test_apply_recipe_matches_every_level(pair):
    outcome = _outcome(per_level(apply_recipe), *pair)
    assert outcome == _outcome(ref_apply_recipe, *pair)
    event("error" if isinstance(outcome, tuple) else "image")


@pytest.mark.parametrize("thread", [
    pytest.param(Thread((2, 3), (0, 1)), id="shallower"),
    pytest.param(Thread((2, 3, 2), (0, 1, 3, 3)), id="deeper"),
    pytest.param(Thread((3, 2), (0, 1, 4)), id="other-exponents"),
])
@pytest.mark.parametrize("check", [apply_recipe, verify_commutes],
                         ids=["apply_recipe", "verify_commutes"])
def test_recipe_and_thread_share_a_shape(check, thread):
    recipe = HomeoRecipe(p=(2, 3), rotations=(0, 0, 0))
    with pytest.raises(ThreadMismatchError,
                       match="^recipe and thread disagree on depth or exponents$"):
        check(recipe, thread)
    # a longer exponent list is fine; only the first depth - 1 must agree
    longer = Thread((2, 5), (0, 1))
    expected = {apply_recipe: longer, verify_commutes: (True, None)}[check]
    assert check(HomeoRecipe(p=(2, 3), rotations=(0, 0)), longer) == expected


@pytest.mark.parametrize("check", [apply_recipe, verify_commutes],
                         ids=["apply_recipe", "verify_commutes"])
def test_recipe_acts_on_threads_only(check):
    recipe = HomeoRecipe(p=(2,), rotations=(0, 1))
    points = Thread((2,), (0, 1)).points
    with pytest.raises(ThreadMismatchError, match="^a recipe acts on a Thread, not tuple$"):
        check(recipe, points)
    if check is verify_commutes:  # no thread: the joints alone
        assert check(recipe, None) == (True, None)
    else:
        with pytest.raises(ThreadMismatchError,
                           match="^a recipe acts on a Thread, not NoneType$"):
            check(recipe, None)


@pytest.mark.parametrize("depth", [2, 10])
@pytest.mark.parametrize("kappa", [None, 2])
def test_inner_coordinate_is_mapped_once(monkeypatch, depth, kappa):
    calls = []

    def counted(hat, k, x):
        calls.append(x)
        return map_inner(hat, k, x)

    map_inner = stages._map_inner
    monkeypatch.setattr(stages, "_map_inner", counted)
    p = (2,) * (depth - 1)
    inner = None if kappa is None else TowerPoint(kappa, Address((3,), W))
    x = Thread(p, (1,) * depth, inner)
    shift = 2 if kappa else 0
    recipe = HomeoRecipe(p=p, rotations=(1,) * depth, translate_by=shift)
    y = apply_recipe(recipe, x)
    assert calls == [inner]
    assert (y.p, y.points) == ref_apply_recipe(recipe, x)
    # under the identity hat or a hat one level below the points, every
    # integer stop strips to the fixed minimum and stays: none is mapped
    hats = [IDENTITY_TOKEN]
    if kappa:
        hats.append(IntervalAutToken(source=TowerPoint(kappa - 1, Address((), W)),
                                     target=TowerPoint(kappa - 1, Address((), W2))))
    for hat in hats:
        recipe = HomeoRecipe(p=p, rotations=(1,) * depth, translate_by=shift, hat=hat)
        calls.clear()
        assert verify_commutes(recipe, x) == (True, None)
        assert calls == [inner]
        assert ref_verify_commutes(recipe, x) == (True, None)
    if kappa:
        # a token at the points' own level is defined at its source alone,
        # so the first stop that is not its source fails first, as in the
        # oracle: [-8], or [-7] when [-8] is the source
        stops = [TowerPoint(kappa, Address((z,))) for z in (-8, -7)]
        for source, mapped in ((inner, stops[:1]), (stops[0], stops)):
            hat = IntervalAutToken(source=source, target=TowerPoint(kappa, Address((5,), W)))
            recipe = HomeoRecipe(p=p, rotations=(1,) * depth, translate_by=shift, hat=hat)
            calls.clear()
            outcome = _outcome(verify_commutes, recipe, x)
            assert outcome[0] is TokenUndefinedError
            assert outcome == _outcome(ref_verify_commutes, recipe, x)
            assert calls == mapped


def test_translation_recipe_round_trip():
    x = Thread((), (0,), stop(1, 0, 3).inner)
    y = Thread((), (0,), stop(1, 0, 8).inner)
    result = synthesize_recipe(x, y)
    assert result.status == RECIPE
    assert result.recipe.translate_by == 5
    assert result.recipe.hat == IDENTITY_TOKEN
    assert verify_commutes(result.recipe, x) == (True, None)
    assert apply_recipe(result.recipe, x) == y


def test_tower_synthesis_uses_hat():
    x = Thread((2,), (0, 1), stop(1, 0, 1, 4).inner)
    y = Thread((2,), (0, 1), stop(1, 0, 2, 9).inner)
    result = synthesize_recipe(x, y)
    assert result.status == RECIPE
    recipe = result.recipe
    assert recipe.translate_by == 1
    assert recipe.hat.kappa == 2  # one level below the points
    assert apply_recipe(recipe, x) == y
    assert verify_commutes(recipe, x)[0]


def test_synthesis_proven_distinct_tower():
    x = Thread((), (0,))
    y = Thread((), (0,), stop(1, 0, 4).inner)
    assert synthesize_recipe(x, y).status == PROVEN_DISTINCT
    assert synthesize_recipe(y, x).status == PROVEN_DISTINCT
    base = Thread((), (0,), TowerPoint(2, Address((4,), W)))
    assert synthesize_recipe(y, base).status == PROVEN_DISTINCT


def test_synthesis_long_mode():
    def lthread(point):
        return Thread((), (0,), point)

    ng2 = lthread(LongPoint(gamma=nat(2)))
    interval = lthread(LongPoint(gamma=nat(2), rho=W))
    interval2 = lthread(LongPoint(gamma=nat(2), rho=mul(W, nat(2))))
    joint_t = lthread(None)
    assert synthesize_recipe(joint_t, interval).status == PROVEN_DISTINCT
    assert synthesize_recipe(joint_t, ng2).status == UNKNOWN
    assert synthesize_recipe(ng2, interval).status == PROVEN_DISTINCT
    power_a = lthread(LongPoint(gamma=omega_pow(nat(1))))
    power_b = lthread(LongPoint(gamma=omega_pow(nat(3))))
    assert synthesize_recipe(power_a, power_b).status == PROVEN_DISTINCT
    cross = lthread(LongPoint(gamma=nat(3), rho=W))
    assert synthesize_recipe(interval, cross).status == UNKNOWN
    result = synthesize_recipe(interval, interval2)
    assert result.status == RECIPE
    assert apply_recipe(result.recipe, interval) == interval2


def test_synthesis_shape_rejections():
    t1 = Thread((), (0,))
    t2 = Thread((2,), (0, 0))
    with pytest.raises(ThreadMismatchError, match="^threads differ in depth$"):
        synthesize_recipe(t1, t2)
    with pytest.raises(ThreadMismatchError, match="^threads differ in bonding exponents$"):
        synthesize_recipe(Thread((2,), (0, 1)), Thread((3,), (0, 1)))
    tower = Thread((), (0,), stop(1, 0, 4).inner)
    line = Thread((), (0,), LongPoint(rho=W))
    for pair in ((tower, line), (line, tower)):
        with pytest.raises(ThreadMismatchError,
                           match="^threads mix tower and long-line material$"):
            synthesize_recipe(*pair)
    deeper = Thread((), (0,), TowerPoint(3, Address((4,))))
    with pytest.raises(ThreadMismatchError,
                       match="^threads live at different tower levels$"):
        synthesize_recipe(tower, deeper)


def test_hat_evaluation_domain():
    long_hat = IntervalAutToken(
        source=LongPoint(gamma=nat(1), rho=W),
        target=LongPoint(gamma=nat(1), rho=W2),
        fixed_below=LongPoint(gamma=nat(1)),
        fixed_above=LongPoint(gamma=nat(2)),
    )
    apply_hat = stage_map(3, hat=long_hat)
    src = StagePoint(3, 1, LongPoint(gamma=nat(1), rho=W))
    assert apply_hat(src).inner == LongPoint(gamma=nat(1), rho=W2)
    below = StagePoint(3, 0, LongPoint(rho=nat(5)))
    assert apply_hat(below) == below
    above = StagePoint(3, 0, LongPoint(gamma=nat(2), rho=nat(1)))
    assert apply_hat(above) == above
    assert apply_hat(joint(3, 2)) == joint(3, 2)
    with pytest.raises(TokenUndefinedError):
        apply_hat(StagePoint(3, 0, LongPoint(gamma=nat(1), rho=nat(9))))
    with pytest.raises(TokenUndefinedError):
        apply_hat(stop(3, 0, 2))


def test_tower_hat_fixed_region():
    # a token at the points' own level fixes the bases at or above fixed_above
    hat = IntervalAutToken(
        source=TowerPoint(1, Address((), W)),
        target=TowerPoint(1, Address((), mul(W, nat(2)))),
        fixed_above=TowerPoint(1, Address((), W2)),
    )
    recipe = HomeoRecipe(p=(2,), rotations=(0, 1), hat=hat)

    def thread(rho):
        return Thread((2,), (0, 0), TowerPoint(1, Address((), rho)))

    for rho in (W2, omega_pow(nat(3)), add(W2, nat(1))):
        image = apply_recipe(recipe, thread(rho))
        assert [str(pt) for pt in image.points] == [
            "(0| [; %s])" % rho, "(1| [; %s])" % rho]
    assert apply_recipe(recipe, thread(W)) == Thread((2,), (0, 1), hat.target)
    with pytest.raises(TokenUndefinedError, match="source and its fixed region"):
        apply_recipe(recipe, thread(mul(W, nat(3))))


def test_apply_recipe_shape_rejections():
    recipe = HomeoRecipe(p=(2, 3), rotations=(0, 1))
    for thread in (Thread((2, 3), (0, 1, 3)), Thread((3,), (0, 1)),
                   Thread((2, 3), (0,))):
        with pytest.raises(ThreadMismatchError, match="disagree on depth"):
            apply_recipe(recipe, thread)
    assert apply_recipe(recipe, Thread((2, 3), (0, 0))) == Thread(
        (2, 3), (0, 1))


def test_tower_hat_through_top_integer():
    hat = IntervalAutToken(
        source=TowerPoint(1, Address((), W)),
        target=TowerPoint(1, Address((), W2)),
    )
    apply_hat = stage_map(2, hat=hat)
    x = StagePoint(2, 0, TowerPoint(2, Address((4,), W)))
    assert apply_hat(x).inner == TowerPoint(2, Address((4,), W2))
    boundary = stop(2, 0, 5)
    assert apply_hat(boundary) == boundary
    with pytest.raises(TokenUndefinedError):
        apply_hat(StagePoint(2, 0, TowerPoint(2, Address((4,), nat(3)))))
    with pytest.raises(TokenUndefinedError):
        apply_hat(StagePoint(2, 0, LongPoint(rho=W)))


def test_tower_hat_fixes_rests_above_its_ceiling():
    # the kappa = 2 hat of ([4; 3], [6; w]) is the level-1 base token of the
    # rests, which fixes every base from its ceiling [; w+2] up
    x, y = TowerPoint(2, Address((4,), nat(3))), TowerPoint(2, Address((6,), W))
    shift, hat = within_copy_hat(x, y)
    apply_hat = stage_map(2, hat=hat)
    high = StagePoint(2, 1, TowerPoint(2, Address((9,), W2)))
    assert apply_hat(high) == high
    assert apply_hat(StagePoint(2, 1, TowerPoint(2, Address((9,), nat(3))))) == (
        StagePoint(2, 1, TowerPoint(2, Address((9,), W))))
    with pytest.raises(TokenUndefinedError, match="source and its fixed region"):
        apply_hat(StagePoint(2, 1, TowerPoint(2, Address((9,), nat(5)))))
    recipe = HomeoRecipe(p=(2,), rotations=(0, 1), translate_by=shift, hat=hat)
    thread = Thread((2,), (0, high.index), high.inner)
    moved = TowerPoint(2, Address((11,), W2))
    assert apply_recipe(recipe, thread) == Thread((2,), (0, 0), moved)
