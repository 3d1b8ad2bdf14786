"""Value semantics shared by every value class of the package.

Each class is an immutable record: built positionally or by keyword with
the declared defaults, equal by value within its own class only, hashed
as the tuple of its field values in declaration order, frozen, and shown
as ``Name(field=value, ...)`` (``CnfOrdinal`` keeps ``ord[...]``).  Set
and dict orders, and so every printed answer, depend on the hash rule.
"""

import copy
import pickle
from fractions import Fraction

import pytest

import longsol
from longsol import (
    IDENTITY_TOKEN,
    NG_KIND,
    OMEGA,
    ONE,
    ZERO,
    Address,
    Arc,
    CnfOrdinal,
    DirectLimitElement,
    HomeoRecipe,
    IntervalAutToken,
    InvalidPointError,
    LongPoint,
    OrbitAnswer,
    OrbitClassLabel,
    SequenceDescriptor,
    StageDomainError,
    StagePoint,
    SupernaturalNumber,
    SynthesisResult,
    Thread,
    ThreadMismatchError,
    TowerPoint,
    WitnessReport,
    nat,
    omega_pow,
)

IDENTITY_REPR = (
    "IntervalAutToken(source=None, target=None, fixed_below=None, fixed_above=None)"
)
W2 = omega_pow(nat(2))
BASE_1, BASE_W, BASE_W2 = (TowerPoint(1, Address((), rho)) for rho in (ONE, OMEGA, W2))
POINTS_OF_ONE_LEVEL = "a token's points are inner points of one kind and level"

# (class, fields in declaration order, one value per field, declared
# defaults, a minimal keyword call, repr of the object built from the values)
ROWS = [
    (CnfOrdinal, ("terms",), (((ONE, 2), (ZERO, 3)),), {"terms": ()}, {},
     "ord[w*2+3]"),
    (IntervalAutToken,
     ("source", "target", "fixed_below", "fixed_above"),
     (1, 2, None, 5),
     {"source": None, "target": None, "fixed_below": None, "fixed_above": None}, {},
     "IntervalAutToken(source=1, target=2, fixed_below=None, fixed_above=5)"),
    (LongPoint, ("gamma", "rho", "frac"), (ONE, OMEGA, Fraction(1, 2)),
     {"gamma": ZERO, "rho": ZERO, "frac": Fraction(0)}, {},
     "LongPoint(gamma=ord[1], rho=ord[w], frac=Fraction(1, 2))"),
    (OrbitClassLabel, ("kind", "gamma"), ("ng", ONE), {},
     {"kind": "interval", "gamma": ZERO},
     "OrbitClassLabel(kind='ng', gamma=ord[1])"),
    (OrbitAnswer, ("status", "token"), ("same", IDENTITY_TOKEN), {"token": None},
     {"status": "unknown"},
     "OrbitAnswer(status='same', token=%s)" % IDENTITY_REPR),
    (Address, ("ints", "rho", "frac"), ((1, -2), OMEGA, Fraction(1, 3)),
     {"ints": (), "rho": None, "frac": None}, {},
     "Address(ints=(1, -2), rho=ord[w], frac=Fraction(1, 3))"),
    (TowerPoint, ("kappa", "address"), (2, Address((1,))), {"address": None},
     {"kappa": 3},
     "TowerPoint(kappa=2, address=Address(ints=(1,), rho=None, frac=None))"),
    (StagePoint, ("n", "index", "inner"), (3, 1, LongPoint(ZERO, ONE)),
     {"inner": None}, {"n": 2, "index": 1},
     "StagePoint(n=3, index=1, inner=LongPoint(gamma=ord[0], rho=ord[1], "
     "frac=Fraction(0, 1)))"),
    (Thread, ("p", "indices", "inner"), ((2,), (0, 1), None),
     {"p": (), "indices": (), "inner": None}, {"indices": (0,)},
     "Thread(p=(2,), indices=(0, 1), inner=None)"),
    (HomeoRecipe,
     ("p", "rotations", "translate_by", "hat"),
     ((2,), (0, 1), 1, IDENTITY_TOKEN),
     {"p": (), "rotations": (), "translate_by": 0, "hat": IDENTITY_TOKEN},
     {"rotations": (0,)},
     "HomeoRecipe(p=(2,), rotations=(0, 1), translate_by=1, hat=%s)" % IDENTITY_REPR),
    (SynthesisResult, ("status", "recipe"), ("recipe", HomeoRecipe(rotations=(0,))),
     {"recipe": None}, {"status": "unknown"},
     "SynthesisResult(status='recipe', recipe=HomeoRecipe(p=(), rotations=(0,), "
     "translate_by=0, hat=%s))" % IDENTITY_REPR),
    (Arc, ("n", "start", "end"), (3, Fraction(0), Fraction(5, 2)), {},
     {"n": 2, "start": Fraction(1), "end": Fraction(0)},
     "Arc(n=3, start=Fraction(0, 1), end=Fraction(5, 2))"),
    (WitnessReport,
     ("multiplicity", "stage", "c_components", "g_components", "c_separators",
      "g_separators", "pair_uncovered"),
     (2, 4, (1,), (2,), (3,), (4,), (5,)), {},
     {"multiplicity": 1, "stage": 1, "c_components": (), "g_components": (),
      "c_separators": (), "g_separators": (), "pair_uncovered": ()},
     "WitnessReport(multiplicity=2, stage=4, c_components=(1,), g_components=(2,), "
     "c_separators=(3,), g_separators=(4,), pair_uncovered=(5,))"),
    (SequenceDescriptor, ("prefix", "cycle"), ((2,), (3, 5)),
     {"prefix": (), "cycle": ()}, {"cycle": (2,)},
     "SequenceDescriptor(prefix=(2,), cycle=(3, 5))"),
    (SupernaturalNumber, ("finite", "infinite"), (((2, 1),), frozenset({3})),
     {"finite": (), "infinite": frozenset()}, {},
     "SupernaturalNumber(finite=((2, 1),), infinite=frozenset({3}))"),
    (DirectLimitElement, ("level", "numerator"), (2, 3), {},
     {"level": 0, "numerator": 1},
     "DirectLimitElement(level=2, numerator=3)"),
]
IDS = [row[0].__name__ for row in ROWS]


def build(row):
    cls, _, values, _, _, _ = row
    return cls(*values)


def test_every_value_class_is_listed():
    classes = {
        name for name in dir(longsol)
        if isinstance(getattr(longsol, name), type)
        and not issubclass(getattr(longsol, name), Exception)
    }
    assert sorted(classes) == sorted(IDS) and len(IDS) == 16


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_construction(row):
    cls, fields, values, defaults, need, _ = row
    obj = build(row)
    assert list(vars(obj)) == list(fields)
    assert tuple(getattr(obj, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == obj
    least = cls(**need)
    assert list(vars(least)) == list(fields)
    assert vars(least) == {f: need[f] if f in need else defaults[f] for f in fields}
    if len(defaults) < len(fields):
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_equality_and_hash(row):
    cls, fields, values, _, _, _ = row
    obj = build(row)
    twin = build(row)
    assert obj is not twin
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin) == hash(values)
    assert hash(obj) == hash(tuple(getattr(obj, f) for f in fields))
    assert obj.__eq__(object()) is NotImplemented
    assert [other for other in map(build, ROWS) if other == obj] == [obj]
    sub = type("Sub" + cls.__name__, (cls,), {})(*values)
    assert sub != obj and obj != sub


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_frozen(row):
    _, fields, values, _, _, _ = row
    obj = build(row)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.bogus = 1
    assert tuple(vars(obj).values()) == values


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_repr(row):
    assert repr(build(row)) == row[5]


# (build, exception type, message) for each check a constructor makes.  Each
# row names its own id, so a new row renames no other; the older rows keep
# the ids pytest derived from their messages before.
REJECTIONS = [
    pytest.param(lambda: Address((1.5,)), InvalidPointError,
                 "address entries must be integers",
                 id="<lambda>-InvalidPointError-address entries must be integers"),
    # bool is an int, but a record holding True would print "True"
    pytest.param(lambda: Address((True,)), InvalidPointError,
                 "address entries must be integers", id="address-bool-entry"),
    pytest.param(lambda: Address((1,), frac=Fraction(1, 2)), InvalidPointError,
                 "an integer stop carries no base coordinate",
                 id="<lambda>-InvalidPointError-an integer stop carries no base coordinate"),
    pytest.param(lambda: Address((), OMEGA, 1), InvalidPointError,
                 "the unit offset must lie in [0, 1)",
                 id="<lambda>-InvalidPointError-the unit offset must lie in [0, 1)0"),
    pytest.param(lambda: Address((), OMEGA, Fraction(-1, 2)), InvalidPointError,
                 "the unit offset must lie in [0, 1)",
                 id="<lambda>-InvalidPointError-the unit offset must lie in [0, 1)1"),
    pytest.param(lambda: Address((), ZERO), InvalidPointError,
                 "a zero base coordinate is written as the integer stop above it",
                 id="<lambda>-InvalidPointError-a zero base coordinate is written as "
                    "the integer stop above it"),
    pytest.param(lambda: TowerPoint(0), InvalidPointError, "tower levels start at 1",
                 id="<lambda>-InvalidPointError-tower levels start at 1"),
    pytest.param(lambda: TowerPoint(2, Address((), OMEGA)), InvalidPointError,
                 "a base address at level 2 needs exactly 1 integers",
                 id="<lambda>-InvalidPointError-a base address at level 2 needs "
                    "exactly 1 integers"),
    pytest.param(lambda: TowerPoint(2, Address((1, 2))), InvalidPointError,
                 "an integer stop at level 2 needs 1..1 integers",
                 id="<lambda>-InvalidPointError-an integer stop at level 2 needs "
                    "1..1 integers"),
    pytest.param(lambda: CnfOrdinal(((1, 1),)), TypeError,
                 "exponents must be CnfOrdinal instances",
                 id="<lambda>-TypeError-exponents must be CnfOrdinal instances"),
    pytest.param(lambda: CnfOrdinal(((ZERO, 0),)), ValueError,
                 "coefficients must be integers >= 1",
                 id="<lambda>-ValueError-coefficients must be integers >= 1"),
    pytest.param(lambda: CnfOrdinal(((ZERO, 1), (ONE, 1))), ValueError,
                 "exponents must be strictly decreasing",
                 id="<lambda>-ValueError-exponents must be strictly decreasing0"),
    pytest.param(lambda: CnfOrdinal(((ONE, 1), (ONE, 2))), ValueError,
                 "exponents must be strictly decreasing",
                 id="<lambda>-ValueError-exponents must be strictly decreasing1"),
    pytest.param(lambda: nat(-1), ValueError, "naturals must be integers >= 0",
                 id="<lambda>-ValueError-naturals must be integers >= 0_0"),
    pytest.param(lambda: nat(2.0), ValueError, "naturals must be integers >= 0",
                 id="<lambda>-ValueError-naturals must be integers >= 0_1"),
    pytest.param(lambda: nat(True), ValueError, "naturals must be integers >= 0",
                 id="nat-bool"),
    pytest.param(lambda: CnfOrdinal(((ZERO, True),)), ValueError,
                 "coefficients must be integers >= 1", id="coefficient-bool"),
    pytest.param(lambda: TowerPoint(True), InvalidPointError, "tower levels start at 1",
                 id="tower-kappa-bool"),
    pytest.param(lambda: StagePoint(True, 0), StageDomainError,
                 "stage sizes are integers >= 1", id="stage-n-bool"),
    pytest.param(lambda: StagePoint(2, True), StageDomainError,
                 "copy indices are integers", id="stage-index-bool"),
    pytest.param(lambda: Arc(True, 0, Fraction(1, 2)), StageDomainError,
                 "stage sizes are integers >= 1", id="arc-n-bool"),
    pytest.param(lambda: Thread((True,), (0,)), ThreadMismatchError,
                 "bonding exponents are integers >= 1", id="exponent-bool"),
    pytest.param(lambda: Thread((2,), (0, True)), StageDomainError,
                 "copy indices are integers", id="thread-index-bool"),
    pytest.param(lambda: HomeoRecipe((2,), (True,)), ThreadMismatchError,
                 "rotations and the translation are integers", id="rotation-bool"),
    pytest.param(lambda: HomeoRecipe((2,), (0, 1), True), ThreadMismatchError,
                 "rotations and the translation are integers", id="translation-bool"),
    pytest.param(lambda: OrbitClassLabel("block", ONE), ValueError,
                 "unknown orbit class kind 'block'",
                 id="<lambda>-ValueError-unknown orbit class kind 'block'"),
    pytest.param(lambda: OrbitClassLabel(NG_KIND, ZERO), ValueError,
                 "multiples of omega_1 start at gamma = 1",
                 id="<lambda>-ValueError-multiples of omega_1 start at gamma = 1"),
    pytest.param(lambda: IntervalAutToken(source=TowerPoint(1)), ValueError,
                 "mapping tokens need a source and a target",
                 id="<lambda>-ValueError-mapping tokens need a source and a target"),
    pytest.param(lambda: IntervalAutToken(target=TowerPoint(1)), ValueError,
                 "mapping tokens need a source and a target",
                 id="token-target-without-source"),
    pytest.param(lambda: IntervalAutToken(fixed_below=LongPoint(ONE)), ValueError,
                 "the identity token carries nothing else",
                 id="<lambda>-ValueError-the identity token carries nothing else1"),
    pytest.param(lambda: IntervalAutToken(fixed_above=LongPoint(ONE)), ValueError,
                 "the identity token carries nothing else",
                 id="<lambda>-ValueError-the identity token carries nothing else2"),
    pytest.param(lambda: IntervalAutToken(BASE_W, BASE_W2, fixed_below=BASE_1),
                 ValueError, "a tower token fixes only bases above a level-1 ceiling",
                 id="<lambda>-ValueError-a tower token fixes only bases above a "
                    "level-1 ceiling0"),
    # compare_base orders level-1 bases only: a level-2 ceiling [5; w^2]
    # would leave [0; w^2] fixed below it
    pytest.param(lambda: IntervalAutToken(TowerPoint(2, Address((1,), OMEGA)),
                                          TowerPoint(2, Address((2,), OMEGA)),
                                          fixed_above=TowerPoint(2, Address((5,), W2))),
                 ValueError, "a tower token fixes only bases above a level-1 ceiling",
                 id="<lambda>-ValueError-a tower token fixes only bases above a "
                    "level-1 ceiling1"),
    pytest.param(lambda: IntervalAutToken(LongPoint(rho=OMEGA), BASE_W), ValueError,
                 POINTS_OF_ONE_LEVEL, id="token-long-source-tower-target"),
    pytest.param(lambda: IntervalAutToken(TowerPoint(2, Address((1,), OMEGA)), BASE_W),
                 ValueError, POINTS_OF_ONE_LEVEL, id="token-levels-differ"),
    pytest.param(lambda: IntervalAutToken(BASE_W, BASE_W2,
                                          fixed_above=TowerPoint(2, Address((5,), W2))),
                 ValueError, POINTS_OF_ONE_LEVEL, id="token-ceiling-on-another-level"),
    pytest.param(lambda: IntervalAutToken(LongPoint(rho=ONE), LongPoint(rho=OMEGA),
                                          fixed_above=BASE_W),
                 ValueError, POINTS_OF_ONE_LEVEL, id="token-long-with-tower-ceiling"),
    pytest.param(lambda: IntervalAutToken(BASE_W, BASE_W2, fixed_above=TowerPoint(1)),
                 ValueError, POINTS_OF_ONE_LEVEL, id="token-joint-ceiling"),
    pytest.param(lambda: IntervalAutToken(TowerPoint(2), TowerPoint(2, Address((1,)))),
                 ValueError, POINTS_OF_ONE_LEVEL, id="token-joint-source"),
]


@pytest.mark.parametrize("build, error, message", REJECTIONS)
def test_constructor_rejections(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_token_level_is_the_level_of_its_points():
    with pytest.raises(TypeError, match="unexpected keyword argument 'kappa'"):
        IntervalAutToken(kappa=2)
    assert IntervalAutToken(BASE_W, BASE_W2, fixed_above=BASE_W2).kappa == 1
    assert IntervalAutToken(TowerPoint(3, Address((1,))),
                            TowerPoint(3, Address((2,)))).kappa == 3
    assert IntervalAutToken(LongPoint(rho=ONE), LongPoint(rho=OMEGA)).kappa is None
    assert IDENTITY_TOKEN.kappa is None


def test_init_stores_coerced_fields():
    # the repr shows each stored value's type: tuples, Fractions, frozensets
    built = [
        (LongPoint(ZERO, ONE, 0),
         "LongPoint(gamma=ord[0], rho=ord[1], frac=Fraction(0, 1))"),
        (Address([1, 2], OMEGA, 0.5),
         "Address(ints=(1, 2), rho=ord[w], frac=Fraction(1, 2))"),
        (Address((1,), OMEGA), "Address(ints=(1,), rho=ord[w], frac=Fraction(0, 1))"),
        (Arc(3, 0, 2.5), "Arc(n=3, start=Fraction(0, 1), end=Fraction(5, 2))"),
        (HomeoRecipe([2], [-2, 3]),
         "HomeoRecipe(p=(2,), rotations=(0, 1), translate_by=0, hat=%s)" % IDENTITY_REPR),
        (SequenceDescriptor([2], [3]), "SequenceDescriptor(prefix=(2,), cycle=(3,))"),
        (SupernaturalNumber({3: 1, 2: 2}, [5]),
         "SupernaturalNumber(finite=((2, 2), (3, 1)), infinite=frozenset({5}))"),
    ]
    for obj, shown in built:
        assert repr(obj) == shown


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_copy_and_pickle(row):
    obj = build(row)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert twin == obj and type(twin) is type(obj)
        assert list(vars(twin)) == list(row[1])


def test_post_init_runs_once_per_construction():
    # the benchmark counts objects built by wrapping these methods on the
    # class, so construction must look __post_init__ up there every time
    calls = {}
    classes = (CnfOrdinal, StagePoint, Thread)
    originals = {cls: cls.__dict__["__post_init__"] for cls in classes}

    def counting(cls, fn):
        def post_init(obj):
            calls[cls] = calls.get(cls, 0) + 1
            fn(obj)
        return post_init

    try:
        for cls, fn in originals.items():
            cls.__post_init__ = counting(cls, fn)
        CnfOrdinal(((ZERO, 2),))
        StagePoint(2, 1)
        Thread((2,), (0,))
    finally:
        for cls, fn in originals.items():
            cls.__post_init__ = fn
    assert calls == {CnfOrdinal: 1, StagePoint: 1, Thread: 1}
    assert all(cls.__dict__["__post_init__"] is fn for cls, fn in originals.items())
