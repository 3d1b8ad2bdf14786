"""Finite stages of a long solenoid and maps between them.

A stage of size n is a circle made of n copies of the chosen line laid
end to end, with joints inf_0 .. inf_(n-1) between consecutive copies.
The bonding map from the stage of size m*n down to size n sends joint
inf_i to inf_(i mod n) and keeps within-copy coordinates; it is an m-fold
covering.  A thread is a finite-depth point of the inverse limit: one
point per stage, each mapped to the previous one by its bond.

Homeomorphism recipes act level by level as a rotation composed with an
optional top-integer translation and a hat, where the hat applies one
interval automorphism token inside every copy; a tower hat lives one level
below its points and maps the rest of each address, keeping the top
integer.  Recipes carry the shared translation and token plus a rotation
offset per level, nothing else; validity means commuting with every bond
on a finite verification set: the joints, and for the thread a recipe is
checked against, that thread's point and the integer stops of its level
(see ``verify_commutes``; a stop fails where the thread's point does not
only under a token at the stops' own level, which fails first at [-8]
or [-7], so only those two are evaluated).  Bonds keep the inner
coordinate, and translation and hat ignore copy and level, so the square
at level k commutes at a point exactly when rotations[k] = rotations[k-1]
(mod n_k) and the hat and translation are defined at its inner
coordinate.  A thread has one inner coordinate, so applying or verifying
a recipe evaluates it once.  Synthesis from a pair of threads, decided by
the class of their inner points, answers with a recipe, a distinctness
proof, or unknown; conjectural cases are never upgraded.

Bonds keep the within-copy coordinate x, so fibers and extensions are
index arithmetic, by one child rule: under exponent m, the children of
index j on stage n are j + c*n for c < m, in that order.  The fiber of
(i| x) onto stage m*n is those children of i (``fiber``), and extending
a thread with top index t on stage n_d applies the rule level by level
under the exponents ``extension_exponents`` returns, so its tops are the
j = t (mod n_d), ordered by their per-level indices.

Within-copy points are either tower points (finite level, integer
addresses) or long-line points.  Both endpoints of each copy are
identified into joints, so inner points exclude them.
"""

from itertools import accumulate
from math import prod
from operator import mul

from .errors import (
    InvalidPointError,
    Record,
    StageDomainError,
    ThreadMismatchError,
    TokenUndefinedError,
    UnsupportedTranslationError,
)
from .longline import (
    PROVEN_DISTINCT,
    SAME,
    UNKNOWN,
    LongPoint,
    distinct_orbit_proof,
    is_ng,
    same_orbit_recipe,
)
from .tokens import IDENTITY_TOKEN
from .tower import (
    MIN,
    Address,
    TowerPoint,
    compare_base,
    point_type,
    strip_top,
    within_copy_hat,
)

RECIPE = "recipe"

# what the parsers read a thread's inner points as
TOWER_MODE = "tower"
LONG_MODE = "long"


class StagePoint(Record):
    """A point of the size-n stage: a joint, or an inner point of one copy."""

    def __init__(self, n, index, inner=None):
        self.__dict__.update(n=n, index=index, inner=inner)
        self.__post_init__()

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:  # no bool
            raise StageDomainError("stage sizes are integers >= 1")
        if type(self.index) is not int:
            raise StageDomainError("copy indices are integers")
        object.__setattr__(self, "index", self.index % self.n)
        _check_inner(self.inner)

    def __str__(self):
        return point_format(self.inner) % self.index


def _check_inner(x):
    """Reject x unless it is None (a joint) or an inner point of a copy."""
    if x is None:
        return
    if isinstance(x, TowerPoint):
        if x.is_joint:
            raise InvalidPointError(
                "the tower joint is written as a stage joint, not an inner point"
            )
    elif isinstance(x, LongPoint):
        if x.is_zero:
            raise InvalidPointError(
                "copy endpoints are identified into joints and are not inner"
            )
    else:
        raise InvalidPointError("inner points are TowerPoint or LongPoint")


def point_format(inner):
    """The %-template, infI or (I| X), that prints points with this inner."""
    if inner is None:
        return "inf%d"
    return "(%%d| %s)" % inner


def fiber(m, n, q):
    """All m preimages of q under the bond, in ascending index order."""
    if m < 1 or n < 1:
        raise StageDomainError("bond multiplicity and target size must be >= 1")
    if q.n != n:
        raise StageDomainError("point lives on stage %d, fiber expects %d" % (q.n, n))
    return [StagePoint(m * n, j, q.inner) for j in range(q.index, m * n, n)]


def _shift_top(k, x):
    """Shift the top-level integer of a within-copy address by k; only tower
    points at level 2 or above carry one."""
    if not isinstance(x, TowerPoint) or x.kappa < 2:
        raise UnsupportedTranslationError(
            "translation needs an integer-indexed tower level (kappa >= 2)"
        )
    a = x.address
    return TowerPoint(x.kappa, Address((a.ints[0] + k,) + a.ints[1:], a.rho, a.frac))


def _exponents(p, depth):
    """The bonding exponents as a tuple, enough for `depth` levels; like the
    paper's p, any positive integers (a 1 repeats a stage)."""
    p = tuple(p)
    if not all(type(k) is int and k >= 1 for k in p):  # no bool
        raise ThreadMismatchError("bonding exponents are integers >= 1")
    if len(p) < depth - 1:
        raise ThreadMismatchError(
            "depth %d needs at least %d bonding exponents" % (depth, depth - 1)
        )
    return p


def stage_size(p_seq, level):
    """Size of the stage at 1-based level: the product of earlier exponents."""
    if level < 1:
        raise StageDomainError("levels are 1-based")
    return prod(p_seq[: level - 1], start=1)


class Thread(Record):
    """A finite-depth inverse-limit point over the bonding exponents p.

    points[0] lives on the size-1 stage and each deeper point maps onto
    the previous one under its bond.  The exponent list may extend past
    the current depth; extension consumes it.
    """

    def __init__(self, p=(), points=()):
        self.__dict__.update(p=p, points=tuple(points))
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "p", _exponents(self.p, len(self.points)))
        if not self.points:
            raise ThreadMismatchError("threads carry at least one point")
        sizes = accumulate(self.p, mul, initial=1)
        for idx, (pt, want) in enumerate(zip(self.points, sizes)):
            if pt.n != want:
                raise ThreadMismatchError(
                    "level %d point lives on stage %d, expected %d"
                    % (idx + 1, pt.n, want)
                )
        for idx, (low, high) in enumerate(zip(self.points, self.points[1:])):
            if high.index % low.n != low.index or (
                    high.inner is not low.inner and high.inner != low.inner):
                raise ThreadMismatchError(
                    "level %d point does not bond onto level %d" % (idx + 2, idx + 1)
                )

    @property
    def depth(self):
        return len(self.points)

    def __str__(self):
        template = point_format(self.points[0].inner)
        return "; ".join(template % pt.index for pt in self.points)


def extension_exponents(thread, levels):
    """The next `levels` bonding exponents, those an extension of the thread
    by `levels` stages consumes."""
    if levels < 0:
        raise StageDomainError("extension lengths are non-negative")
    need = thread.depth - 1 + levels
    if len(thread.p) < need:
        raise StageDomainError(
            "thread carries %d bonding exponents, extension needs %d"
            % (len(thread.p), need)
        )
    return thread.p[thread.depth - 1 : need]


def extend_thread(thread, levels):
    """All compatible extensions by the next `levels` bonding exponents, by
    the child rule: lexicographic in the per-level indices, not ascending
    in the top index (over p = 2,2 the tops run 0, 2, 1, 3)."""
    stacks, top = [thread.points], thread.points[-1]
    n = top.n
    for m in extension_exponents(thread, levels):
        stacks = [pts + (StagePoint(m * n, pts[-1].index + c * n, top.inner),)
                  for pts in stacks for c in range(m)]
        n *= m
    return [Thread(thread.p, pts) for pts in stacks]


class HomeoRecipe(Record):
    """Level-wise map: rotation per level, one shared translation and hat."""

    def __init__(self, p=(), rotations=(), translate_by=0, hat=IDENTITY_TOKEN):
        rotations = tuple(rotations)
        if not all(type(k) is int for k in (translate_by, *rotations)):
            raise ThreadMismatchError("rotations and the translation are integers")
        p = _exponents(p, len(rotations))
        if not rotations:
            raise ThreadMismatchError("recipes need at least one level")
        sizes = accumulate(p, mul, initial=1)
        rotations = tuple(l % n for l, n in zip(rotations, sizes))
        self.__dict__.update(p=p, rotations=rotations, translate_by=translate_by,
                             hat=hat)

    @property
    def depth(self):
        return len(self.rotations)


def _hat(hat, x):
    """Evaluate a mapping token at one inner coordinate: the source goes to
    the target and the fixed region stays (for a tower token, the level-1
    bases at or above its ceiling).  A tower point one level above
    the token keeps its top integer and maps its rest by the same rule; a
    depth-1 stop strips to the fixed minimum and stays."""
    if hat.kappa is not None and hat.kappa != x.kappa:
        if hat.kappa != x.kappa - 1:
            raise TokenUndefinedError(
                "token lives at level %s, point at level %d" % (hat.kappa, x.kappa)
            )
        rest = strip_top(x)
        if rest is MIN:
            return x
        a = _hat(hat, rest).address
        return TowerPoint(x.kappa, Address(x.address.ints[:1] + a.ints, a.rho, a.frac))
    if x == hat.source:
        return hat.target
    if hat.kappa is not None:
        fixed = hat.fixed_above is not None and compare_base(x, hat.fixed_above) >= 0
    else:
        fixed = ((hat.fixed_below is not None and not hat.fixed_below < x)
                 or (hat.fixed_above is not None and not x < hat.fixed_above))
    if fixed:
        return x
    raise TokenUndefinedError(
        "token is only evaluable at its source and its fixed region"
    )


def _map_inner(hat, k, x):
    """The hat, then a top-integer shift by k, at one within-copy coordinate
    (None, the joint, stays None): what a level map does inside a copy,
    the same for every copy and every level.  An identity hat is skipped,
    so the hat evaluator only ever sees mapping tokens."""
    if x is None:
        return None
    if not hat.is_identity:
        if isinstance(x, TowerPoint) != (hat.kappa is not None):
            raise TokenUndefinedError(
                "long-line token applied to a tower point" if hat.kappa is None
                else "tower token applied to a long-line point"
            )
        x = _hat(hat, x)
        _check_inner(x)
    return _shift_top(k, x) if k else x


def _check_thread(recipe, thread):
    if not isinstance(thread, Thread):
        raise ThreadMismatchError(
            "a recipe acts on a Thread, not %s" % type(thread).__name__)
    d = recipe.depth
    if d != thread.depth or recipe.p[: d - 1] != thread.p[: d - 1]:
        raise ThreadMismatchError("recipe and thread disagree on depth or exponents")


def apply_recipe(recipe, thread):
    """Map the thread's one inner coordinate once and rotate each level by
    its offset; the image is re-checked as a thread."""
    _check_thread(recipe, thread)
    image = _map_inner(recipe.hat, recipe.translate_by, thread.points[0].inner)
    return Thread(thread.p, (
        StagePoint(pt.n, pt.index + l, image)
        for pt, l in zip(thread.points, recipe.rotations)
    ))


def verify_commutes(recipe, thread=None):
    """Check bond-compatibility of the recipe on the verification set: the
    joints and, given a thread of the recipe's depth and exponents, the
    integer stops [-8]..[8] at the level of its inner point x when x is a
    tower point at level >= 2, then x itself, each decided by the
    congruence rule.  Stop and thread images ignore copy and level, and
    level 1 (n = 1) is congruent, so each is evaluated once, first; an
    incongruent level then fails first at its joint inf0, which every
    recipe maps.  Without a thread only the joints are checked.

    The stops have a closed form.  Under the identity hat, or a hat one
    level below x, a stop [z] strips to the fixed minimum and stays, and
    the top shift is defined at every level >= 2, so no stop can fail;
    every recipe ``synthesize_recipe`` builds has such a hat.  Under a
    token at another level, or on the long line, every stop fails as x
    then does.  A token at x's level has no fixed region, so of [-8] and
    [-7] the one not its source fails first: only those two are mapped.

    Returns (True, None) when every level pair commutes, otherwise
    (False, record) with the first offending level and point.
    """
    if thread is not None:
        _check_thread(recipe, thread)
    if recipe.depth == 1:
        return True, None
    hat, k = recipe.hat, recipe.translate_by
    if thread is not None:
        x = thread.points[0].inner
        if isinstance(x, TowerPoint) and hat.kappa == x.kappa >= 2:
            for z in (-8, -7):
                _map_inner(hat, k, TowerPoint(x.kappa, Address((z,))))
        _map_inner(hat, k, x)
    joint, sizes = point_format(None), accumulate(recipe.p, mul, initial=1)
    for level, n in zip(range(1, recipe.depth), sizes):
        low, high = recipe.rotations[level - 1], recipe.rotations[level] % n
        if low != high:
            return False, {
                "level": level,
                "point": joint % 0,
                "bond_then_low": joint % low,
                "high_then_bond": joint % high,
            }
    return True, None


class SynthesisResult(Record):
    """Outcome of recipe synthesis: recipe, proven_distinct, or unknown."""

    def __init__(self, status, recipe=None):
        self.__dict__.update(status=status, recipe=recipe)


def _check_same_shape(x, y):
    if x.depth != y.depth:
        raise ThreadMismatchError("threads differ in depth")
    if x.p != y.p:
        raise ThreadMismatchError("threads differ in bonding exponents")
    a, b = x.points[0].inner, y.points[0].inner
    if a is None or b is None:
        return
    if type(a) is not type(b):
        raise ThreadMismatchError("threads mix tower and long-line material")
    if isinstance(a, TowerPoint) and a.kappa != b.kappa:
        raise ThreadMismatchError("threads live at different tower levels")


def synthesize_recipe(x, y):
    """Build a recipe mapping thread x onto thread y, or explain why not.

    The joint against an inner thread is unknown when the inner point is a
    multiple of omega_1 on the long line, and proven distinct otherwise (a
    tower joint is alone in its type).  Two tower points are a complete
    decision: equal types yield a rotation plus shared translation and
    hat, distinct types are provably not related.  Two long-line points
    lift the line-level verdicts; cross-block pairs whose distinctness is
    not covered by a recorded proof stay unknown.
    """
    _check_same_shape(x, y)
    a, b = x.points[0].inner, y.points[0].inner
    shift, hat = 0, IDENTITY_TOKEN  # what all-joint threads keep
    if (a is None) != (b is None):
        inner = b if a is None else a
        ng = isinstance(inner, LongPoint) and is_ng(inner)
        return SynthesisResult(UNKNOWN if ng else PROVEN_DISTINCT)
    if isinstance(a, TowerPoint):
        if point_type(a) != point_type(b):
            return SynthesisResult(PROVEN_DISTINCT)
        shift, hat = within_copy_hat(a, b)
    elif a is not None:
        if distinct_orbit_proof(a, b) == PROVEN_DISTINCT:
            return SynthesisResult(PROVEN_DISTINCT)
        answer = same_orbit_recipe(a, b)
        if answer.status != SAME:
            return SynthesisResult(UNKNOWN)
        hat = answer.token
    rotations = tuple(v.index - u.index for u, v in zip(x.points, y.points))
    return SynthesisResult(RECIPE, HomeoRecipe(x.p, rotations, shift, hat))
