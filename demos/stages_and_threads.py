"""
Stage circles, bonding maps, and homeomorphism recipes
======================================================

A stage of size n is a circle of n copies of the chosen line; the bond
from size m*n to size n wraps the joints m times around.  Threads are
finite-depth inverse-limit points, and recipes are level-wise maps
checked against every bond on a documented finite set.
"""

from fractions import Fraction

from longsol import (
    Arc,
    StagePoint,
    Thread,
    apply_recipe,
    extend_thread,
    fiber,
    format_position,
    indecomposability_witness,
    parse_thread,
    synthesize_recipe,
    verify_commutes,
)

# The bond is index arithmetic: it takes copy indices modulo the target
# size and keeps the within-copy coordinate, so the fiber over copy i of
# size n lists i, i+n, ..., i+(m-1)n.
q = StagePoint(3, 1)
lifts = fiber(2, 3, q)
print("fiber over inf1:", [str(x) for x in lifts])
print("bond sends them back:", all(x.index % 3 == q.index for x in lifts))

# A thread records one point per stage.  Extending consumes the next
# bonding exponents and branches like the Cantor set: one choice of
# preimage per level.
seed = Thread((2, 3, 2), (StagePoint(1, 0),))
for levels in (1, 2, 3):
    grown = extend_thread(seed, levels)
    print("extend by %d -> %d threads" % (levels, len(grown)))
print("one of them:", grown[7])

# Recipes: rotating the top stage by 3 forces compatible rotations
# below, and verification replays every bond square.
x = parse_thread((2, 3), "inf0; inf0; inf0")
y = parse_thread((2, 3), "inf1; inf1; inf3")
result = synthesize_recipe(x, y)
recipe = result.recipe
print("rotations per level:", recipe.rotations)
print("commutes with bonds:", verify_commutes(recipe))
print("maps x to y:", apply_recipe(recipe, x) == y)

# Corrupt one rotation and verification answers with the exact square
# that broke, instead of a bare False.
from longsol import HomeoRecipe

bad = HomeoRecipe(p=(2, 3), rotations=(0, 1, 2))
ok, witness = verify_commutes(bad)
print("corrupted recipe verifies:", ok)
print("counterexample:", witness)

# The indecomposability step: two arcs covering a stage lift to disjoint
# component families, and no pair of single components covers the
# covering stage.
c_arc = Arc(1, 0, Fraction(1, 2))
g_arc = Arc(1, Fraction(2, 5), Fraction(1, 10))
report = indecomposability_witness(2, 1, c_arc, g_arc)
print("c components upstairs:", [str(a) for a in report.c_components])
print("separating points:", [format_position(p) for p in report.c_separators])
for (i, j), point in report.pair_uncovered:
    print("  components (%d, %d) miss position %s"
          % (i, j, format_position(point)))
print("witnesses indecomposability:", report.witnesses_indecomposability)
