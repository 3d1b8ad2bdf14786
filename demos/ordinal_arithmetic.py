"""
Ordinal arithmetic in Cantor normal form
========================================

Every ordinal below epsilon_0 is a finite sum w^a1*c1 + ... + w^ak*ck
with strictly decreasing exponents.  The package stores exactly that
shape, so equality is structural and arithmetic is exact.
"""

from longsol import (
    DEFAULT_DEPTH_BOUND,
    DepthBoundError,
    OMEGA,
    ZERO,
    add,
    compare,
    mul,
    nat,
    omega_pow,
    parse_ordinal,
)

# Parse from text; sums in any order normalize on the way in.
x = parse_ordinal("w^2*3 + w + 5")
print("normal form:", x)
print("w + w^2 collapses to:", parse_ordinal("w + w^2"))

# Addition absorbs smaller leading terms: 1 + w = w, but w + 1 keeps both.
print("1 + w  =", add(nat(1), OMEGA))
print("w + 1  =", add(OMEGA, nat(1)))

# Multiplication is not commutative either.
print("2 * w  =", mul(nat(2), OMEGA))
print("w * 2  =", mul(OMEGA, nat(2)))

# Left distributivity holds; right distributivity fails, and the failure
# is visible in one line: (1+1)*w = w while 1*w + 1*w = w*2.
lhs = mul(add(nat(1), nat(1)), OMEGA)
rhs = add(mul(nat(1), OMEGA), mul(nat(1), OMEGA))
print("(1+1)*w =", lhs, "  but  1*w + 1*w =", rhs)

# compare() is the total order behind all of this.
pairs = [(ZERO, nat(5)), (omega_pow(nat(2)), mul(OMEGA, nat(9)))]
for a, b in pairs:
    print("compare(%s, %s) = %d" % (a, b, compare(a, b)))

# Exponent nesting is bounded at DEFAULT_DEPTH_BOUND so towers cannot run
# away; the bound is fixed.
t = OMEGA
try:
    for _ in range(DEFAULT_DEPTH_BOUND + 1):
        t = omega_pow(t)
except DepthBoundError as err:
    print("depth bound kicked in:", err)
