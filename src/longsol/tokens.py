"""Partially evaluated automorphism witnesses.

An :class:`IntervalAutToken` asserts that an endpoint-fixing automorphism
of a long interval (or of one tower level) exists, without materializing
it as a pointwise function.  Its points are its whole meaning: all are
inner points of one kind and tower level, which is the token's level.  The
empty token, ``IDENTITY_TOKEN``, is the identity; any other maps its source
to its target, keeps its fixed region (only on the long line and at tower
level 1, where there is an order for one), and is undefined elsewhere
(``token-undefined``).  A tower token acts the same way on the rest of a
point one level up, inside each top-integer copy.  Evaluation lives in
:mod:`longsol.stages`; a token carries no shift, which a recipe keeps in
``HomeoRecipe.translate_by``.

The names ``cli`` and the readers share with ``stages`` live here too, so
that reading them runs no ``stages``: the modes a thread's inner points
are read in, and the status of a synthesized recipe.
"""

from .errors import Record

# what the parsers read a thread's inner points as
TOWER_MODE = "tower"
LONG_MODE = "long"
# the status of a synthesis that found a recipe
RECIPE = "recipe"


class IntervalAutToken(Record):
    """Witness of an automorphism fixing the ends of its ambient interval.

    source, target  the one asserted value pair; both None for the identity.
    fixed_below     long-line points at or below this stay fixed.
    fixed_above     points at or above this stay fixed: long-line points,
                    or bases of a level-1 tower token.
    """

    def __init__(self, source=None, target=None, fixed_below=None, fixed_above=None):
        if (source is None) != (target is None):
            raise ValueError("mapping tokens need a source and a target")
        if source is None and (fixed_below, fixed_above) != (None, None):
            raise ValueError("the identity token carries nothing else")
        level = getattr(source, "kappa", None)
        for pt in (source, target, fixed_below, fixed_above):
            if pt is not None and (pt.__class__ is not source.__class__
                                   or getattr(pt, "kappa", None) != level
                                   or getattr(pt, "is_joint", False)):
                raise ValueError("a token's points are inner points of one kind and level")
        if level is not None and (fixed_below is not None
                                  or (level != 1 and fixed_above is not None)):
            raise ValueError("a tower token fixes only bases above a level-1 ceiling")
        self.__dict__.update(source=source, target=target, fixed_below=fixed_below,
                             fixed_above=fixed_above)

    @property
    def kappa(self):
        """Tower level of the token's points; None on the long line."""
        return getattr(self.source, "kappa", None)

    @property
    def is_identity(self):
        return self.source is None


IDENTITY_TOKEN = IntervalAutToken()
