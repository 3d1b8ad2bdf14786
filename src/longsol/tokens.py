"""Partially evaluated automorphism witnesses.

An :class:`IntervalAutToken` asserts that an endpoint-fixing automorphism
of a long interval (or of one tower level) exists, without materializing
it as a pointwise function.  The token is only evaluable at its recorded
source point and at points of its fixed region, and a tower token acts the
same way on the rest of a point one level up, inside each top-integer
copy; anywhere else evaluation raises ``token-undefined``.  Evaluation
itself lives in :mod:`longsol.stages`, next to the stage maps that consume
these tokens.  A token carries no shift: the top-integer translation a
stage map composes with its hat lives in ``HomeoRecipe.translate_by``.
"""

from .errors import Record

IDENTITY_MODE = "identity"
MAPPING_MODE = "mapping"


class IntervalAutToken(Record):
    """Witness of an automorphism fixing the ends of its ambient interval.

    mode            "identity" or "mapping".
    source, target  the one asserted non-trivial value pair (mapping mode).
    fixed_below     points at or below this stay fixed (long-line style).
    fixed_above     points at or above this stay fixed.
    kappa           tower level of source and target, None for long-line.
    """

    def __init__(self, mode=IDENTITY_MODE, source=None, target=None,
                 fixed_below=None, fixed_above=None, kappa=None):
        if mode not in (IDENTITY_MODE, MAPPING_MODE):
            raise ValueError("unknown token mode %r" % mode)
        if mode == MAPPING_MODE and (source is None or target is None):
            raise ValueError("mapping tokens need a source and a target")
        self.__dict__.update(mode=mode, source=source, target=target,
                             fixed_below=fixed_below, fixed_above=fixed_above,
                             kappa=kappa)

    @property
    def is_identity(self):
        return self.mode == IDENTITY_MODE


IDENTITY_TOKEN = IntervalAutToken()
