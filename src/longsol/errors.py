"""Exception types shared across the package.

Every error carries a stable ``code`` string so the command line layer can
report failures structurally without inspecting exception classes.
"""


class LongSolError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ParseError(LongSolError):
    """Malformed textual input; ``position`` is the character offset."""

    code = "parse-error"


class DepthBoundError(LongSolError):
    """An ordinal nests past the depth bound, or an integer literal is too long."""

    code = "representation-overflow"


class EndpointError(LongSolError):
    code = "endpoint-not-in-domain"


class InvalidPointError(LongSolError):
    code = "invalid-point"


class LevelMismatchError(LongSolError):
    code = "level-mismatch"


class NotSameOrbitError(LongSolError):
    code = "not-same-orbit"


class StageDomainError(LongSolError):
    """Stage sizes of the argument do not match the requested map."""

    code = "domain-error"


class UnsupportedTranslationError(LongSolError):
    code = "unsupported-translation"


class TokenUndefinedError(LongSolError):
    """A partial automorphism token was evaluated off its defined set."""

    code = "token-undefined"


class ThreadMismatchError(LongSolError):
    code = "thread-mismatch"


class WitnessInputError(LongSolError):
    code = "invalid-witness-input"


class CommandError(LongSolError):
    """Bad command line usage that argparse itself cannot express."""

    code = "bad-command"
