"""Exception types and the value-record base shared across the package.

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
    """Bad command line usage: an argv the CLI's reader refuses, worded as
    argparse words it, or flag values a subcommand refuses."""

    code = "bad-command"


class Record:
    """Base of the immutable value classes.

    Each subclass's ``__init__`` checks and coerces its arguments, then
    stores the final values once, in declaration order, with
    ``self.__dict__.update``; nothing else is stored.  Equality, hash and
    repr follow those fields exactly as for a frozen dataclass, so set and
    dict orders do too.  ``CnfOrdinal``, ``StagePoint`` and ``Thread``
    instead store first and then validate in a ``__post_init__`` looked up
    on the class: the benchmark counts the objects built by wrapping that
    method, failed constructions included.
    """

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join("%s=%r" % item for item in self.__dict__.items())
        return "%s(%s)" % (type(self).__qualname__, fields)
