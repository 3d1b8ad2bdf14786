"""Text forms of ordinals, points, arcs, and descriptors.

Ordinals follow the grammar

    ordinal  := term ("+" term)*
    term     := "w" ("^" exponent)? ("*" nat)? | nat
    exponent := "(" ordinal ")" | "w" ("^" exponent)? | nat

so bare exponents are single powers of w (right associated) or naturals,
and anything else is parenthesized; this keeps printing and parsing
inverse to each other.  Sums in any order are normalized, not rejected,
and each literal is summed once, by one ``add`` over all its terms, so it
is read in time linear in its length.

Long points read ``w1*(ORD) + ORD + N/D`` with each summand optional but
at least one present.  Tower points are ``inf``, ``[z1,...,zj]``, or
``[z1,...,z(kappa-1); ORD + N/D]`` (the integer list may be empty at
level 1).  Stage points are ``infI`` for the joint at index I, or
``(i| POINT)`` for an inner point of copy i.  Bonding descriptors read
``PREFIX:CYCLE`` with comma-separated entries, arcs ``START..END`` with
positions ``I`` or ``I+N/D``.

Every syntax error carries the character position it was noticed at, and
so does the ``DepthBoundError`` for an ordinal literal nesting too deep
(see ``parse_ordinal``) or an integer literal too long (see ``_decimal``).

Ordinal literals, and the ``N/D`` offsets of long and tower points, are
read by one reader: a tokenizer (``_TOKEN``) and an index loop, which
raises every error of those grammars itself.  Arc positions and printed
threads are first read by a fast reader, one ``re.fullmatch``
(``_read_position``) or one ``str.split`` for both printed forms
(``_printed_thread``), and an ASCII integer list without '+' or '_' by
``str.split`` and ``int`` (``parse_exponents``).  Each fast reader hands
any text not in its form to the general reader (``_printed_thread`` by
returning None), so every value is the general reader's and every error,
message and position comes from it (a printed thread too deep for p
meets the same ``Thread`` refusal).  The fast readers stay because each
is several times faster than the general reader on the text it takes.
"""

import re
import sys
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import mul

from .arcs import Arc
from .errors import DepthBoundError, ParseError
from .longline import LongPoint
from .ordinal import DEFAULT_DEPTH_BOUND, ONE, ZERO, CnfOrdinal, add, nat
from .stages import LONG_MODE, TOWER_MODE, StagePoint, Thread, stage_size
from .cohomology import SequenceDescriptor
from .tower import Address, TowerPoint


_TOO_LONG = "integer literal longer than %d digits"


def _decimal(text, position, message):
    """The value of ``text``, which must be ASCII digits (``int`` reads any
    script's) no more than ``sys.get_int_max_str_digits()`` long (0: no
    limit); otherwise a positioned error, never one from ``int``."""
    if not (text.isascii() and text.isdecimal()):
        raise ParseError(message, position=position)
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        raise DepthBoundError(_TOO_LONG % limit, position=position)
    return int(text)


def _split_top(text, sep, offset=0):
    """Split on a separator at bracket depth zero.

    ``text`` starts at position ``offset`` of the input; each piece comes
    with the input position it starts at, and errors carry input positions.
    """
    pieces = []
    if not ("(" in text or "[" in text or ")" in text or "]" in text):
        # depth stays 0: every separator splits
        for piece in text.split(sep):
            pieces.append((piece, offset))
            offset += len(piece) + 1
        return pieces
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", position=offset + i)
        elif ch == sep and depth == 0:
            pieces.append((text[start:i], offset + start))
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced bracket", position=offset + len(text))
    pieces.append((text[start:], offset + start))
    return pieces


# blanks, then one number (ASCII digits only) or one other character
_TOKEN = re.compile(r"\s*([0-9]+|\S)")
_TOO_DEEP = "ordinal literal nests deeper than the depth bound %d" % DEFAULT_DEPTH_BOUND


class _Stop(Exception):
    """Where the token reader stopped: (token index, error class, message)."""


def parse_ordinal(text, offset=0):
    """An ordinal literal whose value nests no deeper than the depth bound.

    Nesting is counted as written, on the way down: a ``w`` inside n
    exponents heads a value of depth n + 2, which is the value's depth for
    every normal form.  A literal that would only stay within the bound
    through a ``^0`` or ``*0`` collapsing it is rejected all the same.

    The text is split into tokens, which are read by index.  Blanks only
    separate tokens, so blanks inside a number leave two numbers, which the
    grammar never takes in a row.  Each sum collects its (exponent,
    coefficient) pairs: one already strictly descending is built as one
    ``CnfOrdinal``, any other is summed by ``add``.  An error is raised at
    the start of the token the reader stopped at, or at the end of the
    text.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end: no rule takes it
    try:
        value, i = _read_sum(tokens, 0, 0)
        if not tokens[i]:
            return value
        raise _Stop(i, ParseError, "unexpected trailing input")
    except _Stop as stop:
        i, error, message = stop.args
    match = next(islice(_TOKEN.finditer(text), i, None), None)
    raise error(message, position=offset + (match.start(1) if match else len(text)))


def _read_int(t, i, message):
    """The value of the number token t[i], one that sorts from "0" to ":"."""
    if not "0" <= t[i] < ":":
        raise _Stop(i, ParseError, message)
    try:
        return int(t[i])
    except ValueError:  # past the digit limit
        raise _Stop(i, DepthBoundError, _TOO_LONG % sys.get_int_max_str_digits()) from None


def _read_power(t, i, nest):
    """(the exponent of the power of w at token i, the index after it)"""
    if nest + 2 > DEFAULT_DEPTH_BOUND:
        raise _Stop(i, DepthBoundError, _TOO_DEEP)
    if t[i + 1] == "^":
        return _read_exponent(t, i + 2, nest + 1)
    return ONE, i + 1


def _read_sum(t, i, nest):
    """(the sum starting at token i, the index after it)"""
    pairs = []
    while True:
        if t[i] == "w":
            exponent, i = _read_power(t, i, nest)
            coeff = 1
            if t[i] == "*":
                coeff = _read_int(t, i + 1, "expected a number")
                i += 2
            if coeff:
                pairs.append((exponent, coeff))
        else:
            coeff = _read_int(t, i, "expected a term")
            i += 1
            if coeff:
                pairs.append((ZERO, coeff))
        if t[i] != "+":
            break
        i += 1
    if len(pairs) < 2:
        return CnfOrdinal(pairs) if pairs else ZERO, i
    try:
        return CnfOrdinal(pairs), i
    except ValueError:  # not strictly descending
        return add(*[CnfOrdinal((pair,)) for pair in pairs]), i


def _read_exponent(t, i, nest):
    if t[i] == "(":
        value, i = _read_sum(t, i + 1, nest)
        if t[i] != ")":
            raise _Stop(i, ParseError, "expected ')'")
        return value, i + 1
    if t[i] == "w":
        exponent, i = _read_power(t, i, nest)
        return CnfOrdinal(((exponent, 1),)), i
    return nat(_read_int(t, i, "expected an exponent")), i + 1


def _parse_unit_fraction(text, offset):
    """``N/D`` with 0 <= N/D < 1, read from the first four tokens."""
    tokens = [(m[1], offset + m.start(1)) for m in islice(_TOKEN.finditer(text), 4)]
    tokens += [("", offset + len(text))] * (4 - len(tokens))
    (num, at_num), (slash, at_slash), (den, at_den), (rest, at_rest) = tokens
    num = _decimal(num, at_num, "expected a number")
    if slash != "/":
        raise ParseError("expected '/'", position=at_slash)
    den = _decimal(den, at_den, "expected a number")
    if rest:
        raise ParseError("unexpected trailing input", position=at_rest)
    if den == 0:
        raise ParseError("zero denominator", position=at_slash + 1)
    value = Fraction(num, den)
    if not 0 <= value < 1:
        raise ParseError("unit offsets lie in [0, 1)", position=offset)
    return value


def _parse_summands(text, offset, allow_block):
    """Shared reader for `[w1*(ORD) +] ORD parts + [N/D]` sums: the block
    count, the sum of the ORD parts and the unit offset, each 0 if absent."""
    gamma = None
    rho = []
    frac = None
    for piece, start in _split_top(text, "+", offset):
        stripped = piece.strip()
        lead = start + (len(piece) - len(piece.lstrip()))
        if not stripped:
            raise ParseError("empty summand", position=lead)
        if stripped.startswith("w1*("):
            if not allow_block:
                raise ParseError("no omega_1 block here", position=lead)
            if gamma is not None or rho or frac is not None:
                raise ParseError("the block count must come first", position=lead)
            if not stripped.endswith(")"):
                raise ParseError("unterminated block count", position=lead)
            gamma = parse_ordinal(stripped[4:-1], lead + 4)
        elif "/" in stripped:
            if frac is not None:
                raise ParseError("only one unit offset", position=lead)
            frac = _parse_unit_fraction(stripped, lead)
        else:
            if frac is not None:
                raise ParseError("the unit offset must come last", position=lead)
            rho.append(parse_ordinal(stripped, lead))
    return (ZERO if gamma is None else gamma, add(*rho),
            Fraction(0) if frac is None else frac)


def parse_long_point(text, offset=0):
    return LongPoint(*_parse_summands(text, offset, allow_block=True))


def _parse_int(text, offset):
    stripped = text.strip()
    lead = offset + (len(text) - len(text.lstrip()))
    body = stripped.removeprefix("-")
    value = _decimal(body, lead, "expected an integer")
    return value if body == stripped else -value


def _parse_int_list(text, offset, allow_empty):
    if not text.strip():
        if allow_empty:
            return ()
        raise ParseError("expected at least one integer", position=offset)
    return parse_exponents(text, offset)


def parse_exponents(text, offset=0):
    """A comma separated list of integers, such as bonding exponents.

    ASCII text with no '+' or '_' is read by ``int`` at once: on it ``int``
    takes an entry exactly when ``_parse_int`` does, with the same blanks
    stripped, one '-', ASCII digits and the same digit limit.  Text that
    ``int`` refuses, and any other text, is read entry by entry, which
    owns every error."""
    if text.isascii() and "+" not in text and "_" not in text:
        try:
            return tuple(map(int, text.split(",")))
        except ValueError:
            pass
    return tuple(_parse_int(piece, start) for piece, start in _split_top(text, ",", offset))


def parse_tower_point(text, kappa, offset=0):
    stripped = text.strip()
    lead = offset + (len(text) - len(text.lstrip()))
    if stripped == "inf":
        return TowerPoint(kappa)
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ParseError("expected 'inf' or a bracketed address", position=lead)
    inner = stripped[1:-1]
    parts = _split_top(inner, ";", lead + 1)
    if len(parts) == 1:
        ints = _parse_int_list(*parts[0], allow_empty=False)
        return TowerPoint(kappa, Address(ints))
    if len(parts) != 2:
        raise ParseError("too many ';' in address", position=lead)
    ints = _parse_int_list(*parts[0], allow_empty=True)
    base_text, base_start = parts[1]
    if not base_text.strip():
        raise ParseError("empty base coordinate", position=base_start)
    _, rho, frac = _parse_summands(base_text, base_start, allow_block=False)
    return TowerPoint(kappa, Address(ints, rho, frac))


def parse_stage_point(text, n, mode=None, kappa=None, offset=0):
    """Stage point literal; mode is needed only for inner points."""
    stripped = text.strip()
    lead = offset + (len(text) - len(text.lstrip()))
    if stripped.startswith("inf"):
        index = _decimal(stripped[3:], lead, "joint literals read infI with an index")
        return StagePoint(n, index, None)
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError("expected infI or (i| POINT)", position=lead)
    # no tower, long or ordinal literal contains '|': the first one separates
    index_text, bar, body = stripped[1:-1].partition("|")
    if not bar:
        raise ParseError("inner literals read (i| POINT)", position=lead)
    index = _parse_int(index_text, lead + 1)
    body_off = lead + 2 + len(index_text)
    if mode == TOWER_MODE:
        if kappa is None:
            raise ParseError("tower points need a level", position=body_off)
        point = parse_tower_point(body, kappa, body_off)
    elif mode == LONG_MODE:
        point = parse_long_point(body, body_off)
    else:
        raise ParseError("inner points need a tower or long mode", position=body_off)
    return StagePoint(n, index, point)


def parse_thread(p, text, mode=None, kappa=None, offset=0):
    """A thread literal: stage point literals joined by ';'.

    Every bond keeps the inner coordinate, so a thread writes one inner
    literal at each level.  Text in the printed form, what ``str(Thread)``
    writes, is read at once, its body once (see ``_printed_thread``); all
    other text, and every error in the body, is read level by level, one
    ``parse_stage_point`` call per piece.
    """
    thread = _printed_thread(p, text, mode, kappa, offset)
    if thread is not None:
        return thread
    pieces = _split_top(text, ";", offset)
    points = [parse_stage_point(piece, stage_size(p, level), mode, kappa, start)
              for level, (piece, start) in enumerate(pieces, start=1)]
    return Thread(tuple(p), tuple(points))


def _printed_thread(p, text, mode, kappa, offset):
    """The thread read from its printed form, or None for any other text.

    The printed form is ``infI; infJ; ...`` or ``(I| B); (J| B); ...``
    with one body B and unsigned ASCII indices under 19 digits, at any
    depth.  Every piece is a head, an index and a tail: ``inf`` and
    nothing for joints, ``(`` and ``| B)`` for inner points, B being what
    follows the last ``"| "``.  So one split, of the text between the
    first head and the last tail at ``tail; head``, gives the indices.
    The first piece is read by ``parse_stage_point``, as the per-level
    reader reads it.  A body that reads holds no '|' and is
    bracket-balanced, so that reader would split the text into the same
    pieces and read the same index and body from each.  The points (on
    the stages ``stage_size`` gives, past p too) and the thread are built
    as it builds them, so their errors are its errors; an error while
    reading the first piece answers None.
    """
    head, tail = "inf", ""
    if text.startswith("("):
        head, tail = "(", "| " + text.rpartition("| ")[2]
    indices = text[len(head):len(text) - len(tail)].split(tail + "; " + head)
    if not (text.startswith(head) and text.endswith(tail)
            and all(i.isascii() and i.isdigit() and len(i) < 19 for i in indices)):
        return None
    sizes = accumulate(chain(p, repeat(1)), mul, initial=1)  # as stage_size
    try:
        first = parse_stage_point(head + indices[0] + tail, next(sizes), mode, kappa, offset)
    except Exception:  # read again level by level, which owns the error
        return None
    return Thread(p, [first, *(StagePoint(n, int(i), first.inner)
                               for i, n in zip(indices[1:], sizes))])


def parse_descriptor(text, offset=0):
    pieces = _split_top(text, ":", offset)
    if len(pieces) != 2:
        raise ParseError(
            "descriptors read PREFIX:CYCLE", position=offset + len(text)
        )
    prefix = _parse_int_list(*pieces[0], allow_empty=True)
    cycle = _parse_int_list(*pieces[1], allow_empty=False)
    return SequenceDescriptor(prefix, cycle)


def parse_rational(text, offset=0):
    """A rational ``[-]N[/D]`` with D > 0 and whitespace only around it.  N
    and D go through the one digit reader, so an overlong one fails with a
    positioned ``representation-overflow``."""
    stripped = text.strip()
    lead = offset + len(text) - len(text.lstrip())
    num_text, slash, den_text = stripped.partition("/")
    if not any(ch.isspace() for ch in stripped):
        try:
            num = _parse_int(num_text, lead)
            den = _decimal(den_text, lead + len(num_text) + 1, "") if slash else 1
            return Fraction(num, den)
        except (ParseError, ZeroDivisionError):
            pass
    raise ParseError("expected a rational N/D", position=offset)


def _parse_position(text, n, offset):
    pieces = _split_top(text, "+", offset)
    if not 1 <= len(pieces) <= 2:
        raise ParseError("positions read I or I+N/D", position=offset)
    copy = _parse_int(*pieces[0])
    if not 0 <= copy < n:
        raise ParseError("copy index out of range", position=pieces[0][1])
    frac = Fraction(0)
    if len(pieces) == 2:
        frac = _parse_unit_fraction(*pieces[1])
    return copy + frac


# a position I or I+N/D, ASCII digits only and no blanks
_POSITION = re.compile(r"([0-9]+)(?:\+([0-9]+)/([0-9]+))?")


def _read_position(text, n, offset):
    """The position read by one match; any text the match does not take
    (another form, a number past the digit limit, a copy index past n, or
    an offset outside [0, 1)) is read by ``_parse_position``, which owns
    every error."""
    match = _POSITION.fullmatch(text)
    limit = sys.get_int_max_str_digits()
    if match and not (limit and len(text) > limit):
        copy, num, den = match.groups()
        copy = int(copy)
        if copy < n:
            if num is None:
                return Fraction(copy)
            num, den = int(num), int(den)
            if num < den:
                return Fraction(copy * den + num, den)
    return _parse_position(text, n, offset)


def parse_arc(text, n, offset=0):
    halves = text.split("..")
    if len(halves) != 2:
        raise ParseError("arcs read START..END", position=offset)
    return Arc(n, _read_position(halves[0], n, offset),
               _read_position(halves[1], n, offset + len(halves[0]) + 2))


def parse_arc_list(text, n):
    """Comma separated arcs on a stage of ``n`` copies."""
    return [parse_arc(piece, n, start) for piece, start in _split_top(text, ",")]
