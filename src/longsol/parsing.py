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

Ordinal literals, arc positions, printed threads and plain lists of
integers are first read by a fast reader: a tokenizer and an index loop
(``_read_ordinal``), one ``re.fullmatch`` (``_read_position``),
``str.split`` (``_printed_thread``, ``_plain_ints``).  A fast reader
returns None for any text it does not take, and the scanner then reads
that text, so every value is the scanner's and every error, message and
position comes from the scanner.
"""

import re
import sys
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .arcs import Arc
from .errors import DepthBoundError, ParseError
from .longline import LongPoint
from .ordinal import DEFAULT_DEPTH_BOUND, OMEGA, ONE, ZERO, CnfOrdinal, add, nat
from .stages import LONG_MODE, TOWER_MODE, StagePoint, Thread, stage_size
from .cohomology import SequenceDescriptor
from .tower import Address, TowerPoint


def _decimal(text, position, message):
    """The value of ``text``, which must be ASCII digits (``int`` reads any
    script's) no more than ``sys.get_int_max_str_digits()`` long (0: no
    limit); otherwise a positioned error, never one from ``int``."""
    if not (text.isascii() and text.isdecimal()):
        raise ParseError(message, position=position)
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        raise DepthBoundError(
            "integer literal longer than %d digits" % limit, position=position
        )
    return int(text)


class _Scanner:
    def __init__(self, text, offset=0):
        self.text = text
        self.i = 0
        self.offset = offset

    def error(self, message):
        raise ParseError(message, position=self.offset + self.i)

    def ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def try_eat(self, ch):
        self.ws()
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def expect(self, ch):
        self.ws()
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.i += 1

    def nat(self):
        self.ws()
        start = self.i
        while self.i < len(self.text) and "0" <= self.text[self.i] <= "9":
            self.i += 1
        digits = self.text[start : self.i]
        return _decimal(digits, self.offset + start, "expected a number")

    def done(self):
        self.ws()
        return self.i >= len(self.text)


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


def parse_ordinal(text, offset=0):
    """An ordinal literal whose value nests no deeper than the depth bound.

    Nesting is counted as written, on the way down: a ``w`` inside n
    exponents heads a value of depth n + 2, which is the value's depth for
    every normal form.  A literal that would only stay within the bound
    through a ``^0`` or ``*0`` collapsing it is rejected all the same.

    The token reader (``_read_ordinal``) reads the text first; any text it
    does not take, and so every error, is read by the scanner.
    """
    value = _read_ordinal(text)
    return _scan_ordinal(text, offset) if value is None else value


def _scan_ordinal(text, offset):
    s = _Scanner(text, offset)
    value = _ordinal(s, 0)
    if not s.done():
        s.error("unexpected trailing input")
    return value


# blanks, then one number (ASCII digits only) or one other character
_TOKEN = re.compile(r"\s*([0-9]+|\S)")


class _Irregular(Exception):
    """Text the token reader leaves to the scanner."""


def _read_ordinal(text):
    """The ordinal literal read from its tokens, or None for text that does
    not follow the grammar, nests past the depth bound, or holds a number
    past the digit limit.

    Blanks only separate tokens.  Two numbers in a row never follow the
    grammar, so blanks inside a number leave the text to the scanner.  Each
    sum collects its (exponent, coefficient) pairs: one already strictly
    descending is built as one ``CnfOrdinal``, any other is summed by
    ``add`` as the scanner sums.  Equal natural exponents are one object.
    """
    tokens = _TOKEN.findall(text)
    limit = sys.get_int_max_str_digits()
    if limit and tokens and max(map(len, tokens)) > limit:
        return None
    tokens.append("")  # the end: no rule takes it
    try:
        value, i = _read_sum(tokens, 0, 0, {})
    except _Irregular:
        return None
    return value if i == len(tokens) - 1 else None


def _read_int(token):
    """The value of a number token: one that sorts from "0" to ":"."""
    if not "0" <= token < ":":
        raise _Irregular
    return int(token)


def _read_sum(t, i, nest, nats):
    """(the sum starting at token i, the index after it)"""
    pairs = []
    while True:
        token = t[i]
        if token == "w":
            if nest + 2 > DEFAULT_DEPTH_BOUND:
                raise _Irregular
            exponent, coeff = ONE, 1
            if t[i + 1] == "^":
                exponent, i = _read_exponent(t, i + 2, nest + 1, nats)
            else:
                i += 1
            if t[i] == "*":
                coeff = _read_int(t[i + 1])
                i += 2
            if coeff:
                pairs.append((exponent, coeff))
        else:
            coeff = _read_int(token)
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


def _read_exponent(t, i, nest, nats):
    token = t[i]
    if token == "(":
        value, i = _read_sum(t, i + 1, nest, nats)
        if t[i] != ")":
            raise _Irregular
        return value, i + 1
    if token == "w":
        if nest + 2 > DEFAULT_DEPTH_BOUND:
            raise _Irregular
        if t[i + 1] == "^":
            exponent, i = _read_exponent(t, i + 2, nest + 1, nats)
            return CnfOrdinal(((exponent, 1),)), i
        return OMEGA, i + 1
    value = nats.get(token)
    if value is None:
        value = nats[token] = nat(_read_int(token))
    return value, i + 1


def _ordinal(s, nest):
    terms = [_term(s, nest)]
    while s.try_eat("+"):
        terms.append(_term(s, nest))
    return add(*terms)


def _omega(s, nest):
    """Consume a ``w`` found inside ``nest`` exponents."""
    if nest + 2 > DEFAULT_DEPTH_BOUND:
        raise DepthBoundError(
            "ordinal literal nests deeper than the depth bound %d"
            % DEFAULT_DEPTH_BOUND,
            position=s.offset + s.i,
        )
    s.i += 1


def _term(s, nest):
    s.ws()
    ch = s.peek()
    if "0" <= ch <= "9":
        return nat(s.nat())
    if ch != "w":
        s.error("expected a term")
    _omega(s, nest)
    exponent = ONE
    if s.try_eat("^"):
        exponent = _exponent(s, nest + 1)
    coeff = 1
    if s.try_eat("*"):
        coeff = s.nat()
    if coeff == 0:
        return ZERO
    return CnfOrdinal(((exponent, coeff),))


def _exponent(s, nest):
    s.ws()
    ch = s.peek()
    if ch == "(":
        s.i += 1
        value = _ordinal(s, nest)
        s.expect(")")
        return value
    if "0" <= ch <= "9":
        return nat(s.nat())
    if ch != "w":
        s.error("expected an exponent")
    _omega(s, nest)
    if s.try_eat("^"):
        return CnfOrdinal(((_exponent(s, nest + 1), 1),))
    return OMEGA


def _parse_unit_fraction(text, offset):
    s = _Scanner(text, offset)
    num = s.nat()
    s.expect("/")
    den_pos = s.offset + s.i
    den = s.nat()
    if not s.done():
        s.error("unexpected trailing input")
    if den == 0:
        raise ParseError("zero denominator", position=den_pos)
    value = Fraction(num, den)
    if not 0 <= value < 1:
        raise ParseError("unit offsets lie in [0, 1)", position=offset)
    return value


def _parse_summands(text, offset, allow_block):
    """Shared reader for `[w1*(ORD) +] ORD parts + [N/D]` sums."""
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
    return gamma, add(*rho), frac


def parse_long_point(text, offset=0):
    gamma, rho, frac = _parse_summands(text, offset, allow_block=True)
    return LongPoint(
        gamma if gamma is not None else ZERO,
        rho,
        frac if frac is not None else Fraction(0),
    )


def _parse_int(text, offset):
    stripped = text.strip()
    lead = offset + (len(text) - len(text.lstrip()))
    body = stripped.removeprefix("-")
    value = _decimal(body, lead, "expected an integer")
    return value if body == stripped else -value


def _plain_ints(text):
    """The entries of a comma separated list whose every entry is a plain
    run of ASCII digits within the digit limit, read by ``int`` at once;
    None for any other text, which is read entry by entry."""
    entries = text.split(",")
    digits = "".join(entries)
    limit = sys.get_int_max_str_digits()
    if (digits.isascii() and digits.isdecimal() and "" not in entries
            and not (limit and max(map(len, entries)) > limit)):
        return tuple(map(int, entries))
    return None


def _parse_int_list(text, offset, allow_empty):
    if not text.strip():
        if allow_empty:
            return ()
        raise ParseError("expected at least one integer", position=offset)
    ints = _plain_ints(text)
    if ints is not None:
        return ints
    return tuple(
        _parse_int(piece, start) for piece, start in _split_top(text, ",", offset)
    )


def parse_exponents(text):
    """A comma separated list of integers, such as bonding exponents."""
    ints = _plain_ints(text)
    if ints is not None:
        return ints
    return tuple(_parse_int(piece, start) for piece, start in _split_top(text, ","))


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
    return TowerPoint(
        kappa, Address(ints, rho, frac if frac is not None else Fraction(0))
    )


def parse_stage_point(text, n, mode=None, kappa=None, offset=0):
    """Stage point literal; mode is needed only for inner points."""
    return _stage_point(text, n, mode, kappa, offset, {})


def _stage_point(text, n, mode, kappa, offset, inners):
    """``parse_stage_point``, taking the inner point from ``inners`` when
    its body text was read before under the same mode and kappa, and
    recording it there otherwise."""
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
    point = inners.get(body)
    if point is None:
        body_off = lead + 2 + len(index_text)
        if mode == TOWER_MODE:
            if kappa is None:
                raise ParseError("tower points need a level", position=body_off)
            point = parse_tower_point(body, kappa, body_off)
        elif mode == LONG_MODE:
            point = parse_long_point(body, body_off)
        else:
            raise ParseError("inner points need a tower or long mode", position=body_off)
        inners[body] = point
    return StagePoint(n, index, point)


def parse_thread(p, text, mode=None, kappa=None, offset=0):
    """A thread literal: stage point literals joined by ';'.

    Every bond keeps the inner coordinate, so a thread writes one inner
    literal at each level.  Each distinct body text is read once, at its
    first level, and its value is shared with the levels that repeat it:
    the value depends only on the text, the mode and kappa, and the offset
    only on where an error is reported, which is always the first reading.

    Text in the printed form, what ``str(Thread)`` writes, is read without
    the scanner (see ``_printed_thread``); all other text, and every error
    in the body, is read by the scanner.
    """
    thread = _printed_thread(p, text, mode, kappa, offset)
    if thread is not None:
        return thread
    pieces = _split_top(text, ";", offset)
    points, inners = [], {}
    for level, (piece, start) in enumerate(pieces, start=1):
        size = stage_size(p, level)
        points.append(_stage_point(piece, size, mode, kappa, start, inners))
    return Thread(tuple(p), tuple(points))


def _printed_thread(p, text, mode, kappa, offset):
    """The thread read from its printed form, or None for any other text.

    The printed form is ``infI; infJ; ...`` or ``(I| B); (J| B); ...``
    with one body B, unsigned ASCII indices under 19 digits, and no more
    levels than the tuple p covers.  B is read once, as the scanner reads
    the first piece.  A body that reads holds no '|' and is
    bracket-balanced, so the scanner would split the text into the same
    pieces and read the same index and body from each.  The points
    and the thread are built as the scanner builds them, so their errors
    are the scanner's; an error while reading B answers None.
    """
    if text.startswith("("):
        *heads, last = text.split("| ")
        body = last[:-1]
        if not heads or not last.endswith(")"):
            return None
        glue = body + "); ("
        indices = [heads[0][1:]]
        for head in heads[1:]:
            if not head.startswith(glue):
                return None
            indices.append(head[len(glue):])
    else:
        pieces = text.split("; ")
        if not all(piece.startswith("inf") for piece in pieces):
            return None
        body, indices = None, [piece[3:] for piece in pieces]
    if not isinstance(p, tuple) or len(indices) > len(p) + 1 or not all(
            i.isascii() and i.isdigit() and len(i) < 19 for i in indices):
        return None
    sizes = accumulate(p, mul, initial=1)
    points, inner = [], None
    if body is not None:
        first = text[: len(heads[0]) + len(body) + 3]
        try:
            points.append(_stage_point(first, next(sizes), mode, kappa, offset, {}))
        except Exception:  # the scanner reads it again and owns the error
            return None
        inner = points[0].inner
    points += [StagePoint(n, int(i), inner) for i, n in zip(indices[len(points):], sizes)]
    return Thread(p, points)


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


def _read_position(text, n):
    """The position read by one match, or None for any text the scanner
    must read: another form, a number past the digit limit, a copy index
    past n, or an offset outside [0, 1)."""
    match = _POSITION.fullmatch(text)
    limit = sys.get_int_max_str_digits()
    if match is None or (limit and len(text) > limit):
        return None
    copy, num, den = match.groups()
    copy = int(copy)
    if copy >= n:
        return None
    if num is None:
        return Fraction(copy)
    num, den = int(num), int(den)
    return Fraction(copy * den + num, den) if num < den else None


def parse_arc(text, n, offset=0):
    halves = text.split("..")
    if len(halves) != 2:
        raise ParseError("arcs read START..END", position=offset)
    start = _read_position(halves[0], n)
    if start is None:
        start = _parse_position(halves[0], n, offset)
    end = _read_position(halves[1], n)
    if end is None:
        end = _parse_position(halves[1], n, offset + len(halves[0]) + 2)
    return Arc(n, start, end)


def parse_arc_list(text, n):
    """Comma separated arcs on a stage of ``n`` copies."""
    return [parse_arc(piece, n, start) for piece, start in _split_top(text, ",")]
