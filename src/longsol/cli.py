"""Command line front end.

One subcommand per task family, each declared once in ``COMMANDS``.  An
answer is a single JSON document on stdout (``--format text`` flattens it
to ``key: value`` lines) and exits 0.  Failures print ``{"error": {"code",
"message", "position"?}}`` and exit 1; anything unexpected exits 2.  A
reader that closes stdout early ends the call with exit 1 and no traceback.
Every argv is read from ``COMMANDS`` by argparse's own rules (``_read_args``);
the argparse tree is built only to print help.
Two environment knobs bound the work done per call, and each is checked
before the work it bounds starts: ``LONGSOL_DEPTH`` caps thread depth
(default 6) and ``LONGSOL_INDEX_BOUND`` caps stage sizes (default 48); a
call over either fails with ``bad-command``.  A bound is read once per
call, at its first check, and only where it is checked: ``orbit`` and
``thread`` check both, ``fiber`` and ``indecomp`` the index bound only,
and every other subcommand ignores even a malformed value.  Ordinal
literals nesting deeper than 16, and integer literals past ``int``'s
digit limit, fail with ``representation-overflow`` while they are read;
so does an answer or message that would print an integer past that limit.
"""

import json
import operator
import os
import re
import sys
from functools import cache, lru_cache
from itertools import accumulate
from math import prod
from types import SimpleNamespace

# the layers are read as module attributes, so each runs at its first use
from . import arcs, cohomology, longline, ordinal, parsing, stages, tokens, tower
from .errors import CommandError, DepthBoundError, LongSolError

DEFAULT_DEPTH = 6
DEFAULT_INDEX_BOUND = 48
# each work bound's variable, what it caps, and its default
_BOUNDS = {"LONGSOL_INDEX_BOUND": ("stage size", DEFAULT_INDEX_BOUND),
           "LONGSOL_DEPTH": ("depth", DEFAULT_DEPTH)}


def _int(text):
    """An integer flag value, read by the literals' rule (``parsing``)."""
    try:
        return parsing._parse_int(text, 0)
    except LongSolError:
        raise ValueError("invalid int value: %r" % text) from None


def _check(args, name, size):
    """Fail unless ``size`` is within the bound ``name``, read from the
    environment at its first check in a call and kept in ``args.bounds``."""
    caps, default = _BOUNDS[name]
    if name not in args.bounds:
        raw = os.environ.get(name)
        try:
            bound = default if raw is None else parsing._parse_int(raw, 0)
        except LongSolError:
            raise CommandError("%s must be an integer" % name) from None
        if bound < 1:
            raise CommandError("%s must be positive" % name)
        args.bounds[name] = bound
    bound = args.bounds[name]
    if size > bound:
        raise CommandError("%s %d exceeds %s=%d" % (caps, size, name, bound))


def _mode(args, required=True):
    if args.tower is not None and args.long:
        raise CommandError("choose --tower KAPPA or --long, not both")
    if args.tower is not None:
        if args.tower < 1:
            raise CommandError("--tower takes a level >= 1")
        return tokens.TOWER_MODE, args.tower
    if args.long:
        return tokens.LONG_MODE, None
    if required:
        raise CommandError("choose --tower KAPPA or --long")
    return None, None


def _exponents(args):
    exps = parsing.parse_exponents(args.p)
    for k, size in zip(exps, accumulate(exps, operator.mul)):
        # the first k < 1 makes size <= 0: the bound is read, never tripped
        _check(args, "LONGSOL_INDEX_BOUND", size)
        if k < 1:
            raise CommandError("bonding exponents are positive")
    _check(args, "LONGSOL_DEPTH", len(exps) + 1)
    return exps


def _token_doc(token):
    doc = {"mode": "identity" if token.is_identity else "mapping"}
    if token.kappa is not None:
        doc["kappa"] = token.kappa
    if not token.is_identity:
        doc["source"] = str(token.source)
        doc["target"] = str(token.target)
    return doc


def _recipe_doc(recipe):
    hat = _token_doc(recipe.hat)
    return [
        {"level": level, "rot": rot, "trans": recipe.translate_by, "hat": hat}
        for level, rot in enumerate(recipe.rotations, start=1)
    ]


_LAST3 = []  # "000" to "999", filled by the first listing past 999


def _decimal(r, sep):
    """Pieces that concatenate to ``sep.join(map(str, r))`` for an ascending
    range ``r`` of non-negative integers, written a block of a thousand at a
    time.  The indices from 1000 on that share their leading digits
    ``j // 1000`` print as one ``str()`` of those digits joined to each
    index's last three digits from ``_LAST3``.  Each pass of the loop goes to
    the next non-empty block, so a range costs O(len(r)) whatever its step."""
    step, stop = r.step, r.stop
    below = range(r.start, min(stop, 1000), step)
    pieces = [sep.join(map(str, below))] if below else []
    j = r.start + len(below) * step
    if j < stop and not _LAST3:
        _LAST3[:] = ["%03d" % k for k in range(1000)]
    while j < stop:
        lead, low = divmod(j, 1000)
        head = str(lead)
        cells = _LAST3[low : min(stop - j + low, 1000) : step]
        if pieces:
            pieces.append(sep)
        pieces += (head, (sep + head).join(cells))
        j += len(cells) * step
    return pieces


class _Listing:
    """An answer's strings as the descendants of one point, written on output.

    A listing keeps a text ``root``, a %d ``template``, the ``exponents``
    of its levels and the ``index`` on stage ``n`` they grow from.  By the
    child rule of ``stages``, child c < m of the string of index j on
    stage n appends ``template % (j + c*n)``: a fiber is one level under exponent m with an
    empty root, and a thread extension roots at the thread's text.  A
    listing has one writer, ``json_pieces()``; ``--format text`` reads its
    strings back from that JSON.  JSON escapes one character at a time, so
    the root and template are escaped once.  A last level with one parent
    is one range, which ``_decimal`` writes a thousand indices at a time;
    any other goes to ``_render``'s one join as two pieces per string,
    parent and suffix: no whole string is built."""

    def __init__(self, template, root, exponents, index, n):
        self.template, self.root = template, root
        self.exponents, self.index, self.n = exponents, index, n

    def json_pieces(self):
        """Strings that concatenate to the JSON array of the strings, byte
        for byte as ``json.dumps`` writes it.  No piece joins the strings
        themselves: the document they go into is the one large string."""
        def escape(text):  # as written between a JSON string's quotes
            return json.dumps(text)[1:-1]
        # the strings one level above the last, with their indices
        head, tail = escape(self.template).split("%d")
        strings, indices, n = [escape(self.root)], [self.index], self.n
        for m in self.exponents[:-1]:
            grown, later = [None] * (m * len(strings)), [None] * (m * len(strings))
            for c in range(m):  # child c of each string, every m-th place
                o = c * n
                grown[c::m] = [f"{s}{head}{j + o}{tail}"
                               for s, j in zip(strings, indices)]
                later[c::m] = [j + o for j in indices]
            strings, indices, n = grown, later, n * m
        m = self.exponents[-1]
        if len(strings) == 1:  # the children of one parent: one range
            parent, j = strings[0], indices[0]
            numbers = _decimal(range(j, j + m * n, n), f'{tail}", "{parent}{head}')
            return ['["', parent, head, *numbers, tail, '"]']
        # '["', then per string its parent and its suffix, each suffix
        # followed by '", "', the last one's turned into '"]'
        tail += '", "'
        pieces = ['["'] + [None] * (2 * m * len(strings))
        for c in range(m):
            pieces[1 + 2 * c :: 2 * m] = strings
            pieces[2 + 2 * c :: 2 * m] = [f"{head}{j + c * n}{tail}" for j in indices]
        pieces[-1] = pieces[-1][:-4] + '"]'
        return pieces


def _cmd_ord(args):
    given = sum(value is not None for value in (
        args.expr, args.a, args.add, args.mul, args.cmp, args.omega_pow))
    if args.expr is not None:
        if given != 1:
            raise CommandError("--expr stands alone")
        return {"normal": str(parsing.parse_ordinal(args.expr))}
    if args.omega_pow is not None:
        if given != 1:
            raise CommandError("--omega-pow stands alone")
        return {"result": str(ordinal.omega_pow(parsing.parse_ordinal(args.omega_pow)))}
    if args.a is None or given != 2:
        raise CommandError("give --a with exactly one of --add, --mul, --cmp")
    a = parsing.parse_ordinal(args.a)
    if args.add is not None:
        return {"result": str(ordinal.add(a, parsing.parse_ordinal(args.add)))}
    if args.mul is not None:
        return {"result": str(ordinal.mul(a, parsing.parse_ordinal(args.mul)))}
    b = parsing.parse_ordinal(args.cmp)
    order = ordinal.compare(a, b)
    return {"order": {-1: "less", 0: "equal", 1: "greater"}[order]}


def _cmd_classify(args):
    mode, kappa = _mode(args)
    if mode == tokens.TOWER_MODE:
        point = parsing.parse_tower_point(args.point, kappa)
        return {"kappa": kappa, "type": tower.point_type(point)}
    label = longline.partition_class(parsing.parse_long_point(args.point))
    return {"class": label.kind, "gamma": str(label.gamma)}


def _cmd_orbit(args):
    mode, kappa = _mode(args)
    exps = _exponents(args)
    x = parsing.parse_thread(exps, args.x, mode, kappa)
    y = parsing.parse_thread(exps, args.y, mode, kappa)
    result = stages.synthesize_recipe(x, y)
    doc = {"status": result.status}
    if result.status == tokens.RECIPE:
        recipe = result.recipe
        ok, witness = stages.verify_commutes(recipe, x)
        doc["recipe"] = _recipe_doc(recipe)
        doc["verified"] = ok
        doc["maps_x_to_y"] = stages.apply_recipe(recipe, x) == y
        if witness is not None:
            doc["counterexample"] = {
                key: str(value) for key, value in witness.items()
            }
    return doc


def _cmd_fiber(args):
    if args.m < 1 or args.n < 1:
        raise CommandError("--m and --n are positive")
    _check(args, "LONGSOL_INDEX_BOUND", args.m * args.n)
    joint = args.point.strip().startswith("inf")
    mode, kappa = (None, None) if joint else _mode(args)
    q = parsing.parse_stage_point(args.point, args.n, mode, kappa)
    points = _Listing(stages.point_format(q.inner), "", (args.m,), q.index, q.n)
    return {"stage": args.m * args.n, "points": points}


def _cmd_thread_verify(args):
    mode, kappa = _mode(args, required=False)
    exps = _exponents(args)
    try:
        thread = parsing.parse_thread(exps, args.points, mode, kappa)
    except LongSolError as err:
        if err.code in ("parse-error", "representation-overflow"):
            raise
        return {"valid": False, "reason": str(err)}
    top = stages.stage_size(thread.p, thread.depth)
    return {"valid": True, "depth": thread.depth, "top_stage": top}


def _cmd_thread_extend(args):
    mode, kappa = _mode(args, required=False)
    thread = parsing.parse_thread(_exponents(args), args.points, mode, kappa)
    if args.levels < 1:
        raise CommandError("--levels is positive")
    exps = stages.extension_exponents(thread, args.levels)
    text, top = "; " + stages.point_format(thread.inner), thread.indices[-1]
    n = stages.stage_size(thread.p, thread.depth)
    threads = _Listing(text, str(thread), exps, top, n)
    return {"count": prod(exps), "threads": threads}


def _cmd_indecomp(args):
    if args.n < 1:
        raise CommandError("--n is positive")
    if args.pn < 1:
        raise CommandError("--pn is positive")
    _check(args, "LONGSOL_INDEX_BOUND", args.pn * args.n)
    c_arc = parsing.parse_arc(args.c_arc, args.n)
    g_arc = parsing.parse_arc(args.g_arc, args.n)
    report = arcs.indecomposability_witness(args.pn, args.n, c_arc, g_arc)
    return {
        "multiplicity": report.multiplicity,
        "stage": report.stage,
        "c_components": [str(a) for a in report.c_components],
        "g_components": [str(a) for a in report.g_components],
        "c_separators": [arcs.format_position(p) for p in report.c_separators],
        "g_separators": [arcs.format_position(p) for p in report.g_separators],
        "uncovered": [
            {"c": i, "g": j, "point": arcs.format_position(point)}
            for (i, j), point in report.pair_uncovered
        ],
        "witness": report.witnesses_indecomposability,
    }


def _cmd_chain_check(args):
    if args.n < 1:
        raise CommandError("--n is positive")
    chain = parsing.parse_arc_list(args.arcs, args.n)
    return {"circular": arcs.circular_chain_check(chain)}


def _sup_doc(sup):
    return {
        "finite": {str(prime): mult for prime, mult in sup.finite},
        "infinite": sorted(sup.infinite),
    }


def _cmd_coh_invariant(args):
    descriptor = parsing.parse_descriptor(args.s)
    return _sup_doc(cohomology.supernatural_of(descriptor))


def _cmd_coh_equiv(args):
    a = parsing.parse_descriptor(args.a)
    b = parsing.parse_descriptor(args.b)
    return {"equivalent": cohomology.mccord_equivalent(a, b)}


def _cmd_coh_member(args):
    descriptor = parsing.parse_descriptor(args.s)
    value = parsing.parse_rational(args.r)
    return {"member": cohomology.member(descriptor, value)}


def _cmd_coh_sum(args):
    # only the sum's element is printed, so only its numerator is built
    descriptor = parsing.parse_descriptor(args.s)
    a = cohomology._in_group(descriptor, parsing.parse_rational(args.a))
    b = cohomology._in_group(descriptor, parsing.parse_rational(args.b))
    total = cohomology.dl_of_rational(descriptor, a + b)
    return {
        "level": total.level,
        "numerator": total.numerator,
        "value": str(cohomology.dl_value(descriptor, total)),
    }


def _cmd_coh_degree(args):
    return {"degree": cohomology.h1_action(args.m, args.n)}


_MODE = (
    ("--tower", {"type": _int, "help": "tower level kappa"}),
    ("--long", {"action": "store_true", "help": "long line mode"}),
)
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": _int, "required": True}
_EXPONENTS = ("--p", dict(_REQUIRED, help="bonding exponents k(1),k(2),..."))
_THREAD = (
    _EXPONENTS,
    ("--points", dict(_REQUIRED, help="stage points joined by ';'")),
) + _MODE
_GROUPS = {
    "thread": "thread validity and extension",
    "cohomology": "first Cech cohomology of a solenoid",
}

# One row per leaf subcommand: its path, handler, help, arguments, and the
# library operations it exercises.  The parser and OPERATION_COVERAGE are
# both built from this table, and the test suite audits the coverage so it
# cannot rot: sample argvs of each row call every operation the row names.
COMMANDS = (
    ("ord", _cmd_ord, "ordinal arithmetic in normal form", (
        ("--expr", {"help": "normalize one expression"}),
        ("--a", {"help": "left operand for --add/--mul/--cmp"}),
        ("--add", {"help": "right operand of a sum"}),
        ("--mul", {"help": "right operand of a product"}),
        ("--cmp", {"help": "right operand of a comparison"}),
        ("--omega-pow", {"help": "exponent for w^x"}),
    ), ("ordinal.compare", "ordinal.add", "ordinal.mul", "ordinal.omega_pow")),
    ("classify", _cmd_classify, "type or class of a single point",
     _MODE + (("--point", _REQUIRED),),
     ("longline.is_ng", "longline.partition_class", "tower.point_type")),
    ("orbit", _cmd_orbit, "decide or witness a homeomorphism move", _MODE + (
        _EXPONENTS,
        ("--x", dict(_REQUIRED, help="first thread")),
        ("--y", dict(_REQUIRED, help="second thread")),
    ), ("longline.distinct_orbit_proof", "longline.same_orbit_recipe",
        "tower.same_orbit", "tower.base_automorphism_token", "tower.strip_top",
        "tower.within_copy_hat", "stages.apply_recipe", "stages.verify_commutes",
        "stages.synthesize_recipe")),
    ("fiber", _cmd_fiber, "preimages of a point under a bonding map", (
        ("--m", dict(_REQUIRED_INT, help="covering degree")),
        ("--n", dict(_REQUIRED_INT, help="base stage size")),
        ("--point", _REQUIRED),
    ) + _MODE, ("stages.point_format",)),
    ("thread verify", _cmd_thread_verify, "check a thread against its bonds",
     _THREAD, ("stages.stage_size",)),
    ("thread extend", _cmd_thread_extend, "every extension by more levels",
     _THREAD + (("--levels", {"type": _int, "default": 1}),),
     ("stages.extension_exponents",)),
    ("indecomp", _cmd_indecomp, "two-arc indecomposability witness", (
        ("--pn", dict(_REQUIRED_INT, help="covering multiplicity")),
        ("--n", dict(_REQUIRED_INT, help="base stage size")),
        ("--c-arc", _REQUIRED),
        ("--g-arc", _REQUIRED),
    ), ("arcs.preimage_components", "arcs.uncovered_point",
        "arcs.indecomposability_witness")),
    ("chain-check", _cmd_chain_check, "circular chain adjacency audit", (
        ("--n", _REQUIRED_INT),
        ("--arcs", dict(_REQUIRED, help="comma separated arcs")),
    ), ("arcs.circular_chain_check",)),
    ("cohomology invariant", _cmd_coh_invariant, "supernatural invariant",
     (("--s", dict(_REQUIRED, help="bonding descriptor PREFIX:CYCLE")),),
     ("cohomology.supernatural_of",)),
    ("cohomology equiv", _cmd_coh_equiv, "isomorphic H^1: equal infinite prime sets",
     (("--a", _REQUIRED), ("--b", _REQUIRED)), ("cohomology.mccord_equivalent",)),
    ("cohomology member", _cmd_coh_member, "membership of a rational",
     (("--s", _REQUIRED), ("--r", dict(_REQUIRED, help="rational N/D"))),
     ("cohomology.member",)),
    ("cohomology sum", _cmd_coh_sum, "sum in the direct limit",
     (("--s", _REQUIRED), ("--a", _REQUIRED), ("--b", _REQUIRED)),
     ("cohomology.dl_of_rational", "cohomology.dl_value")),
    ("cohomology degree", _cmd_coh_degree, "degree of a bond on H^1",
     (("--m", _REQUIRED_INT), ("--n", _REQUIRED_INT)), ("cohomology.h1_action",)),
)

OPERATION_COVERAGE = {op: path for path, *_, ops in COMMANDS for op in ops}


_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json",
                        "help": "output style (default json)"})


@cache
def build_parser():
    """The argparse tree of ``COMMANDS``, built once; ``main`` builds it only
    to print help, formatted then, so argparse is imported here alone."""
    import argparse

    parser = argparse.ArgumentParser(prog="longsol", description=__doc__.splitlines()[0])
    parser.add_argument(_FORMAT[0], **_FORMAT[1])
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for path, handler, help_text, arguments, _ in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = subparsers[""].add_parser(
                group, help=_GROUPS[group]
            ).add_subparsers(dest=group + "_command", required=True)
        leaf = subparsers[group].add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            leaf.add_argument(flag, **kwargs)
        leaf.set_defaults(handler=handler)
    return parser


def _parser_table():
    """Each parser of ``build_parser()`` by path ("", "thread", "thread
    verify", ...): {flag: (dest, switch, type, choices)} in argparse's order
    (dest None for help), the (name, dest) pairs it requires, {name: path}
    below it (None at a leaf) and the namespace values it starts from."""
    def parser(arguments, required=(), subcommands=None, **defaults):
        flags = dict.fromkeys(("-h", "--help"), (None, True, None, None))
        for flag, kwargs in arguments:
            dest, switch = flag[2:].replace("-", "_"), kwargs.get("action") == "store_true"
            flags[flag] = dest, switch, kwargs.get("type", str), kwargs.get("choices")
            defaults[dest] = False if switch else kwargs.get("default")
            if kwargs.get("required"):
                required += ((flag, dest),)
        return flags, required, subcommands, defaults

    table = {"": parser((_FORMAT,), (("command", "command"),), {}, command=None)}
    for path, handler, _, arguments, _ in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in table:
            dest = group + "_command"
            table[""][2][group] = group
            table[group] = parser((), ((dest, dest),), {}, **{dest: None})
        table[group][2][name] = path
        table[path] = parser(arguments, handler=handler)
    return table


_PARSERS = _parser_table()
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$").match  # argparse's negative number
_DASHES = (None, "--")  # the first "--": a value only where a subcommand is due


def _sort(path, token):
    """What parser ``path`` takes ``token`` for, by argparse's
    ``_parse_optional``: None for a value, (None,) for an unknown option,
    else (flag, the text given it or None) and its row of ``_PARSERS``."""
    flags = _PARSERS[path][0]
    if token[:1] != "-" or token == "-":
        return None
    flag, sep, explicit = token.partition("=")
    explicit = explicit if sep else None
    if flag in flags:
        if flag == "-h" and explicit:  # -h=h is help and -h=hx fails on "x", as -hx
            explicit = explicit.lstrip("h") or None
        return (flag, explicit) + flags[flag]
    if token[1] == "-":  # a unique prefix of a long flag stands for it
        found = [name for name in flags if name.startswith(flag)]
        if len(found) > 1:
            raise CommandError("ambiguous option: %s could match %s" % (token, ", ".join(found)))
        if found:
            return (found[0], explicit) + flags[found[0]]
    elif token[:2] in flags:  # -hh is help; -hx fails on "x", as in argparse 3.12
        return (token[:2], token[2:].lstrip("h") or None) + flags[token[:2]]
    return None if _NEGATIVE(token) or " " in token else (None,)


_sort_flag = lru_cache(maxsize=256)(_sort)  # for tokens holding no "=", so no "=" value


def _invalid(name, value, choices):
    return CommandError("argument %s: invalid choice: %r (choose from %s)" % (
        name, value, ", ".join(map(repr, choices))))


def _read_args(argv):
    """``build_parser().parse_args(argv)``'s namespace, read by argparse's
    rules from ``_PARSERS``, or None where argparse prints help; a bad argv
    raises ``CommandError`` with argparse's message.  Each parser sorts every
    token, then reads them in order: a flag takes the next token if that is
    a value (``--flag=--`` reads "--", as in argparse 3.13), and the first
    value, or a "--" before one, names the subcommand, whose parser reads
    the rest.  Leftovers fail last, in argv order."""
    path, tokens, values, extras = "", list(argv), {}, []
    while True:
        flags, required, subcommands, defaults = _PARSERS[path]
        values.update(defaults)
        # after the first "--" every token is a value, and a flag before it has none
        head = tokens[:tokens.index("--")] if "--" in tokens else tokens
        kinds = [(_sort if "=" in token else _sort_flag)(path, token)
                 if token[:1] == "-" else None for token in head]
        kinds += [_DASHES] + [None] * len(tokens)
        at = iter(range(len(tokens)))
        for i in at:
            kind = kinds[i]
            if subcommands is not None and (
                    kind is None or kind is _DASHES and i + 1 < len(tokens)):
                name, dest = required[0]
                if tokens[i] not in subcommands:
                    raise _invalid(name, tokens[i], subcommands)
                values[dest] = tokens[i]
                path, tokens = subcommands[tokens[i]], tokens[i + 1:]
                break
            if kind is None or kind[0] is None:
                extras.append(tokens[i])
                continue
            flag, explicit, dest, switch, convert, choices = kind
            if switch:  # help or a store_true flag
                if explicit is not None:
                    raise CommandError("argument %s: ignored explicit argument %r" % (
                        "-h/--help" if dest is None else flag, explicit))
                if dest is None:
                    return None
                values[dest] = True
                continue
            if explicit is None:
                if kinds[i + 1] is not None:
                    raise CommandError("argument %s: expected one argument" % flag)
                explicit = tokens[next(at)]
            try:
                values[dest] = convert(explicit)
            except ValueError as err:
                raise CommandError("argument %s: %s" % (flag, err)) from None
            if choices is not None and explicit not in choices:
                raise _invalid(flag, explicit, choices)
        else:
            missing = ", ".join(name for name, dest in required if values[dest] is None)
            if missing:
                raise CommandError("the following arguments are required: " + missing)
            break
    if extras:
        raise CommandError("unrecognized arguments: %s" % " ".join(extras))
    return SimpleNamespace(**values)


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        return [line for key in sorted(doc)
                for line in _flatten(doc[key], prefix + key + ".")]
    nested = (dict, list, tuple)
    if isinstance(doc, (list, tuple)) and any(isinstance(x, nested) for x in doc):
        return [line for i, item in enumerate(doc)
                for line in _flatten(item, "%s%d." % (prefix, i))]
    if isinstance(doc, _Listing):  # its strings, read back from its one writer
        doc = json.loads("".join(doc.json_pieces()))
    if isinstance(doc, (list, tuple)):
        # scalars, as a listing's are: one line each, by the faster f-string
        return [f"{prefix}{i}: {item}" for i, item in enumerate(doc)]
    return ["%s: %s" % (prefix[:-1], doc)]


def _render(doc, fmt="json"):
    if fmt == "text":
        return "\n".join(_flatten(doc))
    if not any(isinstance(value, _Listing) for value in doc.values()):
        return json.dumps(doc, sort_keys=True)
    # a listing writes its own array and json.dumps each other value; the
    # document is joined once, its first ", " turned into "{"
    pieces = []
    for key, value in sorted(doc.items()):
        pieces += (", ", json.dumps(key), ": ")
        if isinstance(value, _Listing):
            pieces += value.json_pieces()
        else:
            pieces.append(json.dumps(value, sort_keys=True))
    pieces[0] = "{"
    pieces.append("}")
    return "".join(pieces)


def main(argv=None):
    try:
        argv = sys.argv[1:] if argv is None else argv
        # where the reader finds help, argparse prints it and exits 0
        args = _read_args(argv) or build_parser().parse_args(argv)
        args.bounds = {}  # the work bounds read so far in this call
        text, code = _render(args.handler(args), args.format), 0
    except Exception as err:
        if isinstance(err, ValueError) and "integer string conversion" in str(err):
            # int refused to print an integer past its digit limit
            err = DepthBoundError(
                "printed integer longer than %d digits" % sys.get_int_max_str_digits()
            )
        if isinstance(err, LongSolError):
            error, code = {"code": err.code, "message": str(err)}, 1
            if err.position is not None:
                error["position"] = err.position
        else:
            error, code = {"code": "internal", "message": str(err)}, 2
        text = _render({"error": error})
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  As the Python signal docs advise,
        # point stdout at devnull so the flush at exit raises nothing more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
