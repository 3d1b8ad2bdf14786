"""Command line front end.

One subcommand per task family, each declared once in ``COMMANDS``.  An
answer is a single JSON document on stdout (``--format text`` flattens it
to ``key: value`` lines) and exits 0.  Failures print ``{"error": {"code",
"message", "position"?}}`` and exit 1; anything unexpected exits 2.  A
reader that closes stdout early ends the call with exit 1 and no traceback.
Two environment knobs bound the work done per call, and each is checked
before the work it bounds starts: ``LONGSOL_DEPTH`` caps thread depth
(default 6) and ``LONGSOL_INDEX_BOUND`` caps stage sizes (default 48); a
call over either fails with ``bad-command``.  Ordinal literals nesting
deeper than 16, and integer literals past ``int``'s digit limit, fail
with ``representation-overflow`` while they are read; so does an answer
or message that would print an integer past that limit.
"""

import argparse
import json
import operator
import os
import sys
from itertools import accumulate

from . import parsing
from .arcs import circular_chain_check, format_position, indecomposability_witness
from .cohomology import (
    dl_add,
    dl_of_rational,
    dl_value,
    h1_action,
    member,
    mccord_equivalent,
    supernatural_of,
)
from .errors import CommandError, DepthBoundError, LongSolError
from .longline import partition_class
from .ordinal import add, compare, mul, omega_pow
from .stages import (
    LONG_MODE,
    RECIPE,
    TOWER_MODE,
    apply_recipe,
    extension_indices,
    fiber_indices,
    point_format,
    synthesize_recipe,
    verify_commutes,
)
from .tower import point_type

DEFAULT_DEPTH = 6
DEFAULT_INDEX_BOUND = 48


def _int(text):
    """An integer flag value, read by the literals' rule (``parsing``)."""
    try:
        return parsing._parse_int(text, 0)
    except LongSolError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = parsing._parse_int(raw, 0)
    except LongSolError:
        raise CommandError("%s must be an integer" % name) from None
    if value < 1:
        raise CommandError("%s must be positive" % name)
    return value


def _check_stage(size):
    bound = _env_int("LONGSOL_INDEX_BOUND", DEFAULT_INDEX_BOUND)
    if size > bound:
        raise CommandError(
            "stage size %d exceeds LONGSOL_INDEX_BOUND=%d" % (size, bound)
        )


def _check_depth(depth):
    bound = _env_int("LONGSOL_DEPTH", DEFAULT_DEPTH)
    if depth > bound:
        raise CommandError("depth %d exceeds LONGSOL_DEPTH=%d" % (depth, bound))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CommandError(message)


def _mode(args, required=True):
    if args.tower is not None and args.long:
        raise CommandError("choose --tower KAPPA or --long, not both")
    if args.tower is not None:
        if args.tower < 1:
            raise CommandError("--tower takes a level >= 1")
        return TOWER_MODE, args.tower
    if args.long:
        return LONG_MODE, None
    if required:
        raise CommandError("choose --tower KAPPA or --long")
    return None, None


def _exponents(args):
    exps = parsing.parse_exponents(args.p)
    _check_stage(1)  # a bad LONGSOL_INDEX_BOUND is reported before a bad exponent
    for k, size in zip(exps, accumulate(exps, operator.mul)):
        if k < 1:
            raise CommandError("bonding exponents are positive")
        _check_stage(size)
    _check_depth(len(exps) + 1)
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


class _Listing:
    """An answer's strings as one %d template and indices, written on output.

    A fiber (no ``root``) lists ``template % j`` for j in ``indices``.  For a
    thread extension ``indices`` are the levels of ``extension_indices``, each
    extending its parents' strings (``root`` at first) by ``template % j``.
    JSON escapes one character at a time, so ``json()`` escapes both once."""

    def __init__(self, template, indices, root=None):
        self.template, self.indices, self.root = template, indices, root

    def _strings(self, text):
        template = text(self.template)
        if self.root is None:
            return [template % j for j in self.indices]
        strings = [text(self.root)]
        for level in self.indices:
            strings = [strings[i] + template % j for i, j in level]
        return strings

    def __iter__(self):
        return iter(self._strings(str))

    def json(self):
        """The JSON array of the strings, byte for byte as ``json.dumps``."""
        def escape(text):  # as written between a JSON string's quotes
            return json.dumps(text)[1:-1]
        if self.root is None and self.indices:
            head, tail = escape(self.template).split("%d")
            joined = (tail + '", "' + head).join(map(str, self.indices))
            return '["%s%s%s"]' % (head, joined, tail)
        strings = self._strings(escape)
        return '["%s"]' % '", "'.join(strings) if strings else "[]"


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
        return {"result": str(omega_pow(parsing.parse_ordinal(args.omega_pow)))}
    if args.a is None or given != 2:
        raise CommandError("give --a with exactly one of --add, --mul, --cmp")
    a = parsing.parse_ordinal(args.a)
    if args.add is not None:
        return {"result": str(add(a, parsing.parse_ordinal(args.add)))}
    if args.mul is not None:
        return {"result": str(mul(a, parsing.parse_ordinal(args.mul)))}
    b = parsing.parse_ordinal(args.cmp)
    order = compare(a, b)
    return {"order": {-1: "less", 0: "equal", 1: "greater"}[order]}


def _cmd_classify(args):
    mode, kappa = _mode(args)
    if mode == TOWER_MODE:
        point = parsing.parse_tower_point(args.point, kappa)
        return {"kappa": kappa, "type": point_type(point)}
    label = partition_class(parsing.parse_long_point(args.point))
    return {"class": label.kind, "gamma": str(label.gamma)}


def _cmd_orbit(args):
    mode, kappa = _mode(args)
    exps = _exponents(args)
    x = parsing.parse_thread(exps, args.x, mode, kappa)
    y = parsing.parse_thread(exps, args.y, mode, kappa)
    result = synthesize_recipe(x, y)
    doc = {"status": result.status}
    if result.status == RECIPE:
        recipe = result.recipe
        ok, witness = verify_commutes(recipe, x)
        doc["recipe"] = _recipe_doc(recipe)
        doc["verified"] = ok
        doc["maps_x_to_y"] = apply_recipe(recipe, x) == y
        if witness is not None:
            doc["counterexample"] = {
                key: str(value) for key, value in witness.items()
            }
    return doc


def _cmd_fiber(args):
    if args.m < 1 or args.n < 1:
        raise CommandError("--m and --n are positive")
    _check_stage(args.m * args.n)
    joint = args.point.strip().startswith("inf")
    mode, kappa = (None, None) if joint else _mode(args)
    q = parsing.parse_stage_point(args.point, args.n, mode, kappa)
    points = _Listing(point_format(q.inner), fiber_indices(args.m, args.n, q))
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
    return {
        "valid": True,
        "depth": thread.depth,
        "top_stage": thread.points[-1].n,
    }


def _cmd_thread_extend(args):
    mode, kappa = _mode(args, required=False)
    thread = parsing.parse_thread(_exponents(args), args.points, mode, kappa)
    if args.levels < 1:
        raise CommandError("--levels is positive")
    _check_depth(thread.depth + args.levels)
    levels = extension_indices(thread, args.levels)
    text = "; " + point_format(thread.points[0].inner)
    return {"count": len(levels[-1]), "threads": _Listing(text, levels, str(thread))}


def _cmd_indecomp(args):
    if args.n < 1:
        raise CommandError("--n is positive")
    if args.pn < 1:
        raise CommandError("--pn is positive")
    _check_stage(args.pn * args.n)
    c_arc = parsing.parse_arc(args.c_arc, args.n)
    g_arc = parsing.parse_arc(args.g_arc, args.n)
    report = indecomposability_witness(args.pn, args.n, c_arc, g_arc)
    return {
        "multiplicity": report.multiplicity,
        "stage": report.stage,
        "c_components": [str(a) for a in report.c_components],
        "g_components": [str(a) for a in report.g_components],
        "c_separators": [format_position(p) for p in report.c_separators],
        "g_separators": [format_position(p) for p in report.g_separators],
        "uncovered": [
            {"c": i, "g": j, "point": format_position(point)}
            for (i, j), point in report.pair_uncovered
        ],
        "witness": report.witnesses_indecomposability,
    }


def _cmd_chain_check(args):
    if args.n < 1:
        raise CommandError("--n is positive")
    arcs = parsing.parse_arc_list(args.arcs, args.n)
    return {"circular": circular_chain_check(arcs)}


def _sup_doc(sup):
    return {
        "finite": {str(prime): mult for prime, mult in sup.finite},
        "infinite": sorted(sup.infinite),
    }


def _cmd_coh_invariant(args):
    descriptor = parsing.parse_descriptor(args.s)
    return _sup_doc(supernatural_of(descriptor))


def _cmd_coh_equiv(args):
    a = parsing.parse_descriptor(args.a)
    b = parsing.parse_descriptor(args.b)
    return {"equivalent": mccord_equivalent(a, b)}


def _cmd_coh_member(args):
    descriptor = parsing.parse_descriptor(args.s)
    value = parsing.parse_rational(args.r)
    return {"member": member(descriptor, value)}


def _cmd_coh_sum(args):
    descriptor = parsing.parse_descriptor(args.s)
    a = dl_of_rational(descriptor, parsing.parse_rational(args.a))
    b = dl_of_rational(descriptor, parsing.parse_rational(args.b))
    total = dl_add(descriptor, a, b)
    return {
        "level": total.level,
        "numerator": total.numerator,
        "value": str(dl_value(descriptor, total)),
    }


def _cmd_coh_degree(args):
    return {"degree": h1_action(args.m, args.n)}


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
    ) + _MODE, ("stages.fiber_indices", "stages.point_format")),
    ("thread verify", _cmd_thread_verify, "check a thread against its bonds",
     _THREAD, ("stages.stage_size",)),
    ("thread extend", _cmd_thread_extend, "every extension by more levels",
     _THREAD + (("--levels", {"type": _int, "default": 1}),),
     ("stages.extension_indices",)),
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
    ("cohomology equiv", _cmd_coh_equiv, "McCord equivalence of two solenoids",
     (("--a", _REQUIRED), ("--b", _REQUIRED)), ("cohomology.mccord_equivalent",)),
    ("cohomology member", _cmd_coh_member, "membership of a rational",
     (("--s", _REQUIRED), ("--r", dict(_REQUIRED, help="rational N/D"))),
     ("cohomology.member",)),
    ("cohomology sum", _cmd_coh_sum, "sum in the direct limit",
     (("--s", _REQUIRED), ("--a", _REQUIRED), ("--b", _REQUIRED)),
     ("cohomology.dl_of_rational", "cohomology.dl_add", "cohomology.dl_value")),
    ("cohomology degree", _cmd_coh_degree, "degree of a bond on H^1",
     (("--m", _REQUIRED_INT), ("--n", _REQUIRED_INT)), ("cohomology.h1_action",)),
)

OPERATION_COVERAGE = {op: path for path, *_, ops in COMMANDS for op in ops}


def build_parser():
    parser = _Parser(prog="longsol", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output style (default json)",
    )
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


_parser = None  # built by the first main() call: a call uses one leaf of it


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        return [line for key in sorted(doc)
                for line in _flatten(doc[key], prefix + key + ".")]
    nested = (dict, list, tuple)
    if isinstance(doc, (list, tuple)) and any(isinstance(x, nested) for x in doc):
        return [line for i, item in enumerate(doc)
                for line in _flatten(item, "%s%d." % (prefix, i))]
    if isinstance(doc, (list, tuple, _Listing)):
        # scalars, as a listing's are: one line each, by the faster f-string
        return [f"{prefix}{i}: {item}" for i, item in enumerate(doc)]
    return ["%s: %s" % (prefix[:-1], doc)]


def _render(doc, fmt="json"):
    if fmt == "text":
        return "\n".join(_flatten(doc))
    if not any(isinstance(value, _Listing) for value in doc.values()):
        return json.dumps(doc, sort_keys=True)
    # a listing writes its own array; json.dumps writes each other value
    return "{%s}" % ", ".join(
        "%s: %s" % (json.dumps(key), value.json() if isinstance(value, _Listing)
                    else json.dumps(value))
        for key, value in sorted(doc.items())
    )


def main(argv=None):
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
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
