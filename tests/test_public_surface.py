"""The public names of the package, and the names the benchmark relies on.

``bench/`` resolves library functions by name (the tracer wraps them with
``getattr``), imports values from ``longsol`` and reads ``longsol.cli``'s
default bounds; a removal or rename that breaks it would otherwise surface
only in ``python3 -m pytest bench``.  The package runs a module at the
first read of one of its attributes, so the last test pins which modules
each subcommand runs in a fresh interpreter.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import longsol
from golden_replay import load
from longsol.cli import COMMANDS
from longsol.errors import Record

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

PUBLIC = [
    "Address", "Arc", "CnfOrdinal", "CommandError", "DEFAULT_DEPTH_BOUND",
    "DepthBoundError", "DirectLimitElement", "EndpointError", "HomeoRecipe",
    "IDENTITY_TOKEN", "INTERVAL_KIND", "IntervalAutToken", "InvalidPointError",
    "LONG_MODE", "LevelMismatchError", "LongPoint",
    "LongSolError", "MIN", "NG_KIND", "NOT_PROVEN", "NotSameOrbitError",
    "OMEGA", "ONE", "OrbitAnswer", "OrbitClassLabel", "PROVEN_DISTINCT",
    "ParseError", "RECIPE", "SAME", "SequenceDescriptor", "StageDomainError",
    "StagePoint", "SupernaturalNumber", "SynthesisResult", "TOWER_MODE",
    "Thread", "ThreadMismatchError", "TokenUndefinedError", "TowerPoint",
    "UNKNOWN", "UnsupportedTranslationError", "WitnessInputError",
    "WitnessReport", "ZERO", "add", "apply_recipe",
    "arcs_intersect", "base_automorphism_token", "circular_chain_check",
    "compare", "compare_base", "distinct_orbit_proof", "dl_add", "dl_element",
    "dl_of_rational", "dl_value", "extend_thread", "fiber", "format_position",
    "h1_action", "indecomposability_witness", "inequivalent_family", "is_ng",
    "mccord_equivalent", "member", "mul", "nat", "omega_pow",
    "parse_arc", "parse_descriptor", "parse_long_point", "parse_ordinal",
    "parse_rational", "parse_stage_point", "parse_thread", "parse_tower_point",
    "partition_class", "point_type", "preimage_components", "same_orbit",
    "same_orbit_recipe", "stage_size", "strip_top", "supernatural_of",
    "synthesize_recipe", "uncovered_point", "verify_commutes",
    "within_copy_hat",
]


# Every name tests/reference_models.py imports from the library, with the
# reason its oracles may share it.  An oracle that imported the routine it
# checks would agree with any mistake in it.
RECORD = "a record: a value the models build, not a routine under test"
ORACLE_SHARES = {
    "Address": RECORD, "Arc": RECORD, "CnfOrdinal": RECORD, "DirectLimitElement": RECORD,
    "StagePoint": RECORD, "Thread": RECORD, "TowerPoint": RECORD, "WitnessReport": RECORD,
    "ZERO": "an ordinal value", "nat": "builds an ordinal value",
    "ONE": "an ordinal value", "OMEGA": "an ordinal value",
    "DEFAULT_DEPTH_BOUND": "the nesting bound the literal oracle enforces, a constant",
    "add": "the literal oracle sums its terms; add is checked against the "
           "vector model in test_ordinal, the oracle checks the grammar",
    "ParseError": "an error, raised with the library's message",
    "DepthBoundError": "an error, raised with the library's message",
    "TokenUndefinedError": "an error, raised with the library's message",
    "UnsupportedTranslationError": "an error, raised with the library's message",
    "stage_size": "the product of earlier exponents, the shape every model walks",
    "parse_stage_point": "ref_parse_thread checks the printed-form reader against "
                         "one parse_stage_point call per level, not the literal grammar",
    "point_format": "the renderer oracles knowingly share the template",
    "CommandError": "an error, raised with argparse's message",
    "cli": "ref_parse_args runs argparse over cli.build_parser()'s tree: it "
           "shares the COMMANDS table and cli._int's integer rule, not the reader",
}


def test_oracles_import_only_listed_names():
    tree = ast.parse((ROOT / "tests" / "reference_models.py").read_text())
    shared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "longsol"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "longsol":
            shared.update(alias.name for alias in node.names)
    assert shared == set(ORACLE_SHARES)


def test_public_names_are_pinned():
    # submodules join the namespace as they are imported, so they are left out
    public = sorted(
        name for name in dir(longsol)
        if not name.startswith("_")
        and not isinstance(getattr(longsol, name), types.ModuleType)
    )
    assert public == PUBLIC


def bench_tracing():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")  # standard library only
    finally:
        sys.path.remove(str(BENCH))


def test_bench_resolves_every_traced_name():
    tracing = bench_tracing()
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module("longsol." + layer)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, (layer, missing)
    for layer, cls_name in tracing.BUILT_COUNTERS:
        cls = getattr(importlib.import_module("longsol." + layer), cls_name)
        assert "__post_init__" in vars(cls), cls_name
    # every other record checks and stores its fields in __init__ alone
    assert {
        (cls.__module__.removeprefix("longsol."), cls.__name__)
        for cls in Record.__subclasses__() if "__post_init__" in vars(cls)
    } == set(tracing.BUILT_COUNTERS)
    tree = ast.parse((BENCH / "oracle.py").read_text())
    imported = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "longsol"
        for alias in node.names
    ]
    assert imported
    assert not [name for name in imported if not hasattr(longsol, name)]
    # run.py reads the default bounds, and it and child.py call main, off
    # the module bound to ``cli`` or ``self.cli``
    read = set()
    for script in ("run.py", "child.py"):
        read.update(
            node.attr for node in ast.walk(ast.parse((BENCH / script).read_text()))
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", getattr(node.value, "attr", None)) == "cli"
        )
    assert {"DEFAULT_DEPTH", "DEFAULT_INDEX_BOUND", "main"} <= read
    cli = importlib.import_module("longsol.cli")
    assert not [name for name in read if not hasattr(cli, name)]


def test_cli_import_loads_every_layer_and_no_dataclasses():
    # the tracer patches each layer module in sys.modules right after
    # ``import longsol.cli``; dataclasses, with the inspect it imports,
    # would add about 10 ms to every cold call and no answer uses them;
    # argparse (with gettext) is imported only to print help
    code = "import sys, longsol.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert not {"dataclasses", "inspect", "argparse", "gettext"} & loaded
    assert {"longsol." + layer for layer in bench_tracing().LAYER_FUNCTIONS} <= loaded


# The library modules the first golden argv of each leaf (a README example)
# runs beside the ones every call runs, and whether it imports fractions.
EVERY_CALL = ("cli", "errors", "ordinal", "parsing")
STAGES = "longline stages tokens tower"
LAYERS_RUN = {
    "ord": ("", False),
    "classify": ("tokens tower", True),
    "orbit": (STAGES, True),
    "fiber": (STAGES, True),
    "thread verify": (STAGES, True),
    "thread extend": (STAGES, True),
    "indecomp": ("arcs", True),
    "chain-check": ("arcs", True),
    "cohomology invariant": ("cohomology", False),
    "cohomology equiv": ("cohomology", False),
    "cohomology member": ("cohomology", True),
    "cohomology sum": ("cohomology", True),
    "cohomology degree": ("cohomology", False),
}
RAN = """import json, sys, types
from longsol.cli import main
code = main(sys.argv[1:])
ran = sorted(name[8:] for name, module in sys.modules.items()
             if name.startswith("longsol.") and type(module) is types.ModuleType)
print(json.dumps([code, ran, "fractions" in sys.modules]), file=sys.stderr)
"""


def test_each_leaf_runs_only_the_layers_it_reaches():
    # a layer is registered lazily and runs at its first attribute read;
    # until then it is an instance of a subclass of ModuleType
    assert set(LAYERS_RUN) == {path for path, *_ in COMMANDS}
    env = {k: v for k, v in os.environ.items() if not k.startswith("LONGSOL_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    entries = [entry for entry in load() if not entry["env"]]
    for path, (layers, fractions) in LAYERS_RUN.items():
        entry = next(entry for entry in entries
                     if entry["argv"][:path.count(" ") + 1] == path.split())
        run = subprocess.run([sys.executable, "-S", "-c", RAN, *entry["argv"]], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout == entry["stdout"], path
        assert json.loads(run.stderr) == [
            entry["code"], sorted((*EVERY_CALL, *layers.split())), fractions], path
