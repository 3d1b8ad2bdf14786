"""Symbolic toolkit for long solenoids.

Exact ordinal arithmetic below epsilon_0, points of the closed long ray
and its finite tower levels, finite covering stages with threads and
verifiable homeomorphism recipes, arc combinatorics for
indecomposability witnesses, and first Cech cohomology of classical
solenoids through supernatural numbers.

Importing the package runs none of its modules.  Each one that holds a
public name (every module but ``cli`` and ``__main__``) is put in
``sys.modules`` and bound here as a lazy module: its spec is made from
its file beside this one, so no path is searched, and ``LazyLoader``
compiles and runs it at the first attribute read (``from .x import y``
reads one; ``from . import x`` does not).  A CLI call therefore runs only
the layers its subcommand reaches, and ``-X importtime`` does not list
them.  A public name is read from its module on first use, through the
module ``__getattr__`` of PEP 562 over ``_PUBLIC``, and ``dir()`` lists
every public name as before.
"""

import sys
from importlib.util import LazyLoader, module_from_spec, spec_from_file_location

# each module and the public names it defines
_PUBLIC = {
    "arcs": "Arc WitnessReport arcs_intersect circular_chain_check format_position "
            "indecomposability_witness preimage_components uncovered_point",
    "cohomology": "DirectLimitElement SequenceDescriptor SupernaturalNumber dl_add "
                  "dl_element dl_of_rational dl_value h1_action inequivalent_family "
                  "mccord_equivalent member supernatural_of",
    "errors": "CommandError DepthBoundError EndpointError InvalidPointError "
              "LevelMismatchError LongSolError NotSameOrbitError ParseError "
              "StageDomainError ThreadMismatchError TokenUndefinedError "
              "UnsupportedTranslationError WitnessInputError",
    "longline": "INTERVAL_KIND NG_KIND NOT_PROVEN PROVEN_DISTINCT SAME UNKNOWN LongPoint "
                "OrbitAnswer OrbitClassLabel distinct_orbit_proof is_ng partition_class "
                "same_orbit_recipe",
    "ordinal": "DEFAULT_DEPTH_BOUND OMEGA ONE ZERO CnfOrdinal add compare mul nat omega_pow",
    "parsing": "parse_arc parse_descriptor parse_long_point parse_ordinal parse_rational "
               "parse_stage_point parse_thread parse_tower_point",
    "stages": "HomeoRecipe StagePoint SynthesisResult Thread apply_recipe extend_thread "
              "fiber stage_size synthesize_recipe verify_commutes",
    "tokens": "IDENTITY_TOKEN IntervalAutToken LONG_MODE RECIPE TOWER_MODE",
    "tower": "MIN Address TowerPoint base_automorphism_token compare_base point_type "
             "same_orbit strip_top within_copy_hat",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}

for _module in _PUBLIC:
    _spec = spec_from_file_location(f"{__name__}.{_module}", f"{__path__[0]}/{_module}.py")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_module] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del sys, LazyLoader, module_from_spec, spec_from_file_location, _module, _spec

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(_HOME.keys() | globals().keys() - {"__dir__", "__getattr__", "_HOME",
                                                     "_PUBLIC"})
