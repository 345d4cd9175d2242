"""Anti-collusion key-distribution set systems: traceability schemes,
parent-identifying set systems and cover-free families.

The package constructs the known optimal families, decides the defining
properties exactly (with independently checkable witnesses), evaluates
every size bound in exact rational arithmetic, and cross-checks bounds
against exhaustive optimum search at desk scale.

Each submodule loads on first use.  Importing the package registers
``core``, ``gf``, ``verify``, ``bounds``, ``construct`` and ``oracle`` in
``sys.modules`` behind :class:`importlib.util.LazyLoader`; a module's source
is compiled and run at the first read of any attribute of it (``vars()``
included).  So a process compiles only the modules it runs.  The names in
``__all__`` resolve through their owning module on every read (PEP 562),
so ``traceschemes.verify_ts`` is always ``traceschemes.verify.verify_ts``.

Python 3.11's lazy module takes no lock: two threads that first touch the
same module at once could both execute it.  No code in ``src/``,
``perfbench/`` or ``bench/`` does; touch a module once before threads
share it.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

_EXPORTS = {
    "bounds": (
        "BoundReport", "BoundValue", "InconsistentBounds", "binom", "bound_report",
        "cff_upper_eff", "cff_upper_new", "cff_upper_special", "ipps_upper_collins",
        "ipps_upper_new", "minimal_config_size_bound", "own_subset_min_count",
        "render_bound_report", "ts_exact_small", "ts_lower_packing", "ts_lower_trivial",
        "ts_upper_collins", "ts_upper_general", "ts_upper_special", "ts_upper_sw",
    ),
    "construct": (
        "CongruenceViolated", "ExtensionCertificate", "NotADesign", "ag_lines",
        "design_max_strength", "extend_design", "greedy_packing_ts", "hermitian_unital",
        "inversive_plane", "pg_lines", "trivial_ts",
    ),
    "core": (
        "BudgetExceeded", "DuplicateBlock", "FormatError", "NonUniformBlocks",
        "OwnSubsetReport", "ParamsInvalid", "PointOutOfRange", "SchemeError", "SchemeParams",
        "SetSystem", "TauOutOfRange", "enumerate_own_subsets", "new_set_system",
        "parse_set_system", "render_set_system",
    ),
    "gf": ("GF", "SUPPORTED_ORDERS", "UnsupportedFieldOrder", "gf"),
    "oracle": (
        "ConfigCheck", "CrossCheck", "MinimalConfigTooLarge", "ProofTraceIpps",
        "ProofTraceTs", "SearchResult", "TraceBlocked", "check_configuration",
        "cross_check_bounds", "exhaustive_optimal", "ipps_violation_from_missing_own_subsets",
        "ts_violation_from_cff_failure",
    ),
    "verify": (
        "CERTIFIED", "EXHAUSTIVE", "HOLDS", "INCONCLUSIVE", "VIOLATED", "CffCover",
        "IppsAmbiguity", "TsEvasion", "VerifyOutcome", "check_witness", "parse_witness",
        "render_witness", "verify_cff", "verify_design", "verify_ipps", "verify_ipps_star",
        "verify_packing", "verify_ts",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

for _name in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    if _name != "gf":  # the package's gf is the field constructor gf()
        globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    # Not cached here: a wrapper later set on the owning module must show.
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules[f"{__name__}.{module}"], name)


def __dir__():
    return sorted({*globals(), *_OWNER})


__version__ = "0.1.0"

__all__ = sorted([*_OWNER, *(name for name in _EXPORTS if name != "gf")])
