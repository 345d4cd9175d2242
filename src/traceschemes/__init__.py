"""Anti-collusion key-distribution set systems: traceability schemes,
parent-identifying set systems and cover-free families.

The package constructs the known optimal families, decides the defining
properties exactly (with independently checkable witnesses), evaluates
every size bound in exact rational arithmetic, and cross-checks bounds
against exhaustive optimum search at desk scale.
"""

from .bounds import (
    BoundReport,
    BoundValue,
    InconsistentBounds,
    binom,
    bound_report,
    cff_upper_eff,
    cff_upper_new,
    cff_upper_special,
    ipps_upper_collins,
    ipps_upper_new,
    minimal_config_size_bound,
    own_subset_min_count,
    render_bound_report,
    ts_exact_small,
    ts_lower_packing,
    ts_lower_trivial,
    ts_upper_collins,
    ts_upper_general,
    ts_upper_special,
    ts_upper_sw,
)
from .construct import (
    CongruenceViolated,
    ExtensionCertificate,
    NotADesign,
    ag_lines,
    design_max_strength,
    extend_design,
    greedy_packing_ts,
    hermitian_unital,
    inversive_plane,
    pg_lines,
    trivial_ts,
)
from .core import (
    BudgetExceeded,
    DuplicateBlock,
    FormatError,
    NonUniformBlocks,
    OwnSubsetReport,
    ParamsInvalid,
    PointOutOfRange,
    SchemeError,
    SchemeParams,
    SetSystem,
    TauOutOfRange,
    enumerate_own_subsets,
    new_set_system,
    parse_set_system,
    render_set_system,
)
from .gf import GF, SUPPORTED_ORDERS, UnsupportedFieldOrder, gf
from .oracle import (
    ConfigCheck,
    CrossCheck,
    MinimalConfigTooLarge,
    ProofTraceIpps,
    ProofTraceTs,
    SearchResult,
    TraceBlocked,
    check_configuration,
    cross_check_bounds,
    exhaustive_optimal,
    ipps_violation_from_missing_own_subsets,
    ts_violation_from_cff_failure,
)
from .verify import (
    CERTIFIED,
    EXHAUSTIVE,
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    CffCover,
    IppsAmbiguity,
    TsEvasion,
    VerifyOutcome,
    check_witness,
    parse_witness,
    render_witness,
    verify_cff,
    verify_design,
    verify_ipps,
    verify_ipps_star,
    verify_packing,
    verify_ts,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
