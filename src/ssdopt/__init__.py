"""Exact-arithmetic construction and E(s^2) certification of two-level
supersaturated designs built from orthogonal arrays and their two-column
interactions."""

from types import ModuleType as _ModuleType

from .builder import (
    FAMILIES,
    FULL,
    INTERACTIONS_ONLY,
    MINUS_ONE,
    SINGLE_PARENT,
    SsdBuild,
    SsdFamily,
    build_full,
    build_interactions_only,
    build_minus_one,
    build_single_parent,
    j_terms,
)
from .core import (
    DEFAULT_MAX_ORDER,
    AliasedPairs,
    ColumnLabel,
    SignMatrix,
    aliasing_report,
    drop_columns,
    hadamard_design,
    hadamard_matrix,
    normalize,
    paley_hadamard,
    sylvester_hadamard,
    to_hadamard_design,
    verify_oa_strength2,
)
from .designio import (
    CsvFormatError,
    decimal_str,
    design_csv_text,
    dump_json,
    evaluate_report,
    fraction_json,
    json_text,
    parse_design_csv,
    read_design_csv,
    report_json,
    sidecar_json,
    write_design_csv,
)
from .es2 import (
    D_of,
    Decomposition,
    OptimalityReport,
    bound_details,
    decompose_m,
    es2_closed_form,
    es2_direct,
    es2_via_j,
    lower_bound,
    verdict,
)
from .spectral import (
    DistanceDistribution,
    GwpVector,
    d_parameter,
    distance_distribution,
    filtered_sums,
    gwp_via_krawtchouk,
    krawtchouk,
    sum_j_squared,
    sum_j_squared_filtered,
)
from .verify import (
    CheckResult,
    verify_lemma1,
    verify_lemma2,
    verify_theorems,
)

__version__ = "0.1.0"

#: The names imported above; the submodules they bind are not exported.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
