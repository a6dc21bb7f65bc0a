"""coupledfp: coupled fixed points of mixed monotone maps on ordered metric spaces.

Solve x = F(x, y), y = F(y, x) by Picard iteration of the induced pair map,
and empirically classify F against the hierarchy of contractive conditions
(constant-k contraction, asymmetric banded condition, symmetric banded
condition) with reproducible counterexample witnesses.
"""

from .conditions import (
    check_banach_k,
    check_mixed_monotone,
    check_samet,
    check_strict_contraction,
    check_symmetric_mk,
    delta_from_k,
    estimate_delta_curve,
    reverify_witness,
)
from .errors import (
    CoupledFPError,
    DomainMismatchError,
    InadmissibleStartError,
    InputError,
    SchemaError,
)
from .operators import CoupledOperator, audit_lipschitz, product_T
from .problems import (
    ProblemInstance,
    builtin,
    load_finite,
    make_linear,
    resolve_problem,
    sample_admissible_starts,
)
from .reports import ConditionReport, Witness
from .solver import IterationTrace, StartVerdict, check_start, residual, solve
from .spaces import (
    INCOMPARABLE,
    AuditReport,
    PairPoint,
    SpaceModel,
    audit_space,
    d2,
    finite_space,
    product_leq,
    real_line,
)
from .uniqueness import (
    DiagonalCheck,
    UniquenessReport,
    check_diagonal,
    multi_start_uniqueness,
    probe_comparability,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "ConditionReport",
    "CoupledFPError",
    "CoupledOperator",
    "DiagonalCheck",
    "DomainMismatchError",
    "INCOMPARABLE",
    "InadmissibleStartError",
    "InputError",
    "IterationTrace",
    "PairPoint",
    "ProblemInstance",
    "SchemaError",
    "SpaceModel",
    "StartVerdict",
    "UniquenessReport",
    "Witness",
    "audit_lipschitz",
    "audit_space",
    "builtin",
    "check_banach_k",
    "check_diagonal",
    "check_mixed_monotone",
    "check_samet",
    "check_start",
    "check_strict_contraction",
    "check_symmetric_mk",
    "d2",
    "delta_from_k",
    "estimate_delta_curve",
    "finite_space",
    "load_finite",
    "make_linear",
    "multi_start_uniqueness",
    "probe_comparability",
    "product_T",
    "product_leq",
    "real_line",
    "residual",
    "resolve_problem",
    "reverify_witness",
    "sample_admissible_starts",
    "solve",
]
