"""Certified arbitrary-precision evaluation of the degree-25 ascent for the
elliptic singular modulus: solve K(k')/K(k) = sqrt(r) at exact rational r,
then climb r -> 25r -> 625r -> ... in closed form, certifying every rung
against independent solves.
"""

from .bigmath_kernel import (
    CertificationError,
    ConvergenceError,
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    SingularModulusRecord,
    agm,
    complement,
    elliptic_K,
    eta_f,
    nome,
    solve_singular_modulus,
    to_big,
)
from .certify import REGISTRY, IdentityEntry, IdentityReport, UsageError, run_suite
from .modular_core import (
    ARecord,
    M5Record,
    a_value,
    closed_form_R,
    descend_a,
    descend_v,
    multiplier_M5,
    rrcf_converged,
    rrcf_truncated,
)
from .quintic_ladder import (
    BranchError,
    LadderStep,
    LadderTrace,
    audit_example_forms,
    g_invariant,
    k_from_kkprime,
    ladder,
    p_map,
    u_defining_residual,
    u_map,
    u_star,
)
from .report import big_to_str, str_to_big

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PrecisionContext",
    "DEFAULT_CONTEXT",
    "DomainError",
    "ConvergenceError",
    "CertificationError",
    "BranchError",
    "UsageError",
    "SingularModulusRecord",
    "ARecord",
    "M5Record",
    "LadderStep",
    "LadderTrace",
    "IdentityEntry",
    "IdentityReport",
    "REGISTRY",
    "to_big",
    "big_to_str",
    "str_to_big",
    "complement",
    "agm",
    "elliptic_K",
    "nome",
    "solve_singular_modulus",
    "eta_f",
    "multiplier_M5",
    "a_value",
    "rrcf_truncated",
    "rrcf_converged",
    "closed_form_R",
    "descend_v",
    "descend_a",
    "u_defining_residual",
    "u_map",
    "u_star",
    "p_map",
    "g_invariant",
    "k_from_kkprime",
    "ladder",
    "audit_example_forms",
    "run_suite",
]
