"""Exact symbolic toolkit for derivation and duality relations of
multiple zeta values in Hoffman's algebra Q<x,y>."""

from .ncpoly import NcPoly, admissible_words, all_words, is_admissible
from .maps import (
    derivation,
    dn_generator,
    dual_index,
    index_to_word,
    tau,
    tau_word,
    word_to_index,
)
from .series import (
    Series3,
    delta_exp,
    delta_on_series,
    delta_subst,
    divide_by_v_minus_w,
    geometric_inverse,
)
from .identities import (
    IdentityReport,
    conjecture_lhs_series,
    sum_word,
    verify_duality_k1,
    verify_duality_zeta,
    verify_proof_steps,
)
from .span import (
    MembershipCertificate,
    NotInSpanError,
    corollary_check,
    corollary_check_all,
    membership,
    span_basis,
)
from .numeric import EvalResult, z_eval, zeta_eval

__version__ = "0.1.0"

__all__ = [
    "NcPoly",
    "Series3",
    "IdentityReport",
    "MembershipCertificate",
    "NotInSpanError",
    "EvalResult",
    "is_admissible",
    "all_words",
    "admissible_words",
    "tau",
    "tau_word",
    "dn_generator",
    "derivation",
    "index_to_word",
    "word_to_index",
    "dual_index",
    "geometric_inverse",
    "delta_subst",
    "delta_exp",
    "delta_on_series",
    "divide_by_v_minus_w",
    "sum_word",
    "conjecture_lhs_series",
    "verify_duality_zeta",
    "verify_duality_k1",
    "verify_proof_steps",
    "span_basis",
    "membership",
    "corollary_check",
    "corollary_check_all",
    "zeta_eval",
    "z_eval",
    "__version__",
]
