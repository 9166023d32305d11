"""Exact symbolic toolkit for derivation and duality relations of
multiple zeta values in Hoffman's algebra Q<x,y>.

Every public name, and every submodule such as ``mzvkit.span``, is
imported on first access (PEP 562), so a program, or a command-line run,
loads only the layers it uses."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_LAYERS = {
    "ncpoly": ("NcPoly", "is_admissible", "all_words", "admissible_words"),
    "maps": (
        "tau",
        "tau_word",
        "dn_generator",
        "derivation",
        "index_to_word",
        "word_to_index",
        "dual_index",
        "sum_word",
    ),
    "series": (
        "Series3",
        "geometric_inverse",
        "delta_subst",
        "delta_exp",
        "delta_on_series",
        "divide_by_v_minus_w",
    ),
    "identities": (
        "IdentityReport",
        "conjecture_lhs_series",
        "verify_duality_zeta",
        "verify_duality_k1",
        "verify_proof_steps",
    ),
    "span": (
        "MembershipCertificate",
        "NotInSpanError",
        "span_basis",
        "membership",
        "corollary_check",
        "corollary_check_all",
    ),
    "numeric": ("EvalResult", "zeta_eval", "z_eval"),
}
_HOME = {name: module for module, names in _LAYERS.items() for name in names}
_SUBMODULES = {*_LAYERS, "cli"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
