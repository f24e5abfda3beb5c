"""msolab: model-space operator laboratory.

Numerical realizations of truncated and dual truncated Toeplitz operators
for finite Blaschke products: exact-band Laurent arithmetic, model-space
projections and conjugations, block compressions on complement sections,
membership checks with symbol recovery, and the rank-one/rank-two
annihilator calculus. See the README for the CLI and the JSON formats.

The names below are loaded from their submodule on first use (PEP 562),
so `import msolab` itself loads no numpy and sets nothing.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS = {
    "annihilate": ("FiniteRankOperator", "gen_M", "gen_shift_pair", "pair",
                   "represent_functional", "transitivity_probe"),
    "bases": ("OrthonormalBasis",),
    "characterize": ("DefectReport", "check_adtto", "check_block_conditions",
                     "is_analytic_adtto", "recover_symbol",
                     "shift_invariance_defect", "solve_shift_invariant_space"),
    "errors": ("AdmissibilityError", "DimensionError", "InputError", "MsolabError"),
    "inner": ("BlaschkeProduct", "expand", "monomial_inner", "tm_basis", "verify_inner"),
    "laurent": ("LaurentPolynomial", "conj_function", "inner_product",
                "involution_J", "minus_part", "multiply", "plus_part",
                "project_band"),
    "operators": ("BlockOperator", "DenseComplexMatrix", "SymbolFunction",
                  "build_dtto", "build_tto", "split_blocks"),
    "rng": ("Xoshiro256StarStar",),
    "spaces": ("admissible_for_shift", "basis_Kperp", "conjugation_C", "project"),
    "suites": ("SuiteConfig", "run_suite"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNERS, "__version__"]


def __getattr__(name):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
