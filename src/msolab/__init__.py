"""msolab: model-space operator laboratory.

Numerical realizations of truncated and dual truncated Toeplitz operators
for finite Blaschke products: exact-band Laurent arithmetic, model-space
projections and conjugations, block compressions on complement sections,
membership checks with symbol recovery, and the rank-one/rank-two
annihilator calculus. See the README for the CLI and the JSON formats.
"""

from .annihilate import (FiniteRankOperator, dual_transitivity_probe, gen_M,
                         gen_shift_pair, pair, represent_functional,
                         trace_norm, transitivity_probe)
from .bases import OrthonormalBasis
from .characterize import (DefectReport, check_adtto, check_block_conditions,
                           is_analytic_adtto, recover_symbol,
                           shift_invariance_defect,
                           solve_shift_invariant_space)
from .errors import AdmissibilityError, DimensionError, InputError, MsolabError
from .inner import BlaschkeProduct, expand, monomial_inner, tm_basis, verify_inner
from .laurent import (LaurentPolynomial, conj_function, inner_product,
                      involution_J, minus_part, multiply, plus_part,
                      project_band)
from .operators import (BlockOperator, DenseComplexMatrix, SymbolFunction,
                        build_dtto, build_tto, split_blocks)
from .rng import Xoshiro256StarStar
from .spaces import admissible_for_shift, basis_Kperp, conjugation_C, project
from .suites import SuiteConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "BlaschkeProduct", "BlockOperator", "DefectReport",
    "DenseComplexMatrix", "DimensionError", "FiniteRankOperator",
    "InputError", "LaurentPolynomial", "MsolabError",
    "OrthonormalBasis", "SuiteConfig", "SymbolFunction",
    "Xoshiro256StarStar", "admissible_for_shift", "basis_Kperp",
    "build_dtto", "build_tto", "check_adtto", "check_block_conditions",
    "conj_function", "conjugation_C", "dual_transitivity_probe", "expand",
    "gen_M", "gen_shift_pair", "inner_product", "involution_J",
    "is_analytic_adtto", "minus_part", "monomial_inner", "multiply", "pair",
    "plus_part", "project", "project_band", "recover_symbol",
    "represent_functional", "run_suite", "shift_invariance_defect",
    "solve_shift_invariant_space", "split_blocks", "tm_basis", "trace_norm",
    "transitivity_probe", "verify_inner", "__version__",
]
