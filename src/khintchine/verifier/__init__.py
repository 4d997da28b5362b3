"""Proof orchestrator: one named check per inequality family.

Every check returns a CheckResult tree whose leaves carry rigorous interval
margins; a composite is proved exactly when all of its children are.  The
grading rules live in result.py.
"""

from .result import (
    FAILED,
    INCONCLUSIVE,
    PROVED,
    CheckResult,
    combine,
    conjunction,
    leaf,
    status_from_margin,
)
from .engine import (
    prove_positive_1d,
    prove_positive_2d,
    subdivision_check,
    lemma_exp_affine,
    lemma_log_le_affine,
    lemma_ln1p_quadratic,
    lemma_neg_log_affine,
    lemma_one_minus_exp_quadratic,
)
from .cond1 import (
    P_BOXES,
    check_case1_polynomials,
    check_case2_convexity,
    check_cond1_monotone,
    check_cond1_sign_at_sigma,
    check_cond1_small_x,
    check_reduction_to_p2,
    d_coefficient,
)
from .cond2 import (
    GAUSS_PIECE_FLOOR,
    GAUSS_PIECE_FLOOR_PRINTED,
    LAMBDA_TAIL_CONST,
    LAMBDA_TAIL_CONST_PRINTED,
    QUAD_MAJORANT_SHIFT,
    QUAD_MAJORANT_SHIFT_PRINTED,
    check_cond2_h2,
    check_cond2_hprime,
    lemma52_piece2_margin,
)
from .npcheck import (
    HYPOTHESIS_P,
    check_conclusion_direct,
    check_fp_convergence,
    check_np_cos_gauss,
    gauss_cos_gap_integral,
    np_generic,
)

__all__ = [
    "CheckResult",
    "PROVED",
    "FAILED",
    "INCONCLUSIVE",
    "combine",
    "conjunction",
    "leaf",
    "status_from_margin",
    "prove_positive_1d",
    "prove_positive_2d",
    "subdivision_check",
    "lemma_exp_affine",
    "lemma_log_le_affine",
    "lemma_ln1p_quadratic",
    "lemma_neg_log_affine",
    "lemma_one_minus_exp_quadratic",
    "P_BOXES",
    "check_cond1_sign_at_sigma",
    "check_cond1_small_x",
    "check_cond1_monotone",
    "check_reduction_to_p2",
    "check_case1_polynomials",
    "check_case2_convexity",
    "d_coefficient",
    "check_cond2_hprime",
    "check_cond2_h2",
    "lemma52_piece2_margin",
    "np_generic",
    "HYPOTHESIS_P",
    "check_np_cos_gauss",
    "check_conclusion_direct",
    "check_fp_convergence",
    "gauss_cos_gap_integral",
    "LAMBDA_TAIL_CONST",
    "LAMBDA_TAIL_CONST_PRINTED",
    "GAUSS_PIECE_FLOOR",
    "GAUSS_PIECE_FLOOR_PRINTED",
    "QUAD_MAJORANT_SHIFT",
    "QUAD_MAJORANT_SHIFT_PRINTED",
]
