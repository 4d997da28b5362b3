"""Rigorous verification of the optimal upper Khintchine constant on 2 < p < 3.

The package certifies, with outward-rounded interval arithmetic, every
numerical inequality in the distribution-function proof that
B_p = sqrt(2) (Gamma((p+1)/2)/sqrt(pi))^(1/p) is the best possible upper
constant, and cross-checks the conclusion with exact Rademacher-moment
enumeration.
"""

__version__ = "0.1.0"

from .interval import Interval, DomainError, IntervalError, pow_real
from .distfn import MeasureParams
from .quad import QuadResult, integrate, tail_bound_mu_p
from .specfun import b_constant

__all__ = [
    "__version__",
    "Interval",
    "DomainError",
    "IntervalError",
    "pow_real",
    "MeasureParams",
    "QuadResult",
    "integrate",
    "tail_bound_mu_p",
    "b_constant",
]
