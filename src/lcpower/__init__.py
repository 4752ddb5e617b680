"""Dominant eigenpairs of matrices over Levi-Civita / Puiseux series fields.

The package provides exact-exponent truncated series arithmetic
(:mod:`lcpower.core`), dense linear algebra over it
(:mod:`lcpower.linalg`), a power-iteration eigensolver with valuation
preprocessing (:mod:`lcpower.solver`), and text formats and a CLI
(:mod:`lcpower.textio`, :mod:`lcpower.cli`).  The series arithmetic,
comparison and semi-norms and the loop's vector operations have one
implementation (:mod:`lcpower._lattice`); the product, inverse, square
root and magnitude run there on int exponent keys.
"""

from .core import (INF, LCNumber, as_exponent, compare, conjugate, constant,
                   constant_part, eq_up_to, from_terms, imag_part, invert,
                   is_at_most_finite, is_real, leading_coefficient, magnitude,
                   monomial, real_part, retruncate, semi_norm, shift_exponents,
                   sqrt, t, truncated, valuation, zero)
from .errors import (DegenerateInputError, DomainError, DominanceUncertainError,
                     LCError, LostDominanceError, ParseError, PrecisionError,
                     WindowExceededError)
from .linalg import (Disk, LCMatrix, LCVector, Polynomial,
                     all_eigenvalues_at_most_finite, companion_matrix,
                     gershgorin_disks, matvec, min_valuation, norm_l2, norm_max,
                     norm_max_info, pi_matrix, poly_eval, rayleigh_quotient,
                     scale_by_monomial)
from .solver import (EigenResult, IterationTrace, SolverConfig,
                     estimate_dominant_complex, poly_dominant_root, power_step,
                     precondition, solve, weakly_converged)
from .textio import (parse_config, parse_matrix, parse_polynomial, parse_series,
                     parse_vector, serialize_matrix, serialize_series)

__version__ = "0.1.0"
