# Dominant eigenpair of a small matrix over the series field, compared
# against the closed-form answer from the quadratic formula.
#
# Run:  python3 demos/02_matrix_eigenpair.py

from fractions import Fraction

from lcpower import (SolverConfig, eq_up_to, parse_matrix, serialize_series, solve,
                     sqrt)

A = parse_matrix("2; t\nt; 1")

# The two eigenvalues are (3 +- sqrt(1 + 4 t^2)) / 2; the dominant one is
# 2 + t^2 - t^4 + 2 t^6 - ...
cfg = SolverConfig(truncation=Fraction(8), max_iters=300, tol=1e-13)
result, trace = solve(A, cfg)

print("matrix:")
print("  [[2, t], [t, 1]]")
print("converged      :", result.converged, f"({result.iterations_used} iterations)")
print("eigenvalue     :", serialize_series(result.eigenvalue))
print("eigenvector[0] :", serialize_series(result.eigenvector[0]))
print("eigenvector[1] :", serialize_series(result.eigenvector[1]))
print("residual       :", result.residual)

# The closed form (tr + sqrt(tr^2 - 4 det)) / 2, with the square root's
# binomial series taken to t^8.
tr = A[0][0] + A[1][1]
det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
nu1 = (tr + sqrt(tr * tr - 4 * det, bound=8)) * 0.5
print()
print("closed form    :", serialize_series(nu1))
print("match to t^8   :", eq_up_to(result.eigenvalue, nu1, 8, 1e-9))

# The trace records every step; errors against the final value show the
# geometric convergence, coefficient by coefficient.
cols, rows = trace.error_table()
print()
print("step  " + "  ".join(f"t^{q}".ljust(11) for q in cols[:4]))
for step, errs in rows[::5]:
    print(f"{step:4d}  " + "  ".join(f"{e:.5e}" for e in errs[:4]))

# Matrices with infinitely large or infinitesimal entries are rescaled by
# a power of t first; the eigenvalue is recovered on the original scale.
B = parse_matrix("2*t^(-2); 1\n0; 1*t^(-1)")
res2, _ = solve(B, SolverConfig(truncation=Fraction(6)))
print()
print("matrix with t^(-2) entries -> eigenvalue",
      serialize_series(res2.eigenvalue), f"(valuation shift q0 = {res2.q0})")
