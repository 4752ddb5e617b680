# Locating eigenvalues with Gershgorin disks over the series field, and
# the finiteness check the solver's preprocessing relies on.
#
# Run:  python3 demos/04_gershgorin_disks.py

import numpy as np

from lcpower import (all_eigenvalues_at_most_finite, gershgorin_disks,
                     parse_matrix, pi_matrix, serialize_series)


def report(title, text):
    A = parse_matrix(text)
    disks = gershgorin_disks(A)
    print(title)
    for i, d in enumerate(disks):
        print(f"  disk {i}: center = {serialize_series(d.center)}; "
              f"radius = {serialize_series(d.radius)}")
    print("  all eigenvalues at most finite:",
          all_eigenvalues_at_most_finite(disks))
    return A


report("diagonal matrix", "2; 0\n0; 1")
print()
A = report("matrix with infinitesimal coupling", "2; t\nt; 1")
print()
report("matrix with an infinitely large entry", "1*t^(-1); 0\n0; 1")

# For an at most finite matrix the constant parts of the eigenvalues are
# exactly the eigenvalues of the constant-part matrix.
print()
print("constant part of the coupled matrix:")
B = pi_matrix(A)
print(" ", B.real.tolist())
print("  its eigenvalues:",
      sorted(np.linalg.eigvals(B).real.round(12).tolist(), reverse=True))
print("  (the series eigenvalues 2 + t^2 - ... and 1 - t^2 + ... start there)")
