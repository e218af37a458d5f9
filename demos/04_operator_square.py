"""The 3x3 square of two-qubit operators whose row and column products
trap noncontextual value assignments in a parity contradiction.

Rows multiply to +I; columns to +I, +I, -I.  Any +-1 value table would
make the product of all nine values +1 row-wise and -1 column-wise, so
the exhaustive search over 512 tables comes back empty.
"""

import itertools
import math

import hvlab as hl
from hvlab.kernels import count_sign_assignments

LABELS = [
    ["X(1)", "X(2)", "X(1)X(2)"],
    ["Y(2)", "Y(1)", "Y(1)Y(2)"],
    ["X(1)Y(2)", "X(2)Y(1)", "Z(1)Z(2)"],
]

square = hl.mermin_square()
print("operator grid (particle 1 = left tensor factor):")
for row in LABELS:
    print("   " + " | ".join(f"{label:>9s}" for label in row))

report = hl.mermin_verify(square)
print()
print(f"row products:    {report.row_signs}  (each times identity)")
print(f"column products: {report.col_signs}")
print(f"max deviation from signed identity: {report.max_product_dev:.2e}")
print(f"entries square to identity within:  {report.max_square_dev:.2e}")
print(f"within-line commutators vanish to:  {report.max_commutator:.2e}")

print()
search = hl.mermin_assignment_search()
print(f"assignments checked: {search.n_checked}, satisfying all six constraints: {search.n_satisfying}")
print(
    f"parity of all nine values, row-wise: {math.prod(report.row_signs):+d}, "
    f"column-wise: {math.prod(report.col_signs):+d}"
)

print()
print("relaxing the third column constraint to +1 makes it satisfiable:")
# the grid flattened row by row: row r holds 3r..3r+2, column c holds c, c+3, c+6; every target +1
lines = [range(3 * r, 3 * r + 3) for r in range(3)] + [range(c, 9, 3) for c in range(3)]
relaxed = count_sign_assignments(9, [(line, 1) for line in lines])
print(f"  satisfying assignments: {relaxed.n_satisfying}")
example = next(
    values
    for values in itertools.product((1, -1), repeat=9)
    if all(values[3 * r] * values[3 * r + 1] * values[3 * r + 2] == 1 for r in range(3))
    and all(values[c] * values[c + 3] * values[c + 6] == 1 for c in range(3))
)
print("  one of them:", example)
