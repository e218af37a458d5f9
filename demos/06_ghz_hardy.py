"""Nonlocality without inequalities: the three-qubit parity trap and the
two-qubit construction with a classically forbidden joint outcome.

GHZ: the state (|000> - |111>)/sqrt(2) satisfies three X Y Y parity
identities with value +1 and the X X X identity with value -1, but +-1
assignments force the product of the first three to equal the fourth.

Hardy: a two-qubit state built so that three joint outcomes are exactly
forbidden, yet the fourth, which classical reasoning would also forbid,
occurs with probability up to 1/golden_ratio^5 = 0.0901699...
"""

import hvlab as hl

print("=== GHZ parity identities ===")
for name, dev in hl.ghz_stabilizer_deviations().items():
    sign = "-1" if name == "xxx" else "+1"
    print(f"  {name.upper():4s} acts as {sign} on the state (deviation {dev:.1e})")

search = hl.ghz_assignment_search()
print(f"local value assignments checked: {search.n_checked}, surviving: {search.n_satisfying}")
flipped = hl.ghz_assignment_search(xxx_target=1)
print(f"with the XXX constraint flipped to +1: {flipped.n_satisfying} survive")

print()
print("=== Hardy construction ===")
construction = hl.hardy_build(0.5, 0.5)
print(f"p1 = p2 = 0.5:   forbidden-outcome probability p = {construction.p:.9f} (= 1/12)")
print(f"orthogonality residuals: {[f'{r:.1e}' for r in construction.condition_residuals]}")

inv_tau = 1.0 / hl.GOLDEN_RATIO
construction = hl.hardy_build(inv_tau, inv_tau)
print(f"p1 = p2 = 1/tau: p = {construction.p:.9f} (= tau^-5)")

print()
print("probability surface is symmetric with a single interior peak:")
for p1 in (0.3, 0.5, inv_tau, 0.8):
    row = "  ".join(f"{hl.hardy_probability(p1, p2):.5f}" for p2 in (0.3, 0.5, inv_tau, 0.8))
    print(f"  p1 = {p1:.3f}:  {row}")

params, p_max = hl.hardy_optimize(grid=60)
print()
print(f"optimizer argmax: p1 = {params.p1:.7f}, p2 = {params.p2:.7f}")
print(f"golden ratio inverse:  {inv_tau:.7f}")
print(f"maximum probability:   {p_max:.7f}  vs tau^-5 = {hl.GOLDEN_RATIO**-5:.7f}")
