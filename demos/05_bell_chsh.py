"""Singlet correlations against local bounds: the original three-setting
inequality, the CHSH combination, and the joint-weight model that can
never beat 2.

The singlet correlator is P(a, b) = -a.b.  Three coplanar settings 120
degrees apart push the signed three-correlator sum to 3/2 against the
local bound 1; the best four settings push S to 2*sqrt(2) against 2.
"""

import numpy as np

import hvlab as hl
from hvlab.kernels import TRINE_A, TRINE_B, TRINE_C

psi = hl.singlet_state()

print("=== perfect anticorrelation ===")
for axis, name in ((np.array([1.0, 0, 0]), "x"), (np.array([0, 0, 1.0]), "z")):
    print(f"  P({name}, {name}) = {hl.qm_correlator(psi, axis, axis):+.6f}")

print()
print("=== original inequality at the trine settings ===")
lhs = hl.bell_original_lhs(psi, TRINE_A, TRINE_B, TRINE_C, 1, 1, 1)
print(f"signed correlator sum = {lhs:.6f}  vs local bound 1  -> violated")

print()
print("=== CHSH at the optimal settings ===")
settings = hl.optimal_chsh_settings()
s = hl.chsh_value(psi, settings)
print(f"S = {s:.9f}   local bound 2   quantum maximum {hl.CHSH_QUANTUM_MAX:.9f}")

print()
print("=== searching over settings finds the same maximum ===")
best, s_star = hl.chsh_optimize(psi, restarts=10, tol=1e-6, seed=0)
print(f"optimizer: S* = {s_star:.9f}  (error {abs(s_star - hl.CHSH_QUANTUM_MAX):.2e})")
print(f"  a  = {np.round(best.a, 4)}   a' = {np.round(best.a_prime, 4)}")
print(f"  b  = {np.round(best.b, 4)}   b' = {np.round(best.b_prime, 4)}")

print()
print("=== random settings never beat the quantum maximum ===")
rng = np.random.default_rng(0)
max_s = max(
    hl.chsh_value(
        psi,
        hl.ChshSettings(
            a=hl.qmath.random_unit3(rng),
            a_prime=hl.qmath.random_unit3(rng),
            b=hl.qmath.random_unit3(rng),
            b_prime=hl.qmath.random_unit3(rng),
        ),
    )
    for _ in range(5000)
)
print(f"max over 5000 random settings: {max_s:.6f} <= {hl.CHSH_QUANTUM_MAX:.6f}")

print()
print("=== any preassigned-outcome weight vector stays classical ===")
rng = np.random.default_rng(1)
max_lhv = 0.0
for _ in range(5000):
    w = rng.random(16)
    max_lhv = max(max_lhv, hl.chsh_from_wigner(w / w.sum()))
vertex = hl.chsh_from_wigner(hl.deterministic_weights(1, 1, 1, -1))
print(f"max over 5000 random weight vectors: {max_lhv:.6f}")
print(f"best deterministic vertex:           {vertex:.6f}  (= local bound)")
