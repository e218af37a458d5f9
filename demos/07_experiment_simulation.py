"""Finite-statistics correlation experiments: a visibility-dimmed quantum
source versus Einstein-local strategies, plus the no-signalling identity.

With visibility V the simulated S concentrates near V * 2*sqrt(2); the
value 0.9546 reproduces the 2.70 figure quoted for real polarizer pairs
with about 1% channel asymmetry.  Local strategies never push S past 2.
"""

import numpy as np

import hvlab as hl

settings = hl.optimal_chsh_settings()

print("=== quantum source at different visibilities ===")
for visibility in (1.0, 0.9546, 0.7, 0.0):
    report = hl.simulate_chsh(
        hl.ExperimentConfig(
            settings=settings, n_pairs=10**6, visibility=visibility, seed=42
        )
    )
    print(
        f"  V = {visibility:.4f}:  S = {report.s_value:.4f} +- {report.s_stderr:.4f}"
        f"   (expected {report.s_expected:.4f})"
    )
print("  note: apparatus asymmetry is modeled as one scalar visibility, the Werner-state weight V")

print()
print("=== Einstein-local strategies stay classical ===")
for strategy in (hl.sign_strategy(), hl.constant_strategy()):
    report = hl.simulate_lhv(strategy, settings, 10**6, seed=7)
    # the local bound 2 is the report's s_expected; s_model_stderr cannot collapse to 0
    within = report.s_value <= report.s_expected + 5 * report.s_model_stderr
    print(
        f"  {strategy.name:9s}  S = {report.s_value:.4f} +- {report.s_stderr:.4f}"
        f"   S <= {report.s_expected:g} + 5 * {report.s_model_stderr:.4f}: {within}"
    )

print()
print("=== perfect anticorrelation survives in the local model ===")
equal = hl.ChshSettings(a=(0, 0, 1), a_prime=(1, 0, 0), b=(0, 0, 1), b_prime=(0, 1, 0))
report = hl.simulate_lhv(hl.sign_strategy(), equal, 10**5, seed=9)
print(f"  P(a, a) = {report.correlators['ab']:+.6f} exactly")

print()
print("=== same seed, same report ===")
config = hl.ExperimentConfig(settings=settings, n_pairs=10**5, visibility=1.0, seed=5)
again = hl.ExperimentConfig(settings=settings, n_pairs=10**5, visibility=1.0, seed=5)
print(f"  bit-identical reports: {hl.simulate_chsh(config) == hl.simulate_chsh(again)}")

print()
print("=== measuring one side never shifts the other side's expectations ===")
rng = np.random.default_rng(11)
eye2 = np.eye(2, dtype=complex)
max_dev = 0.0
for _ in range(200):
    rho = hl.qmath.random_density(rng, 4)
    a_obs = np.kron(hl.sigma_dot(hl.qmath.random_unit3(rng)), eye2)
    b_hat = hl.qmath.random_unit3(rng)
    projs = [
        np.kron(eye2, 0.5 * (eye2 + hl.sigma_dot(b_hat))),
        np.kron(eye2, 0.5 * (eye2 - hl.sigma_dot(b_hat))),
    ]
    max_dev = max(max_dev, hl.no_signalling_check(rho, a_obs, projs))
print(f"  max deviation over 200 random arrangements: {max_dev:.2e}")
