"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (bypassing capture) and asserts.
Run the whole suite with `pytest tests/test_acceptance.py -v`.
"""

import time

import numpy as np

import hvlab as hl
from hvlab.qmath import projector, random_density, random_state, random_unit3

TWO_SQRT_TWO = 2.0 * np.sqrt(2.0)
INV_TAU = 1.0 / hl.GOLDEN_RATIO


def _report(capsys, num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"{tag}  criterion {num:2d}: {desc}{detail}")
    assert ok, f"criterion {num}: {desc}{detail}"


def test_criterion_01_bell_hv_model_fidelity(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    max_err = 0.0
    for _ in range(10**4):
        alpha = rng.normal()
        beta = rng.normal(size=3)
        psi = random_state(rng, 2)
        got = hl.bell_hv_average_exact(alpha, beta, psi)
        want = alpha + hl.expectation(projector(psi), hl.pauli_obs(0.0, beta))
        max_err = max(max_err, abs(got - want))
    mc_ok = True
    cases = [(0.0, np.array([1.0, 0, 0]), np.array([1, 0], dtype=complex)),
             (1.0, np.array([1.0, 1.0, 0]), np.array([1, 0], dtype=complex)),
             (rng.normal(), rng.normal(size=3), random_state(rng, 2))]
    for alpha, beta, psi in cases:
        est, err = hl.bell_hv_average_mc(alpha, beta, psi, 10**6, seed=11)
        exact = hl.bell_hv_average_exact(alpha, beta, psi)
        mc_ok &= abs(est - exact) <= 5 * err if err > 0 else est == exact
    elapsed = time.perf_counter() - start
    ok = max_err <= 1e-10 and mc_ok and elapsed < 10.0
    _report(capsys, 1, "hidden-variable averages reproduce quantum expectations",
            ok, f" (max err {max_err:.2e}, {elapsed:.1f}s)")


def test_criterion_02_eigenvalue_non_additivity(capsys):
    hi, lo = hl.eig_herm2(hl.pauli_obs(0, (1, 1, 0)))
    ok = abs(hi - np.sqrt(2)) <= 1e-12 and abs(lo + np.sqrt(2)) <= 1e-12
    _report(capsys, 2, "sigma_x + sigma_y has eigenvalues +-sqrt(2)",
            ok, f" (got {hi:.14f}, {lo:.14f})")


def test_criterion_03_density_reconstruction(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    max_err = 0.0
    witnesses_ok = True
    count = 0
    for dim, n in ((2, 34), (3, 33), (4, 33)):
        for _ in range(n):
            rho = random_density(rng, dim)
            rebuilt = hl.reconstruct_density(hl.oracle_from_density(rho))
            max_err = max(max_err, float(np.max(np.abs(rebuilt - rho))))
            phi = hl.dispersion_free_witness(rho)
            val = float(np.vdot(phi, rho @ phi).real)
            witnesses_ok &= 0.01 < val < 0.99
            count += 1
    elapsed = time.perf_counter() - start
    ok = count == 100 and max_err <= 1e-10 and witnesses_ok and elapsed < 5.0
    _report(capsys, 3, "100 density operators recovered from expectation oracles",
            ok, f" (max err {max_err:.2e}, {elapsed:.1f}s)")


def test_criterion_04_jauch_piron_intersections(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    all_zero = True
    done = 0
    while done < 100:
        a, b = random_unit3(rng), random_unit3(rng)
        if min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= 1e-6:
            continue
        report = hl.jauch_piron_contradiction(a, b)
        all_zero &= report.all_intersections_zero
        done += 1
    elapsed = time.perf_counter() - start
    ok = all_zero and elapsed < 5.0
    _report(capsys, 4, "100 direction pairs give rank-0 cross intersections",
            ok, f" ({elapsed:.1f}s)")


def test_criterion_05_peres_set_uncolorable(capsys):
    start = time.perf_counter()
    rays = hl.peres_rays()
    base = hl.ks_color(hl.orthogonality_structure(rays))
    stable = not base.satisfiable
    rng = np.random.default_rng(105)
    for _ in range(20):
        perm = rng.permutation(len(rays))
        stable &= not hl.ks_color(hl.orthogonality_structure(rays[perm])).satisfiable
    elapsed = time.perf_counter() - start
    ok = rays.shape == (33, 3) and stable and elapsed < 60.0
    _report(capsys, 5, "33-ray set admits no coloring, stable under 20 permutations",
            ok, f" ({elapsed:.1f}s)")


def test_criterion_06_operator_square(capsys):
    start = time.perf_counter()
    report = hl.mermin_verify(hl.mermin_square())
    search = hl.mermin_assignment_search()
    elapsed = time.perf_counter() - start
    ok = (
        report.max_product_dev <= 1e-12
        and report.row_signs == (1, 1, 1)
        and report.col_signs == (1, 1, -1)
        and search.n_checked == 512
        and search.n_satisfying == 0
        and elapsed < 1.0
    )
    _report(capsys, 6, "operator square products verified; 0/512 assignments survive",
            ok, f" (dev {report.max_product_dev:.2e}, {elapsed:.2f}s)")


def test_criterion_07_singlet_correlator(capsys):
    start = time.perf_counter()
    psi = hl.singlet_state()
    rng = np.random.default_rng(107)
    max_err = 0.0
    for _ in range(10**4):
        a, b = random_unit3(rng), random_unit3(rng)
        max_err = max(max_err, abs(hl.qm_correlator(psi, a, b) + np.dot(a, b)))
    elapsed = time.perf_counter() - start
    ok = max_err <= 1e-10 and elapsed < 5.0
    _report(capsys, 7, "singlet correlator equals -a.b over 10^4 random pairs",
            ok, f" (max err {max_err:.2e}, {elapsed:.1f}s)")


def test_criterion_08_original_inequality_violation(capsys):
    from hvlab.kernels import TRINE_A, TRINE_B, TRINE_C

    lhs = hl.bell_original_lhs(hl.singlet_state(), TRINE_A, TRINE_B, TRINE_C, 1, 1, 1)
    ok = abs(lhs - 1.5) <= 1e-10
    _report(capsys, 8, "trine settings give 3/2 against the bound 1",
            ok, f" (lhs {lhs:.12f})")


def test_criterion_09_chsh_quantum_maximum(capsys):
    start = time.perf_counter()
    psi = hl.singlet_state()
    explicit = hl.chsh_value(psi, hl.optimal_chsh_settings())
    explicit_ok = abs(explicit - TWO_SQRT_TWO) <= 1e-10
    _, s_star = hl.chsh_optimize(psi, restarts=20, tol=1e-6, seed=0)
    optimize_ok = abs(s_star - TWO_SQRT_TWO) <= 1e-6
    rng = np.random.default_rng(109)
    max_s = 0.0
    for _ in range(10**5):
        settings = hl.ChshSettings(
            a=random_unit3(rng),
            a_prime=random_unit3(rng),
            b=random_unit3(rng),
            b_prime=random_unit3(rng),
        )
        max_s = max(max_s, hl.chsh_value(psi, settings))
    bound_ok = max_s <= TWO_SQRT_TWO + 1e-9
    elapsed = time.perf_counter() - start
    ok = explicit_ok and optimize_ok and bound_ok and elapsed < 60.0
    _report(capsys, 9, "CHSH reaches 2*sqrt(2) and never exceeds it",
            ok, f" (S* {s_star:.9f}, scan max {max_s:.6f}, {elapsed:.1f}s)")


def test_criterion_10_joint_weight_bound(capsys):
    start = time.perf_counter()
    max_s = 0.0
    for s in (1, -1):
        for sp in (1, -1):
            for t in (1, -1):
                for tp in (1, -1):
                    max_s = max(max_s, hl.chsh_from_wigner(hl.deterministic_weights(s, sp, t, tp)))
    rng = np.random.default_rng(110)
    for _ in range(10**5):
        w = rng.random(16)
        w /= w.sum()
        max_s = max(max_s, hl.chsh_from_wigner(w))
    elapsed = time.perf_counter() - start
    ok = max_s <= 2.0 + 1e-12 and elapsed < 10.0
    _report(capsys, 10, "10^5 random weight vectors and 16 vertices keep S <= 2",
            ok, f" (max S {max_s:.12f}, {elapsed:.1f}s)")


def test_criterion_11_ghz_parity_contradiction(capsys):
    devs = hl.ghz_stabilizer_deviations()
    search = hl.ghz_assignment_search()
    ok = max(devs.values()) <= 1e-12 and search.n_checked == 64 and search.n_satisfying == 0
    _report(capsys, 11, "GHZ parity identities hold; 0/64 assignments survive",
            ok, f" (max dev {max(devs.values()):.2e})")


def test_criterion_12_hardy_probability(capsys):
    start = time.perf_counter()
    max_err = 0.0
    for p1 in np.linspace(0.02, 0.98, 50):
        for p2 in np.linspace(0.02, 0.98, 50):
            got = hl.hardy_build(p1, p2).p
            max_err = max(max_err, abs(got - hl.hardy_probability(p1, p2)))
    params, p_max = hl.hardy_optimize(grid=100)
    argmax_ok = abs(params.p1 - INV_TAU) <= 1e-6 and abs(params.p2 - INV_TAU) <= 1e-6
    max_ok = abs(p_max - hl.GOLDEN_RATIO**-5) <= 1e-7
    elapsed = time.perf_counter() - start
    ok = max_err <= 1e-10 and argmax_ok and max_ok and elapsed < 30.0
    _report(capsys, 12, "constructed probability matches closed form; max at inverse golden ratio",
            ok, f" (grid err {max_err:.2e}, p_max {p_max:.9f}, {elapsed:.1f}s)")


def test_criterion_13_no_signalling(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(113)
    eye2 = np.eye(2, dtype=complex)
    max_dev = 0.0
    for _ in range(10**3):
        rho = random_density(rng, 4)
        a_obs = np.kron(hl.sigma_dot(random_unit3(rng)), eye2)
        b_hat = random_unit3(rng)
        projs = [
            np.kron(eye2, 0.5 * (eye2 + hl.sigma_dot(b_hat))),
            np.kron(eye2, 0.5 * (eye2 - hl.sigma_dot(b_hat))),
        ]
        max_dev = max(max_dev, hl.no_signalling_check(rho, a_obs, projs))
    elapsed = time.perf_counter() - start
    ok = max_dev <= 1e-12 and elapsed < 10.0
    _report(capsys, 13, "remote measurement shifts no expectation on 10^3 triples",
            ok, f" (max dev {max_dev:.2e}, {elapsed:.1f}s)")


def test_criterion_14_experiment_simulation(capsys):
    start = time.perf_counter()
    settings = hl.optimal_chsh_settings()
    dimmed = hl.simulate_chsh(
        hl.ExperimentConfig(settings=settings, n_pairs=10**7, visibility=0.9546, seed=114)
    )
    dim_ok = abs(dimmed.s_value - 2.70) <= 5 * dimmed.s_stderr and dimmed.s_stderr < 0.002
    full = hl.simulate_chsh(
        hl.ExperimentConfig(settings=settings, n_pairs=10**6, visibility=1.0, seed=115)
    )
    full_ok = abs(full.s_value - TWO_SQRT_TWO) <= 5 * full.s_stderr
    elapsed = time.perf_counter() - start
    ok = dim_ok and full_ok and elapsed < 60.0
    _report(capsys, 14, "simulated S reproduces 2.70 at reduced visibility and 2*sqrt(2) at full",
            ok, f" (S {dimmed.s_value:.4f}+-{dimmed.s_stderr:.4f}, {elapsed:.1f}s)")
