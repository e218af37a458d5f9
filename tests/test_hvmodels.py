import itertools

import numpy as np
import pytest

from hvlab.hvmodels import (
    BellHVState,
    bell_hv_average_exact,
    bell_hv_average_mc,
    bell_hv_value,
    chsh_from_wigner,
    deterministic_weights,
    sgn,
    validate_wigner_weights,
    wigner_correlators,
)
from hvlab.qmath import eig_herm2, expectation, pauli_obs, projector, random_state

KET0 = np.array([1.0, 0.0], dtype=complex)


class TestBellHVValue:
    def test_z_state_z_direction_any_lambda(self):
        for lam in (-0.5, -0.1, 0.0, 0.3, 0.5):
            assert bell_hv_value(0, (0, 0, 1), BellHVState(KET0, lam)) == 1.0

    def test_takes_upper_eigenvalue(self):
        assert bell_hv_value(2, (0, 0, 3), BellHVState(KET0, 0.1)) == 5.0

    def test_m_zero_splits_on_lambda_sign(self):
        # m = <0|sigma_x|0> = 0, so the value follows sgn(lambda)
        assert bell_hv_value(0, (1, 0, 0), BellHVState(KET0, -0.3)) == -1.0
        assert bell_hv_value(0, (1, 0, 0), BellHVState(KET0, +0.3)) == +1.0

    def test_sgn_zero_is_plus_one(self):
        assert sgn(0.0) == 1.0
        assert bell_hv_value(0, (1, 0, 0), BellHVState(KET0, 0.0)) == 1.0

    def test_zero_beta_returns_alpha(self):
        assert bell_hv_value(1.5, (0, 0, 0), BellHVState(KET0, 0.2)) == 1.5

    def test_output_always_an_eigenvalue(self):
        rng = np.random.default_rng(20)
        psi = random_state(rng, 2)
        for _ in range(10**5):
            alpha = rng.normal()
            beta = rng.normal(size=3)
            lam = rng.uniform(-0.5, 0.5)
            val = bell_hv_value(alpha, beta, BellHVState(psi, lam))
            blen = np.linalg.norm(beta)
            assert min(abs(val - (alpha + blen)), abs(val - (alpha - blen))) <= 1e-12

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BellHVState(KET0, 0.6)


class TestBellHVAverageExact:
    def test_z_state_z_direction(self):
        assert bell_hv_average_exact(0, (0, 0, 1), KET0) == 1.0

    def test_x_direction_symmetry(self):
        assert bell_hv_average_exact(0, (1, 0, 0), KET0) == 0.0

    def test_reproduces_quantum_expectation(self):
        rng = np.random.default_rng(21)
        for _ in range(10**4):
            alpha = rng.normal()
            beta = rng.normal(size=3)
            psi = random_state(rng, 2)
            got = bell_hv_average_exact(alpha, beta, psi)
            want = alpha + expectation(projector(psi), pauli_obs(0.0, beta))
            assert abs(got - want) <= 1e-10


class TestBellHVAverageMC:
    def test_constant_case_exact(self):
        est, stderr = bell_hv_average_mc(0, (0, 0, 1), KET0, 10**4, seed=1)
        assert est == 1.0
        assert stderr == 0.0

    def test_x_direction_within_5_sigma(self):
        est, stderr = bell_hv_average_mc(0, (1, 0, 0), KET0, 10**6, seed=2)
        assert abs(est - 0.0) <= 5 * stderr

    def test_diagonal_direction_within_5_sigma(self):
        est, stderr = bell_hv_average_mc(1, (1, 1, 0), KET0, 10**6, seed=3)
        assert abs(est - 1.0) <= 5 * stderr

    def test_reproducible_for_fixed_seed(self):
        a = bell_hv_average_mc(0.3, (0.2, -1.0, 0.4), KET0, 10**4, seed=9)
        b = bell_hv_average_mc(0.3, (0.2, -1.0, 0.4), KET0, 10**4, seed=9)
        assert a == b

    def test_stderr_scales_like_inverse_sqrt_n(self):
        psi = random_state(np.random.default_rng(22), 2)
        sizes = [10**3, 10**4, 10**5, 10**6]
        errs = [bell_hv_average_mc(0, (1, 0.5, 0), psi, n, seed=4)[1] for n in sizes]
        for n, err in zip(sizes, errs):
            scaled = err * np.sqrt(n)
            assert 0.8 * errs[0] * np.sqrt(sizes[0]) <= scaled <= 1.2 * errs[0] * np.sqrt(sizes[0])

    def test_rejects_small_samples(self):
        with pytest.raises(ValueError):
            bell_hv_average_mc(0, (0, 0, 1), KET0, 99, seed=0)


def correlators_bruteforce(w):
    """Enumeration oracle over the 16 outcome tuples."""
    w = np.asarray(w, dtype=float).reshape(2, 2, 2, 2)
    signs = {0: 1.0, 1: -1.0}
    sums = [0.0, 0.0, 0.0, 0.0]
    for i, j, k, l in itertools.product(range(2), repeat=4):
        s, sp, t, tp = signs[i], signs[j], signs[k], signs[l]
        sums[0] += w[i, j, k, l] * s * t
        sums[1] += w[i, j, k, l] * s * tp
        sums[2] += w[i, j, k, l] * sp * t
        sums[3] += w[i, j, k, l] * sp * tp
    return tuple(sums)


class TestWigner:
    def test_uniform_weights_vanish(self):
        w = np.full((2, 2, 2, 2), 1 / 16)
        assert wigner_correlators(w) == (0.0, 0.0, 0.0, 0.0)
        assert chsh_from_wigner(w) == 0.0

    def test_concentrated_weights(self):
        w = deterministic_weights(1, 1, 1, 1)
        assert wigner_correlators(w) == (1.0, 1.0, 1.0, 1.0)

    def test_random_weights_match_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            w = rng.random(16)
            w /= w.sum()
            got = wigner_correlators(w)
            want = correlators_bruteforce(w)
            assert np.allclose(got, want, atol=1e-14)

    def test_single_vertex_chsh_is_two(self):
        w = deterministic_weights(1, 1, 1, -1)
        assert chsh_from_wigner(w) == 2.0

    def test_all_vertices_obey_bound(self):
        for s, sp, t, tp in itertools.product((1, -1), repeat=4):
            assert chsh_from_wigner(deterministic_weights(s, sp, t, tp)) <= 2.0 + 1e-12

    def test_random_weights_obey_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(10**4):
            w = rng.random(16)
            w /= w.sum()
            assert chsh_from_wigner(w) <= 2.0 + 1e-12

    def test_rejects_negative_weights(self):
        w = np.full(16, 1 / 16)
        w[0] = -0.1
        w[1] += 0.1 + 1 / 16
        with pytest.raises(ValueError, match="negative"):
            validate_wigner_weights(w)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            validate_wigner_weights(np.full(16, 1.0))

    def test_rejects_nan_weights(self):
        one_nan = np.full(16, 1 / 16)
        one_nan[3] = np.nan
        for w in (np.full(16, np.nan), one_nan):
            with pytest.raises(ValueError, match="finite"):
                chsh_from_wigner(w)


def test_eigenvalue_additivity_fails_for_noncommuting():
    # eigenvalues of sigma_x + sigma_y are +-sqrt(2), never sums of the
    # individual eigenvalues {+1, -1} + {+1, -1} = {2, 0, -2}
    eigs = eig_herm2(pauli_obs(0, (1, 1, 0)))
    sums = {2.0, 0.0, -2.0}
    assert abs(eigs[0] - np.sqrt(2)) <= 1e-12
    assert abs(eigs[1] + np.sqrt(2)) <= 1e-12
    for e in eigs:
        assert all(abs(e - s) > 0.5 for s in sums)
