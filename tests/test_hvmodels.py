import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from hvlab import hvmodels
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
from hvlab.qmath import eig_herm2, expectation, pauli_obs, projector, random_state, sigma_dot

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
        assert sgn(-0.0) == 1.0
        assert list(sgn([-0.0, 0.0, -2.0, 3.0])) == [1.0, 1.0, -1.0, 1.0]
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


class TestBellHVInputs:
    QUTRIT = np.array([1.0, 0.0, 0.0], dtype=complex)

    @pytest.mark.parametrize("beta", [(1e300, 1e300, 0.0), (1e154, 1e154, 1e154), (np.inf, 0.0, 0.0)])
    def test_overflowing_beta_is_a_value_error_without_warning(self, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: bell_hv_average_exact(0.0, beta, KET0),
                lambda: bell_hv_average_mc(0.0, beta, KET0, 100, seed=0),
                lambda: bell_hv_value(0.0, beta, BellHVState(KET0, 0.1)),
            ):
                with pytest.raises(ValueError, match="beta"):
                    call()

    def test_beta_length_is_the_norm(self):
        rng = np.random.default_rng(22)
        for beta in [(1e153, 1e153, 1e153), (1e-200, 0.0, 0.0)] + list(rng.normal(size=(100, 3))):
            want = float(np.linalg.norm(beta))
            assert bell_hv_value(0.0, beta, BellHVState(KET0, 0.5)) in (want, -want)

    def test_state_must_be_one_qubit(self):
        for call in (
            lambda: bell_hv_average_exact(0.0, (0, 0, 1), self.QUTRIT),
            lambda: bell_hv_average_mc(0.0, (0, 0, 1), self.QUTRIT, 100, seed=0),
            lambda: BellHVState(self.QUTRIT, 0.0),
        ):
            with pytest.raises(ValueError, match="single spin-1/2"):
                call()


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

    def test_no_warning_on_eigenstates(self):
        # every sample draws one eigenvalue; estimate and exact average differ by roundoff only
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(50):
                beta = rng.normal(size=3)
                psi = np.linalg.eigh(sigma_dot(beta))[1][:, 1]
                est, _ = bell_hv_average_mc(0.3, beta, psi, 100, seed)
                assert abs(est - bell_hv_average_exact(0.3, beta, psi)) <= 1e-12

    def test_zero_beta_is_exactly_alpha(self):
        assert bell_hv_average_mc(1.5, (0, 0, 0), KET0, 10**4, seed=2) == (1.5, 0.0)

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

    def test_batches_match_single_draw_reference(self, monkeypatch):
        # a batch size that does not divide n leaves a short last batch
        monkeypatch.setattr(hvmodels, "BATCH_PAIRS", 7)
        alpha, beta, n, seed = 0.25, np.array([0.6, -0.3, 0.2]), 1003, 17
        psi = random_state(np.random.default_rng(5), 2)
        beta_len = np.linalg.norm(beta)
        m = expectation(projector(psi), pauli_obs(0.0, beta))
        lams = np.random.default_rng(seed).uniform(-0.5, 0.5, size=n)
        values = alpha + beta_len * np.where(m >= 0, 1.0, -1.0) * np.where(
            lams * beta_len + 0.5 * abs(m) >= 0, 1.0, -1.0
        )
        est, stderr = bell_hv_average_mc(alpha, beta, psi, n, seed=seed)
        assert abs(est - values.mean()) <= 1e-15
        assert abs(stderr - values.std(ddof=1) / np.sqrt(n)) <= 1e-15

    def test_memory_does_not_grow_with_samples(self):
        def peak_bytes(n_samples):
            tracemalloc.start()
            try:
                bell_hv_average_mc(0, (1, 1, 0), KET0, n_samples, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(2 * 10**6) <= peak_bytes(2 * 10**5) + 2 * 2**20


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


class TestWignerBatch:
    @pytest.mark.parametrize("shape", [(200, 16), (5, 2, 2, 2, 2)], ids=["rows", "grid"])
    def test_batch_matches_scalar_and_enumeration_oracle(self, shape):
        rng = np.random.default_rng(25)
        w = rng.random((shape[0], 16))
        w /= w.sum(axis=1, keepdims=True)
        w = w.reshape(shape)
        s_batch = chsh_from_wigner(w)
        correlators = wigner_correlators(w)
        assert s_batch.shape == (shape[0],)
        assert len(correlators) == 4
        for k in range(shape[0]):
            want = correlators_bruteforce(w[k])
            assert abs(s_batch[k] - chsh_from_wigner(w[k])) <= 1e-14
            assert abs(s_batch[k] - (abs(want[0] - want[1]) + abs(want[2] + want[3]))) <= 1e-14
            assert np.allclose([c[k] for c in correlators], want, rtol=0, atol=1e-14)
            assert np.allclose([c[k] for c in correlators], wigner_correlators(w[k]), rtol=0, atol=1e-14)

    def test_empty_batch_gives_empty_results(self):
        assert chsh_from_wigner(np.empty((0, 16))).shape == (0,)
        assert [c.shape for c in wigner_correlators(np.empty((0, 2, 2, 2, 2)))] == [(0,)] * 4

    @pytest.mark.parametrize(
        "value, match",
        [(np.nan, "finite"), (-0.5, "negative"), (0.5, "sum")],
        ids=["nan", "negative", "unnormalized"],
    )
    def test_one_bad_row_rejects_the_batch(self, value, match):
        w = np.full((10, 16), 1 / 16)
        w[7, 3] += value
        with pytest.raises(ValueError, match=match):
            chsh_from_wigner(w)
        with pytest.raises(ValueError, match=match):
            validate_wigner_weights(w.reshape(2, 5, 2, 2, 2, 2))


def test_eigenvalue_additivity_fails_for_noncommuting():
    # eigenvalues of sigma_x + sigma_y are +-sqrt(2), never sums of the
    # individual eigenvalues {+1, -1} + {+1, -1} = {2, 0, -2}
    eigs = eig_herm2(pauli_obs(0, (1, 1, 0)))
    sums = {2.0, 0.0, -2.0}
    assert abs(eigs[0] - np.sqrt(2)) <= 1e-12
    assert abs(eigs[1] + np.sqrt(2)) <= 1e-12
    for e in eigs:
        assert all(abs(e - s) > 0.5 for s in sums)
