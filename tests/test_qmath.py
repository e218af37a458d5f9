import numpy as np
import pytest

from hvlab.qmath import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    TAU_EQ,
    assert_density_operator,
    assert_projector,
    assert_state_vector,
    eig_herm2,
    expectation,
    intersection_projector,
    kron,
    normalized_wishart,
    pauli_obs,
    projector,
    random_density,
    random_state,
    random_unit3,
    sigma_dot,
    unit_vectors,
)
from hvlab.nonlocality import singlet_state


def kron_bruteforce(a, b):
    """Independent index-arithmetic oracle for the tensor product."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out




def test_expectation_has_the_bits_of_np_trace():
    rng = np.random.default_rng(59)
    for k in range(300):
        dim = 2 + k % 3
        rho = random_density(rng, dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = g + g.conj().T
        assert expectation(rho, a).hex() == complex(np.trace(rho @ a)).real.hex()
class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(ID2, ID2), np.eye(4))

    def test_sigma_x_squared_entries(self):
        m = kron(SIGMA_X, SIGMA_X)
        assert m[0, 3] == 1
        assert m[0, 0] == 0

    def test_matches_bruteforce_oracle(self):
        assert np.array_equal(kron(SIGMA_Z, SIGMA_X), kron_bruteforce(SIGMA_Z, SIGMA_X))
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            assert np.allclose(kron(a, b), kron_bruteforce(a, b), atol=1e-14)

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
            assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-13)


class TestPauliObs:
    def test_z_direction(self):
        assert np.allclose(pauli_obs(0, (0, 0, 1)), SIGMA_Z, atol=1e-15)
        assert eig_herm2(pauli_obs(0, (0, 0, 1))) == (1.0, -1.0)

    def test_eigenvalues_alpha_plus_minus_beta(self):
        rng = np.random.default_rng(2)
        for _ in range(10**4):
            alpha = rng.normal()
            beta = rng.normal(size=3)
            hi, lo = eig_herm2(pauli_obs(alpha, beta))
            blen = np.linalg.norm(beta)
            assert abs(hi - (alpha + blen)) <= 1e-10
            assert abs(lo - (alpha - blen)) <= 1e-10

    def test_x_plus_y_eigenvalues(self):
        hi, lo = eig_herm2(pauli_obs(0, (1, 1, 0)))
        assert abs(hi - np.sqrt(2)) <= 1e-12
        assert abs(lo + np.sqrt(2)) <= 1e-12


class TestEigHerm2:
    def test_identity(self):
        assert eig_herm2(ID2) == (1.0, 1.0)

    def test_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = h + h.conj().T
            tr = np.trace(h).real
            det = np.linalg.det(h).real
            for lam in eig_herm2(h):
                assert abs(lam**2 - tr * lam + det) <= 1e-9 * max(1.0, abs(det))

    def test_diagonal_near_the_largest_float(self):
        # the diagonal sum and gap once overflowed with a RuntimeWarning, an error in this suite
        assert eig_herm2(np.diag([1e308, 1e308])) == (1e308, 1e308)
        assert eig_herm2(np.diag([1.5e308, -1.5e308])) == (1.5e308, -1.5e308)

    def test_halving_first_keeps_the_bits(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            h = rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-150, 150, size=(2, 2))
            h = h + h.T
            m, d = (h[0, 0] + h[1, 1]) / 2.0, (h[0, 0] - h[1, 1]) / 2.0  # the mean and gap, summed first
            q = np.hypot(d, abs(h[0, 1]))
            assert eig_herm2(h) == (m + q, m - q)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_herm2(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            eig_herm2(np.eye(3))


class TestExpectation:
    def test_maximally_mixed_z(self):
        assert expectation(ID2 / 2, SIGMA_Z) == 0

    def test_pure_zero_state(self):
        assert abs(expectation(np.diag([1, 0]).astype(complex), SIGMA_Z) - 1) <= 1e-15

    def test_singlet_anticorrelation(self):
        rho = projector(singlet_state())
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = random_unit3(rng), random_unit3(rng)
            op = kron(sigma_dot(a), sigma_dot(b))
            assert abs(expectation(rho, op) + np.dot(a, b)) <= 1e-12

    def test_linearity_in_observable(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = random_density(rng, 3)
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = a + a.conj().T
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = b + b.conj().T
            x, y = rng.normal(size=2)
            lhs = expectation(rho, x * a + y * b)
            rhs = x * expectation(rho, a) + y * expectation(rho, b)
            assert abs(lhs - rhs) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            expectation(ID2 / 2, np.eye(4))


class TestProjector:
    def test_zero_state(self):
        assert np.array_equal(projector([1, 0]), np.diag([1, 0]).astype(complex))

    def test_idempotent_unit_trace(self):
        rng = np.random.default_rng(6)
        for dim in (2, 4, 8):
            psi = random_state(rng, dim)
            p = projector(psi)
            assert np.max(np.abs(p @ p - p)) <= TAU_EQ
            assert abs(np.trace(p) - 1) <= TAU_EQ
            assert np.max(np.abs(p - p.conj().T)) <= TAU_EQ

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            projector([1, 1])


@pytest.mark.parametrize("psi", [[np.nan, 0], [np.inf, 0]], ids=["nan", "inf"])
def test_state_vector_rejects_non_finite(psi):
    with pytest.raises(ValueError, match="normalized"):
        assert_state_vector(psi)


def test_density_operator_overflowing_trace_raises_only_value_error():
    # np.trace overflows to inf here; under error::RuntimeWarning the
    # overflow warning would end the call before the ValueError
    with pytest.raises(ValueError, match="trace"):
        assert_density_operator(np.diag([1e308, 1e308]))


class TestStackedValidators:
    def test_one_matrix_unless_a_stack_is_asked_for(self):
        rhos = np.stack([np.eye(2) / 2] * 3)
        with pytest.raises(ValueError, match="2D matrix"):
            assert_density_operator(rhos)
        assert assert_density_operator(rhos, stack=True) is not None
        with pytest.raises(ValueError, match="2D matrix"):
            assert_projector(np.stack([ID2, ID2]))

    @pytest.mark.parametrize(
        "bad",
        [np.diag([0.7, 0.7]), np.diag([1.2, -0.2]), np.array([[0.5, 1.0], [0.0, 0.5]]), np.diag([np.nan, 0.5])],
        ids=["trace", "negative", "not-hermitian", "nan"],
    )
    def test_stack_reports_what_the_bad_matrix_reports(self, bad):
        with pytest.raises(ValueError) as lone:
            assert_density_operator(bad)
        with pytest.raises(ValueError) as stacked:
            assert_density_operator(np.stack([np.eye(2) / 2, bad, np.eye(2) / 2]), stack=True)
        assert str(stacked.value) == str(lone.value)

    def test_projector_stack(self):
        up, down = projector([1, 0]), projector([0, 1])
        assert assert_projector(np.stack([up, down]), stack=True).shape == (2, 2, 2)
        with pytest.raises(ValueError, match="idempotent"):
            assert_projector(np.stack([up, 2 * down]), stack=True)


class TestStackedDraws:
    # the formulas of one draw at a time; a stack must give each draw's bits
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_wishart_stack_matches_one_matrix_at_a_time(self, dim):
        g = np.random.default_rng(dim).normal(size=(2000, dim, dim, 2)) @ np.array([1.0, 1j])
        want = []
        for one in g:
            rho = one @ one.conj().T
            want.append(rho / np.trace(rho).real)
        assert np.array_equal(normalized_wishart(g), np.array(want))
        assert np.array_equal(normalized_wishart(g[0]), want[0])

    def test_unit_vector_stack_matches_one_vector_at_a_time(self):
        v = np.random.default_rng(5).normal(size=(5000, 3))
        want = np.array([one / np.linalg.norm(one) for one in v])
        assert np.array_equal(unit_vectors(v), want)
        assert np.array_equal(unit_vectors(v.reshape(50, 100, 3)), want.reshape(50, 100, 3))
        assert np.array_equal(unit_vectors(v[0]), want[0])

    def test_random_draws_keep_their_stream(self):
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        for dim in (2, 3, 4):
            g = ref.normal(size=(dim, dim)) + 1j * ref.normal(size=(dim, dim))
            rho = g @ g.conj().T
            assert np.array_equal(random_density(rng, dim), rho / np.trace(rho).real)
            v = ref.normal(size=3)
            assert np.array_equal(random_unit3(rng), v / np.linalg.norm(v))


class TestIntersectionProjector:
    def test_self_intersection(self):
        p = projector([1, 0])
        out, rank = intersection_projector(p, p)
        assert rank == 1
        assert np.allclose(out, p, atol=1e-12)

    def test_with_identity(self):
        rng = np.random.default_rng(7)
        p = projector(random_state(rng, 4))
        out, rank = intersection_projector(p, np.eye(4, dtype=complex))
        assert rank == 1
        assert np.allclose(out, p, atol=1e-10)

    def test_distinct_spin_directions_are_disjoint(self):
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([1.0, 0.0, 0.0])
        p = 0.5 * (ID2 + sigma_dot(a))
        q = 0.5 * (ID2 + sigma_dot(b))
        out, rank = intersection_projector(p, q)
        assert rank == 0
        assert np.max(np.abs(out)) <= 1e-12

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError):
            intersection_projector(SIGMA_X, SIGMA_X)


def test_constructed_observables_are_hermitian():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = pauli_obs(rng.normal(), rng.normal(size=3))
        assert np.max(np.abs(m - m.conj().T)) <= TAU_EQ
