import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hvlab import kernels, nonlocality
from hvlab.nonlocality import (
    CHSH_QUANTUM_MAX,
    GOLDEN_RATIO,
    TRINE_A,
    TRINE_B,
    TRINE_C,
    TENSOR_MEMO_SIZE,
    ChshSettings,
    _hardy_fields,
    _hardy_grid_argmax,
    _orthogonal_2d,
    _tensor_of_bytes,
    bell_correlators,
    bell_original_lhs,
    chsh_correlators,
    chsh_max,
    chsh_optimize,
    chsh_value,
    correlation_tensor,
    ghz_assignment_search,
    ghz_stabilizer_deviations,
    ghz_state,
    hardy_build,
    hardy_optimize,
    hardy_probability,
    no_signalling_check,
    optimal_chsh_settings,
    qm_correlator,
    singlet_state,
)
from hvlab.qmath import (
    ID2,
    PAULIS,
    SIGMA_Z,
    TAU_EQ,
    kron,
    projector,
    random_density,
    random_state,
    random_unit3,
    sigma_dot,
)

PRODUCT_00 = np.array([1, 0, 0, 0], dtype=complex)


def horodecki_bound(psi) -> float:
    """2 sqrt(m1 + m2) from T_ij = <psi| sigma_i x sigma_j |psi> built by kron."""
    t = np.array([[np.vdot(psi, np.kron(si, sj) @ psi).real for sj in PAULIS] for si in PAULIS])
    m = np.sort(np.linalg.eigvalsh(t.T @ t))
    return 2.0 * np.sqrt(m[-1] + m[-2])


def oracle_states():
    rng = np.random.default_rng(46)
    return [singlet_state(), PRODUCT_00] + [random_state(rng, 4) for _ in range(20)]


class TestSinglet:
    def test_norm(self):
        assert abs(np.vdot(singlet_state(), singlet_state()).real - 1.0) <= 1e-15

    def test_no_parallel_amplitudes(self):
        psi = singlet_state()
        assert psi[0] == 0.0
        assert psi[3] == 0.0

    def test_perfect_anticorrelation_on_axes(self):
        psi = singlet_state()
        for axis in (np.eye(3)):
            assert abs(qm_correlator(psi, axis, axis) + 1.0) <= 1e-12


class TestQmCorrelator:
    def test_equal_z_settings(self):
        assert abs(qm_correlator(singlet_state(), (0, 0, 1), (0, 0, 1)) + 1.0) <= 1e-12

    def test_orthogonal_settings_vanish(self):
        assert abs(qm_correlator(singlet_state(), (0, 0, 1), (1, 0, 0))) <= 1e-12

    def test_trine_pair_gives_half(self):
        assert abs(qm_correlator(singlet_state(), TRINE_A, TRINE_B) - 0.5) <= 1e-10

    def test_matches_minus_dot_product(self):
        psi = singlet_state()
        rng = np.random.default_rng(40)
        for _ in range(1000):
            a, b = random_unit3(rng), random_unit3(rng)
            assert abs(qm_correlator(psi, a, b) + np.dot(a, b)) <= 1e-10

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            qm_correlator(np.array([1, 0], dtype=complex), (0, 0, 1), (0, 0, 1))

    def test_correlation_tensor_of_singlet(self):
        assert np.allclose(correlation_tensor(singlet_state()), -np.eye(3), atol=1e-12)

    def test_correlation_tensor_matches_correlators(self):
        eye3 = np.eye(3)
        for psi in oracle_states():
            want = [[qm_correlator(psi, eye3[i], eye3[j]) for j in range(3)] for i in range(3)]
            assert np.max(np.abs(correlation_tensor(psi) - want)) <= 1e-14

    def test_correlation_tensor_rejects_wrong_dim(self):
        with pytest.raises(ValueError, match="two-qubit"):
            correlation_tensor(ghz_state())


def uncached_tensor(psi) -> np.ndarray:
    """T_ij = <psi| sigma_i x sigma_j |psi> from the kron-built operators, with no memo."""
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    pairs = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])
    return (vec.conj() @ pairs @ vec).real


def pure_python_tensor(psi) -> list:
    """T_ij = Re sum_k conj(psi_k) sum_l M_kl psi_l, M = sigma_i x sigma_j from `kernels.kron`, in plain loops."""
    vec = np.asarray(psi, dtype=complex).reshape(-1).tolist()
    rows = []
    for s_i in kernels.PAULIS:
        row = []
        for s_j in kernels.PAULIS:
            m = kernels.kron(s_i, s_j)
            row.append(sum(vec[k].conjugate() * sum(m[k][l] * vec[l] for l in range(4)) for k in range(4)).real)
        rows.append(row)
    return rows


class TestTensorMemo:
    def test_in_place_change_gives_new_tensor(self):
        psi = singlet_state()
        settings = optimal_chsh_settings()
        assert np.max(np.abs(correlation_tensor(psi) + np.eye(3))) <= 1e-15
        assert abs(chsh_value(psi, settings) - CHSH_QUANTUM_MAX) <= 1e-12
        psi[:] = PRODUCT_00
        assert np.array_equal(correlation_tensor(psi), np.diag([0.0, 0.0, 1.0]))
        assert chsh_value(psi, settings) <= 2.0
        assert qm_correlator(psi, (0, 0, 1), (0, 0, 1)) == 1.0

    def test_returned_tensor_is_a_writable_copy(self):
        psi = singlet_state()
        want = correlation_tensor(psi)
        tensor = correlation_tensor(psi)
        assert tensor.flags.writeable and not np.shares_memory(tensor, want)
        tensor[:] = 7.0
        assert np.array_equal(correlation_tensor(psi), want)
        assert abs(chsh_value(psi, optimal_chsh_settings()) - CHSH_QUANTUM_MAX) <= 1e-12
        assert qm_correlator(psi, (0, 0, 1), (0, 0, 1)) == want[2, 2]

    def test_invalid_state_raises_on_every_call(self):
        settings = optimal_chsh_settings()
        for bad in ([1, 1, 0, 0], [np.nan, 0, 0, 0], np.zeros(4)):
            for _ in range(3):
                with pytest.raises(ValueError, match="normalized"):
                    correlation_tensor(bad)
                with pytest.raises(ValueError, match="normalized"):
                    chsh_value(bad, settings)
                with pytest.raises(ValueError, match="normalized"):
                    chsh_max(bad)

    def test_size_is_bounded(self):
        rng = np.random.default_rng(47)
        states = rng.normal(size=(10**4, 4)) + 1j * rng.normal(size=(10**4, 4))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        for psi in states:
            correlation_tensor(psi)
        assert _tensor_of_bytes.cache_info().currsize <= TENSOR_MEMO_SIZE
        assert np.max(np.abs(correlation_tensor(states[0]) - uncached_tensor(states[0]))) <= 1e-15

    def test_input_layouts_give_the_same_tensor(self):
        rng = np.random.default_rng(48)
        for psi in [singlet_state(), PRODUCT_00] + [random_state(rng, 4) for _ in range(5)]:
            want = correlation_tensor(psi)
            assert np.max(np.abs(want - uncached_tensor(psi))) <= 1e-15
            strided = np.zeros(8, dtype=complex)
            strided[::2] = psi
            for layout in (psi.tolist(), psi.reshape(4, 1), strided[::2], np.asfortranarray(psi.reshape(2, 2))):
                assert np.array_equal(correlation_tensor(layout), want)
        real = np.array([0.6, 0.0, 0.0, 0.8])
        assert np.array_equal(correlation_tensor(real), correlation_tensor(real.astype(complex)))

    def test_memo_floats_are_the_tensor(self):
        rng = np.random.default_rng(50)
        for k, psi in enumerate([singlet_state(), PRODUCT_00] + [random_state(rng, 4) for _ in range(500)]):
            memo = _tensor_of_bytes(np.asarray(psi, dtype=complex).tobytes())
            # T is kept once, as three rows of three Python floats: the bits of the loop over the kron-built operators
            assert type(memo) is tuple and [type(row) for row in memo] == [tuple] * 3
            assert all(type(t) is float for row in memo for t in row)
            assert np.array(memo).tobytes() == np.array(pure_python_tensor(psi)).tobytes()
            assert list(map(list, memo)) == correlation_tensor(psi).tolist()
            # numpy's contraction sums in another order: equal to the last bits, and bit for bit on the CLI's states
            assert np.max(np.abs(np.array(memo) - uncached_tensor(psi))) <= 1e-15
            if k < 2:
                assert np.array(memo).tobytes() == uncached_tensor(psi).tobytes()

    def test_values_survive_eviction(self):
        rng = np.random.default_rng(51)
        psi = random_state(rng, 4)
        settings = ChshSettings(*(random_unit3(rng) for _ in range(4)))
        a, b = random_unit3(rng), random_unit3(rng)
        before = (chsh_value(psi, settings), qm_correlator(psi, a, b), bell_correlators(psi, a, b, settings.b))
        for _ in range(TENSOR_MEMO_SIZE + 5):
            correlation_tensor(random_state(rng, 4))
        misses = _tensor_of_bytes.cache_info().misses
        after = chsh_value(psi, settings)
        assert _tensor_of_bytes.cache_info().misses == misses + 1  # psi had been evicted: T is rebuilt
        assert (after, qm_correlator(psi, a, b), bell_correlators(psi, a, b, settings.b)) == before

    def test_other_sizes_raise_as_before(self):
        with pytest.raises(ValueError, match="between 2 and 8"):
            correlation_tensor(np.ones(9) / 3.0)
        with pytest.raises(ValueError, match="normalized"):
            correlation_tensor(np.ones(8))
        with pytest.raises(ValueError, match="two-qubit"):
            correlation_tensor([1.0, 0.0])


class TestChshSettings:
    def test_fields_are_validated_unit_vectors(self):
        settings = ChshSettings((0, 0, 1), [1, 0, 0], np.array([0.0, 1.0, 0.0]), b_prime=(0.6, 0.8, 0))
        for name, want in (("a", [0, 0, 1]), ("a_prime", [1, 0, 0]), ("b", [0, 1, 0]), ("b_prime", [0.6, 0.8, 0])):
            value = getattr(settings, name)
            assert isinstance(value, np.ndarray) and value.dtype == float and value.tolist() == want

    def test_rejects_non_unit_and_stays_frozen(self):
        with pytest.raises(ValueError, match="unit vector"):
            ChshSettings((0, 0, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        settings = optimal_chsh_settings()
        with pytest.raises(AttributeError):
            settings.a = np.array([1.0, 0.0, 0.0])

    def test_fields_are_copies(self):
        rng = np.random.default_rng(52)
        vectors = [random_unit3(rng) for _ in range(4)]
        settings = ChshSettings(*vectors)
        psi = random_state(rng, 4)
        want_a, want_s = settings.a.tolist(), chsh_value(psi, settings)
        for v in vectors:
            v[:] = [0.0, 0.0, 1.0]
        assert settings.a.tolist() == want_a
        assert chsh_value(psi, settings) == want_s

    def test_fields_are_read_only(self):
        settings = optimal_chsh_settings()
        for name in ("a", "a_prime", "b", "b_prime"):
            value = getattr(settings, name)
            assert not value.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 5.0
        for pair in settings.pairs():
            for value in pair:
                assert not value.flags.writeable
        assert settings.floats[0] == (0.0, 1.0, 0.0)


class TestBellOriginal:
    def test_trine_violation_three_halves(self):
        lhs = bell_original_lhs(singlet_state(), TRINE_A, TRINE_B, TRINE_C, 1, 1, 1)
        assert abs(lhs - 1.5) <= 1e-10

    def test_identical_settings_no_violation(self):
        z = (0.0, 0.0, 1.0)
        lhs = bell_original_lhs(singlet_state(), z, z, z, 1, 1, 1)
        assert abs(lhs + 3.0) <= 1e-12

    def test_compositional_recomputation(self):
        psi = singlet_state()
        rng = np.random.default_rng(41)
        for _ in range(50):
            a, b, c = (random_unit3(rng) for _ in range(3))
            etas = rng.choice([1, -1], size=3)
            lhs = bell_original_lhs(psi, a, b, c, *[int(e) for e in etas])
            want = (
                etas[0] * etas[1] * qm_correlator(psi, a, b)
                + etas[0] * etas[2] * qm_correlator(psi, a, c)
                + etas[1] * etas[2] * qm_correlator(psi, b, c)
            )
            assert abs(lhs - want) <= 1e-12

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            bell_original_lhs(singlet_state(), TRINE_A, TRINE_B, TRINE_C, 2, 1, 1)


def kron_correlator(psi, a, b) -> float:
    """<psi| (a.sigma) x (b.sigma) |psi> from Pauli matrices written out here and np.kron."""
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))

    def dot_sigma(n):
        return sum(component * pauli for component, pauli in zip(n, paulis))

    return float(np.vdot(psi, np.kron(dot_sigma(a), dot_sigma(b)) @ psi).real)


def test_correlators_match_kron_oracle():
    rng = np.random.default_rng(47)
    eye3 = np.eye(3)
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        vectors = rng.normal(size=(5, 3))
        a, a_p, b, b_p, c = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)

        def p(x, y):
            return kron_correlator(psi, x, y)

        want_t = [[p(eye3[i], eye3[j]) for j in range(3)] for i in range(3)]
        assert np.max(np.abs(correlation_tensor(psi) - want_t)) <= 1e-12
        assert abs(qm_correlator(psi, a, b) - p(a, b)) <= 1e-12
        settings = ChshSettings(a=a, a_prime=a_p, b=b, b_prime=b_p)
        want_s = abs(p(a, b) - p(a, b_p)) + abs(p(a_p, b) + p(a_p, b_p))
        assert abs(chsh_value(psi, settings) - want_s) <= 1e-12
        etas = [int(e) for e in rng.choice([1, -1], size=3)]
        want_lhs = etas[0] * etas[1] * p(a, b) + etas[0] * etas[2] * p(a, c) + etas[1] * etas[2] * p(b, c)
        assert abs(bell_original_lhs(psi, a, b, c, *etas) - want_lhs) <= 1e-12
        correlators = bell_correlators(psi, a, b, c)
        assert all(type(x) is float for x in correlators)
        assert np.max(np.abs(np.subtract(correlators, [p(a, b), p(a, c), p(b, c)]))) <= 1e-12


def reference_contraction(tensor_rows, rows, cols) -> list:
    """[u . T v for u in rows for v in cols] in the order every correlator keeps: T v as
    t_i0 x + t_i1 y + t_i2 z, then u . T v as x tx + y ty + z tz, each over loops."""
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = tensor_rows
    t_cols = []
    for x, y, z in cols:
        t_cols.append((t00 * x + t01 * y + t02 * z, t10 * x + t11 * y + t12 * z, t20 * x + t21 * y + t22 * z))
    return [x * tx + y * ty + z * tz for x, y, z in rows for tx, ty, tz in t_cols]


def test_correlators_match_the_reference_contraction_bit_for_bit():
    rng = np.random.default_rng(48)
    states = [singlet_state(), PRODUCT_00, *(random_state(rng, 4) for _ in range(600))]

    def bits(values):
        return [float.hex(v) for v in values]  # tells -0.0 from 0.0

    for psi in states:
        rows = correlation_tensor(psi).tolist()
        a, a_p, b, b_p = (tuple(random_unit3(rng).tolist()) for _ in range(4))
        settings = ChshSettings(a, a_p, b, b_p)
        want = reference_contraction(rows, [a, a_p], [b, b_p])
        assert bits(chsh_correlators(psi, settings)) == bits(want)
        assert bits([chsh_value(psi, settings)]) == bits([abs(want[0] - want[1]) + abs(want[2] + want[3])])
        assert bits([qm_correlator(psi, a, b)]) == bits(reference_contraction(rows, [a], [b]))
        ab, ac, _, bc = reference_contraction(rows, [a, b_p], [b_p, b])
        assert bits(bell_correlators(psi, a, b_p, b)) == bits([ab, ac, bc])


def test_unit_setting_rejects_nan():
    with pytest.raises(ValueError, match="unit vector"):
        ChshSettings((np.nan, 0.0, 0.0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="unit vector"):
        qm_correlator(singlet_state(), (0, 0, 1), (0.0, np.nan, 0.0))


def test_unit_setting_rejects_huge_components_without_warning():
    # a dot product of (1e200, 0, 0) with itself overflows with a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="unit vector"):
            ChshSettings((1, 0, 0), (0, 1, 0), (0, 0, 1), (1e200, 0.0, 0.0))
        with pytest.raises(ValueError, match="unit vector"):
            qm_correlator(singlet_state(), (1e200, 0.0, 0.0), (0, 0, 1))


class TestChshValue:
    def test_paper_settings_reach_quantum_max(self):
        s = chsh_value(singlet_state(), optimal_chsh_settings())
        assert abs(s - CHSH_QUANTUM_MAX) <= 1e-10

    def test_degenerate_b_settings(self):
        b = np.array([1.0, 0.0, 0.0])
        settings = ChshSettings(a=(0, 1, 0), a_prime=(0, 0, 1), b=b, b_prime=b)
        assert chsh_value(singlet_state(), settings) <= 2.0 + 1e-12

    def test_product_state_bounded_by_two(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            settings = ChshSettings(
                a=random_unit3(rng),
                a_prime=random_unit3(rng),
                b=random_unit3(rng),
                b_prime=random_unit3(rng),
            )
            assert chsh_value(PRODUCT_00, settings) <= 2.0 + 1e-12

    def test_correlators_are_the_four_pair_correlators(self):
        rng = np.random.default_rng(44)
        for psi in (singlet_state(), PRODUCT_00):
            for _ in range(50):
                settings = ChshSettings(*(random_unit3(rng) for _ in range(4)))
                correlators = chsh_correlators(psi, settings)
                assert correlators == [qm_correlator(psi, a, b) for a, b in settings.pairs()]
                p_ab, p_abp, p_apb, p_apbp = correlators
                assert chsh_value(psi, settings) == abs(p_ab - p_abp) + abs(p_apb + p_apbp)

    def test_random_settings_never_beat_tsirelson(self):
        psi = singlet_state()
        rng = np.random.default_rng(43)
        for _ in range(1000):
            settings = ChshSettings(
                a=random_unit3(rng),
                a_prime=random_unit3(rng),
                b=random_unit3(rng),
                b_prime=random_unit3(rng),
            )
            assert chsh_value(psi, settings) <= CHSH_QUANTUM_MAX + 1e-9


class TestChshMax:
    def test_matches_kron_built_horodecki_bound(self):
        for psi in oracle_states():
            assert abs(chsh_max(psi) - horodecki_bound(psi)) <= 1e-12

    def test_singlet_and_product_state(self):
        assert abs(chsh_max(singlet_state()) - CHSH_QUANTUM_MAX) <= 1e-14
        assert abs(chsh_max(PRODUCT_00) - 2.0) <= 1e-14

    def test_optimizer_reaches_it(self):
        rng = np.random.default_rng(49)
        for psi in [singlet_state(), PRODUCT_00] + [random_state(rng, 4) for _ in range(5)]:
            _, s_star = chsh_optimize(psi, restarts=8)
            assert abs(s_star - chsh_max(psi)) <= 1e-9


class TestChshOptimize:
    def test_singlet_reaches_two_sqrt_two(self):
        _, s_star = chsh_optimize(singlet_state(), restarts=8, tol=1e-6, seed=0)
        assert abs(s_star - CHSH_QUANTUM_MAX) <= 1e-6

    def test_dominates_paper_settings(self):
        _, s_star = chsh_optimize(singlet_state(), restarts=8, tol=1e-6, seed=1)
        assert s_star >= chsh_value(singlet_state(), optimal_chsh_settings()) - 1e-9

    def test_product_state_reaches_two(self):
        _, s_star = chsh_optimize(PRODUCT_00, restarts=8, tol=1e-6, seed=0)
        assert abs(s_star - 2.0) <= 1e-6

    def test_returned_settings_reproduce_value(self):
        settings, s_star = chsh_optimize(singlet_state(), restarts=4, tol=1e-6, seed=2)
        assert abs(chsh_value(singlet_state(), settings) - s_star) <= 1e-12

    def test_rejects_no_restarts(self):
        with pytest.raises(ValueError):
            chsh_optimize(singlet_state(), restarts=0)

    def test_matches_horodecki_bound(self):
        for psi in oracle_states():
            _, s_star = chsh_optimize(psi)
            assert abs(s_star - horodecki_bound(psi)) <= 1e-9

    def test_seed_1228853484_reaches_tsirelson(self):
        _, s_star = chsh_optimize(singlet_state(), seed=1228853484)
        assert abs(s_star - CHSH_QUANTUM_MAX) <= 1e-6

    def test_single_restart_on_product_state(self):
        # T has rank 1 here, so see-saw updates can vanish.
        settings, s_star = chsh_optimize(PRODUCT_00, restarts=1)
        for v in (settings.a, settings.a_prime, settings.b, settings.b_prime):
            assert np.all(np.isfinite(v))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert abs(s_star - 2.0) <= 1e-12

    def test_deterministic_per_seed(self):
        first, s1 = chsh_optimize(singlet_state(), restarts=5, seed=3)
        second, s2 = chsh_optimize(singlet_state(), restarts=5, seed=3)
        assert s1 == s2
        assert np.array_equal(first.b_prime, second.b_prime)


class TestGhz:
    def test_norm_and_amplitudes(self):
        psi = ghz_state()
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-15
        assert psi[0].real > 0 and psi[7].real < 0

    def test_stabilizer_identities(self):
        devs = ghz_stabilizer_deviations()
        assert max(devs.values()) <= 1e-12

    def test_assignment_search_empty(self):
        result = ghz_assignment_search()
        assert result.n_checked == 64
        assert result.n_satisfying == 0

    def test_flipped_constraint_satisfiable(self):
        assert ghz_assignment_search(xxx_target=1).n_satisfying > 0


class TestHardyBuild:
    def test_half_half_probability(self):
        construction = hardy_build(0.5, 0.5)
        assert abs(construction.p - 1.0 / 12.0) <= 1e-12

    def test_psi_normalized_exactly(self):
        for p1, p2 in ((0.1, 0.9), (0.3, 0.6), (0.618, 0.618)):
            psi = hardy_build(p1, p2).psi
            assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-14

    def test_uu_amplitude_vanishes(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
            construction = hardy_build(p1, p2)
            assert abs(construction.psi[0]) <= 1e-15

    def test_golden_ratio_point(self):
        inv_tau = 1.0 / GOLDEN_RATIO
        construction = hardy_build(inv_tau, inv_tau)
        assert abs(construction.p - GOLDEN_RATIO**-5) <= 1e-12

    def test_matches_closed_form_on_grid(self):
        for p1 in np.linspace(0.1, 0.9, 9):
            for p2 in np.linspace(0.1, 0.9, 9):
                got = hardy_build(p1, p2).p
                assert abs(got - hardy_probability(p1, p2)) <= 1e-10

    def test_primed_bases_orthonormal(self):
        construction = hardy_build(0.3, 0.7)
        for u, v in ((construction.u1_prime, construction.v1_prime), (construction.u2_prime, construction.v2_prime)):
            assert abs(np.vdot(u, u).real - 1.0) <= 1e-12
            assert abs(np.vdot(v, v).real - 1.0) <= 1e-12
            assert abs(np.vdot(u, v)) <= 1e-12

    def test_phase_convention(self):
        construction = hardy_build(0.25, 0.75)
        for vec in (construction.u1_prime, construction.v1_prime, construction.u2_prime, construction.v2_prime):
            first = next(c for c in vec if abs(c) > 1e-14)
            assert first.real > 0 and abs(first.imag) <= 1e-14

    def test_keeps_floats_and_builds_each_vector_on_access(self):
        construction = hardy_build(0.3, 0.6)
        assert all(type(x) is float for x in construction[:8])
        for name in ("psi", "u1_prime", "v1_prime", "u2_prime", "v2_prime"):
            first, second = getattr(construction, name), getattr(construction, name)
            assert first.dtype == complex and np.array_equal(first, second)
            assert not np.shares_memory(first, second), name
            assert not first.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                first[0] = 1.0

    @staticmethod
    def _batch(p1, p2):
        """`_hardy_fields` on arrays, with hardy_build's field names: u1', u2' and the residuals
        derived here as hardy_build derives them, vectors and residuals on the last axis."""
        a01, a10, a11, v1x, v1y, v2x, v2y, p = _hardy_fields(p1, p2)
        zero = np.zeros_like(a01)
        u1, u2 = _orthogonal_2d(v1x, v1y), _orthogonal_2d(v2x, v2y)
        vec = np.stack([zero, a01, a10, a11, *u1, v1x, v1y, *u2, v2x, v2y], axis=-1)
        residuals = zero, abs(v2x * a10 + v2y * a11), abs(v1x * a01 + v1y * a11)
        return SimpleNamespace(
            psi=vec[..., :4], u1_prime=vec[..., 4:6], v1_prime=vec[..., 6:8], u2_prime=vec[..., 8:10],
            v2_prime=vec[..., 10:12], p=p, condition_residuals=np.stack(residuals, axis=-1),
        )

    def test_batched_construction_matches_build(self):
        # hardy_build and the grid run one construction, so they agree bit for bit
        axis = np.linspace(0.05, 0.95, 13)
        q1, q2 = np.meshgrid(axis, axis, indexing="ij")
        grid = self._batch(q1, q2)
        assert grid.p.shape == (13, 13)
        assert grid.psi.shape == (13, 13, 4)
        assert grid.condition_residuals.shape == (13, 13, 3)
        edges = [
            (1e-300, 0.5),
            (1e-300, 1e-300),  # p underflows to 0
            (0.5, 1.0 - 2.0**-53),
            (1.0 / GOLDEN_RATIO, 1.0 / GOLDEN_RATIO),
            # an older scalar path differed from the batch by one ulp in p, or a residual, here
            (0.32840925329974446, 0.26469916936042104),
            (0.470710561988515, 0.4131729226406179),
        ]
        random = np.random.default_rng(8).uniform(size=(500, 2))
        points = np.vstack([np.column_stack([q1.ravel(), q2.ravel()]), random, edges])
        batch = self._batch(points[:, 0], points[:, 1])
        assert np.array_equal(grid.p.ravel(), batch.p[:169])
        assert np.array_equal(grid.psi.reshape(-1, 4), batch.psi[:169])
        fields = ("psi", "u1_prime", "v1_prime", "u2_prime", "v2_prime")
        for k, (p1, p2) in enumerate(points):
            residuals = tuple(batch.condition_residuals[k].tolist())
            if max(residuals) > TAU_EQ:
                with pytest.raises(AssertionError):
                    hardy_build(p1, p2)
                continue
            if not batch.p[k] > 0.0:
                with pytest.raises(ValueError, match="underflows"):
                    hardy_build(p1, p2)
                continue
            single = hardy_build(p1, p2)
            assert type(single.p) is float and single.p == batch.p[k]
            assert single.condition_residuals == residuals
            for name in fields:
                assert np.array_equal(getattr(single, name), getattr(batch, name)[k]), name

    def test_rejects_out_of_range(self):
        for bad in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.5)):
            with pytest.raises(ValueError):
                hardy_build(*bad)

    @pytest.mark.parametrize("params", [(5e-324, 0.5), (1e-300, 1e-300), (1e-320, 1e-320)])
    def test_underflowing_probability_is_a_value_error(self, params):
        # inside (0, 1) but p = p1 p2 (1 - p1)(1 - p2) / (1 - p1 p2) underflows to 0
        assert self._batch(*params).p == 0.0
        with pytest.raises(ValueError, match=r"underflows to 0 at \(p1, p2\) = \("):
            hardy_build(*params)


class TestHardyOptimize:
    def test_finds_golden_ratio_argmax(self):
        params, p_max = hardy_optimize(grid=30)
        inv_tau = 1.0 / GOLDEN_RATIO
        assert abs(params.p1 - inv_tau) <= 1e-5
        assert abs(params.p2 - inv_tau) <= 1e-5
        assert abs(p_max - GOLDEN_RATIO**-5) <= 1e-9

    def test_symmetric_objective(self):
        for p1, p2 in ((0.2, 0.7), (0.4, 0.9)):
            assert abs(hardy_probability(p1, p2) - hardy_probability(p2, p1)) <= 1e-15

    def test_dominates_half_half(self):
        _, p_max = hardy_optimize(grid=15)
        assert p_max >= 1.0 / 12.0

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            hardy_optimize(grid=5)

    def test_grid_argmax_matches_full_grid(self):
        for grid in (100, 317, 1000):
            axis = np.arange(1, grid + 1) / (grid + 1.0)
            # p of every grid point, one row per call: elementwise, so equal to one full-grid batch
            full = np.array([_hardy_fields(np.full(grid, x), axis)[-1] for x in axis])
            i, j = np.unravel_index(np.argmax(full), full.shape)
            assert _hardy_grid_argmax(axis, axis).tolist() == [axis[i], axis[j]]

    def test_grid_blocks_keep_the_first_maximum(self, monkeypatch):
        axis1, axis2 = np.linspace(0.1, 0.9, 7), np.linspace(0.2, 0.8, 5)
        monkeypatch.setattr(nonlocality, "_HARDY_BLOCK_POINTS", 10)  # two rows per block, one in the last
        # every row peaks at the same column: the tie goes to the first row
        monkeypatch.setattr(nonlocality, "_hardy_fields", lambda q1, q2: ((q2 == axis2[3]) + 0.0,))  # p only
        assert _hardy_grid_argmax(axis1, axis2).tolist() == [axis1[0], axis2[3]]
        # a single peak in the last, partial block is found
        monkeypatch.setattr(
            nonlocality, "_hardy_fields", lambda q1, q2: ((q1 == axis1[6]) * (q2 == axis2[1]) + 0.0,)
        )
        assert _hardy_grid_argmax(axis1, axis2).tolist() == [axis1[6], axis2[1]]

    def test_blocks_shorter_than_a_row(self, monkeypatch):
        axis1, axis2 = np.linspace(0.05, 0.95, 11), np.linspace(0.1, 0.9, 13)
        full = _hardy_fields(*np.meshgrid(axis1, axis2, indexing="ij"))[-1]
        i, j = np.unravel_index(np.argmax(full), full.shape)
        sizes = []

        def fields(q1, q2):
            sizes.append(np.size(q1))
            return _hardy_fields(q1, q2)

        monkeypatch.setattr(nonlocality, "_HARDY_BLOCK_POINTS", 7)  # below the 13 points of one row
        monkeypatch.setattr(nonlocality, "_hardy_fields", fields)
        assert _hardy_grid_argmax(axis1, axis2).tolist() == [axis1[i], axis2[j]]
        assert max(sizes) <= 7 and sum(sizes) == full.size

    def test_memory_does_not_grow_with_grid(self):
        def peak_bytes(grid):
            tracemalloc.start()
            try:
                hardy_optimize(grid=grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(1000) <= peak_bytes(200) + 5 * 2**20


class TestNoSignalling:
    def test_singlet_z_measurement(self):
        rho = projector(singlet_state())
        a = kron(SIGMA_Z, ID2)
        projs = [
            kron(ID2, np.diag([1.0, 0.0]).astype(complex)),
            kron(ID2, np.diag([0.0, 1.0]).astype(complex)),
        ]
        assert no_signalling_check(rho, a, projs) <= 1e-14

    def test_product_state(self):
        rho = projector(PRODUCT_00)
        b_hat = np.array([0.0, 1.0, 0.0])
        a = kron(sigma_dot((1, 0, 0)), ID2)
        projs = [kron(ID2, 0.5 * (ID2 + sigma_dot(b_hat))), kron(ID2, 0.5 * (ID2 - sigma_dot(b_hat)))]
        assert no_signalling_check(rho, a, projs) <= 1e-14

    def test_random_compliant_triples(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            rho = random_density(rng, 4)
            a = kron(sigma_dot(random_unit3(rng)), ID2)
            b_hat = random_unit3(rng)
            projs = [
                kron(ID2, 0.5 * (ID2 + sigma_dot(b_hat))),
                kron(ID2, 0.5 * (ID2 - sigma_dot(b_hat))),
            ]
            assert no_signalling_check(rho, a, projs) <= 1e-12

    def test_rejects_incomplete_projectors(self):
        rho = projector(singlet_state())
        a = kron(SIGMA_Z, ID2)
        with pytest.raises(ValueError, match="identity"):
            no_signalling_check(rho, a, [kron(ID2, np.diag([1.0, 0.0]).astype(complex))])

    def test_rejects_noncommuting_observable(self):
        rho = projector(singlet_state())
        a = kron(ID2, sigma_dot((1, 0, 0)))  # acts on the measured side
        projs = [
            kron(ID2, np.diag([1.0, 0.0]).astype(complex)),
            kron(ID2, np.diag([0.0, 1.0]).astype(complex)),
        ]
        with pytest.raises(ValueError, match="commute"):
            no_signalling_check(rho, a, projs)


def _nosignal_trials(seed, count):
    """`count` compliant trials (rho, A, [P+, P-]): A acts on qubit 1, the P on qubit 2."""
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(count):
        rho = random_density(rng, 4)
        a = kron(sigma_dot(random_unit3(rng)), ID2)
        b = sigma_dot(random_unit3(rng))
        trials.append((rho, a, [kron(ID2, 0.5 * (ID2 + b)), kron(ID2, 0.5 * (ID2 - b))]))
    return trials


def _stacked(trials):
    return tuple(np.array([trial[k] for trial in trials]) for k in range(3))


class TestNoSignallingStack:
    def test_stack_equals_one_trial_at_a_time(self):
        trials = _nosignal_trials(46, 200)
        lone = [no_signalling_check(*trial) for trial in trials]
        assert all(type(dev) is float for dev in lone)
        stacked = no_signalling_check(*_stacked(trials))
        assert isinstance(stacked, np.ndarray) and stacked.shape == (200,)
        assert stacked.tolist() == lone  # bit for bit
        # and both are the per-trial formula's bits: the deviation is roundoff, so any reordering shows
        for dev, (rho, a, projs) in zip(lone, trials):
            assert dev == abs(complex(np.trace(sum(p @ rho @ p for p in projs) @ a)) - complex(np.trace(rho @ a)))

    def test_every_projector_must_commute(self):
        # A commutes with the first of three projectors only
        a = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        projs = np.eye(3)[:, :, None] * np.eye(3)[:, None, :]
        with pytest.raises(ValueError, match="commute"):
            no_signalling_check(np.eye(3) / 3, a, projs)
        assert no_signalling_check(np.eye(3) / 3, np.diag([1.0, 2.0, 3.0]), projs) == 0.0

    def test_stack_shape_is_kept(self):
        rho, a, projs = _stacked(_nosignal_trials(47, 6))
        grid = no_signalling_check(rho.reshape(2, 3, 4, 4), a.reshape(2, 3, 4, 4), projs.reshape(2, 3, 2, 4, 4))
        assert np.array_equal(grid, no_signalling_check(rho, a, projs).reshape(2, 3))

    @staticmethod
    def _spoil(mode, rho, a, projs):
        if mode == "density":
            return 2.0 * rho, a, projs
        if mode == "projector":
            return rho, a, [2.0 * projs[0], projs[1]]
        if mode == "identity":
            return rho, a, [projs[0], projs[0]]
        return rho, kron(ID2, SIGMA_Z), projs  # "commute": A acts on the measured qubit

    @pytest.mark.parametrize("mode", ["density", "projector", "identity", "commute"])
    def test_one_bad_trial_raises_its_own_message(self, mode):
        trials = _nosignal_trials(48, 5)
        trials[3] = self._spoil(mode, *trials[3])
        with pytest.raises(ValueError) as lone:
            no_signalling_check(*trials[3])
        with pytest.raises(ValueError) as stacked:
            no_signalling_check(*_stacked(trials))
        assert str(stacked.value) == str(lone.value)

    @staticmethod
    def _bad_observables():
        nan = kron(SIGMA_Z, ID2)
        nan[0, 0] = np.nan
        inf = kron(SIGMA_Z, ID2)
        inf[1, 2] = np.inf
        return {"nan": nan, "inf": inf, "anti-hermitian": 1j * kron(SIGMA_Z, ID2)}

    @pytest.mark.parametrize("kind", ["nan", "inf", "anti-hermitian"])
    def test_observable_must_be_finite_and_hermitian(self, kind):
        bad = self._bad_observables()[kind]
        rho, a, projs = _nosignal_trials(53, 1)[0]
        if kind == "anti-hermitian":  # it commutes with the projectors: only the Hermiticity check rejects it
            assert all(np.array_equal(bad @ p, p @ bad) for p in projs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite and Hermitian"):
                no_signalling_check(rho, bad, projs)
            trials = _nosignal_trials(53, 5)
            trials[2] = (trials[2][0], bad, trials[2][2])  # only trial 2 is bad
            with pytest.raises(ValueError, match="not finite and Hermitian"):
                no_signalling_check(*_stacked(trials))

    @pytest.mark.parametrize("k", [0, 1])
    def test_non_finite_projector_rejected(self, k):
        rho, a, projs = _nosignal_trials(55, 1)[0]
        projs = [p.copy() for p in projs]
        projs[k][3, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite and Hermitian"):
                no_signalling_check(rho, a, projs)

    def test_non_idempotent_projectors_rejected(self):
        # 2 P+ and P- - P+ are Hermitian, commute with A and sum to the identity: only idempotency fails
        trials = _nosignal_trials(56, 5)
        rho, a, (plus, minus) = trials[2]
        trials[2] = (rho, a, [2.0 * plus, minus - plus])
        for args in (trials[2], _stacked(trials)):
            with pytest.raises(ValueError, match="idempotent"):
                no_signalling_check(*args)

    def test_stack_raises_in_the_order_of_the_checks_not_of_the_trials(self):
        # trial 1 fails commutation only, trial 3 completeness only: completeness is checked first
        trials = _nosignal_trials(57, 5)
        trials[1] = self._spoil("commute", *trials[1])
        trials[3] = (trials[3][0], trials[3][1], [trials[3][2][0], np.zeros((4, 4), dtype=complex)])
        for k, message in ((1, "commute"), (3, "identity")):
            with pytest.raises(ValueError, match=message):
                no_signalling_check(*trials[k])
        with pytest.raises(ValueError, match="^projectors do not resolve the identity$"):
            no_signalling_check(*_stacked(trials))

    def test_non_hermitian_noncommuting_observable_reports_hermiticity(self):
        trials = _nosignal_trials(58, 4)
        bad = 1j * kron(ID2, PAULIS[0])  # anti-Hermitian, and acts on the measured qubit
        rho, a, projs = trials[2]
        assert np.max(np.abs(bad @ projs[0] - projs[0] @ bad)) > 1e-3
        trials[2] = (rho, bad, projs)
        for args in (trials[2], _stacked(trials)):
            with pytest.raises(ValueError, match="^matrix is not finite and Hermitian within tolerance$"):
                no_signalling_check(*args)

    def test_observable_shape_must_match(self):
        rho, a, projs = _nosignal_trials(54, 1)[0]
        for bad in (a[:2, :2], a[None], np.zeros(4)):
            with pytest.raises(ValueError, match="observable dimension"):
                no_signalling_check(rho, bad, projs)

    def test_mismatched_projectors_rejected(self):
        rho, a, projs = _stacked(_nosignal_trials(49, 3))
        for bad in (projs[0], projs[:2], projs[..., :2, :2]):
            with pytest.raises(ValueError, match="match the state"):
                no_signalling_check(rho, a, bad)


def test_ghz_stabilizers_on_explicit_state():
    psi = ghz_state()
    from hvlab.qmath import SIGMA_X, SIGMA_Y

    xyy = kron(kron(SIGMA_X, SIGMA_Y), SIGMA_Y)
    xxx = kron(kron(SIGMA_X, SIGMA_X), SIGMA_X)
    assert np.max(np.abs(xyy @ psi - psi)) <= 1e-12
    assert np.max(np.abs(xxx @ psi + psi)) <= 1e-12
