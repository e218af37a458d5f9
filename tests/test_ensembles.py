import numpy as np
import pytest

from hvlab.ensembles import (
    JAUCH_PIRON_MIN_GAP,
    ExpectationOracle,
    basis_observables,
    dispersion_free_witness,
    dispersion_scan,
    homogeneity_check,
    jauch_piron_contradiction,
    oracle_from_density,
    reconstruct_density,
)
from hvlab.qmath import TAU_EQ, projector, random_density, random_state


class TestBasisObservables:
    def test_count_is_dim_squared(self):
        for dim in (2, 3, 4):
            assert basis_observables(dim).count() == dim * dim

    def test_members_hermitian(self):
        for obs in basis_observables(4).members():
            assert np.max(np.abs(obs - obs.conj().T)) <= TAU_EQ


class TestReconstruction:
    def test_bits_of_an_np_trace_oracle(self):
        rng = np.random.default_rng(60)
        for k in range(300):
            dim = 2 + k % 3
            rho = random_density(rng, dim)
            reference = ExpectationOracle(dim, lambda a: complex(np.trace(rho @ a)).real)
            got, want = reconstruct_density(oracle_from_density(rho)), reconstruct_density(reference)
            assert [(z.real.hex(), z.imag.hex()) for z in got.ravel().tolist()] == [
                (z.real.hex(), z.imag.hex()) for z in want.ravel().tolist()]

    def test_pure_zero_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(reconstruct_density(oracle_from_density(rho)), rho, atol=1e-14)

    def test_maximally_mixed(self):
        rho = np.eye(2, dtype=complex) / 2
        assert np.allclose(reconstruct_density(oracle_from_density(rho)), rho, atol=1e-14)

    def test_random_mixture_roundtrip(self):
        # build rho first from a pure-state mixture, then compare entrywise
        rng = np.random.default_rng(10)
        weights = rng.dirichlet(np.ones(4))
        rho = sum(w * projector(random_state(rng, 3)) for w in weights)
        rebuilt = reconstruct_density(oracle_from_density(rho))
        assert np.max(np.abs(rebuilt - rho)) <= 1e-10

    def test_roundtrip_many_dims(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 4):
            for _ in range(10):
                rho = random_density(rng, dim)
                rebuilt = reconstruct_density(oracle_from_density(rho))
                assert np.max(np.abs(rebuilt - rho)) <= 1e-10
                assert np.max(np.abs(rebuilt - rebuilt.conj().T)) <= TAU_EQ
                assert abs(np.trace(rebuilt).real - 1.0) <= TAU_EQ

    def test_malformed_ensemble_rejected(self):
        # <I> = 0.5 instead of 1
        bad = ExpectationOracle(dim=2, expect=lambda a: 0.25 * np.trace(a).real)
        with pytest.raises(ValueError, match="malformed"):
            reconstruct_density(bad)


class TestDispersionScan:
    def test_pure_state_gives_cos_squared(self):
        phi1 = np.array([1.0, 0.0], dtype=complex)
        phi2 = np.array([0.0, 1.0], dtype=complex)
        thetas, values = dispersion_scan(projector(phi1), phi1, phi2, steps=101)
        assert np.allclose(values, np.cos(thetas) ** 2, atol=1e-14)

    def test_maximally_mixed_is_constant(self):
        phi1 = np.array([1.0, 0.0], dtype=complex)
        phi2 = np.array([0.0, 1.0], dtype=complex)
        _, values = dispersion_scan(np.eye(2, dtype=complex) / 2, phi1, phi2, steps=50)
        assert np.allclose(values, 0.5, atol=1e-14)

    def test_continuity_bound(self):
        # finite-difference continuity: adjacent jumps bounded by 2*pi/steps
        rng = np.random.default_rng(12)
        rho = random_density(rng, 4)
        evals, evecs = np.linalg.eigh(rho)
        steps = 1000
        _, values = dispersion_scan(rho, evecs[:, -1], evecs[:, 0], steps=steps)
        assert np.max(np.abs(np.diff(values))) <= 2 * np.pi / steps

    def test_endpoints_match_direct_expectation(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 3)
        evals, evecs = np.linalg.eigh(rho)
        phi1, phi2 = evecs[:, 2], evecs[:, 1]
        _, values = dispersion_scan(rho, phi1, phi2, steps=7)
        assert abs(values[0] - np.vdot(phi1, rho @ phi1).real) <= 1e-14
        assert abs(values[-1] - np.vdot(phi2, rho @ phi2).real) <= 1e-14

    def test_rejects_non_orthogonal(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="orthogonal"):
            dispersion_scan(projector(phi), phi, phi, steps=10)

    def test_matches_per_angle_loop(self):
        rng = np.random.default_rng(15)
        for dim in (2, 3, 4):
            rho = random_density(rng, dim)
            evecs = np.linalg.eigh(rho)[1]
            phi1, phi2 = evecs[:, -1], evecs[:, 0]
            thetas, values = dispersion_scan(rho, phi1, phi2, steps=257)
            for t, got in zip(thetas, values):
                phi = np.cos(t) * phi1 + np.sin(t) * phi2
                assert abs(got - np.vdot(phi, rho @ phi).real) <= 1e-15

    def test_rejects_too_few_steps(self):
        phi1 = np.array([1.0, 0.0], dtype=complex)
        phi2 = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(ValueError, match="steps"):
            dispersion_scan(projector(phi1), phi1, phi2, steps=1)


def witness_by_grid_scan(rho, rng, trials=1000):
    """Independent oracle: random states until one is strictly intermediate."""
    for _ in range(trials):
        phi = random_state(rng, rho.shape[0])
        val = float(np.vdot(phi, rho @ phi).real)
        if 0.01 < val < 0.99:
            return phi
    return None


class TestDispersionFreeWitness:
    def test_pure_zero_state_gives_half(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        phi = dispersion_free_witness(rho)
        assert abs(np.vdot(phi, rho @ phi).real - 0.5) <= 1e-12

    def test_maximally_mixed_gives_half(self):
        rho = np.eye(2, dtype=complex) / 2
        phi = dispersion_free_witness(rho)
        assert abs(np.vdot(phi, rho @ phi).real - 0.5) <= 1e-12

    def test_random_dim3_matches_grid_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = random_density(rng, 3)
            phi = dispersion_free_witness(rho)
            val = float(np.vdot(phi, rho @ phi).real)
            assert 0.01 < val < 0.99
            assert witness_by_grid_scan(rho, rng) is not None

    def test_succeeds_on_rank_one_extremes(self):
        for dim in (2, 3, 4, 8):
            rho = np.zeros((dim, dim), dtype=complex)
            rho[0, 0] = 1.0
            phi = dispersion_free_witness(rho)
            val = float(np.vdot(phi, rho @ phi).real)
            assert 0.01 < val < 0.99

    def test_top_eigenvector_when_the_rotation_is_at_most_epsilon(self):
        # (l1 + l2)/2 = (0.015 + 0.985/199)/2 < 0.01, yet l1 itself is a witness value
        rho = np.diag([0.985 / 199] * 100 + [0.015] + [0.985 / 199] * 99).astype(complex)
        phi = dispersion_free_witness(rho)
        assert abs(np.vdot(phi, rho @ phi).real - 0.015) <= 1e-15

    def test_no_witness_when_every_eigenvalue_is_at_most_epsilon(self):
        with pytest.raises(ValueError, match="no dispersion witness exists"):
            dispersion_free_witness(np.eye(120, dtype=complex) / 120)


class TestHomogeneity:
    def test_pure(self):
        assert homogeneity_check(np.diag([1.0, 0.0]).astype(complex)) == (True, 1)

    def test_mixed(self):
        assert homogeneity_check(np.eye(2, dtype=complex) / 2) == (False, 2)

    def test_unbalanced_mixture(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        pure, rank = homogeneity_check(rho)
        assert not pure
        assert rank == 2
        assert abs(np.trace(rho @ rho).real - 0.82) <= 1e-15

    def test_equivalent_to_unit_purity(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            rho = random_density(rng, 3)
            pure, _ = homogeneity_check(rho)
            assert pure == (abs(np.trace(rho @ rho).real - 1.0) <= TAU_EQ)
        for dim in (2, 3, 4):
            rho = projector(random_state(rng, dim))
            pure, rank = homogeneity_check(rho)
            assert pure and rank == 1


class TestJauchPiron:
    def test_z_and_x(self):
        report = jauch_piron_contradiction((0, 0, 1), (1, 0, 0))
        assert report.completeness_dev <= TAU_EQ
        assert all(r == 0 for row in report.cross_ranks for r in row)
        assert report.all_intersections_zero

    def test_nearly_parallel_directions(self):
        b = (np.sin(0.01), 0.0, np.cos(0.01))
        report = jauch_piron_contradiction((0, 0, 1), b)
        assert all(r == 0 for row in report.cross_ranks for r in row)

    def test_rank_via_eigendecomposition_oracle(self):
        from hvlab.qmath import ID2, intersection_projector, sigma_dot

        rng = np.random.default_rng(16)
        for _ in range(20):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            p = 0.5 * (ID2 + sigma_dot(a))
            q = 0.5 * (ID2 + sigma_dot(b))
            out, rank = intersection_projector(p, q)
            oracle_rank = int(np.sum(np.linalg.eigvalsh(out) > 0.5))
            assert rank == oracle_rank

    def test_rejects_degenerate_directions(self):
        with pytest.raises(ValueError, match="degenerate"):
            jauch_piron_contradiction((0, 0, 1), (0, 0, 1))
        with pytest.raises(ValueError, match="degenerate"):
            jauch_piron_contradiction((0, 0, 1), (0, 0, -1))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["parallel", "antiparallel"])
    def test_guard_keeps_every_accepted_intersection_empty(self, sign):
        # |a -+ b| = 2 sin(t/2) for b at angle t from +-a: just above the guard every cross
        # intersection is empty, and just below it the input is rejected, not miscounted
        for factor, accepted in ((1.01, True), (0.99, False), (1e-3, False)):
            t = 2.0 * np.arcsin(factor * JAUCH_PIRON_MIN_GAP / 2.0)
            b = sign * np.array([np.cos(t), np.sin(t), 0.0])
            if accepted:
                report = jauch_piron_contradiction((1, 0, 0), b)
                assert report.all_intersections_zero and report.cross_ranks == ((0, 0), (0, 0))
            else:
                with pytest.raises(ValueError, match="degenerate"):
                    jauch_piron_contradiction((1, 0, 0), b)

    def test_guard_sits_above_the_rank_threshold(self):
        # the guard's margin: at 1/4 of it the rank count fails, as the unguarded contradiction did
        from hvlab.qmath import intersection_projector, sigma_dot

        t = 2.0 * np.arcsin(0.25 * JAUCH_PIRON_MIN_GAP / 2.0)
        p = 0.5 * (np.eye(2) + sigma_dot((1, 0, 0)))
        q = 0.5 * (np.eye(2) + sigma_dot((np.cos(t), np.sin(t), 0.0)))
        assert intersection_projector(p, q)[1] == 1

    def test_cross_ranks_match_intersection_projector(self):
        # random pairs, and pairs at 1 to 1.5 times the guard from parallel and from antiparallel
        from hvlab.qmath import ID2, intersection_projector, sigma_dot

        rng = np.random.default_rng(17)
        units = rng.normal(size=(300, 3))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        pairs = list(zip(units[:100], units[100:200]))
        for a, t in zip(units[200:], rng.normal(size=(100, 3))):
            t -= (t @ a) * a
            t /= np.linalg.norm(t)
            angle = 2.0 * np.arcsin(rng.uniform(1.01, 1.5) * JAUCH_PIRON_MIN_GAP / 2.0)
            b = np.cos(angle) * a + np.sin(angle) * t
            pairs += [(a, b), (a, -b)]
        for a, b in pairs:
            report = jauch_piron_contradiction(a, b)
            want = tuple(
                tuple(intersection_projector(0.5 * (ID2 + s_a * sigma_dot(a)), 0.5 * (ID2 + s_b * sigma_dot(b)))[1]
                      for s_b in (1.0, -1.0))
                for s_a in (1.0, -1.0)
            )
            assert report.cross_ranks == want
            assert report.all_intersections_zero == (want == ((0, 0), (0, 0)))

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            jauch_piron_contradiction((0, 0, 2), (1, 0, 0))

    def test_rejects_nan_direction(self):
        with pytest.raises(ValueError, match="unit"):
            jauch_piron_contradiction((np.nan, 0, 0), (1, 0, 0))
