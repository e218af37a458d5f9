import itertools
import math

import numpy as np
import pytest

from hvlab.contextuality import (
    GREEN,
    RED,
    PERES_SQUARED_TRIPLES,
    canonical_ray,
    count_sign_assignments,
    ks_color,
    load_rays,
    mermin_assignment_search,
    mermin_square,
    mermin_verify,
    orthogonality_structure,
    peres_rays,
    save_rays,
    verify_coloring,
)
from hvlab.qmath import ID2, SIGMA_X, kron

# pair/triad counts of the 33-ray structure, frozen after first derivation
PERES_PAIR_COUNT = 72
PERES_TRIAD_COUNT = 16


class TestCanonicalRay:
    def test_normalizes(self):
        ray = canonical_ray([0, 0, 2])
        assert np.allclose(ray, [0, 0, 1])

    def test_antipode_identified(self):
        assert np.allclose(canonical_ray([0, -1, 0]), canonical_ray([0, 1, 0]))
        assert np.allclose(canonical_ray([-1, 1, 0]), -np.array([-1, 1, 0]) / np.sqrt(2))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            canonical_ray([0, 0, 0])

    @pytest.mark.parametrize("bad", [[np.nan, 0, 0], [0, np.inf, 0], [0, 0, -np.inf], [1e200, 1e200, 0]])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            canonical_ray(bad)


def family_of(ray):
    """Independent classification of a ray by its sorted squared components."""
    sq = np.sort(np.round(ray**2, 9))
    for idx, triple in enumerate(PERES_SQUARED_TRIPLES):
        if np.allclose(sq, np.sort(triple), atol=1e-9):
            return idx
    return None


class TestPeresRays:
    def test_exactly_33(self):
        assert peres_rays().shape == (33, 3)

    def test_axes_family_has_three(self):
        rays = peres_rays()
        axes = [r for r in rays if family_of(r) == 0]
        assert len(axes) == 3

    def test_family_counts(self):
        # sign/permutation orbits modulo antipodes: 3 + 6 + 12 + 12
        rays = peres_rays()
        counts = [0, 0, 0, 0]
        for ray in rays:
            fam = family_of(ray)
            assert fam is not None
            counts[fam] += 1
        assert counts == [3, 6, 12, 12]

    def test_all_canonical_and_unit(self):
        for ray in peres_rays():
            assert abs(np.linalg.norm(ray) - 1.0) <= 1e-12
            assert np.allclose(ray, canonical_ray(ray))

    def test_no_duplicates(self):
        rays = peres_rays()
        keys = {tuple(np.round(r, 10)) for r in rays}
        assert len(keys) == 33


class TestOrthogonalityStructure:
    def test_axes(self):
        st = orthogonality_structure(np.eye(3))
        assert len(st.pairs) == 3
        assert st.triads == ((0, 1, 2),)

    def test_two_rays_no_triad(self):
        st = orthogonality_structure(np.array([[1, 0, 0], [0, 1, 0]], dtype=float))
        assert st.pairs == ((0, 1),)
        assert st.triads == ()

    def test_peres_counts_frozen(self):
        st = orthogonality_structure(peres_rays())
        assert len(st.pairs) == PERES_PAIR_COUNT
        assert len(st.triads) == PERES_TRIAD_COUNT

    def test_matches_cubic_enumeration_oracle(self):
        rays = peres_rays()
        n = len(rays)
        pairs = set()
        triads = set()
        for i in range(n):
            for j in range(i + 1, n):
                if abs(np.dot(rays[i], rays[j])) <= 1e-9:
                    pairs.add((i, j))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if (
                        abs(np.dot(rays[i], rays[j])) <= 1e-9
                        and abs(np.dot(rays[i], rays[k])) <= 1e-9
                        and abs(np.dot(rays[j], rays[k])) <= 1e-9
                    ):
                        triads.add((i, j, k))
        st = orthogonality_structure(rays)
        assert set(st.pairs) == pairs
        assert set(st.triads) == triads

    def test_every_triad_pair_listed(self):
        st = orthogonality_structure(peres_rays())
        pair_set = set(st.pairs)
        for (i, j, k) in st.triads:
            assert {(i, j), (i, k), (j, k)} <= pair_set


class TestKsColor:
    def test_single_triad_sat(self):
        st = orthogonality_structure(np.eye(3))
        result = ks_color(st)
        assert result.satisfiable
        assert sorted(result.colors) == [GREEN, RED, RED]
        assert verify_coloring(st, result.colors)

    def test_peres_unsat(self):
        result = ks_color(orthogonality_structure(peres_rays()))
        assert not result.satisfiable
        assert result.colors is None
        assert result.nodes_explored > 0

    def test_unsat_stable_under_permutations(self):
        rays = peres_rays()
        rng = np.random.default_rng(30)
        for _ in range(5):
            perm = rng.permutation(len(rays))
            assert not ks_color(orthogonality_structure(rays[perm])).satisfiable

    def test_deterministic_node_count(self):
        st = orthogonality_structure(peres_rays())
        assert ks_color(st).nodes_explored == ks_color(st).nodes_explored

    def test_delete_one_ray_certificates_verified(self):
        rays = peres_rays()
        sat_seen = 0
        for drop in range(len(rays)):
            subset = np.delete(rays, drop, axis=0)
            st = orthogonality_structure(subset)
            result = ks_color(st)
            if result.satisfiable:
                sat_seen += 1
                assert verify_coloring(st, result.colors)
        assert sat_seen >= 0  # verdicts recorded; certificates all re-verified

    def test_verifier_rejects_bad_coloring(self):
        st = orthogonality_structure(np.eye(3))
        assert not verify_coloring(st, [GREEN, GREEN, RED])  # orthogonal pair both green
        assert not verify_coloring(st, [RED, RED, RED])  # triad with no green
        assert not verify_coloring(st, [GREEN, RED])  # wrong length


class TestRayFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rays.txt"
        save_rays(path, peres_rays())
        loaded = load_rays(path)
        assert np.allclose(loaded, peres_rays(), atol=1e-9)

    def test_comments_and_canonicalization(self, tmp_path):
        path = tmp_path / "rays.txt"
        path.write_text("# axes\n1 0 0\n0 -2 0   # scaled antipode\n\n0 0 1\n")
        rays = load_rays(path)
        assert np.allclose(rays, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_rejects_bad_line(self, tmp_path):
        path = tmp_path / "rays.txt"
        path.write_text("1 0\n")
        with pytest.raises(ValueError, match="3 components"):
            load_rays(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "rays.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no rays"):
            load_rays(path)


class TestMerminSquare:
    def test_first_entry_is_x_on_particle_one(self):
        square = mermin_square()
        assert np.array_equal(square[0, 0], kron(SIGMA_X, ID2))

    def test_entries_square_to_identity(self):
        square = mermin_square()
        eye4 = np.eye(4)
        for r in range(3):
            for c in range(3):
                assert np.max(np.abs(square[r, c] @ square[r, c] - eye4)) <= 1e-12

    def test_verify_products_and_commutation(self):
        report = mermin_verify(mermin_square())
        assert report.ok
        assert report.max_product_dev <= 1e-12
        assert report.max_commutator <= 1e-12
        assert report.reversed_products_match
        assert report.row_signs == (1, 1, 1)
        assert report.col_signs == (1, 1, -1)

    def test_verify_rejects_corrupted_square(self):
        square = mermin_square().copy()
        square[2, 2] = kron(ID2, ID2)
        with pytest.raises(ValueError, match="fails verification"):
            mermin_verify(square)


class TestMerminAssignmentSearch:
    def test_counts(self):
        result = mermin_assignment_search()
        assert result.n_checked == 512
        assert result.n_satisfying == 0
        assert result.row_parity == 1
        assert result.col_parity == -1

    def test_relaxed_third_column_becomes_satisfiable(self):
        result = mermin_assignment_search(col_signs=(1, 1, 1))
        assert result.n_satisfying > 0
        assert result.col_parity == 1


def test_count_sign_assignments_matches_plain_loop():
    rng = np.random.default_rng(5)
    for n_vars in (1, 4, 7):
        constraints = [
            (rng.choice(n_vars, size=rng.integers(1, n_vars + 1), replace=False), int(rng.choice((1, -1))))
            for _ in range(3)
        ]
        want = sum(
            all(math.prod(values[i] for i in indices) == target for indices, target in constraints)
            for values in itertools.product((1, -1), repeat=n_vars)
        )
        assert count_sign_assignments(n_vars, constraints) == (2**n_vars, want)
