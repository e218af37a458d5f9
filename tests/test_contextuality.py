import itertools
import math
import sys

import numpy as np
import pytest

from hvlab.contextuality import (
    GREEN,
    RED,
    PERES_SQUARED_TRIPLES,
    OrthogonalityStructure,
    canonical_ray,
    ks_color,
    load_rays,
    orthogonality_structure,
    peres_floats,
    peres_rays,
    save_rays,
    verify_coloring,
)
from hvlab import contextuality
from hvlab.kernels import (
    MERMIN_COL_SIGNS,
    MERMIN_ROW_SIGNS,
    MERMIN_SQUARE,
    count_sign_assignments,
    mermin_assignment_search,
    mermin_square,
    mermin_verify,
)
from hvlab.options import MAX_RAYS
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

    @pytest.mark.parametrize("v", [[0, -2, 0], np.array([0, -2, 0]), [[0], [-2], [0]], (0.0, -2.0, 0.0)])
    def test_any_three_numbers_give_a_float_triple(self, v):
        ray = canonical_ray(v)
        assert ray == (0.0, 1.0, 0.0) and all(type(c) is float for c in ray)

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

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_rejects_a_tol_that_is_not_finite_and_non_negative(self, tol):
        # a NaN or negative tol finds no pair, so Peres's 33 rays would color
        fault = "must be non-negative" if tol < 0.0 else "must be a finite number"
        with pytest.raises(ValueError, match=rf"^tol {fault}, got {tol}$"):
            orthogonality_structure(peres_rays(), tol=tol)

    def test_zero_tol_is_valid(self):
        assert orthogonality_structure(np.eye(3), tol=0.0).triads == ((0, 1, 2),)

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

    @pytest.mark.parametrize("cap, counts", [("MAX_ORTHOGONAL_PAIRS", "pairs"), ("MAX_TRIADS", "triads")])
    def test_pair_and_triad_caps(self, monkeypatch, cap, counts):
        found = len(getattr(orthogonality_structure(peres_rays()), counts))
        monkeypatch.setattr(contextuality, cap, found)
        assert len(getattr(orthogonality_structure(peres_rays()), counts)) == found
        monkeypatch.setattr(contextuality, cap, found - 1)
        with pytest.raises(ValueError, match=f"^more than {found - 1} orthogonal {counts} at tol 1e-09$"):
            orthogonality_structure(peres_rays())

    def test_triads_of_a_dense_bipartite_graph(self):
        # 60 copies each of x and y, interleaved: 3600 pairs and no triad; z closes 60^2 triads
        st = orthogonality_structure([(1, 0, 0), (0, 1, 0)] * 60)
        assert (len(st.pairs), st.triads) == (3600, ())
        st = orthogonality_structure([(1, 0, 0), (0, 1, 0)] * 60 + [(0, 0, 1)])
        assert st.triads == tuple((i, j, 120) for i, j in st.pairs if j < 120)

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

    def test_node_counts_pinned(self):
        # variable, value and propagation order fix these; a solver change that moves them is visible
        rays = peres_rays()
        assert ks_color(orthogonality_structure(rays)).nodes_explored == 46
        deletions = [ks_color(orthogonality_structure(np.delete(rays, i, axis=0))) for i in range(len(rays))]
        assert sum(r.nodes_explored for r in deletions) == 167

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
        assert sat_seen == 33  # the 33-ray set is critical: every one-ray deletion is colorable

    @pytest.mark.parametrize("tol", [1e-9, 0.5, 0.7])
    def test_verdict_matches_brute_force(self, tol):
        # rotated subsets of at most 16 rays; the loose tolerances add pairs, so that some are uncolorable
        rng = np.random.default_rng(31)
        rays = peres_rays()
        verdicts = set()
        for _ in range(12):
            n = int(rng.integers(1, 17))
            rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            st = orthogonality_structure(rays[rng.choice(len(rays), size=n, replace=False)] @ rotation.T, tol)
            green = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1) == GREEN  # all 2^n colorings
            valid = np.ones(2**n, dtype=bool)
            for triad in st.triads:
                valid &= green[:, list(triad)].sum(axis=1) == 1
            for i, j in st.pairs:
                valid &= ~(green[:, i] & green[:, j])
            result = ks_color(st)
            assert result.satisfiable == valid.any()
            if result.satisfiable:
                assert valid[np.sum((result.colors == RED) << np.arange(n))]
            verdicts.add(result.satisfiable)
        if tol == 0.7:
            assert verdicts == {True, False}

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # with no pair and no triad every ray is a decision, so the search is n decisions deep
        n = 2 * sys.getrecursionlimit()
        result = ks_color(OrthogonalityStructure(((1.0, 0.0, 0.0),) * n, (), ()))
        assert result.satisfiable and result.nodes_explored == n and set(result.coloring) == {GREEN}

    def test_verifier_rejects_bad_coloring(self):
        st = orthogonality_structure(np.eye(3))
        assert not verify_coloring(st, [GREEN, GREEN, RED])  # orthogonal pair both green
        assert not verify_coloring(st, [RED, RED, RED])  # triad with no green
        assert not verify_coloring(st, [GREEN, RED])  # wrong length


def test_arrays_are_built_from_the_floats_when_read():
    structure = orthogonality_structure(peres_rays())
    result = ks_color(orthogonality_structure(np.eye(3)))
    for array, values, dtype in (
        (peres_rays(), peres_floats(), float),
        (structure.rays, structure.floats, float),
        (result.colors, result.coloring, int),
        (mermin_square(), MERMIN_SQUARE, complex),
    ):
        assert type(array) is np.ndarray and array.dtype == dtype and not array.flags.writeable
        assert np.array_equal(array, np.array(values))
    assert structure.floats == peres_floats() and ks_color(structure).colors is None


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

    def test_ray_count_limit(self, tmp_path):
        path = tmp_path / "rays.txt"
        path.write_text("# one ray over the limit\n" + "1 0 0\n" * MAX_RAYS)
        assert len(load_rays(path)) == MAX_RAYS
        with open(path, "a") as fh:
            fh.write("\n0 1 0\n")
        with pytest.raises(ValueError, match=f"^{path}:{MAX_RAYS + 3}: more than {MAX_RAYS} rays$"):
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
        assert report.max_product_dev <= 1e-12
        assert report.max_commutator <= 1e-12
        assert report.row_signs == (1, 1, 1)
        assert report.col_signs == (1, 1, -1)

    def test_verify_rejects_corrupted_square(self):
        square = mermin_square().copy()
        square[2, 2] = kron(ID2, ID2)
        with pytest.raises(ValueError, match="fails verification"):
            mermin_verify(square)

    def test_verify_rejects_noncommuting_line(self):
        # swapping X(1) and Y(2) puts Y(2) beside X(2) in the first row
        square = mermin_square().copy()
        square[[0, 1], 0] = square[[1, 0], 0]
        with pytest.raises(ValueError, match="commutator 2"):
            mermin_verify(square)


class TestMerminAssignmentSearch:
    def test_counts(self):
        result = mermin_assignment_search()
        assert result.n_checked == 512
        assert result.n_satisfying == 0
        assert math.prod(MERMIN_ROW_SIGNS) == 1
        assert math.prod(MERMIN_COL_SIGNS) == -1

    def test_relaxed_third_column_becomes_satisfiable(self):
        col_signs = (1, 1, 1)
        constraints = [(range(3 * r, 3 * r + 3), MERMIN_ROW_SIGNS[r]) for r in range(3)]
        constraints += [(range(c, 9, 3), col_signs[c]) for c in range(3)]
        result = count_sign_assignments(9, constraints)
        assert result.n_satisfying > 0
        assert math.prod(col_signs) == 1


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
