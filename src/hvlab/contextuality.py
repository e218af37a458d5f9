"""Kochen-Specker machinery and the two-qubit operator square.

Rays in real 3-space are canonicalized under antipodal identification
(first nonzero component positive).  A coloring assigns GREEN (value 0) or
RED (value 1) to each ray; it is valid when every complete orthogonal triad
has exactly one GREEN and no orthogonal pair is GREEN-GREEN.  The 33-ray
set built from the squared direction cosines (0,0,1), (0,1/2,1/2),
(0,1/3,2/3) and (1/4,1/4,1/2) admits no valid coloring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .qmath import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, TAU_EQ, kron

TAU_ORTH = 1e-9

GREEN = 0  # squared-spin value 0
RED = 1  # squared-spin value 1
UNASSIGNED = -1

PERES_SQUARED_TRIPLES = ((0.0, 0.0, 1.0), (0.0, 0.5, 0.5), (0.0, 1 / 3, 2 / 3), (0.25, 0.25, 0.5))


def canonical_ray(v, zero_tol: float = 1e-12) -> np.ndarray:
    """Unit vector with the first nonzero component positive.

    A vector whose length is zero, NaN, infinite or overflows is rejected.
    """
    ray = np.asarray(v, dtype=float).reshape(3)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(ray)
    if not 0.0 < norm < np.inf:  # also false for NaN components
        raise ValueError(f"ray must have finite, nonzero length, got {ray.tolist()}")
    ray = ray / norm
    for c in ray:
        if abs(c) > zero_tol:
            if c < 0:
                ray = -ray
            break
    return ray


def peres_rays() -> np.ndarray:
    """The 33 canonical rays whose squared components permute the four
    generating triples, deduplicated under antipodal identification."""
    seen: dict[tuple, int] = {}
    rays: list[np.ndarray] = []
    for triple in PERES_SQUARED_TRIPLES:
        mags = np.sqrt(np.array(triple))
        for perm in sorted(set(itertools.permutations(range(3)))):
            components = mags[list(perm)]
            for signs in itertools.product((1.0, -1.0), repeat=3):
                ray = canonical_ray(components * np.array(signs))
                key = tuple(np.round(ray, 10))
                if key not in seen:
                    seen[key] = len(rays)
                    rays.append(ray)
    return np.array(rays)


@dataclass(frozen=True)
class OrthogonalityStructure:
    """Rays plus their orthogonal pairs and complete mutually-orthogonal triads."""

    rays: np.ndarray
    pairs: tuple
    triads: tuple


def orthogonality_structure(rays, tol: float = TAU_ORTH) -> OrthogonalityStructure:
    """All orthogonal pairs |r_i . r_j| <= tol and all mutually orthogonal
    triples, in lexicographic index order."""
    rays = np.atleast_2d(np.asarray(rays, dtype=float))
    if rays.shape[1] != 3:
        raise ValueError("rays must be 3-vectors")
    n = rays.shape[0]
    dots = np.abs(rays @ rays.T)
    pairs = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if dots[i, j] <= tol
    )
    pair_set = set(pairs)
    triads = tuple(
        (i, j, k)
        for (i, j) in pairs
        for k in range(j + 1, n)
        if (i, k) in pair_set and (j, k) in pair_set
    )
    return OrthogonalityStructure(rays=rays, pairs=pairs, triads=triads)


def load_rays(path) -> np.ndarray:
    """Read a ray file: one ray per line, three components, '#' comments."""
    rays = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 components, got {len(parts)}")
            rays.append(canonical_ray([float(p) for p in parts]))
    if not rays:
        raise ValueError(f"{path}: no rays found")
    return np.array(rays)


def save_rays(path, rays) -> None:
    rays = np.atleast_2d(np.asarray(rays, dtype=float))
    with open(path, "w") as fh:
        fh.write("# one ray per line: three components separated by whitespace\n")
        for ray in rays:
            fh.write(f"{ray[0]:.12f} {ray[1]:.12f} {ray[2]:.12f}\n")


@dataclass(frozen=True)
class KsResult:
    satisfiable: bool
    colors: np.ndarray | None
    nodes_explored: int


def verify_coloring(structure: OrthogonalityStructure, colors) -> bool:
    """Independent certificate check: knows nothing of the solver.

    Valid iff every complete triad has exactly one GREEN and no orthogonal
    pair is GREEN-GREEN.
    """
    colors = np.asarray(colors, dtype=int)
    if colors.shape != (structure.rays.shape[0],) or not set(np.unique(colors)) <= {GREEN, RED}:
        return False
    for (i, j, k) in structure.triads:
        if (colors[i] == GREEN) + (colors[j] == GREEN) + (colors[k] == GREEN) != 1:
            return False
    for (i, j) in structure.pairs:
        if colors[i] == GREEN and colors[j] == GREEN:
            return False
    return True


def ks_color(structure: OrthogonalityStructure) -> KsResult:
    """Backtracking search for a valid coloring, with unit propagation.

    Propagation rules: a GREEN ray forces RED on all its orthogonal
    partners; a triad with two REDs forces GREEN on the third; a triad
    with three REDs is a conflict.  Variables are tried in descending
    orthogonality-graph degree (ties by index), GREEN before RED, so runs
    are deterministic and node counts are stable for a fixed input order.
    """
    n = structure.rays.shape[0]
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for (i, j) in structure.pairs:
        neighbors[i].append(j)
        neighbors[j].append(i)
    triads_of: list[list[int]] = [[] for _ in range(n)]
    for t, triad in enumerate(structure.triads):
        for m in triad:
            triads_of[m].append(t)

    order = sorted(range(n), key=lambda i: (-len(neighbors[i]), i))
    colors = np.full(n, UNASSIGNED, dtype=int)
    nodes = 0

    def assign(i: int, c: int, trail: list[int], queue: list[int]) -> bool:
        if colors[i] != UNASSIGNED:
            return colors[i] == c
        colors[i] = c
        trail.append(i)
        queue.append(i)
        return True

    def propagate(trail: list[int], queue: list[int]) -> bool:
        while queue:
            i = queue.pop()
            if colors[i] == GREEN:
                for j in neighbors[i]:
                    if not assign(j, RED, trail, queue):
                        return False
            for t in triads_of[i]:
                members = structure.triads[t]
                greens = sum(1 for m in members if colors[m] == GREEN)
                reds = sum(1 for m in members if colors[m] == RED)
                if greens > 1 or reds == 3:
                    return False
                if greens == 1:
                    for m in members:
                        if colors[m] == UNASSIGNED and not assign(m, RED, trail, queue):
                            return False
                elif reds == 2:
                    for m in members:
                        if colors[m] == UNASSIGNED and not assign(m, GREEN, trail, queue):
                            return False
        return True

    def search() -> bool:
        nonlocal nodes
        var = next((i for i in order if colors[i] == UNASSIGNED), None)
        if var is None:
            return True
        for c in (GREEN, RED):
            nodes += 1
            trail: list[int] = []
            queue: list[int] = []
            if assign(var, c, trail, queue) and propagate(trail, queue) and search():
                return True
            for i in trail:
                colors[i] = UNASSIGNED
        return False

    if search():
        if not verify_coloring(structure, colors):
            raise AssertionError("solver produced a certificate that fails verification")
        return KsResult(satisfiable=True, colors=colors.copy(), nodes_explored=nodes)
    return KsResult(satisfiable=False, colors=None, nodes_explored=nodes)


def mermin_square() -> np.ndarray:
    """The 3x3 grid of two-qubit operators, shape (3, 3, 4, 4).

    Rows: (X(1), X(2), X(1)X(2)), (Y(2), Y(1), Y(1)Y(2)),
    (X(1)Y(2), X(2)Y(1), Z(1)Z(2)), with particle 1 the left tensor factor.
    Every entry squares to the identity; entries commute within each row
    and each column.
    """
    grid = np.empty((3, 3, 4, 4), dtype=complex)
    grid[0, 0] = kron(SIGMA_X, ID2)
    grid[0, 1] = kron(ID2, SIGMA_X)
    grid[0, 2] = kron(SIGMA_X, SIGMA_X)
    grid[1, 0] = kron(ID2, SIGMA_Y)
    grid[1, 1] = kron(SIGMA_Y, ID2)
    grid[1, 2] = kron(SIGMA_Y, SIGMA_Y)
    grid[2, 0] = kron(SIGMA_X, SIGMA_Y)
    grid[2, 1] = kron(SIGMA_Y, SIGMA_X)
    grid[2, 2] = kron(SIGMA_Z, SIGMA_Z)
    return grid


MERMIN_ROW_SIGNS = (1, 1, 1)
MERMIN_COL_SIGNS = (1, 1, -1)


@dataclass(frozen=True)
class MerminReport:
    row_signs: tuple
    col_signs: tuple
    max_product_dev: float
    max_square_dev: float
    max_commutator: float
    reversed_products_match: bool
    ok: bool


def mermin_verify(square, tol: float = TAU_EQ) -> MerminReport:
    """Check the row products are +I, the column products (+I, +I, -I),
    every entry squares to I, and rows/columns commute internally."""
    square = np.asarray(square, dtype=complex)
    if square.shape != (3, 3, 4, 4):
        raise ValueError(f"expected shape (3, 3, 4, 4), got {square.shape}")
    eye4 = np.eye(4, dtype=complex)
    prod_dev = 0.0
    reversed_match = True
    for r in range(3):
        fwd = square[r, 0] @ square[r, 1] @ square[r, 2]
        rev = square[r, 2] @ square[r, 1] @ square[r, 0]
        prod_dev = max(prod_dev, float(np.max(np.abs(fwd - MERMIN_ROW_SIGNS[r] * eye4))))
        reversed_match &= bool(np.max(np.abs(fwd - rev)) <= tol)
    for c in range(3):
        fwd = square[0, c] @ square[1, c] @ square[2, c]
        rev = square[2, c] @ square[1, c] @ square[0, c]
        prod_dev = max(prod_dev, float(np.max(np.abs(fwd - MERMIN_COL_SIGNS[c] * eye4))))
        reversed_match &= bool(np.max(np.abs(fwd - rev)) <= tol)
    sq_dev = max(
        float(np.max(np.abs(square[r, c] @ square[r, c] - eye4)))
        for r in range(3)
        for c in range(3)
    )
    comm = 0.0
    for line in itertools.chain(
        (tuple(square[r, c] for c in range(3)) for r in range(3)),
        (tuple(square[r, c] for r in range(3)) for c in range(3)),
    ):
        for a, b in itertools.combinations(line, 2):
            comm = max(comm, float(np.max(np.abs(a @ b - b @ a))))
    ok = prod_dev <= tol and sq_dev <= tol and comm <= tol and reversed_match
    if not ok:
        raise ValueError(
            f"operator square fails verification: product dev {prod_dev}, "
            f"square dev {sq_dev}, commutator {comm}"
        )
    return MerminReport(
        row_signs=MERMIN_ROW_SIGNS,
        col_signs=MERMIN_COL_SIGNS,
        max_product_dev=prod_dev,
        max_square_dev=sq_dev,
        max_commutator=comm,
        reversed_products_match=reversed_match,
        ok=ok,
    )


def count_sign_assignments(n_vars: int, constraints) -> tuple[int, int]:
    """Count the +-1 assignments to n_vars variables that meet every constraint.

    Each constraint is (indices, target): the product of the values at
    `indices` must equal `target`.  All 2**n_vars assignments are checked
    at once; returns (assignments checked, assignments satisfying).
    """
    values = np.array(list(itertools.product((1, -1), repeat=n_vars)))
    ok = np.ones(len(values), dtype=bool)
    for indices, target in constraints:
        ok &= values[:, list(indices)].prod(axis=1) == target
    return len(values), int(np.count_nonzero(ok))


@dataclass(frozen=True)
class AssignmentSearchResult:
    n_checked: int
    n_satisfying: int
    row_parity: int
    col_parity: int


def mermin_assignment_search(
    row_signs=MERMIN_ROW_SIGNS, col_signs=MERMIN_COL_SIGNS
) -> AssignmentSearchResult:
    """Exhaustive search over the 512 noncontextual +-1 assignments.

    Counts assignments meeting all six product constraints.  With the
    quantum signs the count is 0: the product of all nine values is the
    product of the row targets (+1) but also of the column targets (-1).
    """
    # the grid is flattened row by row: row r holds 3r..3r+2, column c holds c, c+3, c+6
    constraints = [(range(3 * r, 3 * r + 3), row_signs[r]) for r in range(3)]
    constraints += [(range(c, 9, 3), col_signs[c]) for c in range(3)]
    n_checked, n_satisfying = count_sign_assignments(9, constraints)
    row_parity = int(np.prod(row_signs))
    col_parity = int(np.prod(col_signs))
    return AssignmentSearchResult(
        n_checked=n_checked,
        n_satisfying=n_satisfying,
        row_parity=row_parity,
        col_parity=col_parity,
    )
