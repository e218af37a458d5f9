"""Kochen-Specker machinery and the two-qubit operator square.

Rays in real 3-space are canonicalized under antipodal identification
(first nonzero component positive).  A coloring assigns GREEN (value 0) or
RED (value 1) to each ray; it is valid when every complete orthogonal triad
has exactly one GREEN and no orthogonal pair is GREEN-GREEN.  The 33-ray
set built from the squared direction cosines (0,0,1), (0,1/2,1/2),
(0,1/3,2/3) and (1/4,1/4,1/2) admits no valid coloring.

The operator square's checks and the +-1 assignment count are those of the
numpy-free `kernels`, read from here too; `mermin_square` gives the square as an array.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .kernels import (  # noqa: F401  (names defined there and read from here too)
    MERMIN_COL_SIGNS, MERMIN_ROW_SIGNS, MERMIN_SQUARE, AssignmentSearchResult, MerminReport,
    count_sign_assignments, mermin_assignment_search, mermin_verify,
)

TAU_ORTH = 1e-9

GREEN = 0  # squared-spin value 0
RED = 1  # squared-spin value 1
UNASSIGNED = -1

PERES_SQUARED_TRIPLES = ((0.0, 0.0, 1.0), (0.0, 0.5, 0.5), (0.0, 1 / 3, 2 / 3), (0.25, 0.25, 0.5))

# below this length the squared components are subnormal and the norm loses precision
_MIN_RAY_NORM = float(np.sqrt(np.finfo(float).tiny))


def canonical_ray(v) -> np.ndarray:
    """Unit vector with the first component above 1e-12 in size positive.

    A vector whose length is NaN or infinite, or whose squared length
    overflows or underflows (so that dividing by the length would not give
    a unit vector), is rejected.
    """
    ray = np.asarray(v, dtype=float).reshape(3)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(ray)
    if not _MIN_RAY_NORM <= norm < np.inf:  # also false for NaN components
        raise ValueError(f"ray must have a finite length of at least {_MIN_RAY_NORM:.3g}, got {ray.tolist()}")
    ray = ray / norm
    for c in ray:
        if abs(c) > 1e-12:
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


class OrthogonalityStructure(NamedTuple):
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
    rows, cols = np.nonzero(np.triu(np.abs(rays @ rays.T) <= tol, 1))  # row-major: lexicographic
    pairs = tuple(zip(rows.tolist(), cols.tolist()))
    later: list[set[int]] = [set() for _ in range(rays.shape[0])]  # the partners j > i of each ray i
    for i, j in pairs:
        later[i].add(j)
    triads = tuple((i, j, k) for i, j in pairs for k in sorted(later[i] & later[j]))
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
            try:
                rays.append(canonical_ray([float(p) for p in parts]))
            except ValueError as exc:  # float()'s and canonical_ray's messages name neither file nor line
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rays:
        raise ValueError(f"{path}: no rays found")
    return np.array(rays)


def save_rays(path, rays) -> None:
    rays = np.atleast_2d(np.asarray(rays, dtype=float))
    with open(path, "w") as fh:
        fh.write("# one ray per line: three components separated by whitespace\n")
        for ray in rays:
            fh.write(f"{ray[0]:.12f} {ray[1]:.12f} {ray[2]:.12f}\n")


class KsResult(NamedTuple):
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
    colors = colors.tolist()
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
    triads_of: list[list[tuple]] = [[] for _ in range(n)]
    for triad in structure.triads:
        for m in triad:
            triads_of[m].append(triad)

    order = sorted(range(n), key=lambda i: (-len(neighbors[i]), i))
    colors = [UNASSIGNED] * n
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
            for members in triads_of[i]:
                triad_colors = [colors[m] for m in members]
                greens = triad_colors.count(GREEN)
                reds = triad_colors.count(RED)
                if greens > 1 or reds == 3:
                    return False
                if greens == 1 or reds == 2:  # the rest of the triad is forced
                    forced = RED if greens == 1 else GREEN
                    for m in members:
                        if colors[m] == UNASSIGNED and not assign(m, forced, trail, queue):
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
        return KsResult(satisfiable=True, colors=np.array(colors), nodes_explored=nodes)
    return KsResult(satisfiable=False, colors=None, nodes_explored=nodes)


def mermin_square() -> np.ndarray:
    """The 3x3 grid of two-qubit operators, shape (3, 3, 4, 4).

    Rows: (X(1), X(2), X(1)X(2)), (Y(2), Y(1), Y(1)Y(2)),
    (X(1)Y(2), X(2)Y(1), Z(1)Z(2)), with particle 1 the left tensor factor.
    Every entry squares to the identity; entries commute within each row
    and each column.  `kernels.MERMIN_SQUARE`, as an array.
    """
    return np.array(MERMIN_SQUARE)
