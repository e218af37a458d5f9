"""Kochen-Specker machinery and the projector-intersection clash of Jauch and Piron, on Python numbers:
importing this module loads no numpy.

Rays in real 3-space are (x, y, z) float triples, canonicalized under antipodal identification (first
nonzero component positive).  A coloring assigns GREEN (value 0) or RED (value 1) to each ray; it is valid
when every complete orthogonal triad has exactly one GREEN and no orthogonal pair is GREEN-GREEN.  The
33-ray set built from the squared direction cosines (0,0,1), (0,1/2,1/2), (0,1/3,2/3) and (1/4,1/4,1/2)
admits no valid coloring.  The arrays of `peres_rays`, `OrthogonalityStructure.rays` and `KsResult.colors`
are built by `kernels._read_only` only when called or read.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import NamedTuple

from .kernels import ID2, TAU_EQ, TAU_PSD, _flat_triple, _nanmax, _read_only, _unit_floats, matmul, max_deviation
from .options import MAX_ORTHOGONAL_PAIRS, MAX_RAYS, MAX_TRIADS, check_tol

TAU_ORTH = 1e-9

GREEN = 0  # squared-spin value 0
RED = 1  # squared-spin value 1
UNASSIGNED = -1

PERES_SQUARED_TRIPLES = ((0.0, 0.0, 1.0), (0.0, 0.5, 0.5), (0.0, 1 / 3, 2 / 3), (0.25, 0.25, 0.5))

# below this length the squared components are subnormal and the norm loses precision
_MIN_RAY_NORM = math.sqrt(sys.float_info.min)


def _norm(v) -> float:
    """|v| of an (x, y, z) float triple; inf where the squares overflow, NaN for a NaN component."""
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def canonical_ray(v) -> tuple:
    """Unit vector, as an (x, y, z) float triple, with the first component above 1e-12 in size positive.

    v is a sequence or an array of three numbers.  A vector whose length is NaN or infinite, or whose
    squared length overflows or underflows (so that dividing by the length would not give a unit vector),
    is rejected.
    """
    try:
        x, y, z = map(float, v.tolist() if hasattr(v, "tolist") else v)
    except (TypeError, ValueError):  # nested, not three entries, or not numbers
        x, y, z = _flat_triple(v)
    norm = _norm((x, y, z))
    if not _MIN_RAY_NORM <= norm < math.inf:  # also false for NaN components
        raise ValueError(f"ray must have a finite length of at least {_MIN_RAY_NORM:.3g}, got {[x, y, z]}")
    x, y, z = x / norm, y / norm, z / norm
    first = x if abs(x) > 1e-12 else y if abs(y) > 1e-12 else z
    return (-x, -y, -z) if first < -1e-12 else (x, y, z)


@functools.cache
def peres_floats() -> tuple:
    """The 33 canonical rays whose squared components permute the four generating triples, deduplicated
    under antipodal identification, in the order first met: (x, y, z) float triples, built once."""
    seen: dict[tuple, tuple] = {}
    for triple in PERES_SQUARED_TRIPLES:
        for components in itertools.permutations([math.sqrt(t) for t in triple]):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                ray = canonical_ray([c * s for c, s in zip(components, signs)])
                seen.setdefault(tuple(round(c, 10) for c in ray), ray)
    return tuple(seen.values())


def peres_rays():
    """`peres_floats()`, the 33 rays, as a new read-only (33, 3) array."""
    return _read_only(peres_floats())


def _ray_triples(rays) -> tuple:
    """rays, an array or a sequence of 3-vectors (or one 3-vector), as (x, y, z) float triples."""
    rows = rays.tolist() if hasattr(rays, "tolist") else list(rays)
    if rows and not hasattr(rows[0], "__len__"):  # one ray
        rows = [rows]
    if not rows or any(len(row) != 3 for row in rows):
        raise ValueError("rays must be 3-vectors")
    return tuple((float(x), float(y), float(z)) for x, y, z in rows)


class OrthogonalityStructure(NamedTuple):
    """Rays plus their orthogonal pairs and complete mutually-orthogonal triads.

    `floats` keeps the rays as (x, y, z) float triples; `rays` gives them as a new read-only array.
    """

    floats: tuple
    pairs: tuple
    triads: tuple

    rays = property(lambda self: _read_only(self.floats), doc="the rays as a new read-only (n, 3) array")


def orthogonality_structure(rays, tol: float = TAU_ORTH) -> OrthogonalityStructure:
    """All orthogonal pairs |r_i . r_j| <= tol and all mutually orthogonal
    triples, in lexicographic index order; more than MAX_ORTHOGONAL_PAIRS pairs
    or MAX_TRIADS triads raise ValueError as soon as they are found, and so does a tol that is not
    finite and >= 0, which would find no pair and let any ray set color."""
    check_tol("tol", tol)
    triples = _ray_triples(rays)
    # a generator, so that memory grows with the pairs found, not with the n(n - 1)/2 tested
    orthogonal = (abs(x * u + y * v + z * w) <= tol for (x, y, z), (u, v, w) in itertools.combinations(triples, 2))
    pairs = _at_most(itertools.compress(itertools.combinations(range(len(triples)), 2), orthogonal),
                     MAX_ORTHOGONAL_PAIRS, f"orthogonal pairs at tol {tol}")
    later: list[list[int]] = [[] for _ in triples]  # the partners j > i of each ray i, ascending
    for i, j in pairs:
        later[i].append(j)
    found = set(pairs)
    triads = _at_most(((i, j, k) for i, j in pairs for k in later[j] if (i, k) in found),
                      MAX_TRIADS, f"orthogonal triads at tol {tol}")
    return OrthogonalityStructure(floats=triples, pairs=pairs, triads=triads)


def _at_most(items, limit: int, what: str) -> tuple:
    """The items as a tuple, or ValueError once there are more than `limit`."""
    kept = tuple(itertools.islice(items, limit + 1))
    if len(kept) > limit:
        raise ValueError(f"more than {limit} {what}")
    return kept


def load_rays(path) -> tuple:
    """Read a ray file, one ray per line, three components, '#' comments: its canonical rays as float triples.
    A file of more than MAX_RAYS rays raises ValueError at the first ray over the limit."""
    rays = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if len(rays) == MAX_RAYS:
                raise ValueError(f"{path}:{lineno}: more than {MAX_RAYS} rays")
            parts = stripped.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 components, got {len(parts)}")
            try:
                rays.append(canonical_ray([float(p) for p in parts]))
            except ValueError as exc:  # float()'s and canonical_ray's messages name neither file nor line
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rays:
        raise ValueError(f"{path}: no rays found")
    return tuple(rays)


def save_rays(path, rays) -> None:
    with open(path, "w") as fh:
        fh.write("# one ray per line: three components separated by whitespace\n")
        for x, y, z in _ray_triples(rays):
            fh.write(f"{x:.12f} {y:.12f} {z:.12f}\n")


class KsResult(NamedTuple):
    """A coloring search's outcome: `coloring` is a tuple of GREEN/RED per ray, or None if there is none;
    `colors` gives it as a new read-only int array (or None)."""

    satisfiable: bool
    coloring: tuple | None
    nodes_explored: int

    colors = property(lambda self: None if self.coloring is None else _read_only(self.coloring, int),
                      doc="the coloring as a new read-only int array, or None")


def verify_coloring(structure: OrthogonalityStructure, colors) -> bool:
    """Independent certificate check: knows nothing of the solver.

    Valid iff every complete triad has exactly one GREEN and no orthogonal
    pair is GREEN-GREEN.
    """
    colors = colors.tolist() if hasattr(colors, "tolist") else list(colors)
    return (
        len(colors) == len(structure.floats) and all(c in (GREEN, RED) for c in colors)
        and all((colors[i] == GREEN) + (colors[j] == GREEN) + (colors[k] == GREEN) == 1 for i, j, k in structure.triads)
        and not any(colors[i] == colors[j] == GREEN for i, j in structure.pairs)
    )


def ks_color(structure: OrthogonalityStructure) -> KsResult:
    """Backtracking search for a valid coloring, with unit propagation.

    Propagation rules: a GREEN ray forces RED on all its orthogonal
    partners; a triad with a GREEN forces RED on the rest; a triad with two
    REDs forces GREEN on the third; a triad with two GREENs or three REDs is
    a conflict.  Variables are tried in descending orthogonality-graph degree
    (ties by index), GREEN before RED, so runs are deterministic and node
    counts are stable for a fixed input order.
    """
    n = len(structure.floats)
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i, j in structure.pairs:
        neighbors[i].append(j)
        neighbors[j].append(i)
    partners: list[list[tuple]] = [[] for _ in range(n)]  # the other two members of each triad of a ray
    for triad in structure.triads:
        for m in range(3):
            partners[triad[m]].append(triad[:m] + triad[m + 1:])

    order = sorted(range(n), key=lambda i: (-len(neighbors[i]), i))
    colors = [UNASSIGNED] * n

    def propagate(trail: list[int]) -> bool:
        """Color what the rules force, appending each ray colored to trail; False on a conflict.  The loop
        reaches every ray appended while it runs, so each triad is checked after its last member is colored."""
        for i in trail:
            green = colors[i] == GREEN
            for j in neighbors[i] if green else ():
                if colors[j] == GREEN:
                    return False
                if colors[j] == UNASSIGNED:
                    colors[j] = RED
                    trail.append(j)
            for j, k in partners[i]:
                cj, ck = colors[j], colors[k]
                greens = green + (cj == GREEN) + (ck == GREEN)
                if greens > 1 or greens == 0 and cj == ck == RED:  # two GREENs, or three REDs
                    return False
                if greens or RED in (cj, ck):  # the rest of the triad is forced
                    for m in (j, k):
                        if colors[m] == UNASSIGNED:
                            colors[m] = RED if greens else GREEN
                            trail.append(m)
        return True

    # depth-first over decisions, on a list rather than Python's stack, so that no ray count reaches the
    # recursion limit; an open decision is [ray, colors tried, rays colored by its latest try]
    nodes = 0
    decisions: list[list] = []
    while (var := next((i for i in order if colors[i] == UNASSIGNED), None)) is not None:
        decisions.append([var, 0, []])
        while decisions:  # the next color at the deepest open decision, undoing its latest try first
            decision = decisions[-1]
            for i in decision[2]:
                colors[i] = UNASSIGNED
            if decision[1] == 2:  # GREEN and RED both failed
                decisions.pop()
                continue
            nodes += 1
            colors[decision[0]] = (GREEN, RED)[decision[1]]
            decision[1], decision[2] = decision[1] + 1, [decision[0]]
            if propagate(decision[2]):
                break
        else:  # every decision failed
            return KsResult(satisfiable=False, coloring=None, nodes_explored=nodes)
    if not verify_coloring(structure, colors):
        raise AssertionError("solver produced a certificate that fails verification")
    return KsResult(satisfiable=True, coloring=tuple(colors), nodes_explored=nodes)


# ---------------------------------------------------------------------------
# the projector-intersection clash of two spin directions

# For unit a and b, the smallest eigenvalue of 2I - P - Q over the four cross pairs of projectors is
# 1 - sqrt(4 - d^2)/2 >= d^2/8, d = min(|a - b|, |a + b|).  An eigenvalue at or below TAU_PSD counts
# as zero, so d must keep d^2/8 above 10 TAU_PSD.
JAUCH_PIRON_MIN_GAP = math.sqrt(80.0 * TAU_PSD)


class JauchPironReport(NamedTuple):
    """Outcome of the two-direction projector-intersection contradiction."""

    a_hat: tuple
    b_hat: tuple
    completeness_dev: float
    cross_ranks: tuple
    all_intersections_zero: bool
    statement: str


def _spin_projectors(x: float, y: float, z: float) -> tuple:
    """(1 + n.sigma)/2 and (1 - n.sigma)/2 of n = (x, y, z), as 2x2 tuples of complex; ValueError unless
    each is Hermitian and idempotent within TAU_EQ."""
    projectors = tuple(((complex(0.5 * (1.0 + s * z)), 0.5 * complex(s * x, -s * y)),
                        (0.5 * complex(s * x, s * y), complex(0.5 * (1.0 - s * z)))) for s in (1.0, -1.0))
    for p in projectors:
        if not max_deviation(p, [[e.conjugate() for e in column] for column in zip(*p)]) <= TAU_EQ:
            raise ValueError("matrix is not finite and Hermitian within tolerance")
        if not max_deviation(matmul(p, p), p) <= TAU_EQ:
            raise ValueError("matrix is not idempotent within tolerance")
    return projectors


def _null_count(p, q) -> int:
    """How many eigenvalues of 2I - P - Q, 2x2 Hermitian, are zero (|lambda| <= TAU_PSD), from the closed
    form m +/- hypot(d, |h01|), m the mean of the diagonal and d half its gap."""
    h00, h11 = (2.0 - p[0][0].real - q[0][0].real) / 2.0, (2.0 - p[1][1].real - q[1][1].real) / 2.0
    m, r = h00 + h11, math.hypot(h00 - h11, abs(-p[0][1] - q[0][1]))
    return (abs(m + r) <= TAU_PSD) + (abs(m - r) <= TAU_PSD)


def jauch_piron_contradiction(a_hat, b_hat) -> JauchPironReport:
    """Exhibit the projector-intersection clash for two spin directions.

    Builds and validates, once each, the four projectors (1 +/- a.sigma)/2 and (1 +/- b.sigma)/2, checks
    each +/- pair resolves the identity, and that all four cross intersections are the zero projector: a
    cross rank counts the null eigenvalues of 2I - P - Q, as `qmath.intersection_projector` does.  Any 0/1
    value assignment must set one projector of each pair to 1, yet the intersection of the two chosen
    subspaces is empty, so its value cannot also be 1.
    """
    a, b = _unit_floats(a_hat, b_hat)
    gap = min(_norm([p - q for p, q in zip(a, b)]), _norm([p + q for p, q in zip(a, b)]))
    if gap <= JAUCH_PIRON_MIN_GAP:
        raise ValueError(f"degenerate directions: min(|a_hat - b_hat|, |a_hat + b_hat|) = {gap:.3g}, at most "
                         f"{JAUCH_PIRON_MIN_GAP:.3g}, so a cross intersection would not read as empty")

    projs_a, projs_b = _spin_projectors(*a), _spin_projectors(*b)
    completeness_dev = _nanmax(
        max_deviation([[e + f for e, f in zip(row_p, row_m)] for row_p, row_m in zip(plus, minus)], ID2)
        for plus, minus in (projs_a, projs_b)
    )
    cross_ranks = tuple(tuple(_null_count(p, q) for q in projs_b) for p in projs_a)
    statement = (
        "every 0/1 assignment gives <A> = <B> = 1 for one projector per "
        "direction, but all cross intersections are empty, so <A and B> = 0: "
        "dispersion-free values are inconsistent"
    )
    return JauchPironReport(a_hat=a, b_hat=b, completeness_dev=completeness_dev, cross_ranks=cross_ranks,
                            all_intersections_zero=not any(map(any, cross_ranks)), statement=statement)
