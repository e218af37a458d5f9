"""Ensemble reconstruction and dispersion-free impossibility checks.

An expectation functional <.> that is linear over observables determines a
density operator: querying it on the dim^2 basis observables

    U_nn = |n><n|,   V_nm = |n><m| + |m><n|,   W_nm = i(|n><m| - |m><n|)

recovers rho entrywise.  Dispersion-free ensembles would need <phi|rho|phi>
to be 0 or 1 for every phi, which continuity forbids; `dispersion_free_witness`
exhibits a phi with strictly intermediate probability for any valid rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .qmath import (
    TAU_EQ,
    TAU_PSD,
    assert_density_operator,
    assert_state_vector,
    expectation,
    sigma_dot,
)

WITNESS_EPSILON = 0.01


@dataclass(frozen=True)
class ExpectationOracle:
    """Queryable expectation functional <.> over a dim-dimensional system.

    `expect` maps a Hermitian matrix to a real number.  `quantum` declares
    that the oracle is generated by an actual quantum state, in which case
    the reconstructed density operator is additionally checked for
    positive semidefiniteness.
    """

    dim: int
    expect: Callable[[np.ndarray], float]
    quantum: bool = True


@dataclass(frozen=True)
class BasisObservables:
    """The dim^2 Hermitian basis observables U_nn, V_nm, W_nm (n > m)."""

    dim: int
    u: list = field(default_factory=list)
    v: dict = field(default_factory=dict)
    w: dict = field(default_factory=dict)

    def members(self):
        yield from self.u
        yield from self.v.values()
        yield from self.w.values()

    def count(self) -> int:
        return len(self.u) + len(self.v) + len(self.w)


def basis_observables(dim: int) -> BasisObservables:
    if dim < 1:
        raise ValueError("dimension must be positive")
    basis = BasisObservables(dim=dim)
    for n in range(dim):
        u = np.zeros((dim, dim), dtype=complex)
        u[n, n] = 1.0
        basis.u.append(u)
    for n in range(dim):
        for m in range(n):
            v = np.zeros((dim, dim), dtype=complex)
            v[n, m] = 1.0
            v[m, n] = 1.0
            basis.v[(n, m)] = v
            w = np.zeros((dim, dim), dtype=complex)
            w[n, m] = 1j
            w[m, n] = -1j
            basis.w[(n, m)] = w
    return basis


def oracle_from_density(rho, quantum: bool = True) -> ExpectationOracle:
    """Expectation oracle <A> = Tr(rho A) generated by a density operator."""
    rho = assert_density_operator(rho)
    return ExpectationOracle(
        dim=rho.shape[0],
        expect=lambda a: expectation(rho, a),
        quantum=quantum,
    )


def reconstruct_density(oracle: ExpectationOracle) -> np.ndarray:
    """Rebuild the density operator from dim^2 basis-observable queries.

    Entry (n, m) for n > m is [<V_nm> + i <W_nm>]/2, the diagonal is <U_nn>,
    and the upper triangle is fixed by Hermiticity.  An oracle whose unit
    expectation deviates from 1 is a malformed ensemble.
    """
    dim = oracle.dim
    unit = oracle.expect(np.eye(dim, dtype=complex))
    if abs(unit - 1.0) > TAU_EQ:
        raise ValueError(f"malformed ensemble: <I> = {unit}, expected 1")
    basis = basis_observables(dim)
    rho = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        rho[n, n] = oracle.expect(basis.u[n])
    for (n, m), v in basis.v.items():
        val = 0.5 * (oracle.expect(v) + 1j * oracle.expect(basis.w[(n, m)]))
        rho[n, m] = val
        rho[m, n] = val.conjugate()
    if oracle.quantum:
        assert_density_operator(rho)
    return rho


def dispersion_scan(rho, phi1, phi2, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities <phi(theta)|rho|phi(theta)> along a rotation arc.

    phi(theta) = cos(theta) phi1 + sin(theta) phi2 for theta uniform on
    [0, pi/2]; requires orthogonal phi1, phi2 so every phi(theta) stays
    normalized.  Returns (thetas, values); the endpoints reproduce the
    direct expectations in phi1 and phi2.
    """
    rho = assert_density_operator(rho)
    phi1 = assert_state_vector(phi1)
    phi2 = assert_state_vector(phi2)
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if abs(np.vdot(phi1, phi2)) > TAU_EQ:
        raise ValueError("phi1 and phi2 must be orthogonal")
    thetas = np.linspace(0.0, np.pi / 2.0, steps)
    values = np.empty(steps)
    for i, t in enumerate(thetas):
        phi = np.cos(t) * phi1 + np.sin(t) * phi2
        values[i] = float(np.vdot(phi, rho @ phi).real)
    return thetas, values


def dispersion_free_witness(rho) -> np.ndarray:
    """A state phi with eps < <phi|rho|phi> < 1 - eps (eps = 0.01).

    Such a phi exists for every valid density operator with dim >= 2: an
    equal-weight rotation between the two leading eigenvectors has
    probability (l1 + l2)/2, which is pinned inside [1/(2 dim), 1/2].
    A grid scan over eigenvector pairs is kept as a fallback.
    """
    rho = assert_density_operator(rho)
    if rho.shape[0] < 2:
        raise ValueError("witness needs dimension >= 2")
    evals, evecs = np.linalg.eigh(rho)
    order = np.argsort(evals)[::-1]
    top = evecs[:, order[0]]
    second = evecs[:, order[1]]
    phi = np.cos(np.pi / 4) * top + np.sin(np.pi / 4) * second
    val = float(np.vdot(phi, rho @ phi).real)
    if WITNESS_EPSILON < val < 1.0 - WITNESS_EPSILON:
        return phi
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            for t in np.linspace(0.05, np.pi / 2 - 0.05, 64):
                phi = np.cos(t) * evecs[:, order[i]] + np.sin(t) * evecs[:, order[j]]
                val = float(np.vdot(phi, rho @ phi).real)
                if WITNESS_EPSILON < val < 1.0 - WITNESS_EPSILON:
                    return phi
    raise ValueError("no dispersion witness found; input is not a valid density operator")


def homogeneity_check(rho) -> tuple[bool, int]:
    """Whether rho is a projector (pure state) plus its numerical rank."""
    rho = assert_density_operator(rho)
    pure = bool(np.max(np.abs(rho @ rho - rho)) <= TAU_EQ)
    evals = np.linalg.eigvalsh(rho)
    rank = int(np.sum(evals > TAU_PSD))
    return pure, rank


@dataclass(frozen=True)
class JauchPironReport:
    """Outcome of the two-direction projector-intersection contradiction."""

    a_hat: tuple
    b_hat: tuple
    completeness_dev: float
    cross_ranks: tuple
    all_intersections_zero: bool
    statement: str


def jauch_piron_contradiction(a_hat, b_hat) -> JauchPironReport:
    """Exhibit the projector-intersection clash for two spin directions.

    Builds the four projectors (1 +/- a.sigma)/2 and (1 +/- b.sigma)/2,
    checks each +/- pair resolves the identity, and that all four cross
    intersections are the zero projector.  Any 0/1 value assignment must
    set one projector of each pair to 1, yet the intersection of the two
    chosen subspaces is empty, so its value cannot also be 1.
    """
    from .qmath import intersection_projector

    a = np.asarray(a_hat, dtype=float).reshape(3)
    b = np.asarray(b_hat, dtype=float).reshape(3)
    for v, name in ((a, "a_hat"), (b, "b_hat")):
        if not (abs(np.linalg.norm(v) - 1.0) <= TAU_EQ):  # also true for NaN
            raise ValueError(f"{name} must be a unit vector")
    if min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= 1e-12:
        raise ValueError("degenerate directions: a_hat equals +/- b_hat")

    eye = np.eye(2, dtype=complex)
    proj_a = [0.5 * (eye + sigma_dot(a)), 0.5 * (eye - sigma_dot(a))]
    proj_b = [0.5 * (eye + sigma_dot(b)), 0.5 * (eye - sigma_dot(b))]
    completeness_dev = max(
        float(np.max(np.abs(proj_a[0] + proj_a[1] - eye))),
        float(np.max(np.abs(proj_b[0] + proj_b[1] - eye))),
    )
    ranks = []
    for pa in proj_a:
        row = []
        for pb in proj_b:
            _, rank = intersection_projector(pa, pb)
            row.append(rank)
        ranks.append(tuple(row))
    all_zero = all(r == 0 for row in ranks for r in row)
    statement = (
        "every 0/1 assignment gives <A> = <B> = 1 for one projector per "
        "direction, but all cross intersections are empty, so <A and B> = 0: "
        "dispersion-free values are inconsistent"
    )
    return JauchPironReport(
        a_hat=tuple(a),
        b_hat=tuple(b),
        completeness_dev=completeness_dev,
        cross_ranks=tuple(ranks),
        all_intersections_zero=all_zero,
        statement=statement,
    )
