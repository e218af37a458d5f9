"""Ensemble reconstruction and dispersion-free impossibility checks.

An expectation functional <.> that is linear over observables determines a
density operator: querying it on the dim^2 basis observables

    U_nn = |n><n|,   V_nm = |n><m| + |m><n|,   W_nm = i(|n><m| - |m><n|)

recovers rho entrywise.  Dispersion-free ensembles would need <phi|rho|phi>
to be 0 or 1 for every phi, which continuity forbids; `dispersion_free_witness`
exhibits, in closed form from the leading eigenvectors, a phi with strictly
intermediate probability whenever one exists.  The projector-intersection
clash of Jauch and Piron lives in `contextuality`.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .kernels import TAU_EQ, TAU_PSD
from .options import MIN_STEPS, check_count
from .qmath import assert_density_operator, assert_state_vector, expectation

WITNESS_EPSILON = 0.01
# The dimensions whose identity and basis observables `reconstruct_density` builds once and keeps,
# read-only: the desk scale, 210 matrices and about 0.14 MB of entries in all.
BASIS_MEMO_DIMS = range(2, 9)


class ExpectationOracle(NamedTuple):
    """Queryable expectation functional <.> over a dim-dimensional system.

    `expect` maps a Hermitian matrix to a real number.
    """

    dim: int
    expect: Callable[[np.ndarray], float]


class BasisObservables(NamedTuple):
    """The dim^2 Hermitian basis observables U_nn, V_nm, W_nm (n > m)."""

    dim: int
    u: list
    v: dict
    w: dict

    def members(self):
        yield from self.u
        yield from self.v.values()
        yield from self.w.values()

    def count(self) -> int:
        return len(self.u) + len(self.v) + len(self.w)


def basis_observables(dim: int) -> BasisObservables:
    check_count("dim", dim, 1)
    basis = BasisObservables(dim, [], {}, {})  # each call builds its own containers
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


@functools.lru_cache(maxsize=len(BASIS_MEMO_DIMS))
def _read_only_basis(dim: int) -> tuple:
    """The identity and `basis_observables(dim)`, every matrix read-only, built once per dim."""
    eye, basis = np.eye(dim, dtype=complex), basis_observables(dim)
    for mat in (eye, *basis.members()):
        mat.flags.writeable = False
    return eye, basis


def oracle_from_density(rho) -> ExpectationOracle:
    """Expectation oracle <A> = Tr(rho A) generated by a density operator."""
    rho = assert_density_operator(rho)
    return ExpectationOracle(dim=rho.shape[0], expect=lambda a: expectation(rho, a))


def reconstruct_density(oracle: ExpectationOracle) -> np.ndarray:
    """Rebuild the density operator from dim^2 basis-observable queries.

    Entry (n, m) for n > m is [<V_nm> + i <W_nm>]/2, the diagonal is <U_nn>,
    and the upper triangle is fixed by Hermiticity.  An oracle whose unit
    expectation deviates from 1 is a malformed ensemble, and the rebuilt
    operator must be a density operator.

    The oracle is queried with I first, then each U_nn, then V_nm and W_nm
    of each pair.  For a dim in BASIS_MEMO_DIMS those matrices are built
    once and kept read-only, so an oracle that writes into its argument
    raises ValueError; for any other dim they are built on each call.
    """
    dim = oracle.dim
    kept = type(dim) is int and dim in BASIS_MEMO_DIMS
    basis = _read_only_basis(dim)[1] if kept else basis_observables(dim)  # which checks dim
    unit = oracle.expect(_read_only_basis(dim)[0] if kept else np.eye(dim, dtype=complex))
    if abs(unit - 1.0) > TAU_EQ:
        raise ValueError(f"malformed ensemble: <I> = {unit}, expected 1")
    rho = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        rho[n, n] = oracle.expect(basis.u[n])
    for (n, m), v in basis.v.items():
        val = 0.5 * (oracle.expect(v) + 1j * oracle.expect(basis.w[(n, m)]))
        rho[n, m] = val
        rho[m, n] = val.conjugate()
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
    check_count("steps", steps, MIN_STEPS)
    if abs(np.vdot(phi1, phi2)) > TAU_EQ:
        raise ValueError("phi1 and phi2 must be orthogonal")
    thetas = np.linspace(0.0, np.pi / 2.0, steps)
    phis = np.cos(thetas)[:, None] * phi1 + np.sin(thetas)[:, None] * phi2
    values = np.einsum("ti,ij,tj->t", phis.conj(), rho, phis).real
    return thetas, values


def dispersion_free_witness(rho) -> np.ndarray:
    """A state phi with eps < <phi|rho|phi> < 1 - eps (eps = 0.01).

    The equal-weight rotation between the two leading eigenvectors has
    probability (l1 + l2)/2, which is pinned inside [1/(2 dim), 1/2], so it
    is a witness for every dim < 50.  If it is at most eps, then l1 <= 2 eps
    and the top eigenvector, value l1, is a witness unless l1 <= eps, in
    which case every <phi|rho|phi> <= l1 <= eps and none exists.
    """
    rho = assert_density_operator(rho)
    if rho.shape[0] < 2:
        raise ValueError("witness needs dimension >= 2")
    evals, evecs = np.linalg.eigh(rho)  # ascending
    top, second = evecs[:, -1], evecs[:, -2]
    for phi in (np.cos(np.pi / 4) * top + np.sin(np.pi / 4) * second, top):
        val = float(np.vdot(phi, rho @ phi).real)
        if WITNESS_EPSILON < val < 1.0 - WITNESS_EPSILON:
            return phi
    raise ValueError(
        f"no dispersion witness exists: the largest eigenvalue {evals[-1]:.6g} is at most "
        f"eps = {WITNESS_EPSILON}, and every <phi|rho|phi> is at most the largest eigenvalue"
    )


def homogeneity_check(rho) -> tuple[bool, int]:
    """Whether rho is a projector (pure state) plus its numerical rank."""
    rho = assert_density_operator(rho)
    pure = bool(np.max(np.abs(rho @ rho - rho)) <= TAU_EQ)
    evals = np.linalg.eigvalsh(rho)
    rank = int(np.sum(evals > TAU_PSD))
    return pure, rank
