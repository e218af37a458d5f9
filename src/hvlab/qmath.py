"""Small dense complex linear algebra and qubit/Pauli constructions.

Everything here works on plain complex ndarrays at desk scale (dimensions
2 to 8), so near-machine tolerances are used throughout:

    TAU_EQ  = 1e-10   entrywise matrix/scalar comparisons
    TAU_PSD = 1e-9    eigenvalue nonnegativity for density operators

The two tolerances, the Pauli matrices and the Kronecker product are those
of the numpy-free `kernels`, the matrices as arrays.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .kernels import TAU_EQ, TAU_PSD, check_unit_state

ID2, SIGMA_X, SIGMA_Y, SIGMA_Z = (np.array(m) for m in (kernels.ID2, *kernels.PAULIS))
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def as_matrix(m) -> np.ndarray:
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got ndim={mat.ndim}")
    return mat


def _hermitian(m, stack: bool) -> np.ndarray:
    """`assert_hermitian`'s test; its caller ignores numpy's invalid and overflow warnings."""
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 and not (stack and mat.ndim > 2):
        raise ValueError(f"expected a 2D matrix, got ndim={mat.ndim}")
    if mat.shape[-1] != mat.shape[-2] or not np.abs(mat - mat.conj().swapaxes(-1, -2)).max() <= TAU_EQ:
        raise ValueError("matrix is not finite and Hermitian within tolerance")  # a NaN or inf deviation fails
    return mat


def assert_hermitian(m, stack: bool = False) -> np.ndarray:
    """Validate a Hermitian matrix, within TAU_EQ, or, with `stack`, each matrix of a stack (..., n, n)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return _hermitian(m, stack)


def assert_state_vector(psi) -> np.ndarray:
    """Validate a state vector of unit norm, within TAU_EQ, at desk scale (dim 2 to 8): `kernels.check_unit_state`."""
    vec = np.asarray(psi, dtype=complex)
    if vec.ndim != 1:
        vec = vec.reshape(-1)
    check_unit_state(vec.shape[0], float(np.vdot(vec, vec).real))
    return vec


def assert_density_operator(rho, stack: bool = False) -> np.ndarray:
    """Validate Hermiticity and unit trace within TAU_EQ and no eigenvalue below -TAU_PSD, of one
    matrix or, with `stack`, of each in a stack; a failure reports the first matrix that fails."""
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite trace fails the trace test below
        mat = _hermitian(rho, stack)
        traces = mat.trace(axis1=-2, axis2=-1).ravel().tolist()
    for tr in traces:
        if abs(tr - 1.0) > TAU_EQ:
            raise ValueError(f"density operator trace is {tr}, expected 1")
    for lowest in np.linalg.eigvalsh(mat)[..., 0].ravel().tolist():  # eigvalsh ascends
        if lowest < -TAU_PSD:
            raise ValueError(f"density operator has negative eigenvalue {lowest}")
    return mat


def assert_projector(p, stack: bool = False) -> np.ndarray:
    """Validate a Hermitian idempotent matrix, within TAU_EQ, or, with `stack`, each of a stack."""
    mat = assert_hermitian(p, stack)
    if np.abs(mat @ mat - mat).max() > TAU_EQ:
        raise ValueError("matrix is not idempotent within tolerance")
    return mat


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices; dims multiply.  `kernels.kron`, as an array."""
    return np.array(kernels.kron(as_matrix(a).tolist(), as_matrix(b).tolist()), dtype=complex)


def sigma_dot(n) -> np.ndarray:
    """n . sigma for a real 3-vector n (not necessarily unit)."""
    n = np.asarray(n, dtype=float).reshape(3)
    return np.einsum("i,ijk->jk", n, PAULIS)


def pauli_obs(alpha: float, beta) -> np.ndarray:
    """Spin-1/2 observable alpha*I + beta . sigma.

    Its two eigenvalues are alpha + |beta| and alpha - |beta|.
    """
    return float(alpha) * ID2 + sigma_dot(beta)


def eig_herm2(h) -> tuple[float, float]:
    """Both eigenvalues of a 2x2 Hermitian matrix, descending.

    Closed form: m +/- sqrt(d^2 + |h01|^2) with m the mean of the diagonal
    and d half the diagonal gap.  Exact to machine precision; rejects
    non-Hermitian input.
    """
    mat = assert_hermitian(h)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {mat.shape}")
    # each entry halved first, exactly, so a sum near the largest float does not overflow
    h00, h11 = mat[0, 0].real / 2.0, mat[1, 1].real / 2.0
    m = h00 + h11
    d = h00 - h11
    q = np.hypot(d, abs(mat[0, 1]))
    return (m + q, m - q)


def expectation(rho, a) -> float:
    """Tr(rho A) for matching dimensions; the imaginary residue must be tiny."""
    rho = as_matrix(rho)
    a = as_matrix(a)
    if rho.shape != a.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {a.shape}")
    val = complex((rho @ a).diagonal().sum())  # np.trace's reduction and bits
    if abs(val.imag) > TAU_EQ:
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag}")
    return val.real


def projector(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| for a unit-norm state."""
    vec = assert_state_vector(psi)
    return np.outer(vec, vec.conj())


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-like random unit state vector."""
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def normalized_wishart(g) -> np.ndarray:
    """g g^dagger / Tr(g g^dagger) of a complex matrix g, or of each matrix of a stack (..., n, n)."""
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def unit_vectors(v) -> np.ndarray:
    """v / |v| of a real vector or each row of a stack (..., n); |v|^2 is np.linalg.norm's dot product."""
    return v / np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density operator (normalized Wishart matrix)."""
    return normalized_wishart(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def random_unit3(rng: np.random.Generator) -> np.ndarray:
    """Uniform random direction on the unit sphere."""
    return unit_vectors(rng.normal(size=3))


def intersection_projector(p, q) -> tuple[np.ndarray, int]:
    """Projector onto range(P) & range(Q) and its rank.

    Computed as the projector onto the null space of 2I - P - Q, whose
    zero eigenvectors are exactly the common +1 eigenvectors of P and Q.
    An eigenvalue with |lambda| <= TAU_PSD counts as zero, the rule of
    `contextuality.jauch_piron_contradiction` too; genuine nonzero eigenvalues
    in the constructions used here are orders of magnitude larger.
    """
    p = assert_projector(p)
    q = assert_projector(q)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    gap = 2.0 * np.eye(p.shape[0], dtype=complex) - p - q
    evals, evecs = np.linalg.eigh(gap)
    null = evecs[:, np.abs(evals) <= TAU_PSD]
    rank = null.shape[1]
    return null @ null.conj().T, rank
