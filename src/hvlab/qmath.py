"""Small dense complex linear algebra and qubit/Pauli constructions.

Everything here works on plain complex ndarrays at desk scale (dimensions
2 to 8), so near-machine tolerances are used throughout:

    TAU_EQ  = 1e-10   entrywise matrix/scalar comparisons
    TAU_PSD = 1e-9    eigenvalue nonnegativity for density operators
"""

from __future__ import annotations

import numpy as np

TAU_EQ = 1e-10
TAU_PSD = 1e-9

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def as_matrix(m) -> np.ndarray:
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got ndim={mat.ndim}")
    return mat


def assert_hermitian(m, stack: bool = False) -> np.ndarray:
    """Validate a Hermitian matrix, within TAU_EQ, or, with `stack`, each matrix of a stack (..., n, n)."""
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 and not (stack and mat.ndim > 2):
        raise ValueError(f"expected a 2D matrix, got ndim={mat.ndim}")
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf deviation fails the test
        if mat.shape[-1] != mat.shape[-2] or not np.max(np.abs(mat - mat.conj().swapaxes(-1, -2))) <= TAU_EQ:
            raise ValueError("matrix is not finite and Hermitian within tolerance")
    return mat


def assert_state_vector(psi) -> np.ndarray:
    """Validate a state vector of unit norm, within TAU_EQ, at desk scale (dim 2 to 8).

    Qubit-system operations (dim 2, 4 or 8) enforce their exact dimension
    at the call site; ensemble reconstruction also runs in dimension 3.
    """
    vec = np.asarray(psi, dtype=complex)
    if vec.ndim != 1:
        vec = vec.reshape(-1)
    if not 2 <= vec.shape[0] <= 8:
        raise ValueError(f"state dimension must be between 2 and 8, got {vec.shape[0]}")
    norm_sq = float(np.vdot(vec, vec).real)
    if not (abs(norm_sq - 1.0) <= TAU_EQ):  # also true for NaN
        raise ValueError(f"state is not normalized: ||psi||^2 = {norm_sq}")
    return vec


def assert_density_operator(rho, stack: bool = False) -> np.ndarray:
    """Validate Hermiticity and unit trace within TAU_EQ and no eigenvalue below -TAU_PSD, of one
    matrix or, with `stack`, of each in a stack; a failure reports the first matrix that fails."""
    mat = assert_hermitian(rho, stack)
    with np.errstate(over="ignore"):  # an infinite trace fails the check below
        traces = np.trace(mat, axis1=-2, axis2=-1).ravel().tolist()
    for tr in traces:
        if abs(tr - 1.0) > TAU_EQ:
            raise ValueError(f"density operator trace is {tr}, expected 1")
    for lowest in np.linalg.eigvalsh(mat).min(axis=-1).ravel().tolist():
        if lowest < -TAU_PSD:
            raise ValueError(f"density operator has negative eigenvalue {lowest}")
    return mat


def assert_projector(p, stack: bool = False) -> np.ndarray:
    """Validate a Hermitian idempotent matrix, within TAU_EQ, or, with `stack`, each of a stack."""
    mat = assert_hermitian(p, stack)
    if np.max(np.abs(mat @ mat - mat)) > TAU_EQ:
        raise ValueError("matrix is not idempotent within tolerance")
    return mat


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices; dims multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


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
    val = complex(np.trace(rho @ a))
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


def null_eigenvalues(evals) -> np.ndarray:
    """Which eigenvalues of 2I - P - Q count as zero, the rank rule of every intersection: |lambda| <= TAU_PSD."""
    return np.abs(evals) <= TAU_PSD


def intersection_projector(p, q) -> tuple[np.ndarray, int]:
    """Projector onto range(P) & range(Q) and its rank.

    Computed as the projector onto the null space of 2I - P - Q, whose
    zero eigenvectors are exactly the common +1 eigenvectors of P and Q.
    Eigenvalues below TAU_PSD count as zero; genuine nonzero eigenvalues
    in the constructions used here are orders of magnitude larger.
    """
    p = assert_projector(p)
    q = assert_projector(q)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    gap = 2.0 * np.eye(p.shape[0], dtype=complex) - p - q
    evals, evecs = np.linalg.eigh(gap)
    null = evecs[:, null_eigenvalues(evals)]
    rank = null.shape[1]
    return null @ null.conj().T, rank
