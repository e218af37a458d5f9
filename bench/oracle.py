"""Independent oracles and seeded input generators for the hvlab benchmark.

Nothing here imports hvlab: every expected value is computed from the
mathematics (closed forms, the Horodecki criterion, explicit enumeration),
so a check fails when the program and the mathematics disagree.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
PRODUCT_00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
PHI = (1.0 + math.sqrt(5.0)) / 2.0
TSIRELSON = 2.0 * math.sqrt(2.0)

# Optimal CHSH settings for the singlet; any common rotation keeps S = 2 sqrt 2.
CHSH_OPTIMAL = np.array(
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]
) / np.array([[1.0], [1.0], [math.sqrt(2.0)], [math.sqrt(2.0)]])


class Checks:
    """Collects failed correctness checks; keeps the first few messages."""

    def __init__(self):
        self.failures = 0
        self.messages: list[str] = []

    def __call__(self, ok, message: str) -> bool:
        ok = bool(ok)
        if not ok:
            self.failures += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    @property
    def ok(self) -> bool:
        return self.failures == 0


# ---------------------------------------------------------------- generators


def unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def pure_states(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density operator from a normalized complex Wishart matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random proper rotation of R^3 (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def vec_arg(v) -> str:
    """Comma-separated components at full precision, as the CLI parses them."""
    return ",".join(repr(float(x)) for x in v)


# ------------------------------------------------------------ two-qubit maths


def sigma(n) -> np.ndarray:
    return np.einsum("i,ijk->jk", np.asarray(n, dtype=float), PAULI)


def correlation_tensor(psi) -> np.ndarray:
    """T_ij = <psi| sigma_i x sigma_j |psi> for a two-qubit pure state."""
    amps = np.asarray(psi, dtype=complex).reshape(2, 2)
    return np.einsum("ab,iac,jbd,cd->ij", amps.conj(), PAULI, PAULI, amps).real


def chsh_from_tensor(t, settings) -> np.ndarray:
    """S = |a.Tb - a.Tb'| + |a'.Tb + a'.Tb'| for settings of shape (..., 4, 3)
    ordered (a, a', b, b')."""
    s = np.asarray(settings, dtype=float)
    a, ap, b, bp = s[..., 0, :], s[..., 1, :], s[..., 2, :], s[..., 3, :]

    def corr(x, y):
        return np.einsum("...i,ij,...j->...", x, t, y)

    return np.abs(corr(a, b) - corr(a, bp)) + np.abs(corr(ap, b) + corr(ap, bp))


def horodecki_bound(t) -> float:
    """Maximal CHSH value 2 sqrt(m1 + m2), m1 >= m2 the top eigenvalues of T^T T."""
    m = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    return 2.0 * math.sqrt(max(m[0] + m[1], 0.0))


def qubit_expectation(beta, psi) -> float:
    psi = np.asarray(psi, dtype=complex)
    return float(np.vdot(psi, sigma(beta) @ psi).real)


def hardy_closed_form(p1, p2):
    return p1 * (1.0 - p1) * p2 * (1.0 - p2) / (1.0 - p1 * p2)


def wigner_chsh(weights) -> np.ndarray:
    """CHSH value of joint weights over (s, s', t, t') in {+1, -1}^4, index 0 = +1."""
    w = np.asarray(weights, dtype=float).reshape(-1, 2, 2, 2, 2)
    sign = np.array([1.0, -1.0])
    s, sp, t, tp = np.meshgrid(sign, sign, sign, sign, indexing="ij")
    p = lambda x, y: np.einsum("nabcd,abcd->n", w, x * y)  # noqa: E731
    return np.abs(p(s, t) - p(s, tp)) + np.abs(p(sp, t) + p(sp, tp))


def sign_lhv_correlator(a, b) -> float:
    """Exact correlator of A = sgn(a.l), B = -sgn(b.l), l uniform: -1 + 2 theta/pi."""
    theta = math.acos(max(-1.0, min(1.0, float(np.dot(a, b)))))
    return -1.0 + 2.0 * theta / math.pi


def ghz_satisfying(xxx_target: int) -> int:
    """Local (m_x, m_y) assignments satisfying the four GHZ parity constraints."""
    count = 0
    for mx0, mx1, mx2, my0, my1, my2 in itertools.product((1, -1), repeat=6):
        count += (
            mx0 * my1 * my2 == 1
            and my0 * mx1 * my2 == 1
            and my0 * my1 * mx2 == 1
            and mx0 * mx1 * mx2 == xxx_target
        )
    return count


# ------------------------------------------------------------- Kochen-Specker


def canonical(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    first = v[np.argmax(np.abs(v) > 1e-12)]
    return -v if first < 0 else v


def peres_rays() -> np.ndarray:
    """The 33 rays whose squared components permute (0,0,1), (0,1/2,1/2),
    (0,1/3,2/3) and (1/4,1/4,1/2), antipodes identified."""
    triples = ((0.0, 0.0, 1.0), (0.0, 0.5, 0.5), (0.0, 1 / 3, 2 / 3), (0.25, 0.25, 0.5))
    rays: dict[tuple, np.ndarray] = {}
    for triple in triples:
        for perm in itertools.permutations(np.sqrt(triple)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                ray = canonical(np.array(perm) * np.array(signs))
                rays.setdefault(tuple(np.round(ray, 10)), ray)
    return np.array([rays[k] for k in sorted(rays)])


def orthogonality(rays, tol: float = 1e-9):
    """Orthogonal pairs and complete orthogonal triads of a ray set."""
    rays = np.asarray(rays, dtype=float)
    orth = np.abs(rays @ rays.T) <= tol
    n = len(rays)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if orth[i, j]]
    triads = [
        (i, j, k) for i, j in pairs for k in range(j + 1, n) if orth[i, k] and orth[j, k]
    ]
    return pairs, triads


def coloring_valid(pairs, triads, colors) -> bool:
    """GREEN = 0: one GREEN per triad, never two GREENs on an orthogonal pair."""
    c = np.asarray(colors)
    if not np.isin(c, (0, 1)).all():
        return False
    return all((c[list(t)] == 0).sum() == 1 for t in triads) and not any(
        c[i] == 0 and c[j] == 0 for i, j in pairs
    )


# ------------------------------------------------------------------- reports


def claim_holds(claim: dict) -> bool:
    value, target, tol, kind = claim["value"], claim["target"], claim["tol"], claim["kind"]
    if kind == "close":
        return abs(value - target) <= tol
    if kind == "le":
        return value <= target + tol
    if kind == "ge":
        return value >= target - tol
    return False
