"""Quantum correlators, Bell/CHSH inequalities, GHZ and Hardy constructions.

Every two-qubit correlator P(a, b) = <psi| (a.sigma) x (b.sigma) |psi> is read
off the correlation tensor, P(a, b) = a . T b, with T computed (and the state
validated) once per call; the singlet has T = -identity, so P(a, b) = -a.b.
The CHSH combination S = |P(a,b) - P(a,b')| + |P(a',b) + P(a',b')| is bounded
by 2 for local hidden variables and reaches 2*sqrt(2) on the singlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .contextuality import count_sign_assignments
from .qmath import (
    PAULIS,
    TAU_EQ,
    assert_density_operator,
    assert_projector,
    assert_state_vector,
    kron,
)

CHSH_QUANTUM_MAX = 2.0 * np.sqrt(2.0)  # Tsirelson bound
CHSH_LHV_BOUND = 2.0

GOLDEN_RATIO = (np.sqrt(5.0) + 1.0) / 2.0

# Settings at which the singlet reaches the quantum maximum.
OPTIMAL_CHSH_A = np.array([0.0, 1.0, 0.0])
OPTIMAL_CHSH_B = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
OPTIMAL_CHSH_A_PRIME = np.array([1.0, 0.0, 0.0])
OPTIMAL_CHSH_B_PRIME = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)

# Coplanar directions 120 degrees apart; they push the three-correlator
# inequality to 3/2 against its bound of 1.
TRINE_A = np.array([1.0, 0.0, 0.0])
TRINE_B = np.array([-0.5, np.sqrt(3.0) / 2.0, 0.0])
TRINE_C = np.array([-0.5, -np.sqrt(3.0) / 2.0, 0.0])

BELL_ORIGINAL_BOUND = 1.0

# Names of the four CHSH setting pairs, in the order `ChshSettings.pairs` gives them.
SETTING_PAIR_NAMES = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")


def unit_setting(v) -> np.ndarray:
    vec = np.asarray(v, dtype=float).reshape(3)
    norm = math.sqrt(vec @ vec)
    if not (abs(norm - 1.0) <= TAU_EQ):
        raise ValueError(f"setting must be a unit vector, |v| = {norm}")
    return vec


@dataclass(frozen=True)
class ChshSettings:
    """Four analyzer directions (a, a', b, b'), all unit vectors."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", unit_setting(self.a))
        object.__setattr__(self, "a_prime", unit_setting(self.a_prime))
        object.__setattr__(self, "b", unit_setting(self.b))
        object.__setattr__(self, "b_prime", unit_setting(self.b_prime))

    def pairs(self) -> tuple:
        """(a, b), (a, b'), (a', b), (a', b'), named by SETTING_PAIR_NAMES."""
        return ((self.a, self.b), (self.a, self.b_prime), (self.a_prime, self.b), (self.a_prime, self.b_prime))


def optimal_chsh_settings() -> ChshSettings:
    return ChshSettings(
        a=OPTIMAL_CHSH_A,
        a_prime=OPTIMAL_CHSH_A_PRIME,
        b=OPTIMAL_CHSH_B,
        b_prime=OPTIMAL_CHSH_B_PRIME,
    )


def singlet_state() -> np.ndarray:
    """(|01> - |10>)/sqrt(2), the two-qubit total-spin-zero state."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def ghz_state() -> np.ndarray:
    """(|000> - |111>)/sqrt(2) for three qubits."""
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[7] = -1.0 / np.sqrt(2.0)
    return psi


# sigma_i x sigma_j for i, j in x, y, z: shape (3, 3, 4, 4).
_PAULI_PAIRS = np.array([[np.kron(s_i, s_j) for s_j in PAULIS] for s_i in PAULIS])


def correlation_tensor(psi) -> np.ndarray:
    """3x3 tensor T_ij = <psi| sigma_i x sigma_j |psi>.

    The correlator is bilinear in the settings, so P(a, b) = a . T b exactly.
    For the singlet T = -identity.
    """
    psi = assert_state_vector(psi)
    if psi.shape[0] != 4:
        raise ValueError("correlation tensor needs a two-qubit state")
    return (psi.conj() @ _PAULI_PAIRS @ psi).real


def qm_correlator(psi, a, b) -> float:
    """<psi| (a.sigma) x (b.sigma) |psi> = a . T b; equals -a.b on the singlet."""
    return float(unit_setting(a) @ correlation_tensor(psi) @ unit_setting(b))


def bell_original_lhs(psi, a, b, c, eta_a: int, eta_b: int, eta_c: int) -> float:
    """Signed three-correlator sum; local hidden variables keep it <= 1.

    Returns eta_a eta_b P(a,b) + eta_a eta_c P(a,c) + eta_b eta_c P(b,c);
    the caller compares with the bound 1.
    """
    for eta in (eta_a, eta_b, eta_c):
        if eta not in (1, -1):
            raise ValueError("eta values must be +1 or -1")
    tensor = correlation_tensor(psi)
    a, b, c = (unit_setting(v) for v in (a, b, c))
    ab, ac, bc = a @ tensor @ b, a @ tensor @ c, b @ tensor @ c
    return float(eta_a * eta_b * ab + eta_a * eta_c * ac + eta_b * eta_c * bc)


def chsh_value(psi, settings: ChshSettings) -> float:
    """S = |a.Tb - a.Tb'| + |a'.Tb + a'.Tb'|; ChshSettings holds unit vectors already."""
    tensor = correlation_tensor(psi)
    t_b, t_bp = tensor @ settings.b, tensor @ settings.b_prime
    return float(abs(settings.a @ (t_b - t_bp)) + abs(settings.a_prime @ (t_b + t_bp)))


_SEESAW_MAX_SWEEPS = 1000


def _unit_rows(v: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Normalize each row of v; a (numerically) zero row keeps the previous one."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    nonzero = norm > 1e-15
    return np.where(nonzero, v / np.where(nonzero, norm, 1.0), previous)


def chsh_optimize(
    psi, restarts: int = 20, tol: float = 1e-6, seed: int = 0
) -> tuple[ChshSettings, float]:
    """Maximize the CHSH value over all four settings by a multi-start see-saw.

    With P(a, b) = a . T b, S = a . T(b - b') + a' . T(b + b') is linear in
    each setting, so every half-sweep has a closed-form optimum:
    a ~ T(b - b'), a' ~ T(b + b'), then b ~ T^t(a + a'), b' ~ T^t(a' - a).
    A zero update (a product state has rank-1 T) keeps the previous
    direction.  All restarts run at once from random unit settings and stop
    when no restart gains more than tol * 1e-3 in a sweep (or after a fixed
    sweep cap).  The returned value is recomputed from the matrix elements
    at the best restart's settings; ties go to the earliest restart.
    Deterministic for fixed (restarts, seed).  The optimum is the Horodecki
    value 2 sqrt(m1 + m2) over the two largest eigenvalues of T^t T:
    2*sqrt(2) on the singlet, 2 on a product state.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    tensor = correlation_tensor(psi)
    rng = np.random.default_rng(seed)
    a, a_p, b, b_p = _unit_rows(rng.normal(size=(4, restarts, 3)), 0.0)
    s = np.full(restarts, -np.inf)
    for _ in range(_SEESAW_MAX_SWEEPS):
        a = _unit_rows((b - b_p) @ tensor.T, a)
        a_p = _unit_rows((b + b_p) @ tensor.T, a_p)
        b = _unit_rows((a + a_p) @ tensor, b)
        b_p = _unit_rows((a_p - a) @ tensor, b_p)
        s_new = np.abs(np.sum(a @ tensor * (b - b_p), axis=1)) + np.abs(
            np.sum(a_p @ tensor * (b + b_p), axis=1)
        )
        converged = np.max(s_new - s) <= tol * 1e-3
        s = s_new
        if converged:
            break
    k = int(np.argmax(s))
    settings = ChshSettings(a=a[k], a_prime=a_p[k], b=b[k], b_prime=b_p[k])
    return settings, chsh_value(psi, settings)


class GhzSearchResult(NamedTuple):
    n_checked: int
    n_satisfying: int


def ghz_assignment_search(xxx_target: int = -1) -> GhzSearchResult:
    """Exhaustive search over the 64 local value assignments (m_x, m_y) per
    particle, against the three m_x m_y m_y = +1 constraints and
    m_x m_x m_x = xxx_target.

    Multiplying the first three constraints forces m_x m_x m_x = +1, so the
    quantum target -1 leaves zero satisfying assignments.
    """
    if xxx_target not in (1, -1):
        raise ValueError("xxx_target must be +1 or -1")
    # variables 0-2 are m_x of particles 1-3, variables 3-5 their m_y
    n_checked, n_satisfying = count_sign_assignments(
        6, [((0, 4, 5), 1), ((3, 1, 5), 1), ((3, 4, 2), 1), ((0, 1, 2), xxx_target)]
    )
    return GhzSearchResult(n_checked=n_checked, n_satisfying=n_satisfying)


def ghz_stabilizer_deviations(psi=None) -> dict[str, float]:
    """Max entrywise deviations of the four parity identities on the GHZ state.

    X Y Y, Y X Y and Y Y X fix the state; X X X flips its sign.
    """
    if psi is None:
        psi = ghz_state()
    psi = assert_state_vector(psi)
    if psi.shape[0] != 8:
        raise ValueError("GHZ identities need a three-qubit state")
    from .qmath import SIGMA_X, SIGMA_Y

    def triple(p1, p2, p3):
        return kron(kron(p1, p2), p3)

    return {
        "xyy": float(np.max(np.abs(triple(SIGMA_X, SIGMA_Y, SIGMA_Y) @ psi - psi))),
        "yxy": float(np.max(np.abs(triple(SIGMA_Y, SIGMA_X, SIGMA_Y) @ psi - psi))),
        "yyx": float(np.max(np.abs(triple(SIGMA_Y, SIGMA_Y, SIGMA_X) @ psi - psi))),
        "xxx": float(np.max(np.abs(triple(SIGMA_X, SIGMA_X, SIGMA_X) @ psi + psi))),
    }


class HardyParams(NamedTuple):
    p1: float
    p2: float


@dataclass(frozen=True)
class HardyConstruction:
    """Two-qubit state with the four joint-outcome conditions built in.

    psi lives in the (u, v) product basis with u = |0>, v = |1>.  The primed
    single-qubit bases (u', v') are fixed by the one-dimensional
    orthogonality conditions; p is the probability of the jointly primed
    outcome that local realism forbids.  `hardy_build` returns one point;
    the batched construction behind it returns the same fields as arrays
    over a grid of parameters.
    """

    psi: np.ndarray
    u1_prime: np.ndarray
    v1_prime: np.ndarray
    u2_prime: np.ndarray
    v2_prime: np.ndarray
    p: float
    condition_residuals: tuple


def hardy_probability(p1: float, p2: float) -> float:
    """Closed form p1 (1 - p1) p2 (1 - p2) / (1 - p1 p2)."""
    return p1 * (1.0 - p1) * p2 * (1.0 - p2) / (1.0 - p1 * p2)


def _orthogonal_2d(x, y) -> tuple:
    """Unit 2-vector orthogonal to (x, y), its first nonzero entry real positive.

    Works componentwise on arrays, so one call handles a whole grid.
    """
    norm = np.sqrt(np.abs(x) ** 2 + np.abs(y) ** 2)
    ox, oy = -np.conj(y) / norm, np.conj(x) / norm
    lead = np.where(np.abs(ox) > 1e-14, ox, oy)
    phase = np.abs(lead) / lead
    return ox * phase, oy * phase


def _hardy_construct(p1, p2) -> HardyConstruction:
    """The Hardy construction for broadcast arrays of parameters in (0, 1).

    Every field carries the broadcast shape of (p1, p2) in front, with the
    vector components (or the three residuals) on the last axis.  See
    `hardy_build`.
    """
    p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    norm = np.sqrt(1.0 - p1 * p2)
    # Amplitudes a_j1j2 of |j1, j2> with u = |0>, v = |1>.
    a00 = np.zeros_like(norm)
    a01 = -np.sqrt(p1 * (1.0 - p2)) / norm
    a10 = -np.sqrt(p2 * (1.0 - p1)) / norm
    a11 = np.sqrt((1.0 - p1) * (1.0 - p2)) / norm
    v2x, v2y = _orthogonal_2d(a10, a11)  # <v x v2'|psi> = 0
    v1x, v1y = _orthogonal_2d(a01, a11)  # <v1' x v|psi> = 0
    v1x_c, v1y_c, v2x_c, v2y_c = np.conj(v1x), np.conj(v1y), np.conj(v2x), np.conj(v2y)
    residuals = (
        np.abs(a00),  # <u x u|psi>
        np.abs(v2x_c * a10 + v2y_c * a11),
        np.abs(v1x_c * a01 + v1y_c * a11),
    )
    overlap = v1x_c * (v2x_c * a00 + v2y_c * a01) + v1y_c * (v2x_c * a10 + v2y_c * a11)

    def vec(*parts):
        return np.stack(parts, axis=-1).astype(complex)

    return HardyConstruction(
        psi=vec(a00, a01, a10, a11),
        u1_prime=vec(*_orthogonal_2d(v1x, v1y)),
        v1_prime=vec(v1x, v1y),
        u2_prime=vec(*_orthogonal_2d(v2x, v2y)),
        v2_prime=vec(v2x, v2y),
        p=np.abs(overlap) ** 2,
        condition_residuals=np.stack(residuals, axis=-1),
    )


def hardy_build(p1: float, p2: float) -> HardyConstruction:
    """Build the Hardy state and primed bases for parameters in (0, 1).

    The unnormalized state is
        sqrt((1-p1)(1-p2)) |v,v> - sqrt(p1(1-p2)) |u,v> - sqrt(p2(1-p1)) |v,u>
    whose squared coefficients sum to 1 - p1 p2, so dividing by
    sqrt(1 - p1 p2) normalizes it exactly.  v2' is the unique direction
    with <v, v2'|psi> = 0, v1' the unique direction with <v1', v|psi> = 0;
    u' completes each primed basis.  p = |<v1', v2'|psi>|^2.
    """
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise ValueError(f"parameters must lie strictly inside (0, 1), got ({p1}, {p2})")
    construction = _hardy_construct(p1, p2)
    residuals = tuple(float(r) for r in construction.condition_residuals)
    p = float(construction.p)
    if max(residuals) > TAU_EQ:
        raise AssertionError(f"orthogonality conditions violated: {residuals}")
    if p <= 0.0:
        raise AssertionError("jointly primed probability vanished")
    return replace(construction, p=p, condition_residuals=residuals)


_HARDY_ZOOM_POINTS = 41


def _hardy_grid_argmax(axis1: np.ndarray, axis2: np.ndarray) -> np.ndarray:
    q1, q2 = np.meshgrid(axis1, axis2, indexing="ij")
    i, j = np.unravel_index(np.argmax(_hardy_construct(q1, q2).p), q1.shape)
    return np.array([axis1[i], axis2[j]])


def hardy_optimize(grid: int = 100, tol: float = 1e-8) -> tuple[HardyParams, float]:
    """Maximize the forbidden-outcome probability over (p1, p2) in (0, 1)^2.

    The constructed (not closed-form) probability is evaluated on the whole
    grid x grid scan in one batch, then refined by zooming: a 41 x 41 batch
    spanning two spacings either side of the best point so far, so that the
    spacing shrinks tenfold per level, until it is below tol * 1e-2.  The
    maximum sits at p1 = p2 = 1/golden-ratio with p = golden-ratio^-5.
    """
    if grid < 10:
        raise ValueError("grid must be at least 10")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    points = np.arange(1, grid + 1) / (grid + 1.0)
    best = _hardy_grid_argmax(points, points)
    spacing = 1.0 / (grid + 1.0)
    offsets = np.linspace(-2.0, 2.0, _HARDY_ZOOM_POINTS)
    while spacing >= tol * 1e-2:
        axes = [np.clip(x + spacing * offsets, 1e-9, 1.0 - 1e-9) for x in best]
        best = _hardy_grid_argmax(*axes)
        spacing *= 4.0 / (_HARDY_ZOOM_POINTS - 1)
    p1, p2 = float(best[0]), float(best[1])
    return HardyParams(p1=p1, p2=p2), hardy_build(p1, p2).p


def no_signalling_check(rho, a, b_projectors) -> float:
    """|Tr(rho' A) - Tr(rho A)| with rho' = sum_beta P_beta rho P_beta.

    Requires the P_beta to be mutually orthogonal projectors resolving the
    identity, all commuting with A; the deviation is then zero up to
    roundoff, so a prior measurement cannot signal through expectations.
    """
    rho = assert_density_operator(rho)
    a = np.asarray(a, dtype=complex)
    if a.shape != rho.shape:
        raise ValueError("observable dimension does not match the state")
    projs = [assert_projector(p) for p in b_projectors]
    total = sum(projs)
    if np.max(np.abs(total - np.eye(rho.shape[0]))) > TAU_EQ:
        raise ValueError("projectors do not resolve the identity")
    for i, p in enumerate(projs):
        for q in projs[i + 1 :]:
            if np.max(np.abs(p @ q)) > TAU_EQ:
                raise ValueError("projectors are not mutually orthogonal")
        if np.max(np.abs(a @ p - p @ a)) > TAU_EQ:
            raise ValueError("observable does not commute with every projector")
    rho_after = sum(p @ rho @ p for p in projs)
    before = complex(np.trace(rho @ a))
    after = complex(np.trace(rho_after @ a))
    return abs(after - before)
