"""Quantum correlators, Bell/CHSH inequalities, GHZ and Hardy constructions.

Every two-qubit number is read off the correlation tensor
T_ij = <psi| sigma_i x sigma_j |psi>, computed by that definition (and the
state validated) once per state and kept in a bounded memo: each correlator
P(a, b) = <psi| (a.sigma) x (b.sigma) |psi> is a . T b, and the largest CHSH
value over all settings is the Horodecki value `chsh_max`.  The singlet has
T = -identity, so P(a, b) = -a.b.
The CHSH combination S = |P(a,b) - P(a,b')| + |P(a',b) + P(a',b')| is bounded
by 2 for local hidden variables and reaches 2*sqrt(2) on the singlet.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .contextuality import AssignmentSearchResult, count_sign_assignments
from .hvmodels import BATCH_PAIRS, chsh_combination
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
    """v as a float array of shape (3,); ValueError unless |v| = 1 within TAU_EQ."""
    vec = np.asarray(v, dtype=float)
    if vec.shape != (3,):
        vec = vec.reshape(3)
    x, y, z = vec.tolist()  # on Python floats a huge component gives inf, not a warning
    norm = math.sqrt(x * x + y * y + z * z)
    if not (abs(norm - 1.0) <= TAU_EQ):
        raise ValueError(f"setting must be a unit vector, |v| = {norm}")
    return vec


@dataclass(frozen=True, init=False)
class ChshSettings:
    """Four analyzer directions (a, a', b, b'), all unit vectors."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __init__(self, a, a_prime, b, b_prime):
        object.__setattr__(self, "a", unit_setting(a))
        object.__setattr__(self, "a_prime", unit_setting(a_prime))
        object.__setattr__(self, "b", unit_setting(b))
        object.__setattr__(self, "b_prime", unit_setting(b_prime))

    def pairs(self) -> tuple:
        """(a, b), (a, b'), (a', b), (a', b'), named by SETTING_PAIR_NAMES."""
        return ((self.a, self.b), (self.a, self.b_prime), (self.a_prime, self.b), (self.a_prime, self.b_prime))


def optimal_chsh_settings() -> ChshSettings:
    return ChshSettings(OPTIMAL_CHSH_A, OPTIMAL_CHSH_A_PRIME, OPTIMAL_CHSH_B, OPTIMAL_CHSH_B_PRIME)


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

TENSOR_MEMO_SIZE = 64  # states whose correlation tensor is kept
_COMPLEX = np.dtype(complex)


@functools.lru_cache(maxsize=TENSOR_MEMO_SIZE)
def _tensor_of_bytes(key: bytes) -> np.ndarray:
    """Read-only T of the state whose complex128 bytes are key; ValueError unless it is a unit vector."""
    psi = assert_state_vector(np.frombuffer(key, _COMPLEX))
    tensor = (psi.conj() @ _PAULI_PAIRS @ psi).real
    tensor.setflags(write=False)  # shared by every caller that hits the memo
    return tensor


def _memo_tensor(psi) -> np.ndarray:
    """Read-only T of psi, computed (and psi validated) once per state.

    The memo is keyed by the complex128 bytes of a 4-entry state, so an
    in-place change to psi gives a new key.  Any other size is only
    validated, never copied into a key; an invalid state raises on every call.
    """
    vec = np.asarray(psi, _COMPLEX)
    if vec.size != 4:
        assert_state_vector(vec)
        raise ValueError("correlation tensor needs a two-qubit state")
    return _tensor_of_bytes(vec.tobytes())


def correlation_tensor(psi) -> np.ndarray:
    """3x3 tensor T_ij = <psi| sigma_i x sigma_j |psi>.

    The correlator is bilinear in the settings, so P(a, b) = a . T b exactly.
    For the singlet T = -identity.  T is memoized per state (the last
    TENSOR_MEMO_SIZE states); each call returns a fresh writable copy.
    """
    return _memo_tensor(psi).copy()


def _bilinear(psi, rows, cols) -> list:
    """[u . T v for u in rows for v in cols] on Python floats, T from the memo.

    rows and cols are unit float arrays of shape (3,); plain loops, because
    per call the scalar API is a handful of 3-vectors.
    """
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = _memo_tensor(psi).tolist()
    t_cols = []
    for v in cols:
        x, y, z = v.tolist()
        t_cols.append((t00 * x + t01 * y + t02 * z, t10 * x + t11 * y + t12 * z, t20 * x + t21 * y + t22 * z))
    values = []
    for u in rows:
        x, y, z = u.tolist()
        for tx, ty, tz in t_cols:
            values.append(x * tx + y * ty + z * tz)
    return values


def qm_correlator(psi, a, b) -> float:
    """<psi| (a.sigma) x (b.sigma) |psi> = a . T b; equals -a.b on the singlet."""
    return _bilinear(psi, [unit_setting(a)], [unit_setting(b)])[0]


def bell_correlators(psi, a, b, c) -> tuple:
    """(P(a,b), P(a,c), P(b,c)) on Python floats, off one contraction with the memoized T."""
    a, b, c = (unit_setting(v) for v in (a, b, c))
    ab, ac, _, bc = _bilinear(psi, [a, b], [b, c])
    return ab, ac, bc


def bell_original_lhs(psi, a, b, c, eta_a: int, eta_b: int, eta_c: int) -> float:
    """Signed three-correlator sum; local hidden variables keep it <= 1.

    Returns eta_a eta_b P(a,b) + eta_a eta_c P(a,c) + eta_b eta_c P(b,c),
    the correlators from `bell_correlators`; the caller compares with the bound 1.
    """
    for eta in (eta_a, eta_b, eta_c):
        if eta not in (1, -1):
            raise ValueError("eta values must be +1 or -1")
    ab, ac, bc = bell_correlators(psi, a, b, c)
    return float(eta_a * eta_b * ab + eta_a * eta_c * ac + eta_b * eta_c * bc)


def chsh_correlators(psi, settings: ChshSettings) -> list:
    """[a.Tb, a.Tb', a'.Tb, a'.Tb'] in SETTING_PAIR_NAMES order, on Python floats; T from the
    per-state memo, so a scan over many settings on one state validates it and builds T once."""
    return _bilinear(psi, [settings.a, settings.a_prime], [settings.b, settings.b_prime])


def chsh_value(psi, settings: ChshSettings) -> float:
    """S = |a.Tb - a.Tb'| + |a'.Tb + a'.Tb'|, the CHSH combination of `chsh_correlators`."""
    return chsh_combination(chsh_correlators(psi, settings))


def chsh_max(psi) -> float:
    """Largest CHSH value over all settings: the Horodecki value 2 sqrt(m1 + m2), m1 and m2 the two
    largest eigenvalues of T^t T (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995))."""
    tensor = _memo_tensor(psi)
    m = np.linalg.eigvalsh(tensor.T @ tensor)  # ascending
    return 2.0 * math.sqrt(m[1] + m[2])


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
    Deterministic for fixed (restarts, seed).  The optimum is `chsh_max`.
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


def ghz_assignment_search(xxx_target: int = -1) -> AssignmentSearchResult:
    """Exhaustive search over the 64 local value assignments (m_x, m_y) per
    particle, against the three m_x m_y m_y = +1 constraints and
    m_x m_x m_x = xxx_target.

    Multiplying the first three constraints forces m_x m_x m_x = +1, so the
    quantum target -1 leaves zero satisfying assignments.
    """
    if xxx_target not in (1, -1):
        raise ValueError("xxx_target must be +1 or -1")
    # variables 0-2 are m_x of particles 1-3, variables 3-5 their m_y
    return count_sign_assignments(
        6, [((0, 4, 5), 1), ((3, 1, 5), 1), ((3, 4, 2), 1), ((0, 1, 2), xxx_target)]
    )


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
    outcome that local realism forbids.  From `hardy_build`, p is a float and
    condition_residuals a tuple of floats; the batched construction behind
    it runs the same code and gives every field as an array over a grid.
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


def _sqrt(x):
    """math.sqrt on a float, np.sqrt on an array: both correctly rounded, so they agree bit for bit."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _orthogonal_2d(x, y) -> tuple:
    """Unit 2-vector orthogonal to the real (x, y), its first entry above 1e-14 in size positive.

    Takes floats or arrays (componentwise), so one call handles a point or a grid.
    """
    norm = _sqrt(x * x + y * y)
    ox, oy = -y / norm, x / norm
    flip = (ox < -1e-14) | ((abs(ox) <= 1e-14) & (oy < 0.0))
    sign = 1.0 - 2.0 * flip
    return ox * sign, oy * sign


def _hardy_construct(p1, p2) -> HardyConstruction:
    """The Hardy construction on floats or broadcast arrays of parameters in (0, 1).

    Floats and arrays run the same operations, so a point and a grid entry
    agree bit for bit; a point runs on Python floats.  Every field carries
    the broadcast shape of (p1, p2) in front, with the vector components (or
    the three residuals) last.
    """
    norm = _sqrt(1.0 - p1 * p2)
    # Amplitudes a_j1j2 of |j1, j2> with u = |0>, v = |1>.
    a00 = 0.0 * norm
    a01 = -_sqrt(p1 * (1.0 - p2)) / norm
    a10 = -_sqrt(p2 * (1.0 - p1)) / norm
    a11 = _sqrt((1.0 - p1) * (1.0 - p2)) / norm
    v2x, v2y = _orthogonal_2d(a10, a11)
    v1x, v1y = _orthogonal_2d(a01, a11)
    overlap = v1x * (v2x * a00 + v2y * a01) + v1y * (v2x * a10 + v2y * a11)
    # residuals: <u x u|psi>, <v x v2'|psi>, <v1' x v|psi>
    residuals = abs(a00), abs(v2x * a10 + v2y * a11), abs(v1x * a01 + v1y * a11)
    u1, u2 = _orthogonal_2d(v1x, v1y), _orthogonal_2d(v2x, v2y)
    # built as complex in one step: a float copy first would raise a grid's peak memory
    vec = np.array([a00, a01, a10, a11, *u1, v1x, v1y, *u2, v2x, v2y], dtype=complex)
    last = (*range(1, vec.ndim), 0)  # components on the last axis
    vec, residuals = vec.transpose(last), np.array(residuals).transpose(last)
    return HardyConstruction(
        vec[..., :4], vec[..., 4:6], vec[..., 6:8], vec[..., 8:10], vec[..., 10:12], overlap * overlap, residuals
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
    c = _hardy_construct(float(p1), float(p2))
    residuals = tuple(c.condition_residuals.tolist())
    p = float(c.p)
    if max(residuals) > TAU_EQ:
        raise AssertionError(f"orthogonality conditions violated: {residuals}")
    if p <= 0.0:
        raise AssertionError("jointly primed probability vanished")
    return HardyConstruction(c.psi, c.u1_prime, c.v1_prime, c.u2_prime, c.v2_prime, p, residuals)


_HARDY_ZOOM_POINTS = 41
# Grid points built at once: a point holds about 370 bytes of construction, so a block is about 6 MB.
_HARDY_BLOCK_POINTS = BATCH_PAIRS // 4


def _hardy_grid_argmax(axis1: np.ndarray, axis2: np.ndarray) -> np.ndarray:
    """(axis1[i], axis2[j]) at the first maximum of p over the grid, in row-major order.

    The grid is built in blocks of whole rows, at most _HARDY_BLOCK_POINTS
    points each (one row if a row is longer), so memory does not grow with
    it; a block wins only with a strictly larger p, so ties go to the earliest.
    """
    rows = max(1, _HARDY_BLOCK_POINTS // len(axis2))
    best_p, best = -np.inf, (0, 0)
    for start in range(0, len(axis1), rows):
        q1, q2 = np.meshgrid(axis1[start : start + rows], axis2, indexing="ij")
        p = _hardy_construct(q1, q2).p
        k = int(np.argmax(p))
        if p.flat[k] > best_p:
            best_p, best = p.flat[k], (start + k // len(axis2), k % len(axis2))
    i, j = best
    return np.array([axis1[i], axis2[j]])


def hardy_optimize(grid: int = 100, tol: float = 1e-8) -> tuple[HardyParams, float]:
    """Maximize the forbidden-outcome probability over (p1, p2) in (0, 1)^2.

    The constructed (not closed-form) probability is evaluated on the whole
    grid x grid scan, in row blocks of at most BATCH_PAIRS / 4 points, then
    refined by zooming: a 41 x 41 batch spanning two spacings either side of
    the best point so far, so that the spacing shrinks tenfold per level,
    until it is below tol * 1e-2.  The maximum sits at p1 = p2 =
    1/golden-ratio with p = golden-ratio^-5.
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
