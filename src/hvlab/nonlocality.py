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
from typing import NamedTuple

import numpy as np

from .contextuality import AssignmentSearchResult, count_sign_assignments
from .hvmodels import BATCH_PAIRS, chsh_combination
from .options import MIN_GRID, MIN_RESTARTS
from .qmath import (
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    TAU_EQ,
    assert_density_operator,
    assert_hermitian,
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

# Names of the four directions, in `ChshSettings.floats` order, and of the four setting pairs,
# in the order `ChshSettings.pairs` gives them.
SETTING_NAMES = ("a", "a_prime", "b", "b_prime")
SETTING_PAIR_NAMES = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")

_FLOAT = np.dtype(float)
_COMPLEX = np.dtype(complex)


def _unit_floats(*vectors) -> tuple:
    """(x, y, z) of each vector, shape (3,) or reshapeable to it, as Python floats; ValueError
    unless each is a unit vector within TAU_EQ."""
    triples = []
    for v in vectors:
        vec = np.asarray(v, _FLOAT)
        if vec.shape != (3,):
            vec = vec.reshape(3)
        x, y, z = vec.tolist()  # on Python floats a huge component gives inf, not a warning
        norm = math.sqrt(x * x + y * y + z * z)
        if not (abs(norm - 1.0) <= TAU_EQ):
            raise ValueError(f"setting must be a unit vector, |v| = {norm}")
        triples.append((x, y, z))
    return tuple(triples)


def _read_only(values, dtype=_FLOAT) -> np.ndarray:
    vec = np.array(values, dtype)
    vec.setflags(write=False)
    return vec


def _direction(k: int, name: str) -> property:
    return property(lambda self: _read_only(self.floats[k]), doc=f"{name} as a new read-only float array")


class ChshSettings(NamedTuple("ChshSettings", [("floats", tuple)])):
    """Four analyzer directions (a, a', b, b'), all unit vectors.

    `floats` keeps ((x, y, z) of a, of a', of b, of b') as Python floats,
    copied once when the settings are made, so a later change to the caller's
    array leaves them alone; the correlators contract those floats directly,
    and a, a_prime, b and b_prime give each direction as a new read-only array.
    """

    __slots__ = ()

    def __new__(cls, a, a_prime, b, b_prime):
        return tuple.__new__(cls, (_unit_floats(a, a_prime, b, b_prime),))

    def __getnewargs__(self):  # copy and pickle rebuild the settings from the four directions
        return self.floats

    @classmethod
    def _make(cls, iterable):  # _replace goes through _make, so both check the directions
        (floats,) = iterable
        return cls(*floats)

    a = _direction(0, "a")
    a_prime = _direction(1, "a'")
    b = _direction(2, "b")
    b_prime = _direction(3, "b'")

    def pairs(self) -> tuple:
        """(a, b), (a, b'), (a', b), (a', b'), named by SETTING_PAIR_NAMES."""
        a, a_prime, b, b_prime = map(_read_only, self.floats)
        return ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))


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


@functools.lru_cache(maxsize=TENSOR_MEMO_SIZE)
def _tensor_of_bytes(key: bytes) -> tuple:
    """T, as rows of Python floats, of the state whose complex128 bytes are key; ValueError unless unit."""
    psi = assert_state_vector(np.frombuffer(key, _COMPLEX))
    return tuple(map(tuple, (psi.conj() @ _PAULI_PAIRS @ psi).real.tolist()))


def _memo_tensor(psi) -> tuple:
    """The rows of T of psi, computed (and psi validated) once per state.

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
    TENSOR_MEMO_SIZE states) as rows of Python floats, which the scalar
    correlators contract directly; each call returns a new array built from them.
    """
    return np.array(_memo_tensor(psi))


def _correlators(psi, a, a_prime, b, b_prime) -> list:
    """[a.Tb, a.Tb', a'.Tb, a'.Tb'] of (x, y, z) float triples, T from the memo, in straight-line code: T b and
    T b' once each as t_i0 x + t_i1 y + t_i2 z, then x tx + y ty + z tz, the order every correlator keeps."""
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = _memo_tensor(psi)
    x, y, z = b
    bx, by, bz = t00 * x + t01 * y + t02 * z, t10 * x + t11 * y + t12 * z, t20 * x + t21 * y + t22 * z
    x, y, z = b_prime
    cx, cy, cz = t00 * x + t01 * y + t02 * z, t10 * x + t11 * y + t12 * z, t20 * x + t21 * y + t22 * z
    (x, y, z), (u, v, w) = a, a_prime
    return [x * bx + y * by + z * bz, x * cx + y * cy + z * cz, u * bx + v * by + w * bz, u * cx + v * cy + w * cz]


def qm_correlator(psi, a, b) -> float:
    """<psi| (a.sigma) x (b.sigma) |psi> = a . T b; equals -a.b on the singlet."""
    (x, y, z), (u, v, w) = _unit_floats(a, b)
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = _memo_tensor(psi)
    return x * (t00 * u + t01 * v + t02 * w) + y * (t10 * u + t11 * v + t12 * w) + z * (t20 * u + t21 * v + t22 * w)


def bell_correlators(psi, a, b, c) -> tuple:
    """(P(a,b), P(a,c), P(b,c)) on Python floats, off one contraction with the memoized T."""
    a, b, c = _unit_floats(a, b, c)
    ab, ac, _, bc = _correlators(psi, a, b, b, c)
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
    """[a.Tb, a.Tb', a'.Tb, a'.Tb'] in SETTING_PAIR_NAMES order, Python floats off T b and T b', no array; T from
    the per-state memo, so a scan over many settings on one state validates it and builds T once."""
    return _correlators(psi, *settings.floats)


def chsh_value(psi, settings: ChshSettings) -> float:
    """S = |a.Tb - a.Tb'| + |a'.Tb + a'.Tb'|, the CHSH combination of `chsh_correlators`."""
    return chsh_combination(chsh_correlators(psi, settings))


def chsh_max(psi) -> float:
    """Largest CHSH value over all settings: the Horodecki value 2 sqrt(m1 + m2), m1 and m2 the two
    largest eigenvalues of T^t T (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995))."""
    tensor = correlation_tensor(psi)
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
    if restarts < MIN_RESTARTS:
        raise ValueError(f"restarts must be at least {MIN_RESTARTS}")
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


def ghz_stabilizer_deviations() -> dict[str, float]:
    """Max entrywise deviations of the four parity identities on the GHZ state.

    X Y Y, Y X Y and Y Y X fix the state; X X X flips its sign.
    """
    psi = ghz_state()

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


class HardyConstruction(NamedTuple):
    """Two-qubit state with the four joint-outcome conditions built in, kept as floats.

    psi lives in the (u, v) product basis with u = |0>, v = |1>; a01, a10, a11 are its amplitudes on
    |u,v>, |v,u>, |v,v> (that on |u,u> is 0).  The primed single-qubit bases (u', v') are fixed by the
    one-dimensional orthogonality conditions, v1' = (v1x, v1y) and v2' = (v2x, v2y).  p is the probability
    of the jointly primed outcome that local realism forbids, condition_residuals three floats.  psi and the
    primed vectors are built on access, each as a new read-only complex array.
    """

    a01: float
    a10: float
    a11: float
    v1x: float
    v1y: float
    v2x: float
    v2y: float
    p: float
    condition_residuals: tuple

    psi = property(lambda self: _read_only((0.0, self.a01, self.a10, self.a11), _COMPLEX))
    u1_prime = property(lambda self: _read_only(_orthogonal_2d(self.v1x, self.v1y), _COMPLEX))
    v1_prime = property(lambda self: _read_only((self.v1x, self.v1y), _COMPLEX))
    u2_prime = property(lambda self: _read_only(_orthogonal_2d(self.v2x, self.v2y), _COMPLEX))
    v2_prime = property(lambda self: _read_only((self.v2x, self.v2y), _COMPLEX))


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


def _hardy_fields(p1, p2) -> tuple:
    """The Hardy arithmetic up to p, on floats or broadcast arrays of parameters in (0, 1).

    Returns (a01, a10, a11, v1x, v1y, v2x, v2y, p): the amplitudes of psi on
    |u,v>, |v,u>, |v,v> (that on |u,u> is 0), v1', v2' and p.  Floats and arrays
    run the same operations, so a point and a grid entry agree bit for bit.
    """
    norm = _sqrt(1.0 - p1 * p2)
    # Amplitudes a_j1j2 of |j1, j2> with u = |0>, v = |1>.
    a01 = -_sqrt(p1 * (1.0 - p2)) / norm
    a10 = -_sqrt(p2 * (1.0 - p1)) / norm
    a11 = _sqrt((1.0 - p1) * (1.0 - p2)) / norm
    v2x, v2y = _orthogonal_2d(a10, a11)
    v1x, v1y = _orthogonal_2d(a01, a11)
    overlap = v1x * (v2y * a01) + v1y * (v2x * a10 + v2y * a11)
    return a01, a10, a11, v1x, v1y, v2x, v2y, overlap * overlap


def hardy_build(p1: float, p2: float) -> HardyConstruction:
    """Build the Hardy state and primed bases for parameters in (0, 1).

    The unnormalized state is
        sqrt((1-p1)(1-p2)) |v,v> - sqrt(p1(1-p2)) |u,v> - sqrt(p2(1-p1)) |v,u>
    whose squared coefficients sum to 1 - p1 p2, so dividing by
    sqrt(1 - p1 p2) normalizes it exactly.  v2' is the unique direction
    with <v, v2'|psi> = 0, v1' the unique direction with <v1', v|psi> = 0;
    u' completes each primed basis.  p = |<v1', v2'|psi>|^2 is the grid scan's
    arithmetic run on Python floats, and the three condition residuals are
    derived here only; the vectors are built only when read (`HardyConstruction`).
    """
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise ValueError(f"parameters must lie strictly inside (0, 1), got ({p1}, {p2})")
    fields = _hardy_fields(float(p1), float(p2))
    a01, a10, a11, v1x, v1y, v2x, v2y, p = fields
    # residuals: <u x u|psi>, <v x v2'|psi>, <v1' x v|psi>
    residuals = 0.0, abs(v2x * a10 + v2y * a11), abs(v1x * a01 + v1y * a11)
    if max(residuals) > TAU_EQ:
        raise AssertionError(f"orthogonality conditions violated: {residuals}")
    if p <= 0.0:
        raise ValueError(f"the jointly primed probability p underflows to 0 at (p1, p2) = ({p1}, {p2})")
    return HardyConstruction(*fields, residuals)


_HARDY_ZOOM_POINTS = 41
# Grid points whose p is computed at once: about 100 bytes of intermediates each, so about 1.6 MB.
_HARDY_BLOCK_POINTS = BATCH_PAIRS // 4


def _hardy_grid_argmax(axis1: np.ndarray, axis2: np.ndarray) -> np.ndarray:
    """(axis1[i], axis2[j]) at the first maximum of p over the grid, in row-major order.

    p is computed over row-major flat blocks of at most _HARDY_BLOCK_POINTS
    points, so memory does not grow with the grid; a block wins only with a
    strictly larger p, so ties go to the earliest.
    """
    n2 = len(axis2)
    size = len(axis1) * n2
    best_p, best = -np.inf, 0
    for start in range(0, size, _HARDY_BLOCK_POINTS):
        k = np.arange(start, min(start + _HARDY_BLOCK_POINTS, size))
        p = _hardy_fields(axis1[k // n2], axis2[k % n2])[-1]
        i = int(np.argmax(p))
        if p[i] > best_p:
            best_p, best = p[i], start + i
    return np.array([axis1[best // n2], axis2[best % n2]])


def hardy_optimize(grid: int = 100) -> tuple[HardyParams, float]:
    """Maximize the forbidden-outcome probability over (p1, p2) in (0, 1)^2.

    The constructed (not closed-form) probability is evaluated on the whole
    grid x grid scan, in blocks of at most BATCH_PAIRS / 4 points, then
    refined by zooming: a 41 x 41 batch spanning two spacings either side of
    the best point so far, so that the spacing shrinks tenfold per level,
    until it is below 1e-10.  The maximum sits at p1 = p2 =
    1/golden-ratio with p = golden-ratio^-5.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID}")
    points = np.arange(1, grid + 1) / (grid + 1.0)
    best = _hardy_grid_argmax(points, points)
    spacing = 1.0 / (grid + 1.0)
    offsets = np.linspace(-2.0, 2.0, _HARDY_ZOOM_POINTS)
    while spacing >= 1e-10:
        axes = [np.clip(x + spacing * offsets, 1e-9, 1.0 - 1e-9) for x in best]
        best = _hardy_grid_argmax(*axes)
        spacing *= 4.0 / (_HARDY_ZOOM_POINTS - 1)
    p1, p2 = float(best[0]), float(best[1])
    return HardyParams(p1=p1, p2=p2), hardy_build(p1, p2).p


def no_signalling_check(rho, a, b_projectors):
    """|Tr(rho' A) - Tr(rho A)| with rho' = sum_beta P_beta rho P_beta.

    Requires a density operator rho, a Hermitian A and mutually orthogonal
    projectors P_beta resolving the identity, all commuting with A; the
    deviation is then zero up to roundoff, so a prior measurement cannot
    signal through expectations.  Takes one trial, or a stack: (..., n, n)
    and (..., k, n, n), giving an array; a stack raises the message of the
    first check that a trial fails.
    """
    rho = assert_density_operator(rho, stack=True)
    a = np.asarray(a, dtype=complex)
    if a.shape != rho.shape:
        raise ValueError("observable dimension does not match the state")
    a = assert_hermitian(a, stack=True)  # a NaN in A would pass the commutator test below
    projs = assert_projector(b_projectors, stack=True)
    if projs.ndim != rho.ndim + 1 or projs.shape[:-3] + projs.shape[-2:] != rho.shape:
        raise ValueError("projectors do not match the state's dimension")
    if np.max(np.abs(projs.sum(axis=-3) - np.eye(rho.shape[-1]))) > TAU_EQ:
        raise ValueError("projectors do not resolve the identity")
    overlapping = np.abs(projs[..., :, None, :, :] @ projs[..., None, :, :, :]).max(axis=(-2, -1)) > TAU_EQ
    a_each = a[..., None, :, :]
    noncommuting = np.abs(a_each @ projs - projs @ a_each).max(axis=(-2, -1)) > TAU_EQ
    for i in range(projs.shape[-3]):  # in the order one trial checks them
        if overlapping[..., i, i + 1 :].any():
            raise ValueError("projectors are not mutually orthogonal")
        if noncommuting[..., i].any():
            raise ValueError("observable does not commute with every projector")
    # per trial and projector one product, summed over the projectors: a lone trial's bits
    rho_after = (projs @ rho[..., None, :, :] @ projs).sum(axis=-3)
    before = np.trace(rho @ a, axis1=-2, axis2=-1)
    after = np.trace(rho_after @ a, axis1=-2, axis2=-1)
    change = after - before
    deviation = np.hypot(change.real, change.imag)  # the bits of Python's abs(complex); np.abs's differ
    return float(deviation) if deviation.ndim == 0 else deviation
