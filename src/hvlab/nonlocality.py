"""Two-qubit nonlocality on arrays: the singlet state and the correlation tensor as arrays, the largest CHSH
value, the CHSH and Hardy optimizers, and the no-signalling check.

Every two-qubit number is read off the correlation tensor
T_ij = <psi| sigma_i x sigma_j |psi>, which the numpy-free `kernels` computes
(and validates the state for) once per state and keeps in a bounded memo.
`kernels` also holds each correlator P(a, b) = <psi| (a.sigma) x (b.sigma) |psi> = a . T b,
Bell's inequality, the GHZ checks and the Hardy construction.  The singlet has
T = -identity, so P(a, b) = -a.b.
The CHSH combination S = |P(a,b) - P(a,b')| + |P(a',b) + P(a',b')| is bounded
by 2 for local hidden variables and reaches 2*sqrt(2) on the singlet; its
largest value over all settings is the Horodecki value `chsh_max`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .kernels import (
    BATCH_PAIRS, SINGLET, TAU_EQ, ChshSettings, _hardy_fields, _memo_tensor, chsh_value, hardy_build,
)
from .options import MIN_GRID, MIN_RESTARTS, check_count, check_tol
from .qmath import assert_density_operator, assert_hermitian, assert_projector

GOLDEN_RATIO = (np.sqrt(5.0) + 1.0) / 2.0


def singlet_state() -> np.ndarray:
    """(|01> - |10>)/sqrt(2), the two-qubit total-spin-zero state."""
    return np.array(SINGLET)


def correlation_tensor(psi) -> np.ndarray:
    """3x3 tensor T_ij = <psi| sigma_i x sigma_j |psi>.

    The correlator is bilinear in the settings, so P(a, b) = a . T b exactly.
    For the singlet T = -identity.  T is memoized per state (the last
    TENSOR_MEMO_SIZE states) as rows of Python floats, which the scalar
    correlators contract directly; each call returns a new array built from them.
    """
    return np.array(_memo_tensor(psi))


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
    check_count("restarts", restarts, MIN_RESTARTS)
    check_tol("tol", tol)
    check_count("seed", seed, 0)
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


class HardyParams(NamedTuple):
    p1: float
    p2: float


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
    check_count("grid", grid, MIN_GRID)
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
    # what must vanish, per trial: sum P - I, every P_i P_j and every [A, P_i]; its largest entry per
    # relation over all trials, then the relations walked in the order one trial checks them
    k, n = projs.shape[-3:-1]
    products = (projs[..., :, None, :, :] @ projs[..., None, :, :, :]).reshape(projs.shape[:-3] + (k * k, n, n))
    a_each = a[..., None, :, :]
    vanishing = np.concatenate(
        ((projs.sum(axis=-3) - np.eye(n))[..., None, :, :], products, a_each @ projs - projs @ a_each), axis=-3
    )
    worst = np.abs(vanishing).max(axis=tuple(range(vanishing.ndim - 3)) + (-2, -1)).tolist()
    if worst[0] > TAU_EQ:
        raise ValueError("projectors do not resolve the identity")
    for i in range(k):
        if any(w > TAU_EQ for w in worst[2 + i * (k + 1) : 1 + (i + 1) * k]):  # P_i P_j, j > i
            raise ValueError("projectors are not mutually orthogonal")
        if worst[1 + k * k + i] > TAU_EQ:
            raise ValueError("observable does not commute with every projector")
    # per trial and projector one product, summed over the projectors: a lone trial's bits
    rho_after = (projs @ rho[..., None, :, :] @ projs).sum(axis=-3)
    change = (rho_after @ a).diagonal(0, -2, -1).sum(-1) - (rho @ a).diagonal(0, -2, -1).sum(-1)  # np.trace's bits
    deviation = np.hypot(change.real, change.imag)  # the bits of Python's abs(complex); np.abs's differ
    return float(deviation) if deviation.ndim == 0 else deviation
