"""Explicit hidden-variable models: the spin-1/2 value map and joint weights.

The spin-1/2 model assigns, to the observable alpha*I + beta.sigma and the
dispersion-free state (psi, lambda),

    value = alpha + |beta| sgn(m) sgn(lambda |beta| + |m|/2),  m = <psi|beta.sigma|psi>

so the value is always one of the two eigenvalues alpha +/- |beta|, and the
uniform average over lambda in [-1/2, 1/2] is exactly alpha + m, the quantum
expectation.  The joint-weight model assigns a probability to every
preassigned outcome tuple (s, s', t, t') in {+-1}^4; its correlators always
satisfy the CHSH bound S <= 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .qmath import TAU_EQ, assert_state_vector, sigma_dot

SIGN = np.array([1.0, -1.0])  # weight-array index 0 means +1, index 1 means -1

# parity tables st, st', s't, s't' over the (s, s', t, t') index grid
_PARITY_AB = np.einsum("i,k->ik", SIGN, SIGN)[:, None, :, None]
_PARITY_ABP = np.einsum("i,l->il", SIGN, SIGN)[:, None, None, :]
_PARITY_APB = np.einsum("j,k->jk", SIGN, SIGN)[None, :, :, None]
_PARITY_APBP = np.einsum("j,l->jl", SIGN, SIGN)[None, :, None, :]


def sgn(x):
    """Sign with the convention sgn(0) = +1."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class BellHVState:
    """Dispersion-free state (psi, lambda) with lambda in [-1/2, 1/2]."""

    psi: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "psi", assert_state_vector(self.psi))
        if self.psi.shape[0] != 2:
            raise ValueError("the hidden-variable model is for a single spin-1/2")
        if not -0.5 <= self.lam <= 0.5:
            raise ValueError(f"lambda = {self.lam} outside [-1/2, 1/2]")


def _beta_and_m(beta, psi) -> tuple[float, float]:
    beta = np.asarray(beta, dtype=float).reshape(3)
    beta_len = float(np.linalg.norm(beta))
    m = float(np.vdot(psi, sigma_dot(beta) @ psi).real)
    return beta_len, m


def bell_hv_value(alpha: float, beta, state: BellHVState) -> float:
    """Value assigned to alpha*I + beta.sigma in the state (psi, lambda).

    Always one of the eigenvalues alpha +/- |beta|.  For beta = 0 the
    observable is alpha*I and the value is alpha.
    """
    beta_len, m = _beta_and_m(beta, state.psi)
    if beta_len == 0.0:
        return float(alpha)
    val = alpha + beta_len * float(sgn(m)) * float(sgn(state.lam * beta_len + 0.5 * abs(m)))
    return float(val)


def bell_hv_average_exact(alpha: float, beta, psi) -> float:
    """Closed-form lambda average of the model: alpha + <psi|beta.sigma|psi>.

    The sgn threshold sits at lambda0 = -|m| / (2 |beta|), so integrating
    sgn over the uniform lambda range gives |m|/|beta| and the average
    collapses to the quantum expectation value.
    """
    psi = assert_state_vector(psi)
    _, m = _beta_and_m(beta, psi)
    return float(alpha) + m


def bell_hv_average_mc(alpha: float, beta, psi, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo lambda average: (estimate, standard error).

    Draws n_samples uniform lambdas with a seeded generator; reproducible
    for a fixed seed.  Warns if the estimate strays more than 5 standard
    errors from the exact average.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    psi = assert_state_vector(psi)
    beta_len, m = _beta_and_m(beta, psi)
    rng = np.random.default_rng(seed)
    lams = rng.uniform(-0.5, 0.5, size=n_samples)
    if beta_len == 0.0:
        values = np.full(n_samples, float(alpha))
    else:
        values = alpha + beta_len * sgn(m) * sgn(lams * beta_len + 0.5 * abs(m))
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n_samples))
    exact = bell_hv_average_exact(alpha, beta, psi)
    if (stderr > 0 and abs(estimate - exact) > 5 * stderr) or (
        stderr == 0 and estimate != exact
    ):
        warnings.warn(
            f"MC estimate {estimate} deviates from exact {exact} by more than 5 sigma",
            stacklevel=2,
        )
    return estimate, stderr


def validate_wigner_weights(w) -> np.ndarray:
    """Normalize input to shape (2, 2, 2, 2); axes are (s, s', t, t').

    Weights must be nonnegative and sum to 1 within tolerance.
    """
    arr = np.asarray(w, dtype=float)
    if arr.shape == (16,):
        arr = arr.reshape(2, 2, 2, 2)
    if arr.shape != (2, 2, 2, 2):
        raise ValueError(f"weights must have 16 entries, got shape {arr.shape}")
    if not (arr.min() >= -TAU_EQ):  # also true for NaN
        raise ValueError(f"weights must be finite and nonnegative, got minimum {arr.min()}")
    total = float(arr.sum())
    if not (abs(total - 1.0) <= TAU_EQ):
        raise ValueError(f"weights sum to {total}, expected 1")
    return arr


def deterministic_weights(s: int, sp: int, t: int, tp: int) -> np.ndarray:
    """One-hot weight vector concentrated on a single outcome tuple."""
    w = np.zeros((2, 2, 2, 2))
    idx = tuple((1 - v) // 2 for v in (s, sp, t, tp))
    if any(i not in (0, 1) for i in idx):
        raise ValueError("outcome values must be +1 or -1")
    w[idx] = 1.0
    return w


def wigner_correlators(w) -> tuple[float, float, float, float]:
    """The four weighted parity sums (P_ab, P_ab', P_a'b, P_a'b')."""
    arr = validate_wigner_weights(w)
    p_ab = float((arr * _PARITY_AB).sum())
    p_abp = float((arr * _PARITY_ABP).sum())
    p_apb = float((arr * _PARITY_APB).sum())
    p_apbp = float((arr * _PARITY_APBP).sum())
    return p_ab, p_abp, p_apb, p_apbp


def chsh_from_wigner(w) -> float:
    """S = |P_ab - P_ab'| + |P_a'b + P_a'b'|; at most 2 for valid weights."""
    p_ab, p_abp, p_apb, p_apbp = wigner_correlators(w)
    return abs(p_ab - p_abp) + abs(p_apb + p_apbp)
