"""Explicit hidden-variable models: the spin-1/2 value map and joint weights.

The spin-1/2 model assigns, to the observable alpha*I + beta.sigma and the
dispersion-free state (psi, lambda),

    value = alpha + |beta| sgn(m) sgn(lambda |beta| + |m|/2),  m = <psi|beta.sigma|psi>

so the value is always one of the two eigenvalues alpha +/- |beta|, and the
uniform average over lambda in [-1/2, 1/2] is exactly alpha + m, the quantum
expectation; its Monte Carlo estimate keeps only a count, so memory does
not grow with the sample count.  The joint-weight model assigns a
probability to every preassigned outcome tuple (s, s', t, t') in {+-1}^4;
its four correlators are one product of the 16 weights with a (16, 4)
parity matrix, and they always satisfy the CHSH bound S <= 2.  The joint-weight functions take one model or
a batch, one model per row.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import NamedTuple

import numpy as np

from .kernels import BATCH_PAIRS, TAU_EQ, chsh_combination
from .options import MIN_BELL_HV_SAMPLES, check_seed
from .qmath import assert_state_vector

_SPIN_HALF_ONLY = "the hidden-variable model is for a single spin-1/2"

SIGN = np.array([1.0, -1.0])  # weight-array index 0 means +1, index 1 means -1

# parities st, st', s't, s't' of the 16 outcome tuples (s, s', t, t'), in weight order
_PARITY = np.array(
    [(s * t, s * tp, sp * t, sp * tp) for s, sp, t, tp in itertools.product(SIGN, repeat=4)]
)


def count_correlator(plus, n):
    """(E, ddof=1 stderr) of n products of +-1, plus of them +1: E = (2 plus - n) / n,
    the sample variance is n (1 - E^2) / (n - 1); ints or arrays."""
    mean = (2 * plus - n) / n
    return mean, np.sqrt((1.0 - mean * mean) / (n - 1))


def sgn(x):
    """Sign with the convention sgn(0) = +1, for -0.0 too (-0.0 + 0.0 is +0.0)."""
    return np.copysign(1.0, np.asarray(x, dtype=float) + 0.0)


def _qubit(psi) -> np.ndarray:
    """psi validated as a unit state vector of one qubit."""
    psi = assert_state_vector(psi)
    if psi.shape[0] != 2:
        raise ValueError(_SPIN_HALF_ONLY)
    return psi


class BellHVState(NamedTuple("BellHVState", [("psi", np.ndarray), ("lam", float)])):
    """Dispersion-free state (psi, lambda) with lambda in [-1/2, 1/2], both checked when it is built."""

    __slots__ = ()

    def __new__(cls, psi, lam):
        psi = _qubit(psi)
        if not -0.5 <= lam <= 0.5:
            raise ValueError(f"lambda = {lam} outside [-1/2, 1/2]")
        return tuple.__new__(cls, (psi, lam))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through _make: both check


def _beta_and_m(beta, psi: np.ndarray) -> tuple[float, float]:
    """(|beta| as np.linalg.norm gives it, m) on Python floats for a one-qubit psi = (u, d):
    m = beta . r, r = (2 Re c, 2 Im c, |u|^2 - |d|^2) the Bloch vector of psi and c = u* d.
    ValueError unless |beta|^2 is finite."""
    beta = np.asarray(beta, dtype=float).reshape(3)
    with np.errstate(over="ignore"):  # an overflow is reported below, as a ValueError
        beta_len = float(np.linalg.norm(beta))
    if not math.isfinite(beta_len):
        raise ValueError(f"|beta|^2 must be finite, got beta = {beta.tolist()}")
    bx, by, bz = beta.tolist()
    up, down = psi.tolist()
    c = up.conjugate() * down
    return beta_len, 2.0 * (bx * c.real + by * c.imag) + bz * (abs(up) ** 2 - abs(down) ** 2)


def bell_hv_value(alpha: float, beta, state: BellHVState) -> float:
    """Value assigned to alpha*I + beta.sigma in the state (psi, lambda).

    Always one of the eigenvalues alpha +/- |beta|, with sgn(0) = +1 as in `sgn`.
    """
    beta_len, m = _beta_and_m(beta, state.psi)
    sign_m = 1.0 if m >= 0.0 else -1.0
    side = 1.0 if state.lam * beta_len + 0.5 * abs(m) >= 0.0 else -1.0
    return float(alpha + beta_len * sign_m * side)


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha):  # a NaN or infinite alpha would give an estimate with a zero error bar
        raise ValueError(f"alpha must be finite, got {alpha}")


def bell_hv_average_exact(alpha: float, beta, psi) -> float:
    """Closed-form lambda average of the model, the quantum expectation alpha + m.

    The value is alpha + |beta| sgn(m) above the threshold lambda0 =
    -|m| / (2 |beta|) and alpha - |beta| sgn(m) below it, so over the uniform
    lambda in [-1/2, 1/2] the average is alpha + |beta| sgn(m) times the
    measure above lambda0 less the measure below; alpha when beta = 0.
    """
    _check_alpha(alpha)
    beta_len, m = _beta_and_m(beta, _qubit(psi))
    if beta_len == 0.0:
        return float(alpha)
    threshold = max(-0.5, -0.5 * abs(m) / beta_len)  # |m| <= |beta| up to roundoff
    sign_m = 1.0 if m >= 0.0 else -1.0
    return float(alpha + beta_len * sign_m * ((0.5 - threshold) - (threshold + 0.5)))


def bell_hv_average_mc(alpha: float, beta, psi, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo lambda average: (estimate, standard error).

    Draws n uniform lambdas from one seeded generator in batches of
    `BATCH_PAIRS`, each into one reused buffer as `random()` - 1/2, and counts
    the c with sgn(lambda |beta| + |m|/2) = +1; with (E, e) =
    `count_correlator(c, n)` the estimate is alpha + |beta| sgn(m) E and its
    standard error |beta| e.
    """
    if not isinstance(n_samples, numbers.Integral):  # range() would fail on it, naming neither
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < MIN_BELL_HV_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_BELL_HV_SAMPLES}")
    check_seed(seed)
    _check_alpha(alpha)
    beta_len, m = _beta_and_m(beta, _qubit(psi))
    rng = np.random.default_rng(seed)
    buf = np.empty(min(BATCH_PAIRS, n_samples))
    plus = 0
    for start in range(0, n_samples, BATCH_PAIRS):
        lams = buf[: min(BATCH_PAIRS, n_samples - start)]
        rng.random(out=lams)
        lams -= 0.5  # exactly uniform(-0.5, 0.5)'s lambda
        lams *= beta_len
        lams += 0.5 * abs(m)
        plus += np.count_nonzero(lams >= 0.0)
    mean_sgn, sgn_stderr = count_correlator(plus, n_samples)
    estimate = float(alpha + beta_len * sgn(m) * mean_sgn)
    return estimate, float(beta_len * sgn_stderr)


def bell_hv_model_stderr(beta_len: float, m: float, n_samples: int) -> float:
    """sqrt((|beta|^2 - m^2) / n), the standard error of an n-sample average from the
    model's own variance; unlike the sample one, it cannot collapse to 0."""
    return math.sqrt(max(beta_len * beta_len - m * m, 0.0) / n_samples)


def validate_wigner_weights(w) -> np.ndarray:
    """Normalize input to shape (..., 2, 2, 2, 2); the last axes are (s, s', t, t').

    Takes one model, shape (16,) or (2, 2, 2, 2), or a batch of them.  Each
    model's weights must be nonnegative and sum to 1 within tolerance.
    """
    arr = np.asarray(w, dtype=float)
    if arr.shape[-1:] == (16,):
        arr = arr.reshape(arr.shape[:-1] + (2, 2, 2, 2))
    if arr.shape[-4:] != (2, 2, 2, 2):
        raise ValueError(f"weights must have 16 entries, got shape {arr.shape}")
    if not (arr >= -TAU_EQ).all():  # also true for NaN
        raise ValueError(f"weights must be finite and nonnegative, got minimum {arr.min()}")
    totals = arr.sum(axis=(-4, -3, -2, -1))
    bad = ~(np.abs(totals - 1.0) <= TAU_EQ)
    if bad.any():
        raise ValueError(f"weights sum to {totals[bad].flat[0]}, expected 1")
    return arr


def deterministic_weights(s: int, sp: int, t: int, tp: int) -> np.ndarray:
    """One-hot weight vector concentrated on a single outcome tuple."""
    w = np.zeros((2, 2, 2, 2))
    idx = tuple((1 - v) // 2 for v in (s, sp, t, tp))
    if any(i not in (0, 1) for i in idx):
        raise ValueError("outcome values must be +1 or -1")
    w[idx] = 1.0
    return w


def wigner_correlators(w) -> tuple:
    """The four weighted parity sums (P_ab, P_ab', P_a'b, P_a'b').

    Floats for one model; for a batch, four arrays over the batch shape.
    """
    arr = np.asarray(w, dtype=float)
    if arr.shape in ((16,), (2, 2, 2, 2)):  # one model: checked on Python floats
        weights = arr.ravel().tolist()
        if min(weights) >= -TAU_EQ and abs(sum(weights) - 1.0) <= TAU_EQ:  # NaN fails the sum
            return tuple((arr.reshape(16) @ _PARITY).tolist())
    arr = validate_wigner_weights(arr)  # batches, and the message for a model that fails
    p = np.moveaxis(arr.reshape(arr.shape[:-4] + (16,)) @ _PARITY, -1, 0)
    return tuple(map(float, p)) if p.ndim == 1 else tuple(p)


def chsh_from_wigner(w):
    """S = |P_ab - P_ab'| + |P_a'b + P_a'b'|, per model; at most 2 for valid weights."""
    return chsh_combination(wigner_correlators(w))
