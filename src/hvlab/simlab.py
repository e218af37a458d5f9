"""Seeded Monte Carlo two-particle correlation experiments.

Setting pairs are cycled round-robin, (a,b), (a,b'), (a',b), (a',b'), so
setting pair k sees n_k = (n_pairs - k + 3) // 4 particle pairs.  Each
source reports only how many of those n_k outcome products x y are +1;
the correlator estimates and their standard errors follow from the counts.

The quantum source is the Werner state V |psi-><psi-| + (1 - V) I / 4, where
V in [0, 1] is a single visibility knob standing in for apparatus
imperfection (local sources take V = 1).  Its correlators q_k are V times
the singlet's, so P(xy = +1 | a, b) = (1 + q_k) / 2 and each count is one
binomial draw: time and memory do not depend on n_pairs.  Reports hold
numbers, not verdicts.  Local hidden-variable sources draw one lambda per
pair, in batches of `BATCH_PAIRS` from one generator, and answer through
response functions that never see the far-side setting.  The sign
strategy's lambda is a unit vector drawn by Marsaglia's method (Ann. Math.
Stat. 43, 645 (1972)): two `random()` draws per candidate, kept when inside
the unit disc, so about 2.55 draws per lambda, and the generator is left
just past the last candidate used.
"""

from __future__ import annotations

import numbers
from typing import Callable, NamedTuple

import numpy as np

from .hvmodels import count_correlator, sgn
from .kernels import (
    BATCH_PAIRS, CHSH_LHV_BOUND, SETTING_PAIR_NAMES, SINGLET, ChshSettings, chsh_combination, chsh_correlators,
)
from .options import check_n_pairs

VISIBILITY_NOTE = "apparatus asymmetry is modeled as a single scalar visibility"


class ExperimentConfig(NamedTuple("ExperimentConfig", [("settings", ChshSettings), ("n_pairs", int),
                                                       ("visibility", float), ("seed", int), ("source", str)])):
    """One campaign, source "singlet" or "lhv:<strategy name>"; a field outside its domain raises ValueError."""

    __slots__ = ()

    def __new__(cls, settings, n_pairs, visibility, seed, source="singlet"):
        check_n_pairs(n_pairs)
        if not isinstance(seed, numbers.Integral):  # numpy's own messages would not name the seed
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        if not 0.0 <= visibility <= 1.0:
            raise ValueError(f"visibility {visibility} outside [0, 1]")
        if source != "singlet" and not source.startswith("lhv:"):
            raise ValueError(f"unknown source {source!r}")
        name = source.removeprefix("lhv:")
        if source != "singlet" and name not in STRATEGIES:
            raise ValueError(f"unknown LHV strategy {name!r}; known: {sorted(STRATEGIES)}")
        if source != "singlet" and visibility != 1.0:
            raise ValueError(f"visibility is for the singlet source only; {source} got {visibility}")
        return tuple.__new__(cls, (settings, n_pairs, visibility, seed, source))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace goes through _make: both check


class LhvStrategy(NamedTuple):
    """Deterministic local response functions plus a lambda sampler.

    `sample` draws a batch of hidden variables; `response_a(a_hat, lams)`
    and `response_b(b_hat, lams)` return +-1 arrays.  Locality is enforced
    by the interface shape: neither response ever sees the other setting.
    """

    name: str
    sample: Callable[[np.random.Generator, int], np.ndarray]
    response_a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    response_b: Callable[[np.ndarray, np.ndarray], np.ndarray]


_SPHERE_CHUNK = 8192  # candidate pairs per draw, so that the temporaries stay in cache


def _sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere by Marsaglia's method, as an (n, 3) array.

    Each candidate takes two consecutive `rng.random()` draws, u = 2U - 1 and
    v = 2V - 1, and is kept when s = u^2 + v^2 < 1; the point is
    (2u sqrt(1 - s), 2v sqrt(1 - s), 1 - 2s).  Candidates are drawn in chunks;
    after the chunk that completes the points, the generator is put back and
    redrawn up to the last candidate kept, so it stops right after that one
    and the points are those of one sequential rejection loop.
    """
    out = np.empty((n, 3))
    buf = np.empty(2 * _SPHERE_CHUNK)
    filled = 0
    while filled < n:
        need = n - filled
        # a candidate is kept with probability pi / 4 > 3 / 4, so a short last chunk usually completes
        m = min(_SPHERE_CHUNK, need * 4 // 3 + 32)
        if m >= need:
            state = rng.bit_generator.state
        cand = buf[: 2 * m]
        rng.random(out=cand)
        cand *= 2.0
        cand -= 1.0
        u, v = cand[0::2], cand[1::2]
        s = u * u
        s += v * v
        kept = np.flatnonzero(s < 1.0)[:need]
        s = s[kept]
        rows = out[filled : filled + len(kept)]
        t = np.subtract(1.0, s)
        np.sqrt(t, out=t)
        t *= 2.0
        np.multiply(u[kept], t, out=rows[:, 0])
        np.multiply(v[kept], t, out=rows[:, 1])
        np.multiply(s, -2.0, out=rows[:, 2])
        rows[:, 2] += 1.0
        filled += len(kept)
        if filled == n:
            rng.bit_generator.state = state
            rng.random(out=buf[: 2 * (int(kept[-1]) + 1)])
    return out


def sign_strategy() -> LhvStrategy:
    """A = sgn(a.lam), B = -sgn(b.lam), sgn(0) = +1, lam uniform on the unit sphere.

    lam is drawn by `_sphere_points`, Marsaglia's method: two `random()`
    draws per candidate, with the generator left just past the last
    candidate used.  Reproduces perfect anticorrelation at equal settings;
    the exact correlator is -1 + 2 theta_ab / pi.
    """
    return LhvStrategy(
        name="sign",
        sample=_sphere_points,
        response_a=lambda setting, lams: sgn(lams @ setting),
        response_b=lambda setting, lams: -sgn(lams @ setting),
    )


def constant_strategy() -> LhvStrategy:
    """A = +1 and B = -1 at every setting, so every correlator is -1 and S = 2."""
    return LhvStrategy(
        name="constant",
        sample=lambda rng, n: np.zeros(n),
        response_a=lambda setting, lams: np.full(len(lams), 1.0),
        response_b=lambda setting, lams: np.full(len(lams), -1.0),
    )


STRATEGIES: dict[str, Callable[[], LhvStrategy]] = {
    "sign": sign_strategy,
    "constant": constant_strategy,
}


class SimReport(NamedTuple):
    """Estimates and errors for one simulation campaign.

    `settings` is the campaign's `ChshSettings.floats`: (x, y, z) of a, a',
    b and b' as Python floats.  `pairs_per_setting` holds n_k for each setting pair, so each stderr is
    sqrt((1 - E_k^2) / (n_k - 1)) with E_k from `correlators`, and S's model
    standard error, which cannot collapse to 0, is `s_model_stderr` =
    sqrt(sum_k (1 - q_k^2) / n_k), q_k from `expected_correlators` (0 if None).
    """

    source: str
    n_pairs: int
    seed: int
    visibility: float
    settings: tuple
    pairs_per_setting: dict
    correlators: dict
    stderrs: dict
    s_value: float
    s_stderr: float
    s_expected: float
    expected_correlators: dict | None
    s_model_stderr: float
    note: str = VISIBILITY_NOTE


def _pairs_per_setting(n_pairs: int) -> np.ndarray:
    """Round-robin counts: pair i is measured on setting pair i % 4."""
    return np.array([(n_pairs - k + 3) // 4 for k in range(4)])


def _summarize(n_k, plus_k, settings, source, seed, visibility, q=None):
    """Report plus_k +1 products of n_k per setting pair, for model correlators q; for a local
    source q is None and s_expected the local bound, as a generic strategy's exact S is unknown."""
    est, err = count_correlator(plus_k, n_k)
    if q is None:
        s_expected, variances = CHSH_LHV_BOUND, 1.0  # a +-1 product has variance at most 1
    else:
        s_expected, variances = chsh_combination(q), np.maximum(1.0 - q * q, 0.0)
    return SimReport(
        source=source,
        n_pairs=int(n_k.sum()),
        seed=seed,
        visibility=visibility,
        settings=settings.floats,
        pairs_per_setting=dict(zip(SETTING_PAIR_NAMES, map(int, n_k))),
        correlators=dict(zip(SETTING_PAIR_NAMES, map(float, est))),
        stderrs=dict(zip(SETTING_PAIR_NAMES, map(float, err))),
        s_value=float(chsh_combination(est)),
        s_stderr=float(np.sqrt(np.sum(err * err))),
        s_expected=float(s_expected),
        expected_correlators=None if q is None else dict(zip(SETTING_PAIR_NAMES, map(float, q))),
        s_model_stderr=float(np.sqrt(np.sum(variances / n_k))),
    )


def simulate_chsh(config: ExperimentConfig) -> SimReport:
    """Run a CHSH campaign for the configured source.

    Singlet source: the +1 count of each setting pair is one draw from
    Binomial(n_k, (1 + q_k) / 2) with q_k = V a . T b, T the singlet's tensor.
    LHV sources delegate to `simulate_lhv`.  Reports are bit-identical for
    an identical config.
    """
    if config.source.startswith("lhv:"):
        strategy = STRATEGIES[config.source.removeprefix("lhv:")]()
        return simulate_lhv(strategy, config.settings, config.n_pairs, config.seed)

    q = config.visibility * np.array(chsh_correlators(SINGLET, config.settings))
    n_k = _pairs_per_setting(config.n_pairs)
    # a unit setting may have |a| = 1 + TAU_EQ, so |q| can pass 1 and binomial rejects p outside [0, 1]
    plus_k = np.random.default_rng(config.seed).binomial(n_k, np.clip((1.0 + q) / 2.0, 0.0, 1.0))
    return _summarize(n_k, plus_k, config.settings, "singlet", config.seed, config.visibility, q)


def simulate_lhv(strategy: LhvStrategy, settings: ChshSettings, n_pairs: int, seed: int) -> SimReport:
    """Sample an Einstein-local model: one lambda per pair, round-robin
    settings, responses evaluated only on the local setting.

    Lambdas are drawn from one generator in batches of `BATCH_PAIRS`, and
    only the +1 counts are kept, so memory does not grow with `n_pairs`.
    """
    check_n_pairs(n_pairs)
    rng = np.random.default_rng(seed)
    plus_k = np.zeros(4, dtype=np.int64)
    for start in range(0, n_pairs, BATCH_PAIRS):
        size = min(BATCH_PAIRS, n_pairs - start)
        lams = np.asarray(strategy.sample(rng, size))
        # the counts are read against n_k, so every pair needs one lambda and two outcomes
        if lams.shape[:1] != (size,):
            raise ValueError(f"strategy {strategy.name!r} sampled shape {lams.shape} for {size} pairs")
        for k, (a, b) in enumerate(settings.pairs()):
            lams_k = lams[(k - start) % 4 :: 4]
            outcomes_a = np.asarray(strategy.response_a(a, lams_k), dtype=float)
            outcomes_b = np.asarray(strategy.response_b(b, lams_k), dtype=float)
            for name, vals in (("A", outcomes_a), ("B", outcomes_b)):
                if vals.shape != (len(lams_k),):
                    raise ValueError(
                        f"strategy {strategy.name!r} returned {name} shape {vals.shape} for {len(lams_k)} pairs"
                    )
                if not np.all(np.abs(vals) == 1.0):
                    raise ValueError(f"strategy {strategy.name!r} returned {name} values outside +-1")
            plus_k[k] += np.count_nonzero(outcomes_a == outcomes_b)
        del lams, lams_k, outcomes_a, outcomes_b, vals  # freed before the next batch is drawn
    return _summarize(_pairs_per_setting(n_pairs), plus_k, settings, f"lhv:{strategy.name}", seed, 1.0)
