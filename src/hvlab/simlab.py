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
response functions that never see the far-side setting; the sign
strategy's lambda is an unnormalized standard-normal 3-vector, since its
outcomes read only the direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hvmodels import BATCH_PAIRS, chsh_combination, count_correlator, sgn
from .nonlocality import CHSH_LHV_BOUND, SETTING_PAIR_NAMES, ChshSettings, chsh_correlators, singlet_state

VISIBILITY_NOTE = "apparatus asymmetry is modeled as a single scalar visibility"

MIN_PAIRS = 8  # two samples per setting pair, as the ddof=1 standard error needs
MAX_PAIRS = 2**63 - 1  # the binomial draw takes its counts as int64


def _check_n_pairs(n_pairs: int) -> None:
    if n_pairs < MIN_PAIRS:
        raise ValueError(f"n_pairs must be at least {MIN_PAIRS} (two per setting pair), got {n_pairs}")
    if n_pairs > MAX_PAIRS:
        raise ValueError(f"n_pairs must be at most 2**63 - 1, got {n_pairs}")


@dataclass(frozen=True)
class ExperimentConfig:
    settings: ChshSettings
    n_pairs: int
    visibility: float
    seed: int
    source: str = "singlet"  # "singlet" or "lhv:<strategy name>"

    def __post_init__(self):
        _check_n_pairs(self.n_pairs)
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")
        if self.source != "singlet" and not self.source.startswith("lhv:"):
            raise ValueError(f"unknown source {self.source!r}")
        name = self.source.removeprefix("lhv:")
        if self.source != "singlet" and name not in STRATEGIES:
            raise ValueError(f"unknown LHV strategy {name!r}; known: {sorted(STRATEGIES)}")
        if self.source != "singlet" and self.visibility != 1.0:
            raise ValueError(f"visibility is for the singlet source only; {self.source} got {self.visibility}")


@dataclass(frozen=True)
class LhvStrategy:
    """Deterministic local response functions plus a lambda sampler.

    `sample` draws a batch of hidden variables; `response_a(a_hat, lams)`
    and `response_b(b_hat, lams)` return +-1 arrays.  Locality is enforced
    by the interface shape: neither response ever sees the other setting.
    """

    name: str
    sample: Callable[[np.random.Generator, int], np.ndarray]
    response_a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    response_b: Callable[[np.ndarray, np.ndarray], np.ndarray]


def sign_strategy() -> LhvStrategy:
    """A = sgn(a.lam), B = -sgn(b.lam), sgn(0) = +1, lam standard normal in R^3.

    A standard-normal vector points uniformly on the sphere, and
    sgn(a.lam) depends only on that direction, so lam is not normalized.
    Reproduces perfect anticorrelation at equal settings; the exact
    correlator is -1 + 2 theta_ab / pi.
    """
    return LhvStrategy(
        name="sign",
        sample=lambda rng, n: rng.standard_normal((n, 3)),
        response_a=lambda setting, lams: sgn(lams @ setting),
        response_b=lambda setting, lams: -sgn(lams @ setting),
    )


def constant_strategy(a_value: int = 1, b_value: int = -1) -> LhvStrategy:
    if a_value not in (1, -1) or b_value not in (1, -1):
        raise ValueError("constant outcomes must be +1 or -1")
    return LhvStrategy(
        name="constant",
        sample=lambda rng, n: np.zeros(n),
        response_a=lambda setting, lams: np.full(len(lams), float(a_value)),
        response_b=lambda setting, lams: np.full(len(lams), float(b_value)),
    )


STRATEGIES: dict[str, Callable[[], LhvStrategy]] = {
    "sign": sign_strategy,
    "constant": constant_strategy,
}


@dataclass(frozen=True)
class SimReport:
    """Estimates and errors for one simulation campaign.

    `pairs_per_setting` holds n_k for each setting pair, so each stderr is
    sqrt((1 - E_k^2) / (n_k - 1)) with E_k from `correlators`, and S's model
    standard error, which cannot collapse to 0, is `s_model_stderr` =
    sqrt(sum_k (1 - q_k^2) / n_k), q_k from `expected_correlators` (0 if None).
    """

    source: str
    n_pairs: int
    seed: int
    visibility: float
    settings: tuple
    pairs_per_setting: dict = field(default_factory=dict)
    correlators: dict = field(default_factory=dict)
    stderrs: dict = field(default_factory=dict)
    s_value: float = 0.0
    s_stderr: float = 0.0
    s_expected: float = 0.0
    expected_correlators: dict | None = None
    s_model_stderr: float = 0.0
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
        settings=tuple(tuple(v) for v in (settings.a, settings.a_prime, settings.b, settings.b_prime)),
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

    q = config.visibility * np.array(chsh_correlators(singlet_state(), config.settings))
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
    _check_n_pairs(n_pairs)
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
    return _summarize(_pairs_per_setting(n_pairs), plus_k, settings, f"lhv:{strategy.name}", seed, 1.0)


def load_config(path) -> ExperimentConfig:
    """Parse the key-value experiment config format.

    Keys: source, n_pairs, visibility, seed, and the four settings a,
    a_prime, b, b_prime as whitespace-separated 3-vectors; any other key,
    or a key given twice, is an error.  '#' starts a comment.
    """
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in raw:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            raw[key] = value
    required = {"source", "n_pairs", "visibility", "seed", "a", "a_prime", "b", "b_prime"}
    missing = required - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    unknown = raw.keys() - required
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")

    def vec(key):
        parts = raw[key].split()
        if len(parts) != 3:
            raise ValueError(f"{path}: key {key} must be a 3-vector")
        return np.array([float(p) for p in parts])

    settings = ChshSettings(a=vec("a"), a_prime=vec("a_prime"), b=vec("b"), b_prime=vec("b_prime"))
    return ExperimentConfig(
        settings=settings,
        n_pairs=int(raw["n_pairs"]),
        visibility=float(raw["visibility"]),
        seed=int(raw["seed"]),
        source=raw["source"],
    )


def save_config(path, config: ExperimentConfig) -> None:
    s = config.settings
    lines = [
        f"source = {config.source}",
        f"n_pairs = {config.n_pairs}",
        f"visibility = {config.visibility}",
        f"seed = {config.seed}",
        f"a = {s.a[0]} {s.a[1]} {s.a[2]}",
        f"a_prime = {s.a_prime[0]} {s.a_prime[1]} {s.a_prime[2]}",
        f"b = {s.b[0]} {s.b[1]} {s.b[2]}",
        f"b_prime = {s.b_prime[0]} {s.b_prime[1]} {s.b_prime[2]}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
