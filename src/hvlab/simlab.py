"""Seeded Monte Carlo two-particle correlation experiments.

A quantum source draws joint outcomes (x, y) in {+-1}^2 per particle pair
with P(x, y | a, b) = (1 + x y V (-a.b)) / 4, where V in [0, 1] is a single
visibility knob standing in for apparatus imperfection.  Local
hidden-variable sources draw one lambda per pair and answer through
response functions that never see the far-side setting.  Setting pairs are
cycled round-robin: (a,b), (a,b'), (a',b), (a',b').
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .nonlocality import CHSH_LHV_BOUND, CHSH_QUANTUM_MAX, ChshSettings

VISIBILITY_NOTE = "apparatus asymmetry is modeled as a single scalar visibility"

SETTING_PAIR_NAMES = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")

MIN_PAIRS = 8  # two samples per setting pair, as the ddof=1 standard error needs


def _check_n_pairs(n_pairs: int) -> None:
    if n_pairs < MIN_PAIRS:
        raise ValueError(f"n_pairs must be at least {MIN_PAIRS} (two per setting pair), got {n_pairs}")


@dataclass(frozen=True)
class ExperimentConfig:
    settings: ChshSettings
    n_pairs: int
    visibility: float
    seed: int
    source: str = "singlet"  # "singlet" or "lhv:<strategy name>"
    worker_count: int = 1

    def __post_init__(self):
        _check_n_pairs(self.n_pairs)
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")
        if self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")
        if self.source != "singlet" and not self.source.startswith("lhv:"):
            raise ValueError(f"unknown source {self.source!r}")


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
    """A = sgn(a.lam_hat), B = -sgn(b.lam_hat), lam_hat uniform on the sphere.

    Reproduces perfect anticorrelation at equal settings; the exact
    correlator is -1 + 2 theta_ab / pi.
    """

    def sample(rng, n):
        lam = rng.normal(size=(n, 3))
        return lam / np.linalg.norm(lam, axis=1, keepdims=True)

    def respond(setting, lams):
        return np.where(lams @ setting >= 0.0, 1.0, -1.0)

    return LhvStrategy(
        name="sign",
        sample=sample,
        response_a=respond,
        response_b=lambda setting, lams: -respond(setting, lams),
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
    """Estimates, errors and verdicts for one simulation campaign."""

    source: str
    n_pairs: int
    seed: int
    visibility: float
    worker_count: int
    settings: tuple
    correlators: dict = field(default_factory=dict)
    stderrs: dict = field(default_factory=dict)
    s_value: float = 0.0
    s_stderr: float = 0.0
    s_expected: float = 0.0
    verdicts: dict = field(default_factory=dict)
    note: str = VISIBILITY_NOTE


def _setting_pairs(settings: ChshSettings):
    return (
        (settings.a, settings.b),
        (settings.a, settings.b_prime),
        (settings.a_prime, settings.b),
        (settings.a_prime, settings.b_prime),
    )


def _summarize(products_by_pair, settings, source, n_pairs, seed, visibility, worker_count, s_expected):
    estimates = {}
    stderrs = {}
    for name, products in zip(SETTING_PAIR_NAMES, products_by_pair):
        n = len(products)
        est = float(products.mean())
        var = float(products.var(ddof=1))
        estimates[name] = est
        stderrs[name] = float(np.sqrt(var / n))
    s_value = abs(estimates["ab"] - estimates["ab_prime"]) + abs(
        estimates["a_prime_b"] + estimates["a_prime_b_prime"]
    )
    s_stderr = float(np.sqrt(sum(e * e for e in stderrs.values())))
    verdicts = {
        "within_tsirelson_bound": bool(s_value <= CHSH_QUANTUM_MAX + 5.0 * s_stderr),
    }
    if source.startswith("lhv:"):
        # s_expected is the local bound: the exact infinite-n S of a generic
        # pluggable strategy is unknown, but it can never exceed 2.
        verdicts["within_lhv_bound"] = bool(s_value <= s_expected + 5.0 * s_stderr)
    else:
        verdicts["matches_expected_within_5_sigma"] = bool(
            abs(s_value - s_expected) <= 5.0 * s_stderr
        )
    return SimReport(
        source=source,
        n_pairs=n_pairs,
        seed=seed,
        visibility=visibility,
        worker_count=worker_count,
        settings=tuple(tuple(v) for v in (settings.a, settings.a_prime, settings.b, settings.b_prime)),
        correlators=estimates,
        stderrs=stderrs,
        s_value=float(s_value),
        s_stderr=s_stderr,
        s_expected=float(s_expected),
        verdicts=verdicts,
    )


def _shard_sizes(n: int, workers: int) -> list[int]:
    base, extra = divmod(n, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _worker_rngs(seed: int, workers: int) -> list[np.random.Generator]:
    if workers == 1:
        return [np.random.default_rng(seed)]
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(workers)]


def simulate_chsh(config: ExperimentConfig) -> SimReport:
    """Run a CHSH campaign for the configured source.

    Singlet source: one uniform draw per pair, inverse-CDF over the four
    joint outcomes ordered (+1,+1), (+1,-1), (-1,+1), (-1,-1).  LHV
    sources delegate to `simulate_lhv`.  Reports are bit-identical for an
    identical config; the single-worker run is the canonical mode.
    """
    if config.source.startswith("lhv:"):
        name = config.source.split(":", 1)[1]
        if name not in STRATEGIES:
            raise ValueError(f"unknown LHV strategy {name!r}; known: {sorted(STRATEGIES)}")
        return simulate_lhv(
            STRATEGIES[name](),
            config.settings,
            config.n_pairs,
            config.seed,
            worker_count=config.worker_count,
        )

    pairs = _setting_pairs(config.settings)
    q = np.array([-float(np.dot(a, b)) for a, b in pairs])
    v = config.visibility
    products_by_pair = [[] for _ in range(4)]
    offset = 0
    for rng, size in zip(_worker_rngs(config.seed, config.worker_count), _shard_sizes(config.n_pairs, config.worker_count)):
        u = rng.random(size)
        pair_idx = (offset + np.arange(size)) % 4
        for k in range(4):
            uk = u[pair_idx == k]
            p_pp = (1.0 + v * q[k]) / 4.0
            p_pm = (1.0 - v * q[k]) / 4.0
            # cumulative thresholds over the outcome order above
            c1, c2, c3 = p_pp, p_pp + p_pm, p_pp + 2.0 * p_pm
            idx = (uk >= c1).astype(int) + (uk >= c2) + (uk >= c3)
            x = np.where(idx < 2, 1.0, -1.0)
            y = np.where(idx % 2 == 0, 1.0, -1.0)
            products_by_pair[k].append(x * y)
        offset += size
    products_by_pair = [np.concatenate(chunks) for chunks in products_by_pair]
    s_expected = v * (abs(q[0] - q[1]) + abs(q[2] + q[3]))
    return _summarize(
        products_by_pair,
        config.settings,
        "singlet",
        config.n_pairs,
        config.seed,
        config.visibility,
        config.worker_count,
        s_expected,
    )


def simulate_lhv(
    strategy: LhvStrategy,
    settings: ChshSettings,
    n_pairs: int,
    seed: int,
    worker_count: int = 1,
) -> SimReport:
    """Sample an Einstein-local model: one lambda per pair, round-robin
    settings, responses evaluated only on the local setting."""
    _check_n_pairs(n_pairs)
    pairs = _setting_pairs(settings)
    products_by_pair = [[] for _ in range(4)]
    offset = 0
    for rng, size in zip(_worker_rngs(seed, worker_count), _shard_sizes(n_pairs, worker_count)):
        lams = np.asarray(strategy.sample(rng, size))
        pair_idx = (offset + np.arange(size)) % 4
        for k, (a, b) in enumerate(pairs):
            lams_k = lams[pair_idx == k]
            outcomes_a = np.asarray(strategy.response_a(a, lams_k), dtype=float)
            outcomes_b = np.asarray(strategy.response_b(b, lams_k), dtype=float)
            for name, vals in (("A", outcomes_a), ("B", outcomes_b)):
                if vals.size and not np.all(np.abs(vals) == 1.0):
                    raise ValueError(f"strategy {strategy.name!r} returned {name} values outside +-1")
            products_by_pair[k].append(outcomes_a * outcomes_b)
        offset += size
    products_by_pair = [np.concatenate(chunks) for chunks in products_by_pair]
    return _summarize(
        products_by_pair,
        settings,
        f"lhv:{strategy.name}",
        n_pairs,
        seed,
        1.0,
        worker_count,
        s_expected=CHSH_LHV_BOUND,
    )


def load_config(path) -> ExperimentConfig:
    """Parse the key-value experiment config format.

    Keys: source, n_pairs, visibility, seed, worker_count (optional), and
    the four settings a, a_prime, b, b_prime as whitespace-separated
    3-vectors.  '#' starts a comment.
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
            raw[key] = value
    required = {"source", "n_pairs", "visibility", "seed", "a", "a_prime", "b", "b_prime"}
    missing = required - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")

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
        worker_count=int(raw.get("worker_count", "1")),
    )


def save_config(path, config: ExperimentConfig) -> None:
    s = config.settings
    lines = [
        f"source = {config.source}",
        f"n_pairs = {config.n_pairs}",
        f"visibility = {config.visibility}",
        f"seed = {config.seed}",
        f"worker_count = {config.worker_count}",
        f"a = {s.a[0]} {s.a[1]} {s.a[2]}",
        f"a_prime = {s.a_prime[0]} {s.a_prime[1]} {s.a_prime[2]}",
        f"b = {s.b[0]} {s.b[1]} {s.b[2]}",
        f"b_prime = {s.b_prime[0]} {s.b_prime[1]} {s.b_prime[2]}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
