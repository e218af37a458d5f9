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

from typing import Callable, NamedTuple

import numpy as np

from .hvmodels import BATCH_PAIRS, count_correlator, sgn
from .kernels import (
    CHSH_LHV_BOUND, SETTING_NAMES, SETTING_PAIR_NAMES, SINGLET, ChshSettings, _unit_floats, chsh_combination,
    chsh_correlators,
)
from .options import check_n_pairs

VISIBILITY_NOTE = "apparatus asymmetry is modeled as a single scalar visibility"


class ConfigError(ValueError):
    """A config field outside its domain; `key` names the field, as in a config file."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class ExperimentConfig(NamedTuple("ExperimentConfig", [("settings", ChshSettings), ("n_pairs", int),
                                                       ("visibility", float), ("seed", int), ("source", str)])):
    """One campaign, source "singlet" or "lhv:<strategy name>"; a field outside its domain raises ConfigError."""

    __slots__ = ()

    def __new__(cls, settings, n_pairs, visibility, seed, source="singlet"):
        try:
            check_n_pairs(n_pairs)
        except ValueError as exc:
            raise ConfigError("n_pairs", str(exc)) from None
        if seed < 0:  # numpy's own message would not name the seed
            raise ConfigError("seed", f"seed must be non-negative, got {seed}")
        if not 0.0 <= visibility <= 1.0:
            raise ConfigError("visibility", f"visibility {visibility} outside [0, 1]")
        if source != "singlet" and not source.startswith("lhv:"):
            raise ConfigError("source", f"unknown source {source!r}")
        name = source.removeprefix("lhv:")
        if source != "singlet" and name not in STRATEGIES:
            raise ConfigError("source", f"unknown LHV strategy {name!r}; known: {sorted(STRATEGIES)}")
        if source != "singlet" and visibility != 1.0:
            raise ConfigError("visibility", f"visibility is for the singlet source only; {source} got {visibility}")
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
    required = {"source", "n_pairs", "visibility", "seed", *SETTING_NAMES}
    missing = required - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    unknown = raw.keys() - required
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")

    def parse(key, convert, what):
        try:
            return convert(raw[key])
        except ValueError:  # int()'s and float()'s own messages name neither the file nor the key
            raise ValueError(f"{path}: key {key} must be {what}, got {raw[key]!r}") from None

    def vec(text):
        parts = [float(p) for p in text.split()]
        if len(parts) != 3:
            raise ValueError
        return parts

    def unit(key, vector):
        try:
            return _unit_floats(vector)[0]
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None

    vectors = [parse(key, vec, "a 3-vector of numbers") for key in SETTING_NAMES]
    try:
        return ExperimentConfig(
            settings=ChshSettings(*map(unit, SETTING_NAMES, vectors)),
            n_pairs=parse("n_pairs", int, "an integer"),
            visibility=parse("visibility", float, "a number"),
            seed=parse("seed", int, "an integer"),
            source=raw["source"],
        )
    except ConfigError as exc:  # a value that parses but is outside its domain
        raise ValueError(f"{path}: key {exc.key}: {exc}") from None


def save_config(path, config: ExperimentConfig) -> None:
    lines = [
        f"source = {config.source}",
        f"n_pairs = {config.n_pairs}",
        f"visibility = {config.visibility}",
        f"seed = {config.seed}",
        *(f"{key} = {x} {y} {z}" for key, (x, y, z) in zip(SETTING_NAMES, config.settings.floats)),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
