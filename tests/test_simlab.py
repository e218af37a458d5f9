import tracemalloc

import numpy as np
import pytest

from hvlab import simlab
from hvlab.kernels import (
    BATCH_PAIRS,
    CHSH_LHV_BOUND,
    CHSH_QUANTUM_MAX,
    SETTING_PAIR_NAMES,
    ChshSettings,
    chsh_correlators,
    chsh_value,
    optimal_chsh_settings,
)
from hvlab.nonlocality import singlet_state
from hvlab.qmath import random_unit3
from hvlab.simlab import (
    ExperimentConfig,
    LhvStrategy,
    constant_strategy,
    sign_strategy,
    simulate_chsh,
    simulate_lhv,
)


def sphere_reference(seed, n):
    """Marsaglia's method on PCG64(seed)'s 64-bit words, independent of `Generator`: a candidate takes
    u = 2 (w >> 11) 2^-53 - 1 from one word and v from the next, and is kept when u^2 + v^2 < 1.
    Returns the first n points kept, in order, and the word that follows the last candidate kept."""
    words = np.random.PCG64(seed).random_raw(4 * n + 64)  # a candidate is kept with probability pi / 4
    u, v = (2.0 * ((words[i::2] >> np.uint64(11)) * 2.0**-53) - 1.0 for i in (0, 1))
    s = u * u + v * v
    kept = np.flatnonzero(s < 1.0)[:n]
    assert len(kept) == n and 2 * kept[-1] + 2 < len(words)
    u, v, s = u[kept], v[kept], s[kept]
    t = np.sqrt(1.0 - s)
    return np.column_stack([2.0 * u * t, 2.0 * v * t, 1.0 - 2.0 * s]), int(words[2 * kept[-1] + 2])


def make_config(**overrides):
    base = dict(
        settings=optimal_chsh_settings(),
        n_pairs=10**5,
        visibility=1.0,
        seed=42,
        source="singlet",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSimulateSinglet:
    def test_full_visibility_reaches_quantum_value(self):
        report = simulate_chsh(make_config())
        assert abs(report.s_value - CHSH_QUANTUM_MAX) <= 5 * report.s_stderr
        assert abs(report.s_value - report.s_expected) <= 5 * report.s_stderr
        assert report.s_value <= CHSH_QUANTUM_MAX + 5 * report.s_stderr

    def test_zero_visibility_uncorrelated(self):
        report = simulate_chsh(make_config(visibility=0.0))
        for name, est in report.correlators.items():
            assert abs(est) <= 5 * max(report.stderrs[name], 1e-12)

    def test_expected_value_scales_with_visibility(self):
        report = simulate_chsh(make_config(visibility=0.5, n_pairs=10**4))
        assert abs(report.s_expected - 0.5 * CHSH_QUANTUM_MAX) <= 1e-12

    def test_expected_values_are_the_scaled_singlet_ones(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            vecs = rng.normal(size=(4, 3))
            settings = ChshSettings(*(vecs / np.linalg.norm(vecs, axis=1, keepdims=True)))
            visibility = float(rng.uniform(0.0, 1.0))
            report = simulate_chsh(make_config(settings=settings, visibility=visibility, n_pairs=8))
            assert abs(report.s_expected - visibility * chsh_value(singlet_state(), settings)) <= 1e-15
            q = [visibility * p for p in chsh_correlators(singlet_state(), settings)]
            assert list(report.expected_correlators.values()) == q
            n_k = np.array(list(report.pairs_per_setting.values()))
            want = np.sqrt(sum((1.0 - x * x) / n for x, n in zip(q, n_k)))
            assert report.s_model_stderr == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("source, want", [("singlet", 1.0), ("lhv:sign", np.sqrt(2.0))], ids=["singlet", "lhv:sign"])
    def test_model_stderr_does_not_collapse(self, source, want):
        # 2 pairs per setting: at the first seed where each setting pair's two products agree,
        # the sample stderr collapses to 0
        reports = (simulate_chsh(make_config(source=source, n_pairs=8, seed=seed)) for seed in range(1000))
        report = next(report for report in reports if report.s_stderr == 0.0)
        assert report.s_model_stderr == pytest.approx(want, rel=1e-15)

    def test_reports_bit_identical_for_same_config(self):
        a = simulate_chsh(make_config(n_pairs=10**4))
        b = simulate_chsh(make_config(n_pairs=10**4))
        assert a == b

    def test_different_seeds_differ(self):
        a = simulate_chsh(make_config(n_pairs=10**4, seed=1))
        b = simulate_chsh(make_config(n_pairs=10**4, seed=2))
        assert a.s_value != b.s_value

    def test_convergence_rate(self):
        errs = [
            simulate_chsh(make_config(n_pairs=n, seed=7)).s_stderr
            for n in (10**3, 10**4, 10**5)
        ]
        for n, err in zip((10**3, 10**4, 10**5), errs):
            scaled = err * np.sqrt(n)
            assert 0.5 * errs[0] * np.sqrt(10**3) <= scaled <= 1.5 * errs[0] * np.sqrt(10**3)

    def test_round_robin_covers_all_settings(self):
        report = simulate_chsh(make_config(n_pairs=8))
        assert set(report.correlators) == {"ab", "ab_prime", "a_prime_b", "a_prime_b_prime"}

    # a.a = 1 + 2.2e-16
    ROUNDED = (0.36486176735685877, 0.9240647543268905, -0.11393077078653184)
    # |a| = 1 + 5e-11, inside the unit-setting tolerance, so |a.T b| > 1 for b = +-a
    LONG = (1.0 + 5e-11, 0.0, 0.0)

    @pytest.mark.parametrize(
        "a, b, expected",
        [(ROUNDED, ROUNDED, -1.0), (LONG, LONG, -1.0), (LONG, tuple(-x for x in LONG), 1.0)],
        ids=["rounding", "tolerance-low", "tolerance-high"],
    )
    def test_perfect_correlation_at_unit_tolerance(self, a, b, expected):
        settings = ChshSettings(a=a, a_prime=(0, 1, 0), b=b, b_prime=(0, 0, 1))
        report = simulate_chsh(make_config(settings=settings))
        assert report.correlators["ab"] == expected
        assert report.stderrs["ab"] == 0.0


class TestSimulateLhv:
    def test_sign_strategy_perfect_anticorrelation(self):
        settings = ChshSettings(a=(0, 0, 1), a_prime=(1, 0, 0), b=(0, 0, 1), b_prime=(0, 1, 0))
        report = simulate_lhv(sign_strategy(), settings, 10**5, seed=5)
        # a and b coincide, so every pair contributes -1 exactly
        assert report.correlators["ab"] == -1.0
        assert report.stderrs["ab"] == 0.0

    def test_sign_strategy_matches_closed_form(self):
        # exact correlator for this model: -1 + 2 theta_ab / pi
        settings = optimal_chsh_settings()
        report = simulate_lhv(sign_strategy(), settings, 4 * 10**5, seed=6)
        for name, (u, v) in {
            "ab": (settings.a, settings.b),
            "ab_prime": (settings.a, settings.b_prime),
            "a_prime_b": (settings.a_prime, settings.b),
            "a_prime_b_prime": (settings.a_prime, settings.b_prime),
        }.items():
            theta = np.arccos(np.clip(np.dot(u, v), -1, 1))
            exact = -1.0 + 2.0 * theta / np.pi
            assert abs(report.correlators[name] - exact) <= 5 * report.stderrs[name]

    def test_sign_strategy_obeys_lhv_bound(self):
        report = simulate_lhv(sign_strategy(), optimal_chsh_settings(), 10**5, seed=7)
        assert report.s_value <= 2.0 + 5 * report.s_stderr
        assert report.s_value <= report.s_expected + 5 * report.s_stderr

    def test_constant_strategy_exact(self):
        report = simulate_lhv(constant_strategy(), optimal_chsh_settings(), 1000, seed=8)
        assert all(est == -1.0 for est in report.correlators.values())
        assert report.s_value == 2.0
        assert report.s_stderr == 0.0

    @pytest.mark.parametrize(
        "outcomes, kind",
        [
            (lambda n: np.full(n, 0.5), "float64"),
            (lambda n: np.full(n, 1.0), "float64"),
            (lambda n: [True] * n, "list"),
        ],
        ids=["half", "plus-one-float", "list"],
    )
    def test_rejects_invalid_strategy_outputs(self, outcomes, kind):
        # an outcome is a bool, True for +1: the +-1 floats of a float contract are rejected too, and a
        # list is a ValueError, not an AttributeError
        bad = LhvStrategy(
            name="broken",
            sample=lambda rng, n: np.zeros(n),
            response_a=lambda setting, lams: outcomes(len(lams)),
            response_b=lambda setting, lams: np.zeros(len(lams), dtype=bool),
        )
        with pytest.raises(ValueError, match=rf"^strategy 'broken' returned A outcomes of {kind}, not bool$"):
            simulate_lhv(bad, optimal_chsh_settings(), 100, seed=0)

    @pytest.mark.parametrize(
        "sample, response, match",
        [
            (lambda rng, n: np.zeros(n - 1), lambda setting, lams: np.ones(len(lams)), "sampled"),
            (lambda rng, n: np.zeros(n), lambda setting, lams: np.ones(1), "shape"),
        ],
        ids=["short-sample", "one-outcome"],
    )
    def test_rejects_wrong_output_counts(self, sample, response, match):
        bad = LhvStrategy(name="broken", sample=sample, response_a=response, response_b=response)
        with pytest.raises(ValueError, match=match):
            simulate_lhv(bad, optimal_chsh_settings(), 100, seed=0)

    def test_batches_match_single_draw_reference(self, monkeypatch):
        # a batch size that is not a multiple of 4 makes every batch start
        # on a different setting pair
        settings = optimal_chsh_settings()
        n, seed = 1003, 13
        default = simulate_lhv(sign_strategy(), settings, n, seed=seed)
        monkeypatch.setattr(simlab, "BATCH_PAIRS", 7)
        report = simulate_lhv(sign_strategy(), settings, n, seed=seed)
        assert report == default
        lam = sphere_reference(seed, n)[0]
        pairs = (
            (settings.a, settings.b),
            (settings.a, settings.b_prime),
            (settings.a_prime, settings.b),
            (settings.a_prime, settings.b_prime),
        )
        for k, (name, (u, v)) in enumerate(zip(SETTING_PAIR_NAMES, pairs)):
            lam_k = lam[k::4]
            products = np.where(lam_k @ u >= 0, 1.0, -1.0) * -np.where(lam_k @ v >= 0, 1.0, -1.0)
            assert report.pairs_per_setting[name] == len(products)
            assert report.correlators[name] == np.mean(products)

    def test_sign_strategy_orthogonal_lambda_answers_plus_one(self):
        strategy = sign_strategy()
        setting = np.array([1.0, 0.0, 0.0])
        # every row is orthogonal to the setting, so a.lam is exactly zero and sgn(0) = +1
        lams = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -2.0], [-0.0, -0.0, -1.0]])
        assert list(strategy.response_a(setting, lams)) == [True] * 3
        assert list(strategy.response_b(setting, lams)) == [False] * 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_normalized_lambda_reference(self, seed):
        rng = np.random.default_rng(100 + seed)  # a random rotation of the optimal settings
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = q * np.sign(np.diag(r))
        base = optimal_chsh_settings()
        settings = ChshSettings(
            a=rot @ base.a, a_prime=rot @ base.a_prime, b=rot @ base.b, b_prime=rot @ base.b_prime
        )
        n = 10**6
        report = simulate_lhv(sign_strategy(), settings, n, seed=seed)
        lam = sphere_reference(seed, n)[0]
        for k, (name, (u, v)) in enumerate(zip(SETTING_PAIR_NAMES, settings.pairs())):
            lam_k = lam[k::4]
            outcomes_a = np.where(lam_k @ u >= 0, 1.0, -1.0)
            outcomes_b = -np.where(lam_k @ v >= 0, 1.0, -1.0)
            plus = np.count_nonzero(outcomes_a == outcomes_b)
            assert report.correlators[name] == (2 * plus - len(lam_k)) / len(lam_k)

    def test_lhv_source_via_config(self):
        report = simulate_chsh(make_config(source="lhv:sign", n_pairs=10**4))
        assert report.s_expected == CHSH_LHV_BOUND and report.expected_correlators is None
        assert report.s_value <= report.s_expected + 5 * report.s_stderr
        assert report.s_model_stderr == np.sqrt(sum(1.0 / n for n in report.pairs_per_setting.values()))


    def test_batch_is_freed_before_the_next_is_drawn(self):
        # one batch of 3-vectors is 24 * BATCH_PAIRS bytes; while the last batch
        # and its outcomes were still alive during the next draw, the peak passed two batches
        def peak_bytes():
            tracemalloc.start()
            try:
                simulate_lhv(sign_strategy(), optimal_chsh_settings(), 4 * BATCH_PAIRS, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes()  # warm-up: first-call allocations
        assert peak_bytes() < 2 * 24 * BATCH_PAIRS


class TestSpherePoints:
    @pytest.mark.parametrize("seed", [0, 2**32 + 5])
    @pytest.mark.parametrize("n", [1, 7, 8193, 10**5])
    def test_matches_pcg64_word_reference(self, seed, n):
        # 8193 points take more than one chunk of candidates
        rng = np.random.default_rng(seed)
        points = simlab._sphere_points(rng, n)
        want, next_word = sphere_reference(seed, n)
        assert points.shape == (n, 3) and np.array_equal(points, want)
        # the generator stops right after the last candidate kept
        assert int(rng.bit_generator.random_raw()) == next_word

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
    def test_split_draws_equal_one_draw(self, bit_generator):
        # the generator stops after the last candidate kept, so consecutive calls continue one loop
        whole = simlab._sphere_points(np.random.Generator(bit_generator(9)), 10**4)
        rng = np.random.Generator(bit_generator(9))
        parts = [simlab._sphere_points(rng, k) for k in (1, 8192, 1807)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_points_are_uniform_on_the_unit_sphere(self):
        n = 10**6
        points = simlab._sphere_points(np.random.default_rng(3), n)
        assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= 1e-15
        # each coordinate is uniform on [-1, 1] (Archimedes): mean 0, variance 1/3; x^2 has variance 4/45
        assert np.all(np.abs(points.mean(axis=0)) <= 5 * np.sqrt(1.0 / 3.0 / n))
        assert np.all(np.abs((points * points).mean(axis=0) - 1.0 / 3.0) <= 5 * np.sqrt(4.0 / 45.0 / n))


class TestCountEstimator:
    @pytest.mark.parametrize("source", ["singlet", "lhv:sign"])
    def test_memory_does_not_grow_with_n_pairs(self, source):
        def peak_bytes(n_pairs):
            tracemalloc.start()
            try:
                simulate_chsh(make_config(source=source, n_pairs=n_pairs))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(2 * 10**6) <= peak_bytes(2 * 10**5) + 2 * 2**20


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="visibility"):
            make_config(visibility=1.5)
        with pytest.raises(ValueError, match="n_pairs"):
            make_config(n_pairs=0)
        with pytest.raises(ValueError, match="source"):
            make_config(source="telepathy")
        with pytest.raises(ValueError, match="strategy"):
            simulate_chsh(make_config(source="lhv:unknown"))

    @pytest.mark.parametrize("visibility", [0.5, 0.0, 1.0 - 1e-16])
    def test_visibility_is_for_the_singlet_only(self, visibility):
        with pytest.raises(ValueError, match="singlet source only"):
            make_config(source="lhv:sign", visibility=visibility)

    def test_unknown_strategy_is_rejected_when_built(self):
        with pytest.raises(ValueError, match=r"strategy 'nope'; known: \['constant', 'sign'\]"):
            make_config(source="lhv:nope")

    @pytest.mark.parametrize("source", ["singlet", "lhv:sign"])
    def test_counts_must_be_integers(self, source):
        # a float count or seed would fail later, inside numpy, with a message that names neither
        with pytest.raises(ValueError, match=r"^n_pairs must be an integer, got 1000\.0$"):
            make_config(source=source, n_pairs=1000.0)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 0\.5$"):
            make_config(source=source, seed=0.5)
        with pytest.raises(ValueError, match=r"^n_pairs must be an integer, got 1000\.0$"):
            simulate_lhv(sign_strategy(), optimal_chsh_settings(), 1000.0, seed=0)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 0\.5$"):
            simulate_lhv(sign_strategy(), optimal_chsh_settings(), 1000, seed=0.5)
        with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
            simulate_lhv(sign_strategy(), optimal_chsh_settings(), 1000, seed=-1)
        # numpy integers are integers
        config = make_config(source=source, n_pairs=np.int64(1000), seed=np.uint32(3))
        assert simulate_chsh(config) == simulate_chsh(make_config(source=source, n_pairs=1000, seed=3))

    def test_n_pairs_fits_the_binomial_draw(self):
        assert make_config(n_pairs=2**63 - 1).n_pairs == 2**63 - 1
        for n_pairs in (2**63, 10**20):
            with pytest.raises(ValueError, match="at most"):
                make_config(n_pairs=n_pairs)
            with pytest.raises(ValueError, match="at most"):
                simulate_lhv(sign_strategy(), optimal_chsh_settings(), n_pairs, seed=0)

    def test_needs_two_pairs_per_setting(self):
        with pytest.raises(ValueError, match="n_pairs"):
            make_config(n_pairs=7)
        with pytest.raises(ValueError, match="n_pairs"):
            simulate_lhv(sign_strategy(), optimal_chsh_settings(), 7, seed=0)
        reports = (
            simulate_chsh(make_config(n_pairs=8)),
            simulate_lhv(sign_strategy(), optimal_chsh_settings(), 8, seed=0),
        )
        for report in reports:
            assert all(np.isfinite(e) for e in report.stderrs.values())
            assert np.isfinite(report.s_stderr)

    def test_report_echoes_the_settings_as_python_floats(self):
        rng = np.random.default_rng(53)
        random_settings = [ChshSettings(*(random_unit3(rng) for _ in range(4))) for _ in range(20)]
        for settings in [optimal_chsh_settings(), *random_settings]:
            for source in ("singlet", "lhv:sign"):
                report = simulate_chsh(make_config(settings=settings, n_pairs=123, source=source))
                assert report.settings == settings.floats  # the same bits, not only close
                assert all(type(x) is float for v in report.settings for x in v)
