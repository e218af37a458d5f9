import tracemalloc

import numpy as np
import pytest

from hvlab import simlab
from hvlab.nonlocality import (
    CHSH_LHV_BOUND,
    CHSH_QUANTUM_MAX,
    ChshSettings,
    chsh_correlators,
    chsh_value,
    optimal_chsh_settings,
    singlet_state,
)
from hvlab.simlab import (
    ExperimentConfig,
    LhvStrategy,
    constant_strategy,
    load_config,
    save_config,
    sign_strategy,
    simulate_chsh,
    simulate_lhv,
)


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

    @pytest.mark.parametrize("source, seed, want", [("singlet", 0, 1.0), ("lhv:sign", 4, np.sqrt(2.0))])
    def test_model_stderr_does_not_collapse(self, source, seed, want):
        # 2 pairs per setting, and at these seeds each setting pair's two products agree
        report = simulate_chsh(make_config(source=source, n_pairs=8, seed=seed))
        assert report.s_stderr == 0.0
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

    def test_rejects_invalid_strategy_outputs(self):
        bad = LhvStrategy(
            name="broken",
            sample=lambda rng, n: np.zeros(n),
            response_a=lambda setting, lams: np.full(len(lams), 0.5),
            response_b=lambda setting, lams: np.full(len(lams), -1.0),
        )
        with pytest.raises(ValueError, match="outside"):
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
        monkeypatch.setattr(simlab, "BATCH_PAIRS", 7)
        settings = optimal_chsh_settings()
        n, seed = 1003, 13
        report = simulate_lhv(sign_strategy(), settings, n, seed=seed)
        lam = np.random.default_rng(seed).normal(size=(n, 3))
        lam /= np.linalg.norm(lam, axis=1, keepdims=True)
        pairs = (
            (settings.a, settings.b),
            (settings.a, settings.b_prime),
            (settings.a_prime, settings.b),
            (settings.a_prime, settings.b_prime),
        )
        for k, (name, (u, v)) in enumerate(zip(simlab.SETTING_PAIR_NAMES, pairs)):
            lam_k = lam[k::4]
            products = np.where(lam_k @ u >= 0, 1.0, -1.0) * -np.where(lam_k @ v >= 0, 1.0, -1.0)
            assert report.pairs_per_setting[name] == len(products)
            assert report.correlators[name] == np.mean(products)

    def test_sign_strategy_orthogonal_lambda_answers_plus_one(self):
        strategy = sign_strategy()
        setting = np.array([1.0, 0.0, 0.0])
        # every row is orthogonal to the setting, so a.lam is exactly zero and sgn(0) = +1
        lams = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -2.0], [-0.0, -0.0, -1.0]])
        assert list(strategy.response_a(setting, lams)) == [1.0, 1.0, 1.0]
        assert list(strategy.response_b(setting, lams)) == [-1.0, -1.0, -1.0]

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
        lam = np.random.default_rng(seed).normal(size=(n, 3))
        lam /= np.linalg.norm(lam, axis=1, keepdims=True)
        for k, (name, (u, v)) in enumerate(zip(simlab.SETTING_PAIR_NAMES, settings.pairs())):
            lam_k = lam[k::4]
            outcomes_a = np.where(lam_k @ u >= 0, 1.0, -1.0)
            outcomes_b = -np.where(lam_k @ v >= 0, 1.0, -1.0)
            plus = np.count_nonzero(outcomes_a == outcomes_b)
            assert report.correlators[name] == (2 * plus - len(lam_k)) / len(lam_k)

    def test_lhv_source_via_config(self):
        report = simulate_chsh(make_config(source="lhv:sign", n_pairs=10**4))
        assert report.source == "lhv:sign"
        assert report.s_expected == CHSH_LHV_BOUND and report.expected_correlators is None
        assert report.s_value <= report.s_expected + 5 * report.s_stderr
        assert report.s_model_stderr == np.sqrt(sum(1.0 / n for n in report.pairs_per_setting.values()))


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
    def test_visibility_is_for_the_singlet_only(self, tmp_path, visibility):
        with pytest.raises(ValueError, match="singlet source only"):
            make_config(source="lhv:sign", visibility=visibility)
        path = tmp_path / "experiment.cfg"
        path.write_text(
            f"source = lhv:sign\nn_pairs = 1000\nvisibility = {visibility!r}\nseed = 0\n"
            "a = 0 1 0\na_prime = 1 0 0\nb = 1 0 0\nb_prime = 0 1 0\n"
        )
        with pytest.raises(ValueError, match="singlet source only"):
            load_config(path)

    def test_unknown_strategy_is_rejected_when_built_and_loaded(self, tmp_path):
        with pytest.raises(ValueError, match=r"strategy 'nope'; known: \['constant', 'sign'\]"):
            make_config(source="lhv:nope")
        path = tmp_path / "experiment.cfg"
        path.write_text(
            "source = lhv:nope\nn_pairs = 1000\nvisibility = 1.0\nseed = 0\n"
            "a = 0 1 0\na_prime = 1 0 0\nb = 1 0 0\nb_prime = 0 1 0\n"
        )
        with pytest.raises(ValueError, match="strategy 'nope'"):
            load_config(path)

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

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        config = make_config(n_pairs=123, visibility=0.75, seed=99)
        save_config(path, config)
        loaded = load_config(path)
        assert loaded.n_pairs == 123
        assert loaded.visibility == 0.75
        assert loaded.seed == 99
        assert loaded.source == "singlet"
        assert np.allclose(loaded.settings.a, config.settings.a)
        assert simulate_chsh(loaded) == simulate_chsh(config)

    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text(
            "# visibility experiment\n"
            "source = singlet\n"
            "n_pairs = 1000\n"
            "visibility = 0.9  # scalar knob\n"
            "seed = 5\n"
            "a = 0 1 0\n"
            "a_prime = 1 0 0\n"
            "b = 0.7071067811865475 0.7071067811865475 0\n"
            "b_prime = 0.7071067811865475 -0.7071067811865475 0\n"
        )
        config = load_config(path)
        assert config.visibility == 0.9

    def test_file_missing_key(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text("source = singlet\nn_pairs = 10\n")
        with pytest.raises(ValueError, match="missing keys"):
            load_config(path)

    def test_file_bad_vector(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text(
            "source = singlet\nn_pairs = 10\nvisibility = 1\nseed = 0\n"
            "a = 0 1\na_prime = 1 0 0\nb = 0 0 1\nb_prime = 0 1 0\n"
        )
        with pytest.raises(ValueError, match="3-vector"):
            load_config(path)
