import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hvlab
import hvlab.cli
import hvlab.options
from hvlab.cli import evaluate_claim, main
from hvlab.contextuality import load_rays, orthogonality_structure, peres_rays
from hvlab.ensembles import dispersion_scan
from hvlab.hvmodels import bell_hv_average_mc, chsh_from_wigner, wigner_correlators
from hvlab.kernels import ChshSettings, chsh_combination
from hvlab.simlab import ExperimentConfig, simulate_chsh
from hvlab.nonlocality import chsh_optimize, hardy_optimize, singlet_state
from hvlab.qmath import random_density, random_unit3, sigma_dot


README = Path(__file__).resolve().parents[1] / "README.md"
CHSH_GIVEN = ("--a-dir=0.3,-0.2,0.9", "--a-prime=-0.5,0.8,0.1", "--b-dir=0.7,0.7,-0.1", "--b-prime=0,-1,2")
# the settings of `optimal_chsh_settings()`, and a set of unit directions away from them
SIMULATE_GIVEN = ("--a-dir=0,1,0", "--a-prime=1,0,0", "--b-dir=0.7071067811865476,0.7071067811865476,0",
                  "--b-prime=0.7071067811865476,-0.7071067811865476,0")
SIMULATE_LHV_GIVEN = ("--a-dir=0.6,0.8,0", "--a-prime=0,0,1", "--b-dir=0.28,0.96,0", "--b-prime=-0.8,0.6,0")
PAIRS = {"ab": ("a", "b"), "ab_prime": ("a", "b_prime"), "a_prime_b": ("a_prime", "b"),
         "a_prime_b_prime": ("a_prime", "b_prime")}  # the correlators' setting pairs, in report order


def readme_block(heading: str) -> str:
    """The first fenced block after `heading` in the README."""
    text = README.read_text()
    text = text[text.index(heading) :]
    start = text.index("\n", text.index("```")) + 1
    return text[start : text.index("```", start)]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


class TestSubcommands:
    def test_vn_reconstruct(self, capsys):
        code, report = run_json(capsys, "vn-reconstruct", "--dim", "3", "--trials", "5")
        assert code == 0
        assert report["verdict"] == "PASS"
        assert report["outputs"]["max_reconstruction_error"] <= 1e-10

    def test_dispersion(self, capsys):
        code, report = run_json(capsys, "dispersion", "--dim", "2", "--steps", "200")
        assert code == 0
        assert 0.01 < report["outputs"]["witness_value"] < 0.99

    def test_jauch_piron(self, capsys):
        code, report = run_json(capsys, "jauch-piron")
        assert code == 0
        assert report["outputs"]["cross_ranks"] == [0, 0, 0, 0]

    def test_bell_hv(self, capsys):
        code, report = run_json(capsys, "bell-hv", "--samples", "10000")
        assert code == 0
        assert abs(report["outputs"]["exact_average"] - report["outputs"]["quantum_expectation"]) <= 1e-9

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_bell_hv_interval_does_not_collapse(self, capsys, seed):
        # nearly aligned with beta: every one of the 100 samples draws the same eigenvalue
        argv = ("bell-hv", "--beta=0,0,1", "--psi=0.999,0,0.04471017781221601,0", "--samples=100", f"--seed={seed}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_json(capsys, *argv)
        out = report["outputs"]
        assert out["mc_stderr"] == 0.0
        assert code == 0 and report["verdict"] == "PASS"
        beta_len = (out["eigenvalues"][0] - out["eigenvalues"][1]) / 2.0
        m = out["exact_average"] - report["inputs"]["alpha"]
        assert math.isclose(out["mc_model_stderr"], math.sqrt((beta_len**2 - m**2) / 100), rel_tol=1e-7)

    @pytest.mark.parametrize("alpha", ["1e308", "-1e308"])
    def test_bell_hv_alpha_near_the_largest_float(self, capsys, alpha):
        # the eigenvalues alpha +- |beta| once overflowed in the diagonal sum, and the claim's tol read NaN
        code, report = run_json(capsys, "bell-hv", f"--alpha={alpha}", "--samples=100")
        assert code == 0
        assert report["outputs"]["eigenvalues"] == [float(alpha)] * 2  # |beta| is below alpha's ulp
        assert all(math.isfinite(c[key]) for c in report["claims"] for key in ("value", "target", "tol"))

    @pytest.mark.parametrize("sigmas, want_code", [(4.0, 0), (6.0, 1)])
    def test_bell_hv_claim_width_is_five_model_sigmas(self, capsys, monkeypatch, sigmas, want_code):
        def moved(alpha, beta, psi, n_samples, seed):
            exact = hvlab.cli.bell_hv_average_exact(alpha, beta, psi)
            m = exact - alpha  # |beta| = 1
            return exact + sigmas * math.sqrt((1.0 - m * m) / n_samples), 0.0

        monkeypatch.setattr(hvlab.cli, "bell_hv_average_mc", moved)
        code, report = run_json(capsys, "bell-hv", "--beta=0,0,1", "--psi=0.6,0,0.8,0", "--samples=100")
        assert code == want_code
        [claim] = [c for c in report["claims"] if c["name"] == "mc_within_5_sigma"]
        assert claim["pass"] is (want_code == 0)

    @pytest.mark.parametrize(
        "argv, reference",
        [
            (("chsh", "--a-dir=1e200,0,0"), ("chsh", "--a-dir=1,0,0")),
            (("chsh", "--a-dir=1e-200,0,0"), ("chsh", "--a-dir=1,0,0")),
            (("simulate", "--a-dir=1e200,0,0"), ("simulate", "--a-dir=1,0,0")),
            (("simulate", "--a-dir=1e-200,0,0"), ("simulate", "--a-dir=1,0,0")),
            (("bell-hv", "--psi=1e200,0,0,0", "--beta=0,0,1"), ("bell-hv", "--psi=1,0,0,0", "--beta=0,0,1")),
        ],
        ids=["chsh-huge", "chsh-tiny", "simulate-huge", "simulate-tiny", "bell-hv-huge"],
    )
    def test_scaled_inputs_normalize_like_unit_ones(self, capsys, argv, reference):
        rest = {
            "chsh": ("--a-prime=1,0,0", "--b-dir=0,1,0", "--b-prime=0,0,1"),
            "simulate": ("--a-prime=1,0,0", "--b-dir=0,1,0", "--b-prime=0,0,1", "--samples=1000"),
        }.get(argv[0], ())
        reports = []
        for args in (argv, reference):
            code, out, err = run(capsys, *args, *rest)
            assert code == 0 and err == ""
            reports.append({k: v for k, v in json.loads(out).items() if k != "wall_time_s"})
        assert reports[0] == reports[1]

    def test_ks_color_peres(self, capsys):
        code, report = run_json(capsys, "ks-color", "--peres")
        assert code == 0
        assert report["outputs"]["n_rays"] == 33
        assert report["outputs"]["satisfiable"] is False
        claims = {c["name"]: c for c in report["claims"]}
        for name, count in (("ray_count_is_33", 33), ("pair_count_is_72", 72), ("triad_count_is_16", 16)):
            assert claims[name]["pass"] and claims[name]["value"] == count and claims[name]["tol"] == 0.0

    def test_ks_color_peres_fails_on_a_graph_that_is_not_peres(self, capsys):
        code, report = run_json(capsys, "ks-color", "--peres", "--tol", "1")
        assert code == 1
        assert report["outputs"]["n_orthogonal_pairs"] == 528 and report["outputs"]["n_triads"] == 5456
        failed = {c["name"] for c in report["claims"] if not c["pass"]}
        assert failed == {"pair_count_is_72", "triad_count_is_16"}

    def test_ks_color_rays_file(self, capsys, tmp_path):
        path = tmp_path / "axes.txt"
        path.write_text("1 0 0\n0 1 0\n0 0 1\n")
        code, report = run_json(capsys, "ks-color", "--rays", str(path))
        assert code == 0
        assert report["outputs"]["satisfiable"] is True
        assert sorted(report["outputs"]["coloring"]) == [0, 1, 1]

    def test_ks_color_dump_rays_round_trip(self, capsys, tmp_path):
        dump = tmp_path / "peres.txt"
        code, peres = run_json(capsys, "ks-color", "--peres", f"--dump-rays={dump}")
        assert code == 0
        rays = np.array(load_rays(dump))
        assert rays.shape == (33, 3) and np.max(np.abs(rays - peres_rays())) <= 1e-12
        dumped, built = orthogonality_structure(rays), orthogonality_structure(peres_rays())
        assert (dumped.pairs, dumped.triads) == (built.pairs, built.triads)
        code, loaded = run_json(capsys, "ks-color", f"--rays={dump}")
        assert code == 0
        assert loaded["outputs"] == peres["outputs"]

    def test_readme_ray_file_example_runs(self, capsys, tmp_path):
        path = tmp_path / "example.txt"
        path.write_text(readme_block("### Ray files"))
        assert run(capsys, "ks-color", "--rays", str(path), "--quiet") == (0, "", "")

    def test_mermin(self, capsys):
        code, report = run_json(capsys, "mermin")
        assert code == 0
        assert report["outputs"]["assignments_satisfying"] == 0
        assert report["outputs"]["assignments_checked"] == 512

    def test_bell_trine(self, capsys):
        code, report = run_json(capsys, "bell")
        assert code == 0
        assert abs(report["outputs"]["lhs"] - 1.5) <= 1e-9

    @pytest.mark.parametrize("argv", [(), ("--eta=1,-1,-1", "--a-dir=0.3,-0.2,0.9", "--b-dir=-1,2,3", "--c-dir=0,0,5")])
    def test_bell_correlators_recompute_from_echoed_directions(self, capsys, argv):
        code, report = run_json(capsys, "bell", *argv)
        assert code == 0
        psi, inputs, correlators = hvlab.singlet_state(), report["inputs"], report["outputs"]["correlators"]
        assert list(correlators) == ["ab", "ac", "bc"]
        for name in correlators:
            x, y = (hvlab.sigma_dot(inputs[letter]) for letter in name)
            assert abs(correlators[name] - np.vdot(psi, np.kron(x, y) @ psi).real) <= 1e-9, name
        e_a, e_b, e_c = inputs["eta"]
        lhs = e_a * e_b * correlators["ab"] + e_a * e_c * correlators["ac"] + e_b * e_c * correlators["bc"]
        assert report["outputs"]["lhs"] == pytest.approx(lhs, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize(
        "argv", [(), ("--eta=1,1,-1",), ("--eta=-1,1,-1", "--a-dir=1,2,3", "--b-dir=-1,0.5,2", "--c-dir=0,0,1")]
    )
    def test_bell_claims_the_singlet_closed_form(self, capsys, argv):
        code, report = run_json(capsys, "bell", *argv)
        inputs = report["inputs"]
        e_a, e_b, e_c = inputs["eta"]
        a, b, c = (np.array(inputs[letter]) for letter in "abc")
        claim = {x["name"]: x for x in report["claims"]}["lhs_matches_singlet_closed_form"]
        want = -(e_a * e_b * a @ b + e_a * e_c * a @ c + e_b * e_c * b @ c)
        assert code == 0 and claim["pass"] and claim["value"] == report["outputs"]["lhs"]
        assert claim["target"] == pytest.approx(want, abs=1e-8)

    def test_bell_fails_when_lhs_leaves_the_closed_form(self, capsys, monkeypatch):
        monkeypatch.setattr(hvlab.cli, "bell_original_lhs", lambda *args: 0.5)  # the trine's is -0.5 here
        code, report = run_json(capsys, "bell", "--eta=1,1,-1")
        failed = [c["name"] for c in report["claims"] if not c["pass"]]
        assert code == 1 and failed == ["lhs_matches_singlet_closed_form"]

    @pytest.mark.parametrize("argv", [(), CHSH_GIVEN, ("--state=product",), ("--state=product", *CHSH_GIVEN)])
    def test_chsh_claims_the_state_closed_form(self, capsys, argv):
        code, report = run_json(capsys, "chsh", *argv)
        settings = {name: np.array(v) for name, v in report["inputs"]["settings"].items()}
        if report["inputs"]["state"] == "singlet":
            p = {name: -settings[u] @ settings[v] for name, (u, v) in PAIRS.items()}
        else:
            p = {name: settings[u][2] * settings[v][2] for name, (u, v) in PAIRS.items()}
        claim = {x["name"]: x for x in report["claims"]}["s_matches_state_closed_form"]
        assert code == 0 and claim["pass"] and claim["value"] == report["outputs"]["s_value"]
        assert claim["target"] == pytest.approx(chsh_combination(list(p.values())), abs=1e-8)

    @pytest.mark.parametrize("state", ["singlet", "product"])
    def test_chsh_fails_when_the_correlators_leave_the_closed_form(self, capsys, monkeypatch, state):
        true_correlators = hvlab.cli.chsh_correlators
        monkeypatch.setattr(hvlab.cli, "chsh_correlators", lambda *args: [p + 0.1 for p in true_correlators(*args)])
        code, report = run_json(capsys, "chsh", f"--state={state}", *CHSH_GIVEN)
        failed = [c["name"] for c in report["claims"] if not c["pass"]]
        assert code == 1 and failed == ["s_matches_state_closed_form"]

    def test_chsh_value(self, capsys):
        code, report = run_json(capsys, "chsh")
        assert code == 0
        assert abs(report["outputs"]["s_value"] - 2 * np.sqrt(2)) <= 1e-8

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("--state=product",),
            ("--a-dir=2,2,0", "--a-prime=0,3,4", "--b-dir=1,-7,0.5", "--b-prime=0,0,5"),
            ("--state=product", "--a-dir=0.3,-0.2,0.9", "--a-prime=-1,2,3", "--b-dir=0.1,0.2,-0.7", "--b-prime=5,-1,2"),
        ],
    )
    def test_chsh_correlators_recompute_from_echoed_settings(self, capsys, argv):
        code, report = run_json(capsys, "chsh", *argv)
        assert code == 0
        psi = hvlab.singlet_state() if report["inputs"]["state"] == "singlet" else np.eye(4, dtype=complex)[0]
        settings = report["inputs"]["settings"]
        pairs = {"ab": ("a", "b"), "ab_prime": ("a", "b_prime"), "a_prime_b": ("a_prime", "b"),
                 "a_prime_b_prime": ("a_prime", "b_prime")}
        assert list(report["outputs"]["correlators"]) == list(pairs)
        for name, (x, y) in pairs.items():
            operator = np.kron(hvlab.sigma_dot(settings[x]), hvlab.sigma_dot(settings[y]))
            want = np.vdot(psi, operator @ psi).real
            assert abs(report["outputs"]["correlators"][name] - want) <= 1e-9, name
        s_from_correlators = chsh_combination(list(report["outputs"]["correlators"].values()))
        assert report["outputs"]["s_value"] == pytest.approx(s_from_correlators, rel=1e-8, abs=1e-8)

    def test_chsh_optimize(self, capsys):
        code, report = run_json(capsys, "chsh", "--optimize", "--state", "singlet", "--restarts", "6")
        assert code == 0
        assert abs(report["outputs"]["s_star"] - 2.8284271) <= 1e-6

    @pytest.mark.parametrize("state", ["singlet", "product"])
    def test_chsh_optimize_claims_against_chsh_max(self, capsys, monkeypatch, state):
        seen = []

        def stand_in(psi):
            seen.append(psi)
            return 2.5

        monkeypatch.setattr(hvlab.cli, "chsh_max", stand_in)
        code, report = run_json(capsys, "chsh", "--optimize", "--state", state, "--restarts", "4")
        claim = next(c for c in report["claims"] if c["name"] == "optimum_matches_known_maximum")
        assert code == 1 and claim["target"] == 2.5 and not claim["pass"]
        want = hvlab.singlet_state() if state == "singlet" else np.eye(4, dtype=complex)[0]
        assert len(seen) == 1 and np.array_equal(seen[0], want)

    def test_chsh_optimize_seed_reaches_tsirelson(self, capsys):
        code, report = run_json(capsys, "chsh", "--optimize", "--seed", "1228853484")
        assert code == 0
        assert report["verdict"] == "PASS"
        assert abs(report["outputs"]["s_star"] - 2 * np.sqrt(2)) <= 1e-6

    def test_wigner(self, capsys):
        code, report = run_json(capsys, "wigner", "--samples", "2000")
        assert code == 0
        assert report["outputs"]["vertex_max_s"] <= 2.0
        assert report["outputs"]["random_max_s"] <= 2.0

    def test_wigner_batches_continue_the_per_model_stream(self, capsys, monkeypatch):
        monkeypatch.setattr(hvlab.cli, "BATCH_PAIRS", 7)
        code, report = run_json(capsys, "wigner", "--samples=100", "--seed=9")
        rng = np.random.default_rng(9)
        want = 0.0
        for _ in range(100):
            w = rng.random(16)
            want = max(want, chsh_from_wigner(w / w.sum()))
        example = rng.random(16)
        example_correlators = wigner_correlators(example / example.sum())
        assert code == 0
        assert report["outputs"]["random_max_s"] == float(f"{want:.9g}")
        assert list(report["outputs"]["example_correlators"].values()) == [
            float(f"{x:.9g}") for x in example_correlators
        ]

    def test_wigner_memory_does_not_grow_with_samples(self, capsys):
        def peak_bytes(samples):
            tracemalloc.start()
            try:
                assert main(["wigner", f"--samples={samples}", "--quiet"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(2 * 10**6) <= peak_bytes(2 * 10**5) + 2 * 2**20

    def test_ghz(self, capsys):
        code, report = run_json(capsys, "ghz")
        assert code == 0
        assert report["outputs"]["assignments_satisfying"] == 0
        assert report["outputs"]["satisfying_with_flipped_constraint"] > 0

    def test_hardy_build(self, capsys):
        code, report = run_json(capsys, "hardy", "--p1", "0.5", "--p2", "0.5")
        assert code == 0
        assert abs(report["outputs"]["p"] - 1 / 12) <= 1e-8

    def test_hardy_optimize(self, capsys):
        code, report = run_json(capsys, "hardy", "--optimize", "--grid", "40")
        assert code == 0
        assert abs(report["outputs"]["p_max"] - 0.0901699) <= 1e-6
        assert abs(report["outputs"]["p1"] - 0.6180340) <= 1e-5

    def test_nosignal(self, capsys):
        code, report = run_json(capsys, "nosignal", "--trials", "50")
        assert code == 0
        assert report["outputs"]["max_deviation"] <= 1e-12

    @pytest.mark.parametrize("seed, trials", [(seed, 50) for seed in range(20)] + [(7, 1), (7, 257), (7, 1000)])
    def test_nosignal_blocks_match_one_trial_at_a_time(self, capsys, seed, trials):
        # the deviation is roundoff, so any change in how a trial is computed shows in its printed digits
        rng = np.random.default_rng(seed)
        eye2 = np.eye(2, dtype=complex)
        want = 0.0
        for _ in range(trials):
            rho = random_density(rng, 4)
            a = np.kron(sigma_dot(random_unit3(rng)), eye2)
            b = random_unit3(rng)
            projs = [np.kron(eye2, 0.5 * (eye2 + sigma_dot(b))), np.kron(eye2, 0.5 * (eye2 - sigma_dot(b)))]
            after = complex(np.trace(sum(p @ rho @ p for p in projs) @ a))
            want = max(want, abs(after - complex(np.trace(rho @ a))))
        code, report = run_json(capsys, "nosignal", f"--seed={seed}", f"--trials={trials}")
        assert code == 0
        assert report["outputs"]["max_deviation"] == float(f"{want:.9g}")
        if (seed, trials) == (7, 1000):
            assert report["outputs"]["max_deviation"] == 2.23018252e-16

    @pytest.mark.parametrize("seed", [3, 11, 2024])
    def test_nosignal_matches_a_per_trial_reference(self, capsys, seed):
        # each trial drawn and checked alone, by the formulas that drew it one trial at a time
        rng = np.random.default_rng(seed)
        eye2 = np.eye(2, dtype=complex)
        want = 0.0
        for _ in range(300):  # more than one block of NOSIGNAL_BLOCK trials
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho = rho / np.trace(rho).real
            a, b = (v / np.linalg.norm(v) for v in (rng.normal(size=3), rng.normal(size=3)))
            a_obs = np.kron(sigma_dot(a), eye2)
            projs = [np.kron(eye2, 0.5 * (eye2 + sigma_dot(b))), np.kron(eye2, 0.5 * (eye2 - sigma_dot(b)))]
            after = complex(np.trace(sum(p @ rho @ p for p in projs) @ a_obs))
            want = max(want, abs(after - complex(np.trace(rho @ a_obs))))
        code, report = run_json(capsys, "nosignal", f"--seed={seed}", "--trials=300")
        assert code == 0
        assert report["outputs"]["max_deviation"] == float(f"{want:.9g}")

    def test_nosignal_memory_does_not_grow_with_trials(self):
        def peak_bytes(trials):
            tracemalloc.start()
            try:
                assert main(["nosignal", f"--trials={trials}", "--quiet"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(20000) <= peak_bytes(2000) + 2 * 2**20

    def test_simulate_flags(self, capsys):
        code, report = run_json(capsys, "simulate", "--samples", "20000", "--seed", "3")
        assert code == 0
        assert report["outputs"]["s_value"] > 2.0

    def test_simulate_visibility_flag(self, capsys):
        code, report = run_json(capsys, "simulate", "--samples=5000", "--visibility=0.8", "--seed=11", *SIMULATE_GIVEN)
        assert code == 0
        assert report["inputs"]["visibility"] == 0.8

    def test_simulate_seed_is_the_reported_seed(self, capsys):
        code, report = run_json(capsys, "simulate", "--samples=5000", "--seed=2", *SIMULATE_GIVEN)
        assert code == 0
        assert report["seed"] == report["inputs"]["seed"] == 2

    @pytest.mark.parametrize("source, visibility", [("singlet", 0.8), ("lhv:sign", 1.0)])
    def test_simulate_directions_are_the_library_campaign(self, capsys, source, visibility):
        # the four flags, normalized, are the settings of the campaign the library runs
        code, report = run_json(capsys, "simulate", f"--source={source}", f"--visibility={visibility}",
                                "--samples=5000", "--seed=11", *CHSH_GIVEN)
        assert code == 0
        given = [[float(x) for x in flag.split("=")[1].split(",")] for flag in CHSH_GIVEN]
        unit = [np.array(v) / np.linalg.norm(v) for v in given]
        expected = simulate_chsh(ExperimentConfig(ChshSettings(*unit), 5000, visibility, 11, source))
        assert report["inputs"]["settings"] == hvlab.cli._round_tree(expected.settings)
        for echoed, u in zip(report["inputs"]["settings"], unit):
            assert echoed == pytest.approx(u, rel=1e-8, abs=1e-9)
        assert report["inputs"]["source"] == expected.source and report["seed"] == expected.seed
        for field, value in report["outputs"].items():
            assert value == hvlab.cli._round_tree(getattr(expected, field)), field

    def test_simulate_lhv_settings_follow_bells_correlator(self, capsys):
        # the sign strategy's exact correlator is -1 + 2 theta / pi, here at settings other than the defaults
        code, report = run_json(capsys, "simulate", "--source=lhv:sign", "--samples=200000", "--seed=7",
                                *SIMULATE_LHV_GIVEN)
        assert code == 0
        settings = dict(zip(("a", "a_prime", "b", "b_prime"), report["inputs"]["settings"]))
        out = report["outputs"]
        for name, (u, v) in PAIRS.items():
            theta = math.acos(max(-1.0, min(1.0, float(np.dot(settings[u], settings[v])))))
            assert abs(out["correlators"][name] - (-1.0 + 2.0 * theta / math.pi)) <= 5 * out["stderrs"][name], name

    def test_simulate_lhv_source(self, capsys):
        code, report = run_json(capsys, "simulate", "--source", "lhv:sign", "--samples", "20000")
        assert code == 0
        assert any(c["name"] == "sim_within_lhv_bound" for c in report["claims"])

    @pytest.mark.parametrize("source", ["singlet", "lhv:sign"])
    def test_simulate_stderrs_recomputable(self, capsys, source):
        code, report = run_json(capsys, "simulate", "--source", source, "--samples", "10003")
        assert code == 0
        out = report["outputs"]
        assert sum(out["pairs_per_setting"].values()) == report["inputs"]["n_pairs"]
        for name, n_k in out["pairs_per_setting"].items():
            est = out["correlators"][name]
            # the report prints 9 significant digits
            assert out["stderrs"][name] == pytest.approx(np.sqrt((1 - est**2) / (n_k - 1)), rel=1e-7)
        q = out["expected_correlators"] or dict.fromkeys(out["pairs_per_setting"], 0.0)
        model = np.sqrt(sum((1 - q[name] ** 2) / n_k for name, n_k in out["pairs_per_setting"].items()))
        assert out["s_model_stderr"] == pytest.approx(model, rel=1e-7)
        targets = {
            "sim_matches_expected_within_5_sigma": out["s_expected"],
            "sim_within_lhv_bound": out["s_expected"],
            "sim_within_tsirelson_bound": 2 * np.sqrt(2),
        }
        assert len(report["claims"]) == 3
        for claim in report["claims"][:2]:
            assert claim["value"] == out["s_value"]
            assert claim["target"] == pytest.approx(targets[claim["name"]], rel=1e-8)
            assert claim["tol"] == pytest.approx(5 * model, rel=1e-7)
        assert report["claims"][2] == {"name": "pairs_per_setting_sum_to_n_pairs", "kind": "close", "value": 10003,
                                       "target": 10003, "tol": 0, "pass": True}

    @pytest.mark.parametrize("source", ["singlet", "lhv:sign"])
    def test_simulate_reports_the_requested_pair_count(self, capsys, monkeypatch, source):
        # a campaign whose counts drift from the request fails its claim, and the report shows both
        original = hvlab.simlab._pairs_per_setting
        monkeypatch.setattr(hvlab.simlab, "_pairs_per_setting", lambda n: original(n) + np.array([0, 1, 0, 0]))
        code, report = run_json(capsys, "simulate", "--source", source, "--samples", "1001")
        assert (code, report["verdict"], report["inputs"]["n_pairs"]) == (1, "FAIL", 1001)
        assert sum(report["outputs"]["pairs_per_setting"].values()) == 1002
        assert report["claims"][2]["name"] == "pairs_per_setting_sum_to_n_pairs" and not report["claims"][2]["pass"]

    @pytest.mark.parametrize("source", ["singlet", "lhv:sign"])
    def test_simulate_minimum_samples_pass_at_every_seed(self, capsys, source):
        # 2 pairs per setting: the sample stderr is often 0, the model one never
        for seed in range(200):
            code, report = run_json(capsys, "simulate", "--source", source, "--samples", "8", "--seed", str(seed))
            assert code == 0, (seed, report["claims"])


class TestReportContract:
    def test_claims_recomputable_from_report(self, capsys):
        for argv in (
            ["chsh"],
            ["mermin"],
            ["ghz"],
            ["hardy", "--p1", "0.3", "--p2", "0.6"],
            ["wigner", "--samples", "500"],
            ["simulate", "--samples", "1000"],
            ["simulate", "--samples", "1000", "--visibility", "0.9546", "--seed", "3"],
            ["simulate", "--samples", "1000", "--source", "lhv:sign"],
        ):
            _, report = run_json(capsys, *argv)
            for claim in report["claims"]:
                assert evaluate_claim(claim) == claim["pass"]
            expected = "PASS" if all(c["pass"] for c in report["claims"]) else "FAIL"
            assert report["verdict"] == expected

    def test_byte_identical_apart_from_wall_time(self, capsys):
        def strip_wall_time(text):
            return "\n".join(l for l in text.splitlines() if "wall_time_s" not in l)

        _, out1, _ = run(capsys, "chsh", "--optimize", "--restarts", "2", "--seed", "5")
        _, out2, _ = run(capsys, "chsh", "--optimize", "--restarts", "2", "--seed", "5")
        assert strip_wall_time(out1) == strip_wall_time(out2)
        lines1 = out1.splitlines()
        lines2 = out2.splitlines()
        assert len(lines1) == len(lines2)
        differing = [i for i, (a, b) in enumerate(zip(lines1, lines2)) if a != b]
        for i in differing:
            assert "wall_time_s" in lines1[i]

    def test_seed_changes_random_outputs(self, capsys):
        _, r1 = run_json(capsys, "vn-reconstruct", "--seed", "1", "--trials", "2")
        _, r2 = run_json(capsys, "vn-reconstruct", "--seed", "2", "--trials", "2")
        assert r1["outputs"]["witness_value_min"] != r2["outputs"]["witness_value_min"]

    def test_nine_significant_digits(self, capsys):
        _, report = run_json(capsys, "chsh")
        s = report["outputs"]["s_value"]
        assert s == float(f"{s:.9g}")

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "mermin", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value"
        names = {line.split(",", 1)[0] for line in lines[1:]}
        assert "outputs.assignments_satisfying" in names
        assert "verdict" in names

    def test_quiet_suppresses_output(self, capsys):
        code, out, err = run(capsys, "ghz", "--quiet")
        assert code == 0
        assert out == ""

    def test_no_pass_on_a_non_finite_number(self):
        for kind in ("close", "le", "ge"):
            assert evaluate_claim({"name": "c", "kind": kind, "value": 0.0, "target": 0.0, "tol": 1.0})
            for field in ("value", "target", "tol"):
                for bad in (math.inf, -math.inf, math.nan):
                    claim = {"name": "c", "kind": kind, "value": 0.0, "target": 0.0, "tol": 1.0, field: bad}
                    assert evaluate_claim(claim) is False, (kind, field, bad)

    def test_report_echoes_seed_and_command(self, capsys):
        _, report = run_json(capsys, "wigner", "--samples", "10", "--seed", "77")
        assert report["seed"] == 77
        assert report["command"] == "wigner"
        assert "wall_time_s" in report
        assert run_json(capsys, "ghz")[1]["seed"] is None  # a run that draws nothing reads no seed


class TestErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, out, err = run(capsys, "nonsense")
        assert code == 2
        assert "usage" in err.lower() or "invalid" in err.lower()

    def test_no_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_bad_hardy_params_exit_2(self, capsys):
        code, out, err = run(capsys, "hardy", "--p1", "1.5")
        assert code == 2
        assert "hardy" in err

    def test_missing_ray_file_exits_2(self, capsys):
        code, _, err = run(capsys, "ks-color", "--rays", "/nonexistent/rays.txt")
        assert code == 2

    def test_bad_direction_exits_2(self, capsys):
        code, _, err = run(capsys, "jauch-piron", "--a-dir", "0,0,1", "--b-dir", "0,0,1")
        assert code == 2
        assert "degenerate" in err

    def test_partial_chsh_settings_exit_2(self, capsys):
        code, _, err = run(capsys, "chsh", "--a-dir", "0,0,1")
        assert code == 2

    def test_partial_bell_directions_exit_2(self, capsys):
        code, out, err = run(capsys, "bell", "--a-dir", "1,0,0")
        assert code == 2
        assert out == ""
        assert err.startswith("bell:") and "--c-dir" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("bell", "--a-dir=nan,0,0"), "argument --a-dir: components must be finite, got 'nan,0,0'"),
            (("chsh", "--optimize", "--b-dir=0,0,0"), "argument --b-dir: cannot be the zero vector, got '0,0,0'"),
            (("simulate", "--b-prime=0,0,0"), "argument --b-prime: cannot be the zero vector, got '0,0,0'"),
            (("hardy", "--grid=5", "--tol=-1"), "argument --grid: must be at least 10, got 5"),
        ],
        ids=["bell-partial-nan", "chsh-optimize-zero", "simulate-partial-zero", "hardy-grid-and-tol"],
    )
    def test_bad_value_is_reported_before_a_rule_between_options(self, capsys, argv, message):
        # each argv also breaks a rule between options (all directions or none, an option the mode
        # does not read), but the value is checked as it is parsed, so its message comes first
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"{argv[0]}: {message}\n")

    @pytest.mark.parametrize(
        "argv, library",
        [
            (("dispersion", "--steps={}"), "steps"),
            (("hardy", "--optimize", "--grid={}"), "grid"),
            (("chsh", "--optimize", "--restarts={}"), "restarts"),
            (("bell-hv", "--samples={}"), "n_samples"),
        ],
        ids=["dispersion-steps", "hardy-grid", "chsh-restarts", "bell-hv-samples"],
    )
    def test_lower_bound_is_the_library_bound(self, capsys, argv, library):
        # the option and the library function read one constant: both take it and reject one less
        ket0, ket1 = np.eye(2, dtype=complex)
        calls = {
            "steps": (hvlab.options.MIN_STEPS, lambda n: dispersion_scan(np.eye(2) / 2, ket0, ket1, n)),
            "grid": (hvlab.options.MIN_GRID, lambda n: hardy_optimize(grid=n)),
            "restarts": (hvlab.options.MIN_RESTARTS, lambda n: chsh_optimize(singlet_state(), restarts=n)),
            "n_samples": (hvlab.options.MIN_BELL_HV_SAMPLES, lambda n: bell_hv_average_mc(0.0, (0, 0, 1), ket0, n, 0)),
        }
        least, call = calls[library]
        hvlab.options.parse([arg.format(least) for arg in argv])
        call(least)
        with pytest.raises(SystemExit):
            hvlab.options.parse([arg.format(least - 1) for arg in argv])
        assert capsys.readouterr().err.endswith(f": must be at least {least}, got {least - 1}\n")
        with pytest.raises(ValueError, match=f"{library} must be at least {least}"):
            call(least - 1)

    @pytest.mark.parametrize(
        "argv, params",
        [
            (("--p1=5e-324",), "5e-324, 0.5"),
            (("--p1=1e-300", "--p2=1e-300"), "1e-300, 1e-300"),
            (("--p1=1e-320", "--p2=1e-320"), "1e-320, 1e-320"),
        ],
    )
    def test_hardy_probability_underflow_exits_2(self, capsys, argv, params):
        code, out, err = run(capsys, "hardy", *argv)
        assert (code, out) == (2, "")
        assert err == f"hardy: the jointly primed probability p underflows to 0 at (p1, p2) = ({params})\n"

    @pytest.mark.parametrize("b_dir", ["1,1e-9,0", "-1,1e-9,0", "1,2.8e-4,0"], ids=["parallel", "antiparallel", "below"])
    def test_near_parallel_jauch_piron_directions_exit_2(self, capsys, b_dir):
        code, out, err = run(capsys, "jauch-piron", "--a-dir=1,0,0", f"--b-dir={b_dir}")
        assert (code, out) == (2, "")
        assert err.startswith("jauch-piron: degenerate directions: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                (*command, "--samples=5")
                for command in (
                    ("vn-reconstruct",),
                    ("dispersion",),
                    ("jauch-piron",),
                    ("ks-color", "--peres"),
                    ("mermin",),
                    ("bell",),
                    ("chsh",),
                    ("ghz",),
                    ("hardy",),
                    ("nosignal",),
                )
            ),
            *((command, "--tol=1e-3") for command in ("dispersion", "jauch-piron", "simulate")),
        ],
        ids=lambda argv: f"{argv[0]}{argv[-1].split('=')[0]}",
    )
    def test_option_the_subcommand_does_not_read_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("hardy", "--optimize", "--p1=0.3"),
            ("hardy", "--optimize", "--p2=0.3"),
            ("hardy", "--grid=40"),
            *(("chsh", "--optimize", f"--{flag}=1,0,0") for flag in ("a-dir", "a-prime", "b-dir", "b-prime")),
            ("chsh", "--restarts=5"),
        ],
        ids=lambda argv: f"{argv[0]}{'-optimize' if '--optimize' in argv else ''}{argv[-1].split('=')[0]}",
    )
    def test_option_the_mode_does_not_read_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        flag = argv[-1].split("=")[0]
        assert code == 2
        assert out == ""
        assert err.startswith(f"{argv[0]}:") and f"{flag} has no effect" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("source, message", [("telepathy", "unknown source 'telepathy'"),
                                                 ("lhv:x", "unknown LHV strategy 'x'; known: ['constant', 'sign']")],
                             ids=["source", "strategy"])
    def test_unknown_source_exits_2(self, capsys, source, message):
        assert run(capsys, "simulate", f"--source={source}") == (2, "", f"simulate: {message}\n")

    def test_visibility_with_local_source_exits_2(self, capsys):
        code, out, err = run(capsys, "simulate", "--source=lhv:sign", "--visibility=0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("simulate:") and "singlet source only" in err
        assert len(err.strip().splitlines()) == 1

    def test_nan_chsh_setting_exits_2(self, capsys):
        code, out, err = run(
            capsys, "chsh", "--a-dir=nan,0,0", "--a-prime=1,0,0", "--b-dir=0,1,0", "--b-prime=0,0,1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("chsh:") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--samples=3"),
            ("wigner", "--samples=0"),
            ("nosignal", "--trials=0"),
            ("vn-reconstruct", "--trials=0"),
        ],
        ids=["simulate-samples", "wigner-samples", "nosignal-trials", "vn-reconstruct-trials"],
    )
    def test_too_little_evidence_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{argv[0]}:") and "must be at least" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("dispersion", "--seed=-1"), "argument --seed: must be at least 0, got -1"),
            (("wigner", "--seed=-1"), "argument --seed: must be at least 0, got -1"),
            (("simulate", "--seed=-1"), "argument --seed: must be at least 0, got -1"),
            (
                ("simulate", "--samples=100000000000000000000"),
                "argument --samples: must be at most 9223372036854775807, got 100000000000000000000",
            ),
            (("bell-hv", "--beta=1e300,1e300,0"), "beta"),
            (("bell-hv", "--psi=1,0,0,0,0,0"), "single spin-1/2"),
        ],
        ids=["dispersion-seed", "wigner-seed", "simulate-seed", "simulate-samples", "bell-hv-beta", "bell-hv-qutrit"],
    )
    def test_bad_input_exits_2_with_one_line(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{argv[0]}:") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("nosignal", "--seed=-1"), "argument --seed: must be at least 0, got -1"),
            (("bell", "--eta=1,1,x"), "argument --eta: must be three comma-separated values of +-1, got '1,1,x'"),
            (("bell", "--eta=1,1,2"), "argument --eta: must be three comma-separated values of +-1, got '1,1,2'"),
            (("bell", "--eta=1,1"), "argument --eta: must be three comma-separated values of +-1, got '1,1'"),
            (
                ("chsh", "--a-dir=x,0,0", "--a-prime=1,0,0", "--b-dir=0,1,0", "--b-prime=0,0,1"),
                "argument --a-dir: must be comma-separated numbers, got 'x,0,0'",
            ),
            (
                ("chsh", "--a-dir=1,0,0", "--a-prime=1,0,0", "--b-dir=0,1,0", "--b-prime=0,,1"),
                "argument --b-prime: must be comma-separated numbers, got '0,,1'",
            ),
            (
                ("bell", "--a-dir=1,0,0", "--b-dir=0,1,0", "--c-dir=z"),
                "argument --c-dir: must be comma-separated numbers, got 'z'",
            ),
            (("bell-hv", "--beta=1,x,0"), "argument --beta: must be comma-separated numbers, got '1,x,0'"),
            (("bell-hv", "--psi=1,0,y,0"), "argument --psi: must be comma-separated numbers, got '1,0,y,0'"),
            (("bell-hv", "--psi=1,0,0"), "argument --psi: must be re,im pairs, got '1,0,0'"),
            (("jauch-piron", "--a-dir=1,0"), "argument --a-dir: expects three comma-separated components, got '1,0'"),
            (("jauch-piron", "--b-dir=0,0,0"), "argument --b-dir: cannot be the zero vector, got '0,0,0'"),
            (
                ("chsh", "--a-dir=nan,0,0", "--a-prime=1,0,0", "--b-dir=0,1,0", "--b-prime=0,0,1"),
                "argument --a-dir: components must be finite, got 'nan,0,0'",
            ),
            (("bell-hv", "--alpha=inf"), "argument --alpha: must be a finite number, got 'inf'"),
            (("bell-hv", "--alpha=nan"), "argument --alpha: must be a finite number, got 'nan'"),
        ],
        ids=[
            "seed", "eta-not-int", "eta-not-sign", "eta-two", "chsh-a-dir-text", "chsh-b-prime-empty", "bell-c-dir-text",
            "bell-hv-beta-text", "bell-hv-psi-text", "bell-hv-psi-odd", "jauch-piron-two", "jauch-piron-zero",
            "chsh-a-dir-nan", "bell-hv-alpha-inf", "bell-hv-alpha-nan",
        ],
    )
    def test_message_names_option_and_value(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"{argv[0]}: {message}\n"

    @pytest.mark.parametrize(
        "argv, option, limit, least",
        [
            (("dispersion",), "--steps", "MAX_STEPS", hvlab.options.MIN_STEPS),
            (("chsh", "--optimize"), "--restarts", "MAX_RESTARTS", hvlab.options.MIN_RESTARTS),
            (("hardy", "--optimize"), "--grid", "MAX_GRID", hvlab.options.MIN_GRID),
            (("bell-hv",), "--samples", "MAX_BELL_HV_SAMPLES", hvlab.options.MIN_BELL_HV_SAMPLES),
            (("wigner",), "--samples", "MAX_WIGNER_SAMPLES", 1),
            (("nosignal",), "--trials", "MAX_NOSIGNAL_TRIALS", 1),
            (("vn-reconstruct",), "--trials", "MAX_VN_TRIALS", 1),
        ],
        ids=[
            "dispersion-steps", "chsh-restarts", "hardy-grid", "bell-hv-samples", "wigner-samples", "nosignal-trials",
            "vn-reconstruct-trials",
        ],
    )
    def test_size_above_its_limit_exits_2(self, capsys, monkeypatch, argv, option, limit, least):
        # The limit is lowered so that a missing check would still run a small case, but kept above the
        # option's least, so that limit + 1 breaks the upper bound alone.
        lowered = least + 10
        monkeypatch.setattr(hvlab.options, limit, lowered)
        code, out, err = run(capsys, *argv, f"{option}={lowered + 1}")
        assert code == 2
        assert out == ""
        assert err == f"{argv[0]}: argument {option}: must be at most {lowered}, got {lowered + 1}\n"

    @pytest.mark.parametrize("psi", ["nan,0,0,0", "inf,0,0,0"], ids=["nan", "inf"])
    def test_non_finite_state_exits_2(self, capsys, psi):
        code, out, err = run(capsys, "bell-hv", f"--psi={psi}")
        assert code == 2
        assert out == ""
        assert err.startswith("bell-hv:") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    def test_nan_ray_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "rays.txt"
        path.write_text("nan 0 0\n0 1 0\n0 0 1\n")
        code, out, err = run(capsys, "ks-color", "--rays", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("ks-color:") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "line, message",
        [("1 0 x", "could not convert string to float: 'x'"), ("0 0 0", "ray must have a finite length")],
        ids=["text", "zero"],
    )
    def test_ray_line_error_names_file_and_line(self, capsys, tmp_path, line, message):
        path = tmp_path / "rays.txt"
        path.write_text(f"# axes\n1 0 0\n{line}\n0 0 1\n")
        code, out, err = run(capsys, "ks-color", "--rays", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"ks-color: {path}:3: {message}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("chsh", "--optimize", "--tol", "nan"),
            ("chsh", "--optimize", "--tol", "-1"),
            ("hardy", "--optimize", "--tol", "-1"),
        ],
        ids=["chsh-nan", "chsh-negative", "hardy-negative"],
    )
    def test_bad_tol_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{argv[0]}:") and "--tol" in err
        assert len(err.strip().splitlines()) == 1

    CLAIM_WIDTH_TOL = [("vn-reconstruct",), ("bell-hv",), ("mermin",), ("bell",), ("chsh",), ("chsh", "--optimize"),
                       ("wigner",), ("ghz",), ("hardy",), ("hardy", "--optimize"), ("nosignal",)]

    @pytest.mark.parametrize("argv", CLAIM_WIDTH_TOL, ids=["-".join(argv) for argv in CLAIM_WIDTH_TOL])
    def test_claim_width_tol_has_a_ceiling(self, capsys, argv):
        limit = hvlab.options.MAX_TOL
        above = math.nextafter(limit, 1.0)
        for value in (repr(above), "1", "1e308"):
            code, out, err = run(capsys, *argv, f"--tol={value}")
            assert (code, out, err) == (2, "", f"{argv[0]}: argument --tol: must be at most 0.001, got {value!r}\n")
        assert hvlab.options.parse([*argv, f"--tol={limit!r}"]).tol == limit
        (sub,) = (a for a in hvlab.options.build_parser()._actions if a.dest == "command")
        (tol,) = (a for a in sub.choices[argv[0]]._actions if a.dest == "tol")
        assert tol.help.endswith("0 to 0.001")

    def test_pinned_tols_sit_within_their_ceilings(self):
        # the widest --tol values the golden corpus and the tests run, and ks-color's threshold, which has none
        for argv in (("mermin", "--tol=1e-3"), ("hardy", "--optimize", "--tol=1e-5"), ("ks-color", "--peres", "--tol=1"),
                     ("ks-color", "--peres", "--tol=1e308")):
            assert hvlab.options.parse(list(argv)).tol == float(argv[-1].split("=")[1])


    @pytest.mark.parametrize(
        "argv, message",
        [
            (("chsh", "--tol=abc"), "chsh: argument --tol: must be a finite number, got 'abc'"),
            (("ghz", "--samples=5"), "ghz: unrecognized arguments: --samples=5"),
            (("ks-color",), "ks-color: one of the arguments --peres --rays is required"),
            (("nonsense",), "hvlab: argument command: invalid choice: 'nonsense'"),
            (("ghz", "--x\ny"), "ghz: unrecognized arguments: --x\\ny"),
            # a prefix of --seed and of --samples, which argparse would otherwise report as ambiguous
            (("bell-hv", "--s=\n"), "bell-hv: unrecognized arguments: --s=\\n"),
        ],
        ids=["type", "unrecognized", "group", "subcommand", "unrecognized-newline", "abbreviation-newline"],
    )
    def test_parser_error_is_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(message) and len(err.splitlines()) == 1


SRC = str(Path(hvlab.__file__).resolve().parents[1])
FRESH_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def fresh(*args):
    """python -X importtime ARGS in a fresh process: the exit code, stdout, the stderr lines
    other than the import times, and the names of the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=FRESH_ENV, timeout=120
    )
    lines = proc.stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    return proc.returncode, proc.stdout, [line for line in lines if not line.startswith("import time:")], imported


def fresh_run(*argv):
    """`options.main(argv)` in a fresh process, as the console script runs it: the exit code, stdout, the stderr
    lines, and the hvlab modules, numpy and numpy.random it left in sys.modules (-X importtime misses the
    modules that `cli._bind` loads through importlib)."""
    script = (
        "import sys\nfrom hvlab import options\ncode = options.main(sys.argv[1:])\n"
        "print('modules:', *(m for m in sys.modules if m.split('.')[0] == 'hvlab' or m in ('numpy', 'numpy.random')))\n"
        "sys.exit(code)\n"
    )
    code, out, err, _ = fresh("-c", script, *argv)
    out, _, modules = out.rpartition("modules: ")
    return code, out, err, set(modules.split())


# the argvs that run on the numpy-free kernels and contextuality (chsh and hardy without --optimize)
NUMPY_FREE = (("mermin",), ("ghz",), ("bell",), ("chsh",), ("hardy",), ("jauch-piron",), ("ks-color", "--peres"))
ALWAYS_LOADED = {"hvlab", "hvlab.cli", "hvlab.kernels", "hvlab.options"}  # by every run that passes the argv checks
# (argv, the hvlab modules it loads besides ALWAYS_LOADED, whether it loads numpy.random)
LOADS = [
    *(((*argv, *form), {"hvlab.contextuality"} if argv[0] in ("jauch-piron", "ks-color") else set(), False)
      for form in ((), ("--format=csv",)) for argv in NUMPY_FREE),
    (("wigner", "--samples=1"), {"hvlab.hvmodels", "hvlab.qmath"}, True),
    (("chsh", "--optimize"), {"hvlab.nonlocality", "hvlab.qmath"}, True),
    (("hardy", "--optimize"), {"hvlab.nonlocality", "hvlab.qmath"}, False),
    (("nosignal", "--trials=1"), {"hvlab.nonlocality", "hvlab.qmath"}, True),
]


class TestFreshProcess:
    def test_import_hvlab_loads_no_numpy(self):
        script = (
            "import importlib, inspect, sys, hvlab\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
            "assert set(hvlab.__all__) <= set(dir(hvlab))\n"
            "for name in hvlab.__all__:\n"
            "    module = importlib.import_module('hvlab.' + hvlab._MODULE_OF[name])\n"
            "    value = getattr(hvlab, name)\n"
            "    assert value is getattr(module, name), name\n"
            "    if inspect.isfunction(value) or inspect.isclass(value):\n"  # defined there, not bound from elsewhere
            "        assert value.__module__ == module.__name__, name\n"
            "assert hvlab.qmath is sys.modules['hvlab.qmath']\n"
            "assert not hasattr(hvlab, 'no_such_name')\n"
        )
        code, out, err, imported = fresh("-c", script)
        assert (code, out, err) == (0, "", [])
        assert "hvlab" in imported

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("simulate", "--samples=3"), "argument --samples: must be at least 8, got 3"),
            (
                ("chsh", "--a-dir=nan,0,0", "--a-prime=1,0,0", "--b-dir=0,1,0", "--b-prime=0,0,1"),
                "argument --a-dir: components must be finite, got 'nan,0,0'",
            ),
            (("wigner", "--samples=0"), "argument --samples: must be at least 1, got 0"),
            (("chsh", "--a-dir=1,0,0", "--b-dir=0,1,0"), "provide all of --a-dir, --a-prime, --b-dir, --b-prime or none"),
            *((("simulate", *CHSH_GIVEN[:count]), "provide all of --a-dir, --a-prime, --b-dir, --b-prime or none")
              for count in (1, 2, 3)),
            (("ghz", "--tol=nan"), "argument --tol: must be a finite number, got 'nan'"),
            (("nosignal", "--seed=-1"), "argument --seed: must be at least 0, got -1"),
            (("nosignal", "--tol=1e308"), "argument --tol: must be at most 0.001, got '1e308'"),
            *(
                (argv + (f"{option}={limit + 1}",), f"argument {option}: must be at most {limit}, got {limit + 1}")
                for argv, option, limit in (
                    (("chsh", "--optimize"), "--restarts", hvlab.options.MAX_RESTARTS),
                    (("bell-hv",), "--samples", hvlab.options.MAX_BELL_HV_SAMPLES),
                    (("wigner",), "--samples", hvlab.options.MAX_WIGNER_SAMPLES),
                    (("nosignal",), "--trials", hvlab.options.MAX_NOSIGNAL_TRIALS),
                    (("vn-reconstruct",), "--trials", hvlab.options.MAX_VN_TRIALS),
                )
            ),
            (("dispersion", "--steps", "1"), "argument --steps: must be at least 2, got 1"),
            (("hardy", "--optimize", "--grid", "5"), "argument --grid: must be at least 10, got 5"),
            (("chsh", "--optimize", "--restarts", "0"), "argument --restarts: must be at least 1, got 0"),
            (("bell-hv", "--samples", "50"), "argument --samples: must be at least 100, got 50"),
            (("hardy", "--p1", "1.5"), "argument --p1: must lie strictly inside (0, 1), got '1.5'"),
            (("hardy", "--p1", "nan"), "argument --p1: must be a finite number, got 'nan'"),
            (("hardy", "--p2=0"), "argument --p2: must lie strictly inside (0, 1), got '0'"),
            (("simulate", "--visibility", "nan", "--samples", "8"), "argument --visibility: must be a finite number, got 'nan'"),
            (("simulate", "--visibility=1.5"), "argument --visibility: must lie in [0, 1], got '1.5'"),
            # every option must be spelled in full: a prefix of one is not read as it
            (("ghz", "--to", "1e-3"), "unrecognized arguments: --to 1e-3"),
            (("vn-reconstruct", "--t", "1"), "unrecognized arguments: --t 1"),
        ],
        ids=[
            "simulate-samples", "chsh-nan", "wigner-samples", "chsh-two-settings", "simulate-one-setting",
            "simulate-two-settings", "simulate-three-settings", "tol-nan", "seed", "tol-limit",
            "restarts",
            "bell-hv-samples-limit", "wigner-samples-limit", "nosignal-trials-limit", "vn-reconstruct-trials-limit",
            "dispersion-steps-least", "hardy-grid-least", "chsh-restarts-least", "bell-hv-samples-least",
            "hardy-p1-outside", "hardy-p1-nan", "hardy-p2-zero", "simulate-visibility-nan", "simulate-visibility-outside",
            "ghz-tol-prefix", "vn-reconstruct-ambiguous-prefix",
        ],
    )
    def test_argv_error_exits_before_numpy_loads(self, argv, message):
        code, out, err, loaded = fresh_run(*argv)
        assert (code, out, err) == (2, "", [f"{argv[0]}: {message}"])
        assert loaded == {"hvlab", "hvlab.options"}

    @pytest.mark.parametrize(
        "lines, message",
        [
            # 100 copies each of the three axes: 30,000 pairs and 10^6 triads
            (["1 0 0", "0 1 0", "0 0 1"] * 100, f"more than {hvlab.options.MAX_TRIADS} orthogonal triads at tol 1e-09"),
            (["1 2 3"] * (hvlab.options.MAX_RAYS + 1), f"{{path}}:{hvlab.options.MAX_RAYS + 1}: more than "
             f"{hvlab.options.MAX_RAYS} rays"),
        ],
        ids=["duplicated-axes", "one-ray-over"],
    )
    def test_ray_limits_exit_before_numpy_loads(self, tmp_path, lines, message):
        path = tmp_path / "rays.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err, loaded = fresh_run("ks-color", f"--rays={path}", f"--dump-rays={tmp_path / 'dump.txt'}")
        assert (code, out, err) == (2, "", [f"ks-color: {message.format(path=path)}"])
        assert "hvlab.contextuality" in loaded and "numpy" not in loaded
        assert not (tmp_path / "dump.txt").exists()

    def test_import_cli_generates_no_dataclass(self):
        modules = ("cli", "kernels", "qmath", "ensembles", "hvmodels", "contextuality", "nonlocality", "simlab")
        code, out, err, imported = fresh("-c", "; ".join(f"import hvlab.{module}" for module in modules))
        assert (code, out, err) == (0, "", [])
        assert {f"hvlab.{module}" for module in modules} <= imported and "dataclasses" not in imported

    @pytest.mark.parametrize(
        "argv, modules, draws", LOADS, ids=[f"{'-'.join(argv)}-{draws}" for argv, _, draws in LOADS]
    )
    def test_numpy_random_loads_only_where_a_subcommand_draws(self, argv, modules, draws):
        # the exact and scalar subcommands run on the numpy-free kernels and contextuality; the others load numpy
        code, out, err, loaded = fresh_run(*argv, "--quiet")
        assert (code, out, err) == (0, "", [])
        assert {m for m in loaded if m.startswith("hvlab")} == ALWAYS_LOADED | modules
        if modules <= {"hvlab.contextuality"}:
            assert "numpy" not in loaded
        else:
            assert "numpy" in loaded and ("numpy.random" in loaded) is draws

    def test_ray_files_load_no_numpy(self, tmp_path):
        rays, dump, nan_ray = tmp_path / "rays.txt", tmp_path / "dump.txt", tmp_path / "nan.txt"
        rays.write_text("# axes\n1 0 0\n0 -2 0\n0 0 1\n")
        nan_ray.write_text("nan 0 0\n1 0 0\n0 1 0\n")
        code, out, err, loaded = fresh_run("ks-color", f"--rays={rays}", f"--dump-rays={dump}", "--quiet")
        assert (code, out, err) == (0, "", []) and len(dump.read_text().splitlines()) == 4
        assert "hvlab.contextuality" in loaded and "numpy" not in loaded
        code, out, err, loaded = fresh_run("ks-color", f"--rays={nan_ray}")
        assert (code, out, len(err)) == (2, "", 1) and err[0].startswith(f"ks-color: {nan_ray}:1: ")
        assert "hvlab.contextuality" in loaded and "numpy" not in loaded


def test_closed_stdout_keeps_exit_code_and_quiet_stderr():
    proc = subprocess.Popen(
        [sys.executable, "-m", "hvlab", "ghz"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=FRESH_ENV
    )
    proc.stdout.close()  # the reader leaves before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_exit_code_1_on_failed_claim(capsys, monkeypatch):
    # sabotage a claim target to force a declared-claim failure
    import hvlab.cli as cli_mod

    original = cli_mod._cmd_ghz

    def broken(args):
        inputs, outputs, claims, tols = original(args)
        claims.append(cli_mod._claim("impossible", "close", 0.0, 1.0, 0.0))
        return inputs, outputs, claims, tols

    monkeypatch.setitem(cli_mod.HANDLERS, "ghz", broken)
    code, out, _ = run(capsys, "ghz")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
