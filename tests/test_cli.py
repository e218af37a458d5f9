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
from hvlab.cli import evaluate_claim, main
from hvlab.hvmodels import chsh_combination, chsh_from_wigner, wigner_correlators
from hvlab.simlab import ExperimentConfig, save_config
from hvlab.nonlocality import optimal_chsh_settings


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
            (("bell-hv", "--psi=1e200,0,0,0", "--beta=0,0,1"), ("bell-hv", "--psi=1,0,0,0", "--beta=0,0,1")),
        ],
        ids=["chsh-huge", "chsh-tiny", "bell-hv-huge"],
    )
    def test_scaled_inputs_normalize_like_unit_ones(self, capsys, argv, reference):
        rest = ("--a-prime=1,0,0", "--b-dir=0,1,0", "--b-prime=0,0,1") if argv[0] == "chsh" else ()
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

    def test_simulate_flags(self, capsys):
        code, report = run_json(capsys, "simulate", "--samples", "20000", "--seed", "3")
        assert code == 0
        assert report["outputs"]["s_value"] > 2.0

    def test_simulate_config_file(self, capsys, tmp_path):
        path = tmp_path / "exp.cfg"
        save_config(
            path,
            ExperimentConfig(
                settings=optimal_chsh_settings(),
                n_pairs=5000,
                visibility=0.8,
                seed=11,
                source="singlet",
            ),
        )
        code, report = run_json(capsys, "simulate", "--config", str(path))
        assert code == 0
        assert report["inputs"]["visibility"] == 0.8

    def test_simulate_config_seed_is_the_reported_seed(self, capsys, tmp_path):
        path = tmp_path / "exp.cfg"
        save_config(path, ExperimentConfig(settings=optimal_chsh_settings(), n_pairs=5000, visibility=1.0, seed=2))
        code, report = run_json(capsys, "simulate", "--config", str(path))
        assert code == 0
        assert report["seed"] == report["inputs"]["seed"] == 2

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
        assert len(report["claims"]) == 2
        for claim in report["claims"]:
            assert claim["value"] == out["s_value"]
            assert claim["target"] == pytest.approx(targets[claim["name"]], rel=1e-8)
            assert claim["tol"] == pytest.approx(5 * model, rel=1e-7)

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

        _, out1, _ = run(capsys, "chsh", "--seed", "5")
        _, out2, _ = run(capsys, "chsh", "--seed", "5")
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
        _, report = run_json(capsys, "ghz", "--seed", "77")
        assert report["seed"] == 77
        assert report["command"] == "ghz"
        assert "wall_time_s" in report


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
            *(("simulate", "--config={config}", flag) for flag in (
                "--source=lhv:sign", "--visibility=0.5", "--samples=100", "--seed=3",
            )),
            ("hardy", "--optimize", "--p1=0.3"),
            ("hardy", "--optimize", "--p2=0.3"),
            ("hardy", "--grid=40"),
            *(("chsh", "--optimize", f"--{flag}=1,0,0") for flag in ("a-dir", "a-prime", "b-dir", "b-prime")),
            ("chsh", "--restarts=5"),
        ],
        ids=lambda argv: f"{argv[0]}{'-optimize' if '--optimize' in argv else ''}{argv[-1].split('=')[0]}",
    )
    def test_option_the_mode_does_not_read_exits_2(self, capsys, tmp_path, argv):
        config = tmp_path / "exp.cfg"
        save_config(config, ExperimentConfig(settings=optimal_chsh_settings(), n_pairs=5000, visibility=1.0, seed=2))
        code, out, err = run(capsys, *(arg.format(config=config) for arg in argv))
        flag = argv[-1].split("=")[0]
        assert code == 2
        assert out == ""
        assert err.startswith(f"{argv[0]}:") and f"{flag} has no effect" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("use_config", [False, True], ids=["flags", "config"])
    def test_visibility_with_local_source_exits_2(self, capsys, tmp_path, use_config):
        path = tmp_path / "exp.cfg"
        save_config(path, ExperimentConfig(settings=optimal_chsh_settings(), n_pairs=5000, visibility=1.0, seed=2))
        path.write_text(path.read_text().replace("source = singlet", "source = lhv:sign").replace(
            "visibility = 1.0", "visibility = 0.5"))
        argv = ["--config", str(path)] if use_config else ["--source=lhv:sign", "--visibility=0.5"]
        code, out, err = run(capsys, "simulate", *argv)
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
            (("ghz", "--seed=-1"), "non-negative"),
            (("wigner", "--seed=-1"), "non-negative"),
            (("simulate", "--seed=-1"), "non-negative"),
            (("simulate", "--samples=100000000000000000000"), "n_pairs must be at most"),
            (("bell-hv", "--beta=1e300,1e300,0"), "beta"),
            (("bell-hv", "--psi=1,0,0,0,0,0"), "single spin-1/2"),
        ],
        ids=["ghz-seed", "wigner-seed", "simulate-seed", "simulate-samples", "bell-hv-beta", "bell-hv-qutrit"],
    )
    def test_bad_input_exits_2_with_one_line(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{argv[0]}:") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("psi", ["nan,0,0,0", "inf,0,0,0"], ids=["nan", "inf"])
    def test_non_finite_state_exits_2(self, capsys, psi):
        code, out, err = run(capsys, "bell-hv", f"--psi={psi}")
        assert code == 2
        assert out == ""
        assert err.startswith("bell-hv:") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "exp.cfg"
        config = ExperimentConfig(settings=optimal_chsh_settings(), n_pairs=5000, visibility=1.0, seed=1)
        save_config(path, config)
        with open(path, "a") as fh:
            fh.write("worker_count = 4\n")
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("simulate:") and "worker_count" in err
        assert len(err.strip().splitlines()) == 1

    def test_duplicate_config_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "exp.cfg"
        save_config(path, ExperimentConfig(settings=optimal_chsh_settings(), n_pairs=5000, visibility=1.0, seed=1))
        with open(path, "a") as fh:
            fh.write("seed = 2\n")  # line 9
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("simulate:") and ":9:" in err and "'seed' given twice" in err
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


def test_closed_stdout_keeps_exit_code_and_quiet_stderr():
    src = str(Path(hvlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hvlab", "ghz"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
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

    def broken(args, rng):
        inputs, outputs, claims, tols = original(args, rng)
        claims.append(cli_mod._claim("impossible", "close", 0.0, 1.0, 0.0))
        return inputs, outputs, claims, tols

    monkeypatch.setitem(cli_mod.HANDLERS, "ghz", broken)
    code, out, _ = run(capsys, "ghz")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
