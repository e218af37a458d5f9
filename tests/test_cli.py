import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hvlab
from hvlab.cli import evaluate_claim, main
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

    def test_ks_color_peres(self, capsys):
        code, report = run_json(capsys, "ks-color", "--peres")
        assert code == 0
        assert report["outputs"]["n_rays"] == 33
        assert report["outputs"]["satisfiable"] is False

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

    def test_chsh_value(self, capsys):
        code, report = run_json(capsys, "chsh")
        assert code == 0
        assert abs(report["outputs"]["s_value"] - 2 * np.sqrt(2)) <= 1e-8

    def test_chsh_optimize(self, capsys):
        code, report = run_json(capsys, "chsh", "--optimize", "--state", "singlet", "--restarts", "6")
        assert code == 0
        assert abs(report["outputs"]["s_star"] - 2.8284271) <= 1e-6

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


class TestReportContract:
    def test_claims_recomputable_from_report(self, capsys):
        for argv in (
            ["chsh"],
            ["mermin"],
            ["ghz"],
            ["hardy", "--p1", "0.3", "--p2", "0.6"],
            ["wigner", "--samples", "500"],
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
