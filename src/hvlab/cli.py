"""Command-line front end: every verification as a subcommand.

Reports are JSON (canonical) or CSV (flat name,value projection) on stdout.
Each report carries the inputs, the computed numbers, and a list of claims
whose pass/fail is recomputable from the numbers in the same report.  Exit
codes: 0 all claims pass, 1 a declared bound or claim failed, 2 input error.
All numbers are printed with 9 significant digits; for a fixed argv
(including seed) the JSON output is byte-identical apart from wall_time_s.
Every subcommand takes --format, --seed and --quiet; --tol and --samples
belong only to the subcommands that read them, each with its own default;
an option a subcommand does not take exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .qmath import (
    TAU_EQ,
    eig_herm2,
    pauli_obs,
    random_density,
    random_unit3,
    sigma_dot,
)
from .ensembles import (
    dispersion_free_witness,
    dispersion_scan,
    jauch_piron_contradiction,
    oracle_from_density,
    reconstruct_density,
)
from .hvmodels import (
    BATCH_PAIRS,
    bell_hv_average_exact,
    bell_hv_average_mc,
    bell_hv_model_stderr,
    chsh_combination,
    chsh_from_wigner,
    wigner_correlators,
)
from .contextuality import (
    ks_color,
    load_rays,
    mermin_assignment_search,
    mermin_square,
    mermin_verify,
    orthogonality_structure,
    peres_rays,
    save_rays,
    verify_coloring,
)
from .nonlocality import (
    BELL_ORIGINAL_BOUND,
    CHSH_LHV_BOUND,
    CHSH_QUANTUM_MAX,
    GOLDEN_RATIO,
    SETTING_PAIR_NAMES,
    TRINE_A,
    TRINE_B,
    TRINE_C,
    ChshSettings,
    bell_correlators,
    bell_original_lhs,
    chsh_correlators,
    chsh_max,
    chsh_optimize,
    ghz_assignment_search,
    ghz_stabilizer_deviations,
    hardy_build,
    hardy_optimize,
    hardy_probability,
    no_signalling_check,
    optimal_chsh_settings,
    singlet_state,
)
from .simlab import ExperimentConfig, load_config, simulate_chsh


def _claim(name: str, kind: str, value: float, target: float, tol: float) -> dict:
    return {"name": name, "kind": kind, "value": float(value), "target": float(target), "tol": float(tol)}


def evaluate_claim(claim: dict) -> bool:
    """Recompute a claim verdict from its own numbers."""
    value, target, tol = claim["value"], claim["target"], claim["tol"]
    if not all(math.isfinite(x) for x in (value, target, tol)):  # an infinite width would pass anything
        return False
    kind = claim["kind"]
    if kind == "close":
        return abs(value - target) <= tol
    if kind == "le":
        return value <= target + tol
    if kind == "ge":
        return value >= target - tol
    raise ValueError(f"unknown claim kind {kind!r}")


def _bool_claim(name: str, ok: bool) -> dict:
    return _claim(name, "close", 1.0 if ok else 0.0, 1.0, 0.0)


def _round_sig(x: float, digits: int = 9) -> float:
    if x == 0 or not np.isfinite(x):
        return float(x)
    return float(f"{x:.{digits}g}")


def _round_tree(obj):
    if isinstance(obj, float):
        return _round_sig(obj)
    if isinstance(obj, (np.floating,)):
        return _round_sig(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round_tree(v) for v in obj.tolist()]
    return obj


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}.{i}", v, rows)
    elif isinstance(obj, bool):
        rows.append((prefix, "true" if obj else "false"))
    elif obj is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, f"{obj:.9g}" if isinstance(obj, float) else str(obj)))


def _emit(report: dict, fmt: str, quiet: bool) -> int:
    report = _round_tree(report)
    for claim in report["claims"]:
        claim["pass"] = evaluate_claim(claim)
    report["verdict"] = "PASS" if all(c["pass"] for c in report["claims"]) else "FAIL"
    if not quiet:
        if fmt == "json":
            text = json.dumps(report, indent=2)
        else:
            rows: list = []
            _flatten("", report, rows)
            text = "\n".join(["name,value", *(f"{name},{value}" for name, value in rows)])
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader left early.  The verdict stands; send what is still
            # buffered to devnull so that the flush at exit does not fail too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report["verdict"] == "PASS" else 1


def _at_least_one(count: int, option: str) -> int:
    """A run over zero trials or samples would pass on no evidence."""
    if count < 1:
        raise ValueError(f"{option} must be at least 1, got {count}")
    return count


def _finite_components(text: str) -> list[float]:
    parts = [float(p) for p in text.split(",")]
    if not all(np.isfinite(parts)):
        raise ValueError(f"components must be finite, got {text!r}")
    return parts


def _vec3(text: str) -> np.ndarray:
    parts = _finite_components(text)
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated components, got {text!r}")
    return np.array(parts)


def _scaled(parts, what: str) -> np.ndarray:
    """parts times the power of two that brings the largest into [1/2, 1): exact (bar
    subnormals), and the norm taken afterwards can neither overflow nor underflow."""
    largest = max(abs(p) for p in parts)
    if largest == 0:
        raise ValueError(f"{what} cannot be the zero vector")
    return np.ldexp(parts, -math.frexp(largest)[1])


def _unit3(text: str) -> np.ndarray:
    v = _scaled(_vec3(text), "direction")
    return v / np.linalg.norm(v)


def _directions(args, *dests: str):
    """Unit vectors from the named direction options, or None if none is given."""
    texts = [getattr(args, dest) for dest in dests]
    if all(text is None for text in texts):
        return None
    if any(text is None for text in texts):
        flags = ", ".join("--" + dest.replace("_", "-") for dest in dests)
        raise ValueError(f"provide all of {flags} or none")
    return [_unit3(text) for text in texts]


def _mode_options(args, mode: str, defaults: dict, unused=()) -> None:
    """Reject the options `mode` does not read (given ones are not None); default the rest."""
    for dest in unused:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} has no effect {mode}")
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _parse_psi(text: str) -> np.ndarray:
    parts = _finite_components(text)
    if len(parts) % 2 != 0:
        raise ValueError("state must be re,im pairs")
    scaled = _scaled(parts, "state")
    vec = scaled[0::2] + 1j * scaled[1::2]
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, outputs, claims, tolerances)


def _cmd_vn_reconstruct(args, rng):
    trials = _at_least_one(args.trials, "--trials")
    max_err = 0.0
    witness_lo, witness_hi = 1.0, 0.0
    for _ in range(trials):
        rho = random_density(rng, args.dim)
        rebuilt = reconstruct_density(oracle_from_density(rho))
        max_err = max(max_err, float(np.max(np.abs(rebuilt - rho))))
        phi = dispersion_free_witness(rho)
        val = float(np.vdot(phi, rho @ phi).real)
        witness_lo = min(witness_lo, val)
        witness_hi = max(witness_hi, val)
    inputs = {"dim": args.dim, "trials": trials}
    outputs = {
        "max_reconstruction_error": max_err,
        "witness_value_min": witness_lo,
        "witness_value_max": witness_hi,
    }
    claims = [
        _claim("reconstruction_matches_state", "le", max_err, 0.0, args.tol),
        _claim("witness_above_epsilon", "ge", witness_lo, 0.01, 0.0),
        _claim("witness_below_one_minus_epsilon", "le", witness_hi, 0.99, 0.0),
    ]
    return inputs, outputs, claims, {"entrywise": args.tol, "witness_epsilon": 0.01}


def _cmd_dispersion(args, rng):
    rho = random_density(rng, args.dim)
    evals, evecs = np.linalg.eigh(rho)
    phi1, phi2 = evecs[:, -1], evecs[:, 0]
    thetas, values = dispersion_scan(rho, phi1, phi2, args.steps)
    end_dev = max(
        abs(values[0] - float(np.vdot(phi1, rho @ phi1).real)),
        abs(values[-1] - float(np.vdot(phi2, rho @ phi2).real)),
    )
    max_jump = float(np.max(np.abs(np.diff(values))))
    jump_bound = 2 * np.pi / args.steps
    phi = dispersion_free_witness(rho)
    witness = float(np.vdot(phi, rho @ phi).real)
    inputs = {"dim": args.dim, "steps": args.steps}
    outputs = {
        "endpoint_deviation": float(end_dev),
        "max_adjacent_jump": max_jump,
        "jump_bound": jump_bound,
        "witness_value": witness,
        "value_min": float(values.min()),
        "value_max": float(values.max()),
    }
    claims = [
        _claim("endpoints_match_direct_expectation", "le", end_dev, 0.0, 1e-12),
        _claim("scan_is_continuous", "le", max_jump, jump_bound, 0.0),
        _claim("witness_strictly_between_0_and_1", "ge", witness, 0.01, 0.0),
        _claim("witness_below_one", "le", witness, 0.99, 0.0),
    ]
    return inputs, outputs, claims, {"endpoint": 1e-12}


def _cmd_jauch_piron(args, rng):
    report = jauch_piron_contradiction(_unit3(args.a_dir), _unit3(args.b_dir))
    inputs = {"a": list(report.a_hat), "b": list(report.b_hat)}
    ranks = [r for row in report.cross_ranks for r in row]
    outputs = {
        "completeness_deviation": report.completeness_dev,
        "cross_ranks": ranks,
        "statement": report.statement,
    }
    claims = [
        _claim("pairs_resolve_identity", "le", report.completeness_dev, 0.0, TAU_EQ),
        _claim("all_cross_intersections_rank_zero", "close", float(max(ranks)), 0.0, 0.0),
    ]
    return inputs, outputs, claims, {"entrywise": TAU_EQ}


def _cmd_bell_hv(args, rng):
    psi = _parse_psi(args.psi)
    beta = _vec3(args.beta)
    exact = bell_hv_average_exact(args.alpha, beta, psi)
    quantum = args.alpha + float(np.vdot(psi, sigma_dot(beta) @ psi).real)
    estimate, stderr = bell_hv_average_mc(args.alpha, beta, psi, args.samples, args.seed)
    eig_hi, eig_lo = eig_herm2(pauli_obs(args.alpha, beta))
    # from the report: |beta| is half the eigenvalue gap and m = exact_average - alpha
    model_stderr = bell_hv_model_stderr((eig_hi - eig_lo) / 2.0, exact - args.alpha, args.samples)
    inputs = {
        "alpha": args.alpha,
        "beta": [float(b) for b in beta],
        "psi_re": [float(x) for x in psi.real],
        "psi_im": [float(x) for x in psi.imag],
        "n_samples": args.samples,
    }
    outputs = {
        "eigenvalues": [eig_hi, eig_lo],
        "quantum_expectation": quantum,
        "exact_average": exact,
        "mc_estimate": estimate,
        "mc_stderr": stderr,
        "mc_model_stderr": model_stderr,
    }
    claims = [
        _claim("exact_average_matches_quantum", "close", exact, quantum, args.tol),
        _claim("mc_within_5_sigma", "close", estimate, exact, 5.0 * model_stderr + args.tol),
    ]
    return inputs, outputs, claims, {"exact": args.tol, "mc_sigma": 5.0}


def _cmd_ks_color(args, rng):
    if args.peres:
        rays = peres_rays()
        source = "peres"
    else:
        rays = load_rays(args.rays)
        source = args.rays
    if args.dump_rays:
        save_rays(args.dump_rays, rays)
    structure = orthogonality_structure(rays, tol=args.tol)
    result = ks_color(structure)
    inputs = {"rays_source": source, "orthogonality_tol": args.tol}
    outputs = {
        "n_rays": int(rays.shape[0]),
        "n_orthogonal_pairs": len(structure.pairs),
        "n_triads": len(structure.triads),
        "satisfiable": result.satisfiable,
        "nodes_explored": result.nodes_explored,
    }
    claims = []
    if result.satisfiable:
        outputs["coloring"] = [int(c) for c in result.colors]
        claims.append(
            _bool_claim("certificate_verified", verify_coloring(structure, result.colors))
        )
    if args.peres:  # the counts tell Peres's graph from one that a loose --tol builds on the same rays
        claims.append(_claim("ray_count_is_33", "close", float(rays.shape[0]), 33.0, 0.0))
        claims.append(_claim("pair_count_is_72", "close", float(len(structure.pairs)), 72.0, 0.0))
        claims.append(_claim("triad_count_is_16", "close", float(len(structure.triads)), 16.0, 0.0))
        claims.append(_bool_claim("coloring_impossible", not result.satisfiable))
    return inputs, outputs, claims, {"orthogonality": args.tol}


def _cmd_mermin(args, rng):
    report = mermin_verify(mermin_square(), tol=TAU_EQ)
    search = mermin_assignment_search()
    inputs = {}
    outputs = {
        "max_product_deviation": report.max_product_dev,
        "max_square_deviation": report.max_square_dev,
        "max_commutator": report.max_commutator,
        "row_signs": list(report.row_signs),
        "col_signs": list(report.col_signs),
        "assignments_checked": search.n_checked,
        "assignments_satisfying": search.n_satisfying,
        "row_parity": math.prod(report.row_signs),
        "col_parity": math.prod(report.col_signs),
    }
    claims = [
        _claim("line_products_match_signs", "le", report.max_product_dev, 0.0, args.tol),
        _claim("entries_square_to_identity", "le", report.max_square_dev, 0.0, args.tol),
        _claim("all_512_assignments_checked", "close", float(search.n_checked), 512.0, 0.0),
        _claim("no_satisfying_assignment", "close", float(search.n_satisfying), 0.0, 0.0),
    ]
    return inputs, outputs, claims, {"entrywise": args.tol}


def _cmd_bell(args, rng):
    psi = singlet_state()
    dirs = _directions(args, "a_dir", "b_dir", "c_dir")
    a, b, c = dirs or (TRINE_A, TRINE_B, TRINE_C)
    etas = tuple(int(e) for e in args.eta.split(","))
    if len(etas) != 3:
        raise ValueError("eta must be three comma-separated values of +-1")
    lhs = bell_original_lhs(psi, a, b, c, *etas)
    inputs = {
        "a": [float(x) for x in a],
        "b": [float(x) for x in b],
        "c": [float(x) for x in c],
        "eta": list(etas),
        "trine_defaults": dirs is None,
    }
    outputs = {
        "lhs": lhs,
        "lhv_bound": BELL_ORIGINAL_BOUND,
        "violation": lhs - BELL_ORIGINAL_BOUND,
        "correlators": dict(zip(("ab", "ac", "bc"), bell_correlators(psi, a, b, c))),
    }
    claims = []
    if dirs is None and etas == (1, 1, 1):
        claims.append(_claim("trine_lhs_is_three_halves", "close", lhs, 1.5, args.tol))
    return inputs, outputs, claims, {"lhs": args.tol}


CHSH_DIRECTIONS = ("a_dir", "a_prime", "b_dir", "b_prime")


def _settings_report(settings: ChshSettings) -> dict:
    return {name: getattr(settings, name).tolist() for name in ("a", "a_prime", "b", "b_prime")}


def _cmd_chsh(args, rng):
    psi = singlet_state() if args.state == "singlet" else np.array([1, 0, 0, 0], dtype=complex)
    inputs = {"state": args.state, "optimize": bool(args.optimize)}
    if args.optimize:
        _mode_options(args, "with --optimize", {"restarts": 20, "tol": 1e-6}, CHSH_DIRECTIONS)
        settings, s_star = chsh_optimize(psi, restarts=args.restarts, tol=args.tol, seed=args.seed)
        inputs["restarts"] = args.restarts
        outputs = {
            "s_star": s_star,
            "settings": _settings_report(settings),
            "quantum_max": CHSH_QUANTUM_MAX,
            "lhv_bound": CHSH_LHV_BOUND,
        }
        claims = [
            _claim("optimum_matches_known_maximum", "close", s_star, chsh_max(psi), args.tol),
            _claim("within_tsirelson", "le", s_star, CHSH_QUANTUM_MAX, 1e-9),
        ]
        return inputs, outputs, claims, {"optimum": args.tol, "tsirelson": 1e-9}
    _mode_options(args, "without --optimize", {"tol": 1e-10}, ("restarts",))
    dirs = _directions(args, *CHSH_DIRECTIONS)
    settings = ChshSettings(*dirs) if dirs else optimal_chsh_settings()
    correlators = chsh_correlators(psi, settings)
    s = chsh_combination(correlators)
    inputs["default_optimal_settings"] = dirs is None
    inputs["settings"] = _settings_report(settings)
    outputs = {
        "s_value": s,
        "quantum_max": CHSH_QUANTUM_MAX,
        "lhv_bound": CHSH_LHV_BOUND,
        "correlators": dict(zip(SETTING_PAIR_NAMES, correlators)),
    }
    claims = [_claim("within_tsirelson", "le", s, CHSH_QUANTUM_MAX, 1e-9)]
    if dirs is None and args.state == "singlet":
        claims.append(_claim("matches_quantum_maximum", "close", s, CHSH_QUANTUM_MAX, args.tol))
    return inputs, outputs, claims, {"value": args.tol, "tsirelson": 1e-9}


def _cmd_wigner(args, rng):
    n = _at_least_one(args.samples, "--samples")
    # the 16 one-hot weights are the deterministic models, the vertices of the weight simplex
    vertex_max = chsh_from_wigner(np.eye(16)).max()
    random_max = 0.0
    for start in range(0, n, BATCH_PAIRS):
        # one (k, 16) draw takes the same stream as k draws of 16; batches bound the memory
        w = rng.random((min(BATCH_PAIRS, n - start), 16))
        random_max = max(random_max, chsh_from_wigner(w / w.sum(axis=1, keepdims=True)).max())
    example = rng.random(16)
    example /= example.sum()
    inputs = {"n_random_weights": n}
    outputs = {
        "vertex_max_s": vertex_max,
        "random_max_s": random_max,
        "lhv_bound": CHSH_LHV_BOUND,
        "example_correlators": dict(zip(SETTING_PAIR_NAMES, wigner_correlators(example))),
    }
    claims = [
        _claim("vertices_obey_lhv_bound", "le", vertex_max, CHSH_LHV_BOUND, args.tol),
        _claim("random_weights_obey_lhv_bound", "le", random_max, CHSH_LHV_BOUND, args.tol),
    ]
    return inputs, outputs, claims, {"bound_slack": args.tol}


def _cmd_ghz(args, rng):
    devs = ghz_stabilizer_deviations()
    search = ghz_assignment_search()
    flipped = ghz_assignment_search(xxx_target=1)
    inputs = {}
    outputs = {
        "stabilizer_deviations": devs,
        "assignments_checked": search.n_checked,
        "assignments_satisfying": search.n_satisfying,
        "satisfying_with_flipped_constraint": flipped.n_satisfying,
    }
    claims = [
        _claim("stabilizer_identities_hold", "le", max(devs.values()), 0.0, args.tol),
        _claim("all_64_assignments_checked", "close", float(search.n_checked), 64.0, 0.0),
        _claim("no_satisfying_assignment", "close", float(search.n_satisfying), 0.0, 0.0),
    ]
    return inputs, outputs, claims, {"entrywise": args.tol}


def _cmd_hardy(args, rng):
    if args.optimize:
        _mode_options(args, "with --optimize", {"grid": 100, "tol": 1e-6}, ("p1", "p2"))
        params, p_max = hardy_optimize(grid=args.grid, tol=1e-8)
        inputs = {"optimize": True, "grid": args.grid}
        outputs = {
            "p1": params.p1,
            "p2": params.p2,
            "p_max": p_max,
            "golden_ratio_inverse": 1.0 / GOLDEN_RATIO,
            "golden_ratio_inverse_5th": GOLDEN_RATIO**-5,
        }
        claims = [
            _claim("argmax_p1_at_inverse_golden_ratio", "close", params.p1, 1.0 / GOLDEN_RATIO, args.tol),
            _claim("argmax_p2_at_inverse_golden_ratio", "close", params.p2, 1.0 / GOLDEN_RATIO, args.tol),
            _claim("max_probability", "close", p_max, GOLDEN_RATIO**-5, 1e-7),
        ]
        return inputs, outputs, claims, {"argmax": args.tol, "max": 1e-7}
    _mode_options(args, "without --optimize", {"p1": 0.5, "p2": 0.5, "tol": 1e-10}, ("grid",))
    construction = hardy_build(args.p1, args.p2)
    closed = hardy_probability(args.p1, args.p2)
    inputs = {"p1": args.p1, "p2": args.p2}
    outputs = {
        "p": construction.p,
        "closed_form": closed,
        "condition_residuals": [float(r) for r in construction.condition_residuals],
    }
    claims = [
        _claim("construction_matches_closed_form", "close", construction.p, closed, args.tol),
        _claim("orthogonality_conditions_hold", "le", max(construction.condition_residuals), 0.0, TAU_EQ),
        _claim("probability_positive", "ge", construction.p, 0.0, 0.0),
    ]
    return inputs, outputs, claims, {"closed_form": args.tol}


def _cmd_nosignal(args, rng):
    trials = _at_least_one(args.trials, "--trials")
    eye2 = np.eye(2, dtype=complex)
    max_dev = 0.0
    for _ in range(trials):
        rho = random_density(rng, 4)
        a_obs = np.kron(sigma_dot(random_unit3(rng)), eye2)
        b_hat = random_unit3(rng)
        projs = [
            np.kron(eye2, 0.5 * (eye2 + sigma_dot(b_hat))),
            np.kron(eye2, 0.5 * (eye2 - sigma_dot(b_hat))),
        ]
        max_dev = max(max_dev, no_signalling_check(rho, a_obs, projs))
    inputs = {"trials": trials}
    outputs = {"max_deviation": max_dev}
    claims = [_claim("expectations_unchanged_by_remote_measurement", "le", max_dev, 0.0, args.tol)]
    return inputs, outputs, claims, {"deviation": args.tol}


def _cmd_simulate(args, rng):
    flags = {"source": "singlet", "visibility": 1.0, "samples": 10**6, "seed": 0}
    if args.config:
        _mode_options(args, "with --config", {}, flags)
        config = load_config(args.config)
    else:
        _mode_options(args, "without --config", flags)
        config = ExperimentConfig(
            settings=optimal_chsh_settings(),
            n_pairs=args.samples,
            visibility=args.visibility,
            seed=args.seed,
            source=args.source,
        )
    args.seed = config.seed  # the report's top-level seed is the one the run used
    report = simulate_chsh(config)
    inputs = {
        "source": report.source,
        "n_pairs": report.n_pairs,
        "visibility": report.visibility,
        "seed": report.seed,
        "settings": [list(v) for v in report.settings],
        "note": report.note,
    }
    outputs = {
        "pairs_per_setting": report.pairs_per_setting,
        "correlators": report.correlators,
        "stderrs": report.stderrs,
        "s_value": report.s_value,
        "s_stderr": report.s_stderr,
        "s_expected": report.s_expected,
        "expected_correlators": report.expected_correlators,
        "s_model_stderr": report.s_model_stderr,
    }
    width = 5.0 * report.s_model_stderr
    if report.expected_correlators is None:  # a local source: s_expected is the local bound
        expected = _claim("sim_within_lhv_bound", "le", report.s_value, report.s_expected, width)
    else:
        expected = _claim("sim_matches_expected_within_5_sigma", "close", report.s_value, report.s_expected, width)
    claims = [expected, _claim("sim_within_tsirelson_bound", "le", report.s_value, CHSH_QUANTUM_MAX, width)]
    return inputs, outputs, claims, {"sigma": 5.0}


HANDLERS = {
    "vn-reconstruct": _cmd_vn_reconstruct,
    "dispersion": _cmd_dispersion,
    "jauch-piron": _cmd_jauch_piron,
    "bell-hv": _cmd_bell_hv,
    "ks-color": _cmd_ks_color,
    "mermin": _cmd_mermin,
    "bell": _cmd_bell,
    "chsh": _cmd_chsh,
    "wigner": _cmd_wigner,
    "ghz": _cmd_ghz,
    "hardy": _cmd_hardy,
    "nosignal": _cmd_nosignal,
    "simulate": _cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    unseeded = argparse.ArgumentParser(add_help=False)
    unseeded.add_argument("--format", choices=("json", "csv"), default="json")
    unseeded.add_argument("--quiet", action="store_true")
    common = argparse.ArgumentParser(add_help=False, parents=[unseeded])
    common.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(prog="hvlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hvlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vn-reconstruct", parents=[common], help="rebuild density operators from expectation oracles")
    p.add_argument("--dim", type=int, choices=(2, 3, 4), default=3)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("dispersion", parents=[common], help="scan <phi|rho|phi> along a rotation arc and exhibit a witness")
    p.add_argument("--dim", type=int, choices=(2, 3, 4), default=2)
    p.add_argument("--steps", type=int, default=1000)

    p = sub.add_parser("jauch-piron", parents=[common], help="projector-intersection contradiction for two directions")
    p.add_argument("--a-dir", default="0,0,1")
    p.add_argument("--b-dir", default="1,0,0")

    p = sub.add_parser("bell-hv", parents=[common], help="spin-1/2 hidden-variable model: exact and Monte Carlo averages")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", default="1,1,0")
    p.add_argument("--psi", default="1,0,0,0", help="state as re,im pairs")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("ks-color", parents=[common], help="Kochen-Specker colorability search")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--peres", action="store_true")
    group.add_argument("--rays", metavar="FILE")
    p.add_argument("--dump-rays", metavar="FILE", default=None, help="write the canonical ray set to FILE")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("mermin", parents=[common], help="two-qubit operator square and 512-assignment search")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("bell", parents=[common], help="original three-correlator inequality")
    p.add_argument("--a-dir", default=None)
    p.add_argument("--b-dir", default=None)
    p.add_argument("--c-dir", default=None)
    p.add_argument("--eta", default="1,1,1")
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("chsh", parents=[common], help="CHSH value or optimization over settings")
    p.add_argument("--state", choices=("singlet", "product"), default="singlet")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--restarts", type=int, default=None, help="default 20; only with --optimize")
    for flag in ("--a-dir", "--a-prime", "--b-dir", "--b-prime"):
        p.add_argument(flag, default=None, help="not with --optimize")
    p.add_argument("--tol", type=float, default=None, help="default 1e-6 with --optimize, else 1e-10")

    p = sub.add_parser("wigner", parents=[common], help="joint-weight correlators and the CHSH bound")
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("ghz", parents=[common], help="three-qubit parity identities and 64-assignment search")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("hardy", parents=[common], help="Hardy state construction or probability maximization")
    p.add_argument("--p1", type=float, default=None, help="default 0.5; not with --optimize")
    p.add_argument("--p2", type=float, default=None, help="default 0.5; not with --optimize")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--grid", type=int, default=None, help="default 100; only with --optimize")
    p.add_argument("--tol", type=float, default=None, help="default 1e-6 with --optimize, else 1e-10")

    p = sub.add_parser("nosignal", parents=[common], help="remote measurement leaves expectations unchanged")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-12)

    # simulate declares its own --seed, default None, so that a --seed given with --config is rejected
    p = sub.add_parser("simulate", parents=[unseeded], help="Monte Carlo correlation experiment")
    p.add_argument("--config", metavar="FILE", default=None)
    p.add_argument("--source", default=None, help="default singlet; not with --config")
    p.add_argument("--visibility", type=float, default=None, help="default 1.0; not with --config")
    p.add_argument("--samples", type=int, default=None, help="default 10^6; not with --config")
    p.add_argument("--seed", type=int, default=None, help="default 0; not with --config")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    tol = getattr(args, "tol", None)  # only the subcommands with a tolerance take --tol
    if tol is not None and not 0.0 <= tol < np.inf:  # also false for NaN
        print(f"{args.command}: --tol must be finite and non-negative, got {tol}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        rng = np.random.default_rng(args.seed)  # a negative --seed is a ValueError
        inputs, outputs, claims, tolerances = HANDLERS[args.command](args, rng)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "tolerances": tolerances,
        "seed": args.seed,
        "claims": claims,
        "verdict": None,
        "wall_time_s": time.perf_counter() - start,
    }
    return _emit(report, args.format, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
