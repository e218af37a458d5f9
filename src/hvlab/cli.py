"""Subcommand handlers: each verification as a report with recomputable claims.

`run` takes the options that `hvlab.options` parsed and checked, calls the
subcommand's handler and prints its report; `main(argv)` is the in-process
entry, the same parse and run as the console script.  The library calls are
imported here at module level, so `import hvlab.cli` loads every module.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

from . import options
from .qmath import (
    ID2,
    PAULIS,
    TAU_EQ,
    eig_herm2,
    normalized_wishart,
    pauli_obs,
    random_density,
    sigma_dot,
    unit_vectors,
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
    SETTING_NAMES,
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
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
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


def _scaled(parts) -> np.ndarray:
    """parts, not all zero, times the power of two that brings the largest into [1/2, 1): exact
    (bar subnormals), and the norm taken afterwards can neither overflow nor underflow."""
    return np.ldexp(parts, -math.frexp(max(abs(p) for p in parts))[1])


def _unit(parts) -> np.ndarray:
    return unit_vectors(_scaled(parts))


def _units(args, *dests: str):
    """Unit vectors from the named direction options, or None if none is given."""
    if getattr(args, dests[0]) is None:  # the parser took all or none
        return None
    return [_unit(getattr(args, dest)) for dest in dests]


def _state(parts) -> np.ndarray:
    """The state vector of the re,im pairs of --psi, normalized."""
    scaled = _scaled(parts)
    vec = scaled[0::2] + 1j * scaled[1::2]
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, outputs, claims, tolerances)


def _cmd_vn_reconstruct(args):
    rng = np.random.default_rng(args.seed)
    max_err = 0.0
    witness_lo, witness_hi = 1.0, 0.0
    for _ in range(args.trials):
        rho = random_density(rng, args.dim)
        rebuilt = reconstruct_density(oracle_from_density(rho))
        max_err = max(max_err, float(np.max(np.abs(rebuilt - rho))))
        phi = dispersion_free_witness(rho)
        val = float(np.vdot(phi, rho @ phi).real)
        witness_lo = min(witness_lo, val)
        witness_hi = max(witness_hi, val)
    inputs = {"dim": args.dim, "trials": args.trials}
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


def _cmd_dispersion(args):
    rho = random_density(np.random.default_rng(args.seed), args.dim)
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


def _cmd_jauch_piron(args):
    report = jauch_piron_contradiction(_unit(args.a_dir), _unit(args.b_dir))
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


def _cmd_bell_hv(args):
    alpha = args.alpha
    psi = _state(args.psi)
    beta = np.array(args.beta)
    exact = bell_hv_average_exact(alpha, beta, psi)
    quantum = alpha + float(np.vdot(psi, sigma_dot(beta) @ psi).real)  # the matrix expectation
    estimate, stderr = bell_hv_average_mc(alpha, beta, psi, args.samples, args.seed)
    eig_hi, eig_lo = eig_herm2(pauli_obs(alpha, beta))
    # from the report: |beta| is half the eigenvalue gap and m = exact_average - alpha
    model_stderr = bell_hv_model_stderr((eig_hi - eig_lo) / 2.0, exact - alpha, args.samples)
    inputs = {
        "alpha": alpha,
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


def _cmd_ks_color(args):
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


def _cmd_mermin(args):
    report = mermin_verify(mermin_square())
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


def _cmd_bell(args):
    psi = singlet_state()
    dirs = _units(args, "a_dir", "b_dir", "c_dir")
    a, b, c = dirs or (TRINE_A, TRINE_B, TRINE_C)
    etas = args.eta
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


def _settings_report(settings: ChshSettings) -> dict:
    return {name: list(v) for name, v in zip(SETTING_NAMES, settings.floats)}


def _cmd_chsh(args):
    psi = singlet_state() if args.state == "singlet" else np.array([1, 0, 0, 0], dtype=complex)
    inputs = {"state": args.state, "optimize": bool(args.optimize)}
    if args.optimize:
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
    dirs = _units(args, *options.CHSH_DIRECTIONS)
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


def _cmd_wigner(args):
    rng = np.random.default_rng(args.seed)
    n = args.samples
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


def _cmd_ghz(args):
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


def _cmd_hardy(args):
    if args.optimize:
        params, p_max = hardy_optimize(grid=args.grid)
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


NOSIGNAL_BLOCK = 256  # trials checked as one stack, so memory stays bounded for any --trials


def _cmd_nosignal(args):
    rng = np.random.default_rng(args.seed)
    trials = args.trials
    max_dev = 0.0
    for start in range(0, trials, NOSIGNAL_BLOCK):
        # row t is trial t's stream alone: random_density(rng, 4), then random_unit3(rng) twice
        draws = rng.normal(size=(min(NOSIGNAL_BLOCK, trials - start), 38))
        rho = normalized_wishart((draws[:, :16] + 1j * draws[:, 16:32]).reshape(-1, 4, 4))
        a_hat, b_hat = unit_vectors(draws[:, 32:35]), unit_vectors(draws[:, 35:])
        a_obs = np.kron(np.einsum("ti,ijk->tjk", a_hat, PAULIS), ID2)  # a.sigma x I, per trial
        b_obs = np.einsum("ti,ijk->tjk", b_hat, PAULIS)
        projs = np.stack([np.kron(ID2, 0.5 * (ID2 + b_obs)), np.kron(ID2, 0.5 * (ID2 - b_obs))], axis=1)
        max_dev = max(max_dev, float(no_signalling_check(rho, a_obs, projs).max()))
    inputs = {"trials": trials}
    outputs = {"max_deviation": max_dev}
    claims = [_claim("expectations_unchanged_by_remote_measurement", "le", max_dev, 0.0, args.tol)]
    return inputs, outputs, claims, {"deviation": args.tol}


def _cmd_simulate(args):
    if args.config:
        config = load_config(args.config)
    else:
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


def run(args) -> int:
    """Run the subcommand of checked options: its report on stdout and exit 0 or 1, or exit 2
    with one line on stderr for an input error that only the library can see."""
    start = time.perf_counter()
    try:
        inputs, outputs, claims, tolerances = HANDLERS[args.command](args)
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


def main(argv=None) -> int:
    """The console script's parse and run, `options.main`, for callers in process."""
    return options.main(argv)


if __name__ == "__main__":
    sys.exit(main())
