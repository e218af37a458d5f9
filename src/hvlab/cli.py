"""Subcommand handlers: each verification as a report with recomputable claims.

`run` takes the options that `hvlab.options` parsed and checked, calls the
subcommand's handler and prints its report; `main(argv)` is the in-process
entry, the same parse and run as the console script.

Importing this module loads the numpy-free `kernels` and no numpy: `mermin`,
`ghz`, `bell`, `chsh` without `--optimize` and `hardy` without `--optimize`
run on them alone.  Every other handler first calls `_bind` with the library
modules it reads (`contextuality`, which loads no numpy either, for `ks-color`
and `jauch-piron`; numpy modules for the rest), which imports them and binds
their names listed in `_LAZY_NAMES` here, as a top-level import would;
`hvlab.cli.NAME` binds a name on access too (PEP 562).  A name already bound
here, such as a test's stand-in or a tracer's wrapper, is kept, so it is what
the handlers call.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time

from . import options
from .kernels import (
    BATCH_PAIRS,
    BELL_ORIGINAL_BOUND,
    CHSH_LHV_BOUND,
    CHSH_QUANTUM_MAX,
    MERMIN_SQUARE,
    PRODUCT_00,
    SETTING_NAMES,
    SETTING_PAIR_NAMES,
    SINGLET,
    TAU_EQ,
    TRINE_A,
    TRINE_B,
    TRINE_C,
    ChshSettings,
    bell_correlators,
    bell_original_lhs,
    chsh_combination,
    chsh_correlators,
    ghz_assignment_search,
    ghz_stabilizer_deviations,
    hardy_build,
    hardy_probability,
    mermin_assignment_search,
    mermin_verify,
    optimal_chsh_settings,
)

_LAZY_NAMES = {
    "qmath": ("ID2", "PAULIS", "eig_herm2", "normalized_wishart", "pauli_obs", "random_density", "sigma_dot",
              "unit_vectors"),
    "ensembles": ("dispersion_free_witness", "dispersion_scan", "oracle_from_density", "reconstruct_density"),
    "hvmodels": ("bell_hv_average_exact", "bell_hv_average_mc", "bell_hv_model_stderr", "chsh_from_wigner",
                 "wigner_correlators"),
    "contextuality": ("jauch_piron_contradiction", "ks_color", "load_rays", "orthogonality_structure", "peres_floats",
                      "save_rays", "verify_coloring"),
    "nonlocality": ("GOLDEN_RATIO", "chsh_max", "chsh_optimize", "hardy_optimize", "no_signalling_check"),
    "simlab": ("ExperimentConfig", "simulate_chsh"),
}
_MODULE_OF = {name: module for module, names in _LAZY_NAMES.items() for name in names}


def _bind(*modules: str) -> None:
    """Import the named library modules and bind here each of their `_LAZY_NAMES` not bound yet."""
    for module in modules:
        loaded = importlib.import_module(f"{__package__}.{module}")
        for name in _LAZY_NAMES[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


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
    if x == 0 or not math.isfinite(x):
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


def _scaled(parts) -> list:
    """parts, not all zero, times the power of two that brings the largest into [1/2, 1): exact
    (bar subnormals), and the norm taken afterwards can neither overflow nor underflow."""
    exponent = math.frexp(max(abs(p) for p in parts))[1]
    return [math.ldexp(p, -exponent) for p in parts]


def _unit(parts) -> list:
    scaled = _scaled(parts)
    norm = math.sqrt(sum(x * x for x in scaled))
    return [x / norm for x in scaled]


def _dot(u, v) -> float:
    return sum(x * y for x, y in zip(u, v))


def _units(args, *dests: str):
    """Unit vectors from the named direction options, or None if none is given."""
    if getattr(args, dests[0]) is None:  # the parser took all or none
        return None
    return [_unit(getattr(args, dest)) for dest in dests]


def _state(parts):
    """The state vector of the re,im pairs of --psi, normalized."""
    import numpy as np

    scaled = np.array(_scaled(parts))
    vec = scaled[0::2] + 1j * scaled[1::2]
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, outputs, claims); each claim carries its own width and target


def _cmd_vn_reconstruct(args):
    import numpy as np

    _bind("qmath", "ensembles")
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
    return inputs, outputs, claims


def _cmd_dispersion(args):
    import numpy as np

    _bind("qmath", "ensembles")
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
    return inputs, outputs, claims


def _cmd_jauch_piron(args):
    _bind("contextuality")
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
    return inputs, outputs, claims


def _cmd_bell_hv(args):
    import numpy as np

    _bind("qmath", "hvmodels")
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
    return inputs, outputs, claims


def _cmd_ks_color(args):
    _bind("contextuality")
    rays, source = (peres_floats(), "peres") if args.peres else (load_rays(args.rays), args.rays)
    structure = orthogonality_structure(rays, tol=args.tol)  # past its caps, before any file is written
    if args.dump_rays:
        save_rays(args.dump_rays, rays)
    result = ks_color(structure)
    inputs = {"rays_source": source, "orthogonality_tol": args.tol}
    outputs = {
        "n_rays": len(rays),
        "n_orthogonal_pairs": len(structure.pairs),
        "n_triads": len(structure.triads),
        "satisfiable": result.satisfiable,
        "nodes_explored": result.nodes_explored,
    }
    claims = []
    if result.satisfiable:
        outputs["coloring"] = list(result.coloring)
        claims.append(_bool_claim("certificate_verified", verify_coloring(structure, result.coloring)))
    if args.peres:  # the counts tell Peres's graph from one that a loose --tol builds on the same rays
        claims.append(_claim("ray_count_is_33", "close", float(len(rays)), 33.0, 0.0))
        claims.append(_claim("pair_count_is_72", "close", float(len(structure.pairs)), 72.0, 0.0))
        claims.append(_claim("triad_count_is_16", "close", float(len(structure.triads)), 16.0, 0.0))
        claims.append(_bool_claim("coloring_impossible", not result.satisfiable))
    return inputs, outputs, claims


def _cmd_mermin(args):
    report = mermin_verify(MERMIN_SQUARE)
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
    return inputs, outputs, claims


def _cmd_bell(args):
    psi = SINGLET
    dirs = _units(args, "a_dir", "b_dir", "c_dir")
    a, b, c = dirs or (TRINE_A, TRINE_B, TRINE_C)
    etas = args.eta
    lhs = bell_original_lhs(psi, a, b, c, *etas)
    # on the singlet P(u, v) = -u.v, so the closed form follows from the reported directions and etas
    eta_a, eta_b, eta_c = etas
    closed_form = -(eta_a * eta_b * _dot(a, b) + eta_a * eta_c * _dot(a, c) + eta_b * eta_c * _dot(b, c))
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
    claims = [_claim("lhs_matches_singlet_closed_form", "close", lhs, closed_form, args.tol)]
    if dirs is None and etas == (1, 1, 1):
        claims.append(_claim("trine_lhs_is_three_halves", "close", lhs, 1.5, args.tol))
    return inputs, outputs, claims


def _settings_report(settings: ChshSettings) -> dict:
    return {name: list(v) for name, v in zip(SETTING_NAMES, settings.floats)}


def _cmd_chsh(args):
    psi = SINGLET if args.state == "singlet" else PRODUCT_00
    inputs = {"state": args.state, "optimize": bool(args.optimize)}
    if args.optimize:
        _bind("nonlocality")
        settings, s_star = chsh_optimize(psi, restarts=args.restarts, tol=args.tol, seed=args.seed)
        inputs["restarts"] = args.restarts
        outputs = {
            "s_star": s_star,
            "settings": _settings_report(settings),
            "lhv_bound": CHSH_LHV_BOUND,
        }
        claims = [
            _claim("optimum_matches_known_maximum", "close", s_star, chsh_max(psi), args.tol),
            _claim("within_tsirelson", "le", s_star, CHSH_QUANTUM_MAX, 1e-9),
        ]
        return inputs, outputs, claims
    dirs = _units(args, *options.CHSH_DIRECTIONS)
    settings = ChshSettings(*dirs) if dirs else optimal_chsh_settings()
    correlators = chsh_correlators(psi, settings)
    s = chsh_combination(correlators)
    inputs["default_optimal_settings"] = dirs is None
    inputs["settings"] = _settings_report(settings)
    outputs = {
        "s_value": s,
        "lhv_bound": CHSH_LHV_BOUND,
        "correlators": dict(zip(SETTING_PAIR_NAMES, correlators)),
    }
    # the closed-form correlators at the reported settings: -u.v on the singlet, u_z v_z on |00>
    a, a_p, b, b_p = settings.floats
    closed = (lambda u, v: -_dot(u, v)) if args.state == "singlet" else (lambda u, v: u[2] * v[2])
    closed_form = chsh_combination([closed(a, b), closed(a, b_p), closed(a_p, b), closed(a_p, b_p)])
    claims = [
        _claim("s_matches_state_closed_form", "close", s, closed_form, args.tol),
        _claim("within_tsirelson", "le", s, CHSH_QUANTUM_MAX, 1e-9),
    ]
    if dirs is None and args.state == "singlet":
        claims.append(_claim("matches_quantum_maximum", "close", s, CHSH_QUANTUM_MAX, args.tol))
    return inputs, outputs, claims


def _cmd_wigner(args):
    import numpy as np

    _bind("hvmodels")
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
        "example_correlators": dict(zip(SETTING_PAIR_NAMES, wigner_correlators(example))),
    }
    claims = [
        _claim("vertices_obey_lhv_bound", "le", vertex_max, CHSH_LHV_BOUND, args.tol),
        _claim("random_weights_obey_lhv_bound", "le", random_max, CHSH_LHV_BOUND, args.tol),
    ]
    return inputs, outputs, claims


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
    return inputs, outputs, claims


def _cmd_hardy(args):
    if args.optimize:
        _bind("nonlocality")
        params, p_max = hardy_optimize(grid=args.grid)
        inputs = {"optimize": True, "grid": args.grid}
        outputs = {
            "p1": params.p1,
            "p2": params.p2,
            "p_max": p_max,
        }
        claims = [
            _claim("argmax_p1_at_inverse_golden_ratio", "close", params.p1, 1.0 / GOLDEN_RATIO, args.tol),
            _claim("argmax_p2_at_inverse_golden_ratio", "close", params.p2, 1.0 / GOLDEN_RATIO, args.tol),
            _claim("max_probability", "close", p_max, GOLDEN_RATIO**-5, 1e-7),
        ]
        return inputs, outputs, claims
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
    return inputs, outputs, claims


NOSIGNAL_BLOCK = 256  # trials checked as one stack, so memory stays bounded for any --trials


def _cmd_nosignal(args):
    import numpy as np

    _bind("qmath", "nonlocality")
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
    return inputs, outputs, claims


def _cmd_simulate(args):
    _bind("simlab")
    dirs = _units(args, *options.CHSH_DIRECTIONS)
    report = simulate_chsh(ExperimentConfig(
        settings=ChshSettings(*dirs) if dirs else optimal_chsh_settings(),
        n_pairs=args.samples,
        visibility=args.visibility,
        seed=args.seed,
        source=args.source,
    ))
    inputs = {
        "source": args.source,
        "n_pairs": args.samples,  # the count asked for; the claim below checks the campaign's counts against it
        "visibility": args.visibility,
        "settings": [list(v) for v in report.settings],
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
    claims = [
        expected,
        _claim("sim_within_tsirelson_bound", "le", report.s_value, CHSH_QUANTUM_MAX, width),
        _claim("pairs_per_setting_sum_to_n_pairs", "close", sum(report.pairs_per_setting.values()), args.samples, 0.0),
    ]
    return inputs, outputs, claims


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
        inputs, outputs, claims = HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
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
