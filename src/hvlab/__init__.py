"""hvlab: machine-checked hidden-variable no-go theorems and Bell nonlocality.

The library covers the spin-1/2 hidden-variable value map, density-operator
reconstruction from expectation functionals, the projector-intersection
contradiction, Kochen-Specker colorability of the 33-ray set, the two-qubit
operator square, Bell/CHSH/joint-weight inequalities with optimization over
measurement settings, GHZ and Hardy nonlocality proofs, the no-signalling
identity, and a seeded Monte Carlo experiment simulator.

The names below load lazily (PEP 562): `import hvlab` imports no module and
no numpy, and the first use of a name, or of a module as `hvlab.qmath`,
imports its module.  The names of `kernels` and `contextuality` load no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "kernels": (
        "CHSH_LHV_BOUND", "CHSH_QUANTUM_MAX", "TAU_EQ", "TAU_PSD", "AssignmentSearchResult", "ChshSettings",
        "HardyConstruction", "MerminReport", "bell_original_lhs", "chsh_value", "ghz_assignment_search",
        "ghz_stabilizer_deviations", "hardy_build", "hardy_probability", "mermin_assignment_search", "mermin_square",
        "mermin_verify", "optimal_chsh_settings", "qm_correlator",
    ),
    "qmath": (
        "ID2", "PAULIS", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "eig_herm2", "expectation",
        "intersection_projector", "kron", "pauli_obs", "projector", "sigma_dot",
    ),
    "ensembles": (
        "BasisObservables", "ExpectationOracle", "basis_observables", "dispersion_free_witness", "dispersion_scan",
        "homogeneity_check", "oracle_from_density", "reconstruct_density",
    ),
    "hvmodels": (
        "BellHVState", "bell_hv_average_exact", "bell_hv_average_mc", "bell_hv_value", "chsh_from_wigner",
        "deterministic_weights", "validate_wigner_weights", "wigner_correlators",
    ),
    "contextuality": (
        "GREEN", "RED", "JauchPironReport", "KsResult", "OrthogonalityStructure", "canonical_ray",
        "jauch_piron_contradiction", "ks_color", "load_rays", "orthogonality_structure", "peres_rays", "save_rays",
        "verify_coloring",
    ),
    "nonlocality": (
        "GOLDEN_RATIO", "HardyParams", "chsh_max", "chsh_optimize", "correlation_tensor", "ghz_state",
        "hardy_optimize", "no_signalling_check", "singlet_state",
    ),
    "simlab": (
        "STRATEGIES", "ExperimentConfig", "LhvStrategy", "SimReport", "constant_strategy", "sign_strategy",
        "simulate_chsh", "simulate_lhv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a library module, as `hvlab.qmath`
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__():
    return sorted({*globals(), *__all__})
