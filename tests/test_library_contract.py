"""The input contract of the library, over each exported callable's scalar arguments.

A count, a seed or a real scalar handed to an exported callable either lies in its domain, the domain of
the option that sets it where there is one, or raises ValueError `<argument> <fault>, got <value>` before
any computation.  Each row below sets one such argument, every other argument valid, to each of VALUES;
a value the row names as in the domain must be taken, and every other must be rejected by name.  A
second test reads the exported signatures, so that a new int or float parameter needs its row.
"""

import inspect
import math

import numpy as np
import pytest

import hvlab as hl

VALUES = (math.nan, math.inf, -math.inf, -1, 0.5, 2.5, True)

KET0, KET1 = np.eye(2, dtype=complex)
AXES = np.eye(3)

# the values each domain takes, each with why; a count or a seed takes none of VALUES (a bool is not a count)
FINITE = {-1: "a finite number", 0.5: "a finite number", 2.5: "a finite number", True: "the number 1"}
THRESHOLD = {0.5: "finite and non-negative", 2.5: "finite and non-negative", True: "the number 1"}
SIGN = {-1: "a sign", True: "equal to +1"}
NONE: dict = {}


def _optimize(**kwargs):
    return hl.chsh_optimize(hl.singlet_state(), **{"restarts": 1, **kwargs})


# (callable, argument) -> (a call that sets the argument alone, the values in its domain)
ROWS = {
    ("hardy_build", "p1"): (lambda v: hl.hardy_build(v, 0.5), {0.5: "inside (0, 1)"}),
    ("hardy_build", "p2"): (lambda v: hl.hardy_build(0.5, v), {0.5: "inside (0, 1)"}),
    ("hardy_probability", "p1"): (lambda v: hl.hardy_probability(v, 0.5), {0.5: "inside (0, 1)"}),
    ("hardy_probability", "p2"): (lambda v: hl.hardy_probability(0.5, v), {0.5: "inside (0, 1)"}),
    ("hardy_optimize", "grid"): (lambda v: hl.hardy_optimize(grid=v), NONE),
    ("chsh_optimize", "restarts"): (lambda v: _optimize(restarts=v), NONE),
    ("chsh_optimize", "tol"): (lambda v: _optimize(tol=v), THRESHOLD),
    ("chsh_optimize", "seed"): (lambda v: _optimize(seed=v), NONE),
    ("bell_original_lhs", "eta_a"): (lambda v: hl.bell_original_lhs(hl.singlet_state(), *AXES, v, 1, 1), SIGN),
    ("bell_original_lhs", "eta_b"): (lambda v: hl.bell_original_lhs(hl.singlet_state(), *AXES, 1, v, 1), SIGN),
    ("bell_original_lhs", "eta_c"): (lambda v: hl.bell_original_lhs(hl.singlet_state(), *AXES, 1, 1, v), SIGN),
    ("ghz_assignment_search", "xxx_target"): (lambda v: hl.ghz_assignment_search(v), SIGN),
    ("pauli_obs", "alpha"): (lambda v: hl.pauli_obs(v, (0, 0, 1)), FINITE),
    ("basis_observables", "dim"): (lambda v: hl.basis_observables(v), NONE),
    ("ExpectationOracle", "dim"): (lambda v: hl.reconstruct_density(hl.ExpectationOracle(v, lambda a: 1.0)), NONE),
    ("dispersion_scan", "steps"): (lambda v: hl.dispersion_scan(np.eye(2) / 2, KET0, KET1, v), NONE),
    ("BellHVState", "lam"): (lambda v: hl.BellHVState(KET0, v), {0.5: "the upper end of [-1/2, 1/2]"}),
    ("bell_hv_value", "alpha"): (lambda v: hl.bell_hv_value(v, (0, 0, 1), hl.BellHVState(KET0, 0.1)), FINITE),
    ("bell_hv_average_exact", "alpha"): (lambda v: hl.bell_hv_average_exact(v, (0, 0, 1), KET0), FINITE),
    ("bell_hv_average_mc", "alpha"): (lambda v: hl.bell_hv_average_mc(v, (0, 0, 1), KET0, 100, 0), FINITE),
    ("bell_hv_average_mc", "n_samples"): (lambda v: hl.bell_hv_average_mc(0.0, (0, 0, 1), KET0, v, 0), NONE),
    ("bell_hv_average_mc", "seed"): (lambda v: hl.bell_hv_average_mc(0.0, (0, 0, 1), KET0, 100, v), NONE),
    **{("deterministic_weights", name): (lambda v, k=k: hl.deterministic_weights(*[v if i == k else 1 for i in range(4)]),
                                         SIGN)
       for k, name in enumerate(("s", "sp", "t", "tp"))},
    ("orthogonality_structure", "tol"): (lambda v: hl.orthogonality_structure(AXES, v), THRESHOLD),
    ("ExperimentConfig", "n_pairs"): (lambda v: hl.ExperimentConfig(hl.optimal_chsh_settings(), v, 1.0, 0), NONE),
    ("ExperimentConfig", "visibility"): (lambda v: hl.ExperimentConfig(hl.optimal_chsh_settings(), 8, v, 0),
                                         {0.5: "in [0, 1]", True: "the number 1, the upper end of [0, 1]"}),
    ("ExperimentConfig", "seed"): (lambda v: hl.ExperimentConfig(hl.optimal_chsh_settings(), 8, 1.0, v), NONE),
    ("simulate_lhv", "n_pairs"): (lambda v: hl.simulate_lhv(hl.sign_strategy(), hl.optimal_chsh_settings(), v, 0), NONE),
    ("simulate_lhv", "seed"): (lambda v: hl.simulate_lhv(hl.sign_strategy(), hl.optimal_chsh_settings(), 8, v), NONE),
}

# records the library returns: their fields are its results, not inputs that it checks
RECORDS = {
    "AssignmentSearchResult", "BasisObservables", "HardyConstruction", "HardyParams", "JauchPironReport", "KsResult",
    "MerminReport", "OrthogonalityStructure", "SimReport",
}


@pytest.mark.parametrize("row", list(ROWS), ids=["-".join(row) for row in ROWS])
@pytest.mark.parametrize("value", VALUES, ids=map(repr, VALUES))
def test_a_scalar_outside_its_domain_is_rejected_by_name(row, value):
    call, domain = ROWS[row]
    if value in domain:  # no domain names 1, which would take True too
        call(value)
        return
    with pytest.raises(ValueError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{row[1]} ") and message.endswith(f", got {value!r}"), message


def _scalar_parameters(obj) -> list:
    """obj's parameters annotated int or float."""
    return [param.name for param in inspect.signature(obj).parameters.values()
            if getattr(param.annotation, "__forward_arg__", param.annotation) in ("int", "float", int, float)]


def test_every_exported_scalar_parameter_has_a_row():
    missing = [(name, param) for name in hl.__all__ if callable(getattr(hl, name)) and name not in RECORDS
               for param in _scalar_parameters(getattr(hl, name)) if (name, param) not in ROWS]
    assert missing == []
