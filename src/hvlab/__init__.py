"""hvlab: machine-checked hidden-variable no-go theorems and Bell nonlocality.

The library covers the spin-1/2 hidden-variable value map, density-operator
reconstruction from expectation functionals, the projector-intersection
contradiction, Kochen-Specker colorability of the 33-ray set, the two-qubit
operator square, Bell/CHSH/joint-weight inequalities with optimization over
measurement settings, GHZ and Hardy nonlocality proofs, the no-signalling
identity, and a seeded Monte Carlo experiment simulator.
"""

from .qmath import (
    ID2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TAU_EQ,
    TAU_PSD,
    eig_herm2,
    expectation,
    intersection_projector,
    kron,
    pauli_obs,
    projector,
    sigma_dot,
)
from .ensembles import (
    BasisObservables,
    ExpectationOracle,
    JauchPironReport,
    basis_observables,
    dispersion_free_witness,
    dispersion_scan,
    homogeneity_check,
    jauch_piron_contradiction,
    oracle_from_density,
    reconstruct_density,
)
from .hvmodels import (
    BellHVState,
    bell_hv_average_exact,
    bell_hv_average_mc,
    bell_hv_value,
    chsh_from_wigner,
    deterministic_weights,
    validate_wigner_weights,
    wigner_correlators,
)
from .contextuality import (
    GREEN,
    RED,
    AssignmentSearchResult,
    KsResult,
    MerminReport,
    OrthogonalityStructure,
    canonical_ray,
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
    CHSH_LHV_BOUND,
    CHSH_QUANTUM_MAX,
    GOLDEN_RATIO,
    ChshSettings,
    HardyConstruction,
    HardyParams,
    bell_original_lhs,
    chsh_max,
    chsh_optimize,
    chsh_value,
    correlation_tensor,
    ghz_assignment_search,
    ghz_stabilizer_deviations,
    ghz_state,
    hardy_build,
    hardy_optimize,
    hardy_probability,
    no_signalling_check,
    optimal_chsh_settings,
    qm_correlator,
    singlet_state,
)
from .simlab import (
    STRATEGIES,
    ExperimentConfig,
    LhvStrategy,
    SimReport,
    constant_strategy,
    load_config,
    save_config,
    sign_strategy,
    simulate_chsh,
    simulate_lhv,
)

__version__ = "0.1.0"
