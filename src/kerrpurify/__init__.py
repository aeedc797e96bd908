"""Exact simulator of two-stage polarization entanglement purification
built on down-conversion pair sources and cross-Kerr QND detectors."""

from .fock import (
    AmbiguousRoutingError,
    BranchState,
    ConfigError,
    ModeLabel,
    OccupancyViolationError,
    Party,
    PhaseTag,
    Pol,
    PureState,
    SimulationError,
    Spatial,
    ZeroNormError,
    ZERO_COUNTS,
    ZERO_PHASE,
    PI,
    create_photon,
    inner,
    overlap,
    probe_outcomes,
    product_state,
    project_probe,
)
from .elements import (
    coupler,
    diagonal_outcomes,
    pbs,
    sigma_x,
    sigma_z,
)
from .qnd import (
    QndConfig,
    Variant,
    apply_kerr,
    apply_qnd,
    default_config,
)
from .sources import (
    NoiseParams,
    PdcSourceParams,
    bell_pair,
    single_pair_state,
    two_pair_components,
)
from .branches import BRANCH_CASES, CASE_IDS, run_branch_case, run_branch_suite
from .protocol import (
    OutcomeRecord,
    RoundRow,
    RunReport,
    Verdict,
    enumerate_exact,
    exact_reports,
    monte_carlo,
    pbs_baseline,
    stage1_fidelity_closed_form,
    stage1_run,
    stage2_fidelity_map,
    stage2_iterate,
    stage2_run,
    stage2_yield,
)

__version__ = "0.1.0"
