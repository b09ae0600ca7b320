"""Cache-aware adaptive streaming simulation at a wireless access point."""
from .ap_engine import SCHEMES, ApEngine, DeliveryEvent, SimulationResult
from .assign_core import (
    CandidateQuality,
    QualityRequest,
    SolverParams,
    build_candidates,
    delivery_cost,
    estimate_buffer,
    tolerated_set,
    utility,
)
from .buff import buff_assign
from .buffer_airtime import AirtimeAllocation, allocate_airtime, equal_airtime
from .cache import LruChunkCache, OversizedObjectError
from .catalog import CatalogError, QualityLadder, make_synthetic_catalog, zipf_pmf
from .client import ChunkRequest, DashClient, harmonic_mean_rate, select_quality
from .cli_metrics import (
    ScenarioConfig,
    load_config,
    mean_ci,
    oracle_check,
    run_replication,
    run_scenario,
    run_sweep,
    summarize,
    write_csv,
    write_json,
)
from .cph import (
    AssignmentResult,
    SolveGroup,
    brute_force_assign,
    brute_force_groups,
    canonical_order,
    cph_assign,
    solve_groups,
)
from .radio import link_capacity_bps, path_loss_db, place_clients

__all__ = [
    "SCHEMES", "ApEngine", "DeliveryEvent", "SimulationResult",
    "CandidateQuality", "QualityRequest", "SolverParams", "build_candidates",
    "delivery_cost", "estimate_buffer", "tolerated_set", "utility",
    "buff_assign",
    "AirtimeAllocation", "allocate_airtime", "equal_airtime",
    "LruChunkCache", "OversizedObjectError",
    "CatalogError", "QualityLadder", "make_synthetic_catalog", "zipf_pmf",
    "ChunkRequest", "DashClient", "harmonic_mean_rate", "select_quality",
    "ScenarioConfig", "load_config", "mean_ci", "oracle_check",
    "run_replication", "run_scenario", "run_sweep", "summarize",
    "write_csv", "write_json",
    "AssignmentResult", "SolveGroup", "solve_groups",
    "brute_force_assign", "brute_force_groups", "canonical_order", "cph_assign",
    "link_capacity_bps", "path_loss_db", "place_clients",
]
