"""The paper's core contribution: exact optimal variable ordering.

* :func:`~repro.core.fs.run_fs` / :func:`~repro.core.fs.find_optimal_ordering`
  — the Friedman-Supowit ``O*(3^n)`` dynamic program (the DAC'87 result).
* :func:`~repro.core.fs_star.run_fs_star` — the composable FS* (Lemma 8).
* :func:`~repro.core.divide_conquer.opt_obdd` — ``OptOBDD(k, alpha)``
  (Theorem 10) with pluggable (simulated-quantum) minimum finding.
* :func:`~repro.core.composed.opt_obdd_composed` — the iterated composition
  of Section 4 (Theorem 13).
* :func:`~repro.core.bruteforce.brute_force_optimal` — the trivial
  ``O*(n! 2^n)`` baseline.
* :func:`~repro.core.reconstruct.build_diagram` /
  :func:`~repro.core.reconstruct.reconstruct_minimum_diagram` — emit the
  minimum diagram itself.
"""

from .astar import AStarResult, astar_optimal_ordering
from .bruteforce import BruteForceResult, brute_force_operation_bound, brute_force_optimal
from .budget import (
    DEFAULT_LADDER,
    Budget,
    BudgetExceeded,
    FallbackResult,
    RungAttempt,
    handle_signals,
    parse_ladder,
    run_ladder,
)
from .cache import (
    BatchError,
    BatchItem,
    BatchOutcome,
    CacheStats,
    ResultCache,
    TableKey,
    optimize_many,
    raw_table_key,
    state_key,
    table_key,
)
from .checkpoint import (
    CheckpointStore,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    corrupt_checkpoint,
    sweep_fingerprint,
)
from .certificate import (
    OptimalityCertificate,
    extract_certificate,
    verify_achievability,
    verify_certificate,
    verify_lower_bound,
)
from .compaction import compact
from .constrained import (
    ConstrainedResult,
    order_satisfies,
    run_fs_constrained,
)
from .composed import (
    TABLE2_ALPHAS,
    TABLE2_BETAS,
    make_composed_solver,
    opt_obdd_composed,
)
from .engine import (
    EngineConfig,
    SweepOutcome,
    run_layered_sweep,
)
from .executor import BACKENDS, ChunkResult
from .divide_conquer import (
    OptOBDDResult,
    SplitCheck,
    THEOREM10_ALPHAS,
    effective_levels,
    mincost_by_split,
    opt_obdd,
    opt_obdd_extend,
)
from .frontier import Layer
from .fs import FSResult, find_optimal_ordering, initial_state, run_fs, terminal_values
from .fs_star import fs_star_levels, make_fs_star_solver, run_fs_star
from .window import WindowResult, exact_window, window_sweep
from .reconstruct import Diagram, build_diagram, reconstruct_minimum_diagram
from .shared import (
    Forest,
    brute_force_shared,
    build_forest,
    count_shared_subfunctions,
    initial_state_shared,
    run_fs_shared,
)
from .spec import FSState, ReductionRule

__all__ = [
    "astar_optimal_ordering",
    "AStarResult",
    "Budget",
    "BudgetExceeded",
    "DEFAULT_LADDER",
    "FallbackResult",
    "RetryPolicy",
    "RungAttempt",
    "handle_signals",
    "parse_ladder",
    "run_ladder",
    "BatchError",
    "BatchItem",
    "BatchOutcome",
    "CacheStats",
    "ResultCache",
    "TableKey",
    "optimize_many",
    "raw_table_key",
    "state_key",
    "table_key",
    "exact_window",
    "window_sweep",
    "WindowResult",
    "run_fs_shared",
    "Forest",
    "build_forest",
    "count_shared_subfunctions",
    "initial_state_shared",
    "brute_force_shared",
    "OptimalityCertificate",
    "extract_certificate",
    "verify_certificate",
    "verify_achievability",
    "verify_lower_bound",
    "run_fs_constrained",
    "ConstrainedResult",
    "order_satisfies",
    "ReductionRule",
    "FSState",
    "FSResult",
    "run_fs",
    "find_optimal_ordering",
    "initial_state",
    "terminal_values",
    "compact",
    "EngineConfig",
    "SweepOutcome",
    "CheckpointStore",
    "FaultInjector",
    "InjectedFault",
    "corrupt_checkpoint",
    "sweep_fingerprint",
    "run_layered_sweep",
    "Layer",
    "BACKENDS",
    "ChunkResult",
    "run_fs_star",
    "fs_star_levels",
    "make_fs_star_solver",
    "mincost_by_split",
    "SplitCheck",
    "opt_obdd",
    "opt_obdd_extend",
    "OptOBDDResult",
    "THEOREM10_ALPHAS",
    "effective_levels",
    "opt_obdd_composed",
    "make_composed_solver",
    "TABLE2_ALPHAS",
    "TABLE2_BETAS",
    "brute_force_optimal",
    "brute_force_operation_bound",
    "BruteForceResult",
    "Diagram",
    "build_diagram",
    "reconstruct_minimum_diagram",
]
