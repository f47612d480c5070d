"""repro: exact optimal variable ordering for binary decision diagrams.

A from-scratch reproduction of the Friedman-Supowit ``O*(3^n)`` exact
optimal-ordering dynamic program ("Finding the Optimal Variable Ordering
for Binary Decision Diagrams", DAC 1987) together with its generalization
and quantum divide-and-conquer extensions (Tani's ``O*(2.77286^n)``
algorithm), over fully independent OBDD / ZDD / MTBDD substrates.

Quick start
-----------
>>> from repro import parse, solve
>>> solution = solve(parse("x0 & x1 | x2 & x3 | x4 & x5"))
>>> solution.size        # minimum OBDD node count (incl. terminals)
8
>>> solution.order       # an optimal read order
(0, 1, 2, 3, 4, 5)

``solve(problem, method="fs"|"shared"|"constrained"|"window"|"fs_star")``
is the stable front door over the five DP entry points (``run_fs`` and
friends remain the full-fidelity interfaces).  Orthogonally,
``solve(problem, strategy="exact"|"fallback"|"portfolio"|<name>)``
selects how hard to try: the exact DP, the budget-degradation ladder,
or the registered heuristic portfolio (see :mod:`repro.portfolio`).

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for the paper-vs-measured record.
"""

from .analysis import (
    OperationCounters,
    binary_entropy,
    gamma0,
    gamma1,
    solve_parameters,
    solve_table1,
    solve_table2,
    theorem13_constant,
)
from .bdd import BDD, MTBDD, ReorderingBDD, ZDD
from .core import (
    AStarResult,
    Diagram,
    WindowResult,
    FSResult,
    OptOBDDResult,
    ReductionRule,
    brute_force_optimal,
    build_diagram,
    find_optimal_ordering,
    mincost_by_split,
    opt_obdd,
    opt_obdd_composed,
    astar_optimal_ordering,
    exact_window,
    reconstruct_minimum_diagram,
    run_fs,
    run_fs_shared,
    run_fs_star,
    window_sweep,
)
from .api import OrderingSolution, solve
from .expr import CNF, DNF, Circuit, parse, to_truth_table
from .portfolio import (
    PortfolioResult,
    SearchResult,
    StrategyResult,
    available_strategies,
    run_portfolio,
    run_strategy,
    sift_search,
    window_permutation_search,
)
from .quantum import ClassicalMinimumFinder, QuantumMinimumFinder, QueryLedger
from .truth_table import TruthTable, count_subfunctions, obdd_size

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # input representations
    "TruthTable",
    "parse",
    "DNF",
    "CNF",
    "Circuit",
    "to_truth_table",
    # unified front door
    "solve",
    "OrderingSolution",
    # core algorithms
    "ReductionRule",
    "run_fs",
    "run_fs_shared",
    "find_optimal_ordering",
    "run_fs_star",
    "opt_obdd",
    "opt_obdd_composed",
    "mincost_by_split",
    "brute_force_optimal",
    "astar_optimal_ordering",
    "AStarResult",
    "exact_window",
    "window_sweep",
    "WindowResult",
    "ReorderingBDD",
    "FSResult",
    "OptOBDDResult",
    "Diagram",
    "build_diagram",
    "reconstruct_minimum_diagram",
    # substrates
    "BDD",
    "ZDD",
    "MTBDD",
    "obdd_size",
    "count_subfunctions",
    # heuristic strategy portfolio
    "available_strategies",
    "run_portfolio",
    "run_strategy",
    "sift_search",
    "window_permutation_search",
    "PortfolioResult",
    "SearchResult",
    "StrategyResult",
    # quantum (simulated)
    "QueryLedger",
    "ClassicalMinimumFinder",
    "QuantumMinimumFinder",
    # analysis
    "OperationCounters",
    "binary_entropy",
    "gamma0",
    "gamma1",
    "solve_parameters",
    "solve_table1",
    "solve_table2",
    "theorem13_constant",
]
