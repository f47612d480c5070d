"""Generated conformance for the DP's one chunk loop.

Every store, frontier policy, backend and job count runs the same chunk
loop over the same compaction kernel, so one drawn configuration must
reproduce the serial dict-store FULL run exactly: order, mincost and the
paper-facing counters; the ``recompute_*`` replay tallies of its own
policy's serial run; and the brute-force optimum.  Swept from a
node-tracking base, the winning state must carry the nodes its own chain
builds.  Along a random chain, every ``compact()`` step must equal the
cell-at-a-time ``COMPACT`` oracle up to node-id renaming.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.counters import OperationCounters
from repro.core import (
    EngineConfig,
    FrontierPolicy,
    ReductionRule,
    brute_force_optimal,
    brute_force_shared,
    compact,
    initial_state,
    initial_state_shared,
    run_fs,
    run_fs_shared,
    run_layered_sweep,
)
from repro.truth_table import TruthTable
from tests.compact_oracle import canonical_cells, compact_python

PAPER_COUNTERS = (
    "table_cells", "compactions", "nodes_created", "subsets_processed",
    "oracle_queries", "classical_evaluations",
)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 6))
    rule = draw(st.sampled_from(list(ReductionRule)))
    top = 2 if rule is ReductionRule.MTBDD else 1
    roots = draw(st.integers(1, 2))
    tables = [
        TruthTable(n, draw(st.lists(st.integers(0, top), min_size=1 << n,
                                    max_size=1 << n)))
        for _ in range(roots)
    ]
    chain = draw(st.permutations(range(n)))
    return tables, rule, chain


configs = st.tuples(
    st.sampled_from(list(FrontierPolicy)),
    st.sampled_from(["dict", "packed"]),
    st.sampled_from([("serial", 1), ("thread", 1), ("thread", 2)]),
)


def solve(tables, rule, policy, store, backend, jobs):
    kwargs = dict(rule=rule, frontier=policy, frontier_store=store,
                  backend=backend, jobs=jobs)
    if len(tables) == 1:
        return run_fs(tables[0], **kwargs)
    return run_fs_shared(tables, **kwargs)


def recompute(counters):
    return {key: value for key, value in counters.extra.items()
            if key.startswith("recompute_")}


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems(), configs)
def test_chunk_loop_conforms(problem, config):
    tables, rule, chain = problem
    policy, store, (backend, jobs) = config
    got = solve(tables, rule, policy, store, backend, jobs)

    reference = solve(tables, rule, FrontierPolicy.FULL, "dict", "serial", 1)
    assert (got.order, got.mincost) == (reference.order, reference.mincost)
    paper = {key: getattr(got.counters, key) for key in PAPER_COUNTERS}
    assert paper == {
        key: getattr(reference.counters, key) for key in PAPER_COUNTERS
    }
    same_policy = solve(tables, rule, policy, "dict", "serial", 1)
    assert recompute(got.counters) == recompute(same_policy.counters)

    if len(tables) == 1:
        optimum = brute_force_optimal(tables[0], rule).mincost
        state = oracle = initial_state(tables[0], rule)
        tracked = initial_state(tables[0], rule, track_nodes=True)
    else:
        optimum = brute_force_shared(tables, rule)[1]
        state = oracle = initial_state_shared(tables, rule)
        tracked = initial_state_shared(tables, rule, track_nodes=True)
    assert got.mincost == optimum

    full = (1 << tables[0].n) - 1
    config = EngineConfig(frontier=policy, frontier_store=store,
                          backend=backend, jobs=jobs)
    winner = run_layered_sweep(tracked, full, rule,
                               config=config).frontier[full]
    for var in winner.pi:
        tracked = compact(tracked, var, rule)
    assert (winner.mincost, winner.nodes) == (got.mincost, tracked.nodes)

    for var in chain:
        counted, oracle_counted = OperationCounters(), OperationCounters()
        state = compact(state, var, rule, counted)
        oracle = compact_python(oracle, var, rule, oracle_counted)
        assert (state.mask, state.pi, state.mincost) == (
            oracle.mask, oracle.pi, oracle.mincost
        )
        assert canonical_cells(state, rule) == canonical_cells(oracle, rule)
        assert counted == oracle_counted
