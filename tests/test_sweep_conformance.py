"""Generated conformance for the DP's one chunk loop.

Every store, frontier policy, backend, job count and batch size runs the
same chunk loop over the same compaction kernel, so one drawn
configuration must reproduce the serial dict-store FULL run exactly:
order, mincost and the paper-facing counters; the ``recompute_*`` replay
tallies of its own policy's serial run; and the brute-force optimum.
Swept from a node-tracking base, the winning state must carry the nodes
its own chain builds.  Along a random chain, every ``compact()`` step
must equal the cell-at-a-time ``COMPACT`` oracle up to node-id renaming.
A stack of unrelated parent tables compacted in one kernel call must
equal the same tables compacted one at a time, and the oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._bitops import bits_of
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
from repro.core import executor
from repro.core.compaction import cofactor_indices, compact_table
from repro.core.spec import FSState
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
    # The chunk loop's batch cap in table cells: one subset per batch, a
    # few subsets, or the default (every n <= 6 layer in one batch).
    st.one_of(st.just(1), st.integers(2, 64),
              st.just(executor._BATCH_CELLS)),
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
    policy, store, (backend, jobs), batch_cells = config
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "_BATCH_CELLS", batch_cells)
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "_BATCH_CELLS", batch_cells)
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


@st.composite
def stacks(draw):
    """Unrelated parent states that fold the same cofactor position.

    Every row is a random function (1-2 roots) compacted along its own
    random chain of ``placed`` variables, so rows differ in placed set,
    table values and ``next_id``; each folds its ``position``-th free
    variable next.
    """
    n = draw(st.integers(1, 6))
    rule = draw(st.sampled_from(list(ReductionRule)))
    roots = draw(st.integers(1, 2))
    placed = draw(st.integers(0, n - 1))
    position = draw(st.integers(0, n - placed - 1))
    top = 2 if rule is ReductionRule.MTBDD else 1
    rows = []
    for _ in range(draw(st.integers(2, 6))):
        functions = [
            TruthTable(n, draw(st.lists(st.integers(0, top),
                                        min_size=1 << n, max_size=1 << n)))
            for _ in range(roots)
        ]
        if roots == 1:
            state = initial_state(functions[0], rule)
        else:
            state = initial_state_shared(functions, rule)
        for var in draw(st.permutations(range(n)))[:placed]:
            state = compact(state, var, rule)
        rows.append((state, bits_of(state.free_mask)[position]))
    return rule, placed, position, rows


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(stacks())
def test_stacked_kernel_matches_single_rows(stack):
    rule, placed, position, rows = stack
    first = rows[0][0]
    idx0, idx1 = cofactor_indices(first.n, placed, first.num_roots,
                                  position)
    next_ids = [state.next_id for state, _ in rows]
    counted = OperationCounters()
    tables, unique_keys, counts = compact_table(
        np.stack([state.table for state, _ in rows]), idx0, idx1,
        next_ids, rule, counted,
    )
    start = 0
    single_counted = OperationCounters()
    for r, (state, var) in enumerate(rows):
        table, keys, count = compact_table(
            state.table[None], idx0, idx1, [next_ids[r]], rule,
            single_counted,
        )
        assert np.array_equal(tables[r], table[0])
        assert [counts[r]] == count
        assert np.array_equal(unique_keys[start:start + counts[r]], keys)
        start += counts[r]

        oracle = compact_python(state, var, rule)
        row_state = FSState(
            n=state.n, mask=oracle.mask, pi=oracle.pi,
            mincost=state.mincost + counts[r], table=tables[r],
            num_terminals=state.num_terminals, num_roots=state.num_roots,
        )
        assert row_state.mincost == oracle.mincost
        assert canonical_cells(row_state, rule) == canonical_cells(
            oracle, rule)
    assert start == unique_keys.shape[0]
    assert counted == single_counted
