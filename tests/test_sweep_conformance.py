"""Generated conformance for the DP's one chunk loop.

Every frontier policy, backend, job count and batch size runs the same
chunk loop over the same compaction kernel, so one drawn configuration
must reproduce the serial FULL run exactly: order, mincost and the
paper-facing counters; the ``recompute_*`` replay tallies of its own
policy's serial run; and the brute-force optimum.  A drawn crash after
layer ``k`` must resume from its checkpoint to the uninterrupted run in
every result map and every counter, and a checkpoint damaged as it was
written must refuse to resume.  The sweep refuses a node-tracking base;
replaying the winner's chain from one builds exactly ``mincost`` nodes.
Along a random chain, every ``compact()`` step must equal the
cell-at-a-time ``COMPACT`` oracle up to node-id renaming.  A stack of
unrelated parent tables compacted in one kernel call must equal the same
tables compacted one at a time, and the oracle.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._bitops import bits_of, subsets_of_size
from repro.analysis.counters import OperationCounters
from repro.core import (
    CheckpointStore,
    FaultInjector,
    FrontierPolicy,
    InjectedFault,
    ReductionRule,
    brute_force_optimal,
    brute_force_shared,
    compact,
    initial_state,
    initial_state_shared,
    run_fs,
    run_fs_shared,
    run_layered_sweep,
    sweep_fingerprint,
)
from repro.core import executor
from repro.core.checkpoint import fingerprint_hash, write_checked_json
from repro.core.compaction import cofactor_indices, compact_table
from repro.core.spec import FSState
from repro.errors import CheckpointError
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
    st.sampled_from([("serial", 1), ("thread", 1), ("thread", 2)]),
    # The chunk loop's batch cap in table cells: one subset per batch, a
    # few subsets, or the default (every n <= 6 layer in one batch).
    st.one_of(st.just(1), st.integers(2, 64),
              st.just(executor._BATCH_CELLS)),
    # A crash after layer k (clamped to n), optionally with the layer's
    # checkpoint damaged as it is written.
    st.one_of(st.none(), st.tuples(
        st.integers(1, 6),
        st.sampled_from([None, "truncate", "flip", "garbage"]),
    )),
)


def solve(tables, rule, policy, backend, jobs, **kwargs):
    kwargs.update(rule=rule, frontier=policy, backend=backend, jobs=jobs)
    if len(tables) == 1:
        return run_fs(tables[0], **kwargs)
    return run_fs_shared(tables, **kwargs)


def recompute(counters):
    return {key: value for key, value in counters.extra.items()
            if key.startswith("recompute_")}


def outcome(result):
    return (result.order, result.mincost, result.mincost_by_subset,
            result.best_last, result.level_cost_by_choice, result.counters)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems(), configs)
def test_chunk_loop_conforms(problem, config):
    tables, rule, chain = problem
    policy, (backend, jobs), batch_cells, crash = config
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "_BATCH_CELLS", batch_cells)
        got = solve(tables, rule, policy, backend, jobs)
        if crash is not None:
            layer, corruption = min(crash[0], tables[0].n), crash[1]
            with tempfile.TemporaryDirectory() as directory:
                injector = FaultInjector(
                    kill_after_layer=layer,
                    corrupt_layer=layer if corruption else None,
                    corruption=corruption or "truncate",
                )
                with pytest.raises(InjectedFault):
                    solve(tables, rule, policy, backend, jobs,
                          checkpoint_dir=directory, fault_injector=injector)
                if corruption:
                    with pytest.raises(CheckpointError):
                        solve(tables, rule, policy, backend, jobs,
                              checkpoint_dir=directory, resume=True)
                else:
                    resumed = solve(tables, rule, policy, backend, jobs,
                                    checkpoint_dir=directory, resume=True)
                    assert outcome(resumed) == outcome(got)

    reference = solve(tables, rule, FrontierPolicy.FULL, "serial", 1)
    assert (got.order, got.mincost) == (reference.order, reference.mincost)
    paper = {key: getattr(got.counters, key) for key in PAPER_COUNTERS}
    assert paper == {
        key: getattr(reference.counters, key) for key in PAPER_COUNTERS
    }
    same_policy = solve(tables, rule, policy, "serial", 1)
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
    with pytest.raises(ValueError, match="node structure"):
        run_layered_sweep(tracked, full, rule)
    for var in got.pi:
        tracked = compact(tracked, var, rule)
    assert len(tracked.nodes) == got.mincost

    for var in chain:
        counted, oracle_counted = OperationCounters(), OperationCounters()
        state = compact(state, var, rule, counted)
        oracle = compact_python(oracle, var, rule, oracle_counted)
        assert (state.mask, state.pi, state.mincost) == (
            oracle.mask, oracle.pi, oracle.mincost
        )
        assert canonical_cells(state, rule) == canonical_cells(oracle, rule)
        assert counted == oracle_counted


def test_earlier_checkpoint_formats_never_resume(tmp_path):
    """A layer file in the per-entry format that preceded the dense layer
    blob — its mincosts all wrong — ends in a cold start when it carries
    that format's fingerprint, and in :class:`CheckpointError` when it
    carries the current one; never in a wrong answer."""
    table = TruthTable.random(5, seed=3)
    clean = run_fs(table)
    full = (1 << 5) - 1
    current = sweep_fingerprint(initial_state(table), full, "bdd", 5, "full")
    earlier = {key: value for key, value in current.items()
               if key != "layer_format"}
    earlier.update(kernel="numpy", track_nodes=False)
    masks = list(subsets_of_size(full, 2))
    payload = {
        "layer": 2,
        "entries": [
            [mask, {"kind": "skeleton", "pi": bits_of(mask), "mincost": 0}]
            for mask in sorted(masks)
        ],
        "mincost_by_subset": sorted({0: 0, **dict.fromkeys(masks, 0)}.items()),
        "best_last": sorted((mask, bits_of(mask)[-1]) for mask in masks),
        "level_cost_by_choice": [],
        "subsets_processed": len(masks),
        "counter_delta": {},
    }
    for fingerprint in (earlier, current):
        directory = tmp_path / fingerprint_hash(fingerprint)
        path = CheckpointStore(str(directory), fingerprint).layer_path(2)
        write_checked_json(path, dict(payload, fingerprint=fingerprint))
    resumed = run_fs(table, checkpoint_dir=str(tmp_path / fingerprint_hash(
        earlier)), resume=True)
    assert outcome(resumed) == outcome(clean)
    with pytest.raises(CheckpointError):
        run_fs(table, checkpoint_dir=str(tmp_path / fingerprint_hash(
            current)), resume=True)


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
