"""Generated conformance for the DP's one chunk loop.

Every backend, job count and batch size runs the same chunk loop over
the same compaction kernel, so one drawn configuration must reproduce
the serial ``jobs=1`` run exactly: order, mincost and the whole counter
snapshot; and the brute-force optimum.  A drawn crash after layer ``k`` must resume from
its checkpoint to the uninterrupted run in every result map and every
counter, and a checkpoint damaged as it was
written must refuse to resume.  The sweep refuses a node-tracking base;
replaying the winner's chain from one builds exactly ``mincost`` nodes.
Along a random chain, every ``compact()`` step must equal the
cell-at-a-time ``COMPACT`` oracle up to node-id renaming.  A stack of
unrelated parent tables compacted in one kernel call at the sweep's cell
dtype, each row at its own cofactor position and its node ids on either
side of a key-width boundary, must equal the numpy kernel the compiled
one replaced row by row, bit for bit, and the cell-at-a-time oracle.  A
malformed kernel call must raise before it writes anything.
"""

import base64
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro._bitops import bits_of, subsets_of_size
from repro.analysis.counters import OperationCounters
from repro.core import (
    CheckpointStore,
    FaultInjector,
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
from repro.core.executor import BACKENDS
from repro.core.checkpoint import fingerprint_hash, write_checked_json
from repro.core.compaction import compact_table
from repro.core.frontier import Layer
from repro.core.spec import FSState
from repro.errors import CheckpointError
from repro.truth_table import TruthTable
from tests.compact_oracle import (
    canonical_cells,
    cofactor_indices,
    compact_python,
    compact_table_numpy,
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
    st.sampled_from(sorted(BACKENDS)),
    st.sampled_from([1, 2, 4]),
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


def solve(tables, rule, backend, jobs, **kwargs):
    kwargs.update(rule=rule, backend=backend, jobs=jobs)
    if len(tables) == 1:
        return run_fs(tables[0], **kwargs)
    return run_fs_shared(tables, **kwargs)


def outcome(result):
    return (result.order, result.mincost, result.mincost_by_subset,
            result.best_last, result.level_cost_by_choice, result.counters)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems(), configs)
def test_chunk_loop_conforms(problem, config):
    tables, rule, chain = problem
    backend, jobs, batch_cells, crash = config
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "_BATCH_CELLS", batch_cells)
        got = solve(tables, rule, backend, jobs)
        if crash is not None:
            layer, corruption = min(crash[0], tables[0].n), crash[1]
            with tempfile.TemporaryDirectory() as directory:
                injector = FaultInjector(
                    kill_after_layer=layer,
                    corrupt_layer=layer if corruption else None,
                    corruption=corruption or "truncate",
                )
                with pytest.raises(InjectedFault):
                    solve(tables, rule, backend, jobs,
                          checkpoint_dir=directory, fault_injector=injector)
                if corruption:
                    with pytest.raises(CheckpointError):
                        solve(tables, rule, backend, jobs,
                              checkpoint_dir=directory, resume=True)
                else:
                    resumed = solve(tables, rule, backend, jobs,
                                    checkpoint_dir=directory, resume=True)
                    assert outcome(resumed) == outcome(got)

    reference = solve(tables, rule, "serial", 1)
    assert (got.order, got.mincost) == (reference.order, reference.mincost)
    assert got.counters.snapshot() == reference.counters.snapshot()

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
    """Layer files in formats the sweep no longer writes — their
    mincosts all wrong — end in a cold start when they carry their own
    fingerprint, and in :class:`CheckpointError` when they carry the
    current one; never in a wrong answer.  The formats: the per-entry
    one that preceded the dense layer blob, and a dense layer without
    tables (``"dtype": null``) as a mincost-only layer wrote it.  Full
    dense layers keep the fingerprint they had when both kinds could be
    written, so those still resume."""
    table = TruthTable.random(5, seed=3)
    clean = run_fs(table)
    full = (1 << 5) - 1
    current = sweep_fingerprint(initial_state(table), full, "bdd", 5)
    assert fingerprint_hash(current) == "a8b37b56febe"
    per_entry = {key: value for key, value in current.items()
                 if key != "layer_format"}
    per_entry.update(kernel="numpy", track_nodes=False)
    masks = list(subsets_of_size(full, 2))
    common = {
        "layer": 2,
        "mincost_by_subset": sorted({0: 0, **dict.fromkeys(masks, 0)}.items()),
        "best_last": sorted((mask, bits_of(mask)[-1]) for mask in masks),
        "level_cost_by_choice": [],
        "subsets_processed": len(masks),
        "counter_delta": {},
    }
    entries = dict(common, entries=[
        [mask, {"kind": "skeleton", "pi": bits_of(mask), "mincost": 0}]
        for mask in sorted(masks)
    ])
    blob = np.array(masks, np.int64).tobytes() + bytes(8 * len(masks))
    no_tables = dict(common, frontier={
        "rows": len(masks), "cells": 0, "dtype": None,
        "blob": base64.b64encode(blob).decode("ascii"),
    })
    for earlier, payload in ((per_entry, entries),
                             (dict(current, frontier="mincost"), no_tables)):
        for fingerprint in (earlier, current):
            directory = tmp_path / fingerprint_hash(fingerprint)
            shutil.rmtree(directory, ignore_errors=True)
            path = CheckpointStore(str(directory), fingerprint).layer_path(2)
            write_checked_json(path, dict(payload, fingerprint=fingerprint))
        resumed = run_fs(table, checkpoint_dir=str(
            tmp_path / fingerprint_hash(earlier)), resume=True)
        assert outcome(resumed) == outcome(clean)
        with pytest.raises(CheckpointError):
            run_fs(table, checkpoint_dir=str(tmp_path / fingerprint_hash(
                current)), resume=True)


def renamed(state, rule, offset):
    """``state`` with every internal node id, and so its ``next_id``,
    raised by ``offset``: the same state over ``offset`` more terminals."""
    table = state.table.copy()
    if rule is ReductionRule.CBDD:  # cells are edges ``id << 1 | bit``
        table[table >> 1 >= state.num_terminals] += offset << 1
    else:
        table[table >= state.num_terminals] += offset
    return FSState(
        n=state.n, mask=state.mask, pi=state.pi, mincost=state.mincost,
        table=table, num_terminals=state.num_terminals + offset,
        num_roots=state.num_roots,
    )


@st.composite
def stacks(draw, rule, boundary, shifts):
    """Unrelated parent states with ``placed`` variables placed, stored
    as the sweep stores them.

    Every row is a random function (1-3 roots) compacted along its own
    random chain of ``placed`` variables, so rows differ in placed set,
    table values and ``next_id``; each folds its own ``position``-th
    free variable next.  With a ``boundary``, one offset renames every row's
    internal node ids so the node-id bound :meth:`Layer.cell_dtype` uses
    ends up ``shifts(span)`` past it, ``span`` being how many ids a row
    can hold.  At a cell width (``2^8``, ``2^16``) that puts the stack's
    ids just below or just above it, so its keys on either side of a
    key-width boundary; at half a cell width (``2^7``, ``2^15``) a row's
    ids straddle the top bit of its cells.  The stack is stored at the
    dtype :meth:`Layer.cell_dtype` picks for its rows, or at ``int64``
    when no boundary is asked for.
    """
    n = draw(st.integers(1, 6))
    roots = draw(st.integers(1, 3))
    placed = draw(st.integers(0, n - 1))
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
        position = draw(st.integers(0, n - placed - 1))
        rows.append((state, bits_of(state.free_mask)[position], position))
    dtype = np.dtype(np.int64)
    if boundary:
        if rule is ReductionRule.CBDD:  # edges double the bound
            boundary >>= 1
        terminals = max(state.num_terminals for state, _, _ in rows)
        offset = boundary - terminals - (roots << n) + draw(shifts(roots << n))
        assume(offset >= 0)  # else the rows' ids cannot reach that side
        rows = [(renamed(state, rule, offset), var, position)
                for state, var, position in rows]
    if boundary or draw(st.booleans()):
        dtype = np.result_type(
            *(Layer.cell_dtype(state, rule) for state, _, _ in rows))
    return rule, placed, rows, dtype


def below(span):
    return st.integers(-3, -1)


def above(span):
    return st.integers(0, 3)


def across(span):
    return st.integers(1, span - 1)


def test_stacked_kernel_matches_single_rows():
    """Under every rule, unshifted, on each side of both cell-width
    boundaries and across half of each, a stack at its cell dtype, each
    row read by index and folding its own position, compacts like the
    numpy kernel row by row: same tables, node counts and counters; a
    one-row call at the cell dtype returns the numpy kernel's keys too;
    and each row matches the cell-at-a-time oracle."""
    for rule in ReductionRule:
        for boundary, shifts in ((0, None), (1 << 8, below), (1 << 8, above),
                                 (1 << 16, below), (1 << 16, above),
                                 (1 << 7, across), (1 << 15, across)):
            settings(max_examples=25, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])(
                given(stacks(rule, boundary, shifts))(check_stack))()


def check_stack(stack):
    rule, placed, rows, dtype = stack
    first = rows[0][0]
    stacked = np.stack([state.table for state, _, _ in rows]).astype(dtype)
    # Read the parent rows in reverse, so stack row r is parent row
    # `parents[r]`, not row r.
    parents = np.arange(len(rows))[::-1].copy()
    positions = np.array([rows[p][2] for p in parents])
    next_ids = np.array([rows[p][0].next_id for p in parents])
    width = stacked.shape[1] // 2
    out = np.empty((len(rows), width), dtype)
    counts = np.empty(len(rows), np.int64)
    counted = OperationCounters()
    created = compact_table(stacked, parents, positions, next_ids, rule, out,
                            counts, counters=counted)
    assert created == counts.sum()
    assert counted == OperationCounters(
        compactions=len(rows), table_cells=out.size, nodes_created=created)
    for r, p in enumerate(parents.tolist()):
        state, var, position = rows[p]
        idx0, idx1 = cofactor_indices(first.n, placed, first.num_roots,
                                      position)
        expected, expected_keys, expected_count = compact_table_numpy(
            stacked[p:p + 1], idx0, idx1, [state.next_id], rule)
        assert np.array_equal(out[r], expected[0])
        assert [counts[r]] == expected_count
        table = np.empty(width, dtype)
        keys = np.empty(width, np.uint64)
        single = compact_table(stacked[p], 0, position, state.next_id, rule,
                               table, keys=keys)
        assert np.array_equal(table, expected[0])
        assert keys[:single].tolist() == expected_keys.tolist()

        oracle = compact_python(state, var, rule)
        row_state = FSState(
            n=state.n, mask=oracle.mask, pi=oracle.pi,
            mincost=state.mincost + int(counts[r]), table=out[r],
            num_terminals=state.num_terminals, num_roots=state.num_roots,
        )
        assert row_state.mincost == oracle.mincost
        assert canonical_cells(row_state, rule) == canonical_cells(
            oracle, rule)


def test_malformed_kernel_calls_raise():
    """A wrong dtype, a non-contiguous or read-only array, a row or
    cofactor position out of range, or an output too short raises
    :class:`TypeError` or :class:`ValueError` and writes nothing: the
    output rows and the guard rows around them keep their fill."""
    parents = np.arange(32, dtype=np.uint16).reshape(4, 8) % 5
    read_only = np.full((2, 4), 99, np.uint16)
    read_only.flags.writeable = False

    def filled(shape, dtype=np.uint16):
        return np.full(shape, 99, dtype)

    cases = [
        dict(tables=parents.astype(np.float64)),
        dict(tables=parents.astype(np.int32)),
        dict(tables=parents.astype(">u2")),
        dict(out=filled((2, 4), np.uint8)),
        dict(rows=np.array([0, 3], np.int32)),
        dict(rows=np.array([0.0, 3.0])),
        dict(tables=parents[:, ::2]),
        dict(tables=parents.T),
        dict(out=filled((2, 8))[:, ::2]),
        dict(out=read_only),
        dict(rows=np.array([0, 4])),
        dict(rows=np.array([-1, 0])),
        dict(rows=np.array([0, 1, 2])),
        dict(positions=3),
        dict(positions=-1),
        dict(positions=np.array([2, 3])),
        dict(next_ids=-1),
        dict(out=filled((1, 4))),
        dict(out=filled((2, 3))),
        dict(out=filled(4)),
        dict(counts=np.zeros(1, np.int64)),
        dict(counts=np.zeros(2, np.int32)),
        dict(keys=np.zeros(8, np.uint64)),
        dict(rows=0, out=filled(4), keys=np.zeros(3, np.uint64)),
        dict(rows=0, out=filled(4), keys=np.zeros(4, np.float64)),
        dict(rows=0, out=filled(4), keys=np.zeros(4, "i4,i4")),
        dict(tables=parents[:, :1].copy()),
        dict(tables=parents[:, :6].copy(), out=filled((2, 3))),
    ]
    for case in cases:
        backing = filled((4, 4))
        call = dict(tables=parents, rows=np.array([0, 3]), positions=2,
                    next_ids=5, out=backing[1:3], counts=None, keys=None)
        call.update(case)
        with pytest.raises((TypeError, ValueError)):
            compact_table(call["tables"], call["rows"], call["positions"],
                          call["next_ids"], ReductionRule.BDD, call["out"],
                          call["counts"], call["keys"])
        assert (backing == 99).all() and (call["out"] == 99).all(), case
    with pytest.raises(OverflowError):
        compact_table(parents, 0, 2, 1 << 31, ReductionRule.BDD,
                      filled(4))
