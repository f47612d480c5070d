"""Generated conformance for the DP's one chunk loop.

Every backend, job count and batch size runs the same chunk loop over
the same compaction kernel, so one drawn configuration must reproduce
the serial ``jobs=1`` run exactly: order, mincost and the whole counter
snapshot; and the brute-force optimum.  A drawn crash after layer ``k``
must resume from its checkpoint to the uninterrupted run in every result
map and every counter, and a checkpoint damaged as it was written must
refuse to resume; one whose node ids were renumbered within every row
must resume to the same run, since only equality of cells matters.  The
sweep refuses a node-tracking base; replaying the winner's chain from
one builds exactly ``mincost`` nodes, the oracle's.  Along a random
chain, every ``compact()`` step must equal the cell-at-a-time
``COMPACT`` oracle bit for bit.  Unrelated parent tables compacted one
row per kernel call at the sweep's cell dtype, each at its own cofactor
position and with its node ids on either side of a key-width boundary,
must equal that oracle, keys included.  A malformed kernel call, of
either entry, must raise before it writes anything.
"""

import base64
import glob
import os
import shutil
import tempfile
from dataclasses import replace
from types import SimpleNamespace

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
from repro.core.checkpoint import (
    corrupt_checkpoint, fingerprint_hash, read_checked_json,
    write_checked_json,
)
from repro.core.compaction import compact_table, settle_batch
from repro.core.frontier import Layer
from repro.core.spec import FSState
from repro.errors import CheckpointError, OrderingError
from repro.truth_table import TruthTable
from tests.compact_oracle import compact_python

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
    replayed = tracked
    for var in got.pi:
        tracked = compact(tracked, var, rule)
        replayed = compact_python(replayed, var, rule)
    assert len(tracked.nodes) == got.mincost
    assert tracked.nodes == replayed.nodes

    for var in chain:
        counted, oracle_counted = OperationCounters(), OperationCounters()
        state = compact(state, var, rule, counted)
        oracle = compact_python(oracle, var, rule, oracle_counted)
        assert (state.mask, state.pi, state.mincost) == (
            oracle.mask, oracle.pi, oracle.mincost
        )
        assert np.array_equal(state.table, oracle.table)
        assert counted == oracle_counted


def test_earlier_checkpoint_formats_never_resume(tmp_path):
    """Layer files in formats the sweep no longer writes — their
    mincosts all wrong — end in a cold start when they carry their own
    fingerprint, and in :class:`CheckpointError` when they carry the
    current one; never in a wrong answer.  The formats: the per-entry
    one that preceded the dense layer blob, a dense layer without tables
    (``"dtype": null``) as a mincost-only layer wrote it, and layer
    format 2, a dense layer beside the whole accumulated DP maps.  Each
    writes layers 1 and 2."""
    table = TruthTable.random(5, seed=3)
    clean = run_fs(table)
    full = (1 << 5) - 1
    current = sweep_fingerprint(initial_state(table), full, "bdd", 5)
    assert fingerprint_hash(current) == "e96a014fbbe5"
    per_entry = {key: value for key, value in current.items()
                 if key != "layer_format"}
    per_entry.update(kernel="numpy", track_nodes=False)
    earlier_formats = (per_entry, dict(current, frontier="mincost"),
                       dict(current, layer_format=2))

    def payloads(k):
        """Layer ``k`` in each earlier format, every mincost 0."""
        masks = list(subsets_of_size(full, k))
        below = [mask for size in range(k + 1)
                 for mask in subsets_of_size(full, size)]
        common = {
            "layer": k,
            "mincost_by_subset": sorted(dict.fromkeys(below, 0).items()),
            "best_last": sorted((mask, bits_of(mask)[-1])
                                for mask in below if mask),
            "level_cost_by_choice": [],
            "subsets_processed": len(below) - 1,
            "counter_delta": {},
        }
        blob = np.array(masks, np.int64).tobytes() + bytes(8 * len(masks))
        cells = 1 << (5 - k)
        return (
            dict(common, entries=[
                [mask, {"kind": "skeleton", "pi": bits_of(mask),
                        "mincost": 0}]
                for mask in sorted(masks)
            ]),
            dict(common, frontier={
                "rows": len(masks), "cells": 0, "dtype": None,
                "blob": base64.b64encode(blob).decode("ascii"),
            }),
            dict(common, frontier={
                "rows": len(masks), "cells": cells, "dtype": "uint8",
                "blob": base64.b64encode(
                    blob + bytes(cells * len(masks))).decode("ascii"),
            }, level_cost_by_choice=[
                [[mask ^ 1 << var, var], 0]
                for mask in below for var in bits_of(mask)
            ]),
        )

    for index, earlier in enumerate(earlier_formats):
        for fingerprint in (earlier, current):
            directory = tmp_path / fingerprint_hash(fingerprint)
            shutil.rmtree(directory, ignore_errors=True)
            store = CheckpointStore(str(directory), fingerprint)
            for k in (1, 2):
                write_checked_json(store.layer_path(k), dict(
                    payloads(k)[index], fingerprint=fingerprint))
        resumed = run_fs(table, checkpoint_dir=str(
            tmp_path / fingerprint_hash(earlier)), resume=True)
        assert outcome(resumed) == outcome(clean)
        with pytest.raises(CheckpointError):
            run_fs(table, checkpoint_dir=str(tmp_path / fingerprint_hash(
                current)), resume=True)


@pytest.mark.parametrize("damage", ["delete", "truncate", "flip", "garbage"])
def test_damaged_earlier_layer_never_resumes(tmp_path, damage):
    """A resume from layer ``k`` reads layers ``1..k`` back, so deleting
    or damaging any layer file below the newest raises
    :class:`CheckpointError` naming that file: never a cold start, never
    a wrong answer."""
    table = TruthTable.random(5, seed=3)
    for k in range(1, 5):
        directory = str(tmp_path / f"k{k}")
        run_fs(table, checkpoint_dir=directory)
        (path,) = glob.glob(os.path.join(directory, f"*_layer_{k:04d}.json"))
        if damage == "delete":
            os.remove(path)
        else:
            corrupt_checkpoint(path, damage)
        with pytest.raises(CheckpointError) as excinfo:
            run_fs(table, checkpoint_dir=directory, resume=True)
        assert path in str(excinfo.value)


@pytest.mark.parametrize("rule", list(ReductionRule))
@pytest.mark.parametrize("roots", [1, 2])
def test_renumbered_checkpoint_resumes(tmp_path, rule, roots):
    """Numbering within a row is free: ``COMPACT`` compares cells only
    for equality, and a row's ids stay below its next id either way.  A
    layer checkpoint whose internal node ids are permuted within every
    row, terminals and CBDD complement bits kept (as a kernel numbering
    in another order would have written it), resumes to the clean run's
    outcome, for ``run_fs`` and ``run_fs_shared``."""
    top = 2 if rule is ReductionRule.MTBDD else 1
    rng = np.random.default_rng(7)
    tables = [TruthTable(6, rng.integers(0, top + 1, 64).tolist())
              for _ in range(roots)]
    clean = solve(tables, rule, "serial", 1)
    directory = str(tmp_path)
    with pytest.raises(InjectedFault):
        solve(tables, rule, "serial", 1, checkpoint_dir=directory,
              fault_injector=FaultInjector(kill_after_layer=3))
    (path,) = glob.glob(os.path.join(directory, "*_layer_0003.json"))
    payload = read_checked_json(path)
    frontier = payload["frontier"]
    rows, cells = frontier["rows"], frontier["cells"]
    raw = base64.b64decode(frontier["blob"])
    mincost = np.frombuffer(raw, np.int64, rows, 8 * rows)
    original = np.frombuffer(raw, np.dtype(frontier["dtype"]), rows * cells,
                             16 * rows).reshape(rows, cells)
    terminals = (initial_state(tables[0], rule).num_terminals if roots == 1
                 else initial_state_shared(tables, rule).num_terminals)
    edges = rule is ReductionRule.CBDD  # cells are ``id << 1 | bit``
    permuted = original.copy()
    for row, cost in zip(permuted, mincost.tolist()):
        ids = row >> 1 if edges else row.copy()
        internal = ids >= terminals
        # A permutation of the row's id range [terminals, next id).
        mapping = terminals + rng.permutation(cost)
        ids[internal] = mapping[ids[internal] - terminals]
        row[:] = (ids << 1) | (row & 1) if edges else ids
    assert not np.array_equal(permuted, original)
    frontier["blob"] = base64.b64encode(
        raw[:16 * rows] + permuted.tobytes()).decode("ascii")
    write_checked_json(path, payload)
    resumed = solve(tables, rule, "serial", 1, checkpoint_dir=directory,
                    resume=True)
    assert outcome(resumed) == outcome(clean)


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
    can hold.  At a cell width (``2^8``, ``2^16``) that puts the rows'
    ids just below or just above it, so its keys on either side of a
    key-width boundary; at half a cell width (``2^7``, ``2^15``) a row's
    ids straddle the top bit of its cells.  The rows are stored at the
    dtype :meth:`Layer.cell_dtype` picks for them, or at ``int64``
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


def test_kernel_rows_match_oracle():
    """Under every rule, unshifted, on each side of both cell-width
    boundaries and across half of each, a one-row kernel call at the
    rows' cell dtype compacts like the cell-at-a-time oracle, bit for
    bit: same table, node count and counters, and the oracle's new nodes
    as keys, in creation order.  (Stacks of rows are settled, and
    checked, by ``settle_batch`` in :func:`test_chunk_loop_conforms`.)"""
    for rule in ReductionRule:
        for boundary, shifts in ((0, None), (1 << 8, below), (1 << 8, above),
                                 (1 << 16, below), (1 << 16, above),
                                 (1 << 7, across), (1 << 15, across)):
            settings(max_examples=25, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])(
                given(stacks(rule, boundary, shifts))(check_stack))()


def check_stack(stack):
    rule, _, rows, dtype = stack
    shift = 8 * min(dtype.itemsize, 4)
    for state, var, position in rows:
        oracle = compact_python(replace(state, nodes={}), var, rule)
        width = state.table.shape[0] // 2
        table = np.empty(width, dtype)
        keys = np.empty(width, np.uint64)
        counted = OperationCounters()
        created = compact_table(state.table.astype(dtype), position,
                                state.next_id, rule, table, keys, counted)
        assert np.array_equal(table, oracle.table)
        assert created == oracle.mincost - state.mincost
        assert counted == OperationCounters(
            compactions=1, table_cells=width, nodes_created=created)
        assert {
            state.next_id + j: (var, key >> shift, key & ((1 << shift) - 1))
            for j, key in enumerate(keys[:created].tolist())
        } == oracle.nodes


def test_malformed_kernel_calls_raise():
    """A wrong dtype, a non-contiguous, read-only or 2-D array, a
    cofactor position or next id out of range, or an output or key array
    too short raises :class:`TypeError` or :class:`ValueError` and writes
    nothing: the output row and the guard cells around it keep their
    fill.  The same holds for the batch entry
    (:func:`check_malformed_batches`)."""
    parent = np.arange(8, dtype=np.uint16) % 5
    read_only = np.full(4, 99, np.uint16)
    read_only.flags.writeable = False

    def filled(shape, dtype=np.uint16):
        return np.full(shape, 99, dtype)

    cases = [
        dict(table=parent.astype(np.float64)),
        dict(table=parent.astype(np.int32)),
        dict(table=parent.astype(">u2")),
        dict(out=filled(4, np.uint8)),
        dict(table=np.arange(16, dtype=np.uint16)[::2]),
        dict(table=parent.reshape(2, 4)),
        dict(out=filled(8)[::2]),
        dict(out=read_only),
        dict(out=filled((1, 4))),
        dict(position=3),
        dict(position=-1),
        dict(position=np.array([2, 3])),
        dict(position=1.0),
        dict(next_id=-1),
        dict(out=filled(3)),
        dict(out=filled(5)),
        dict(keys=np.zeros(3, np.uint64)),
        dict(keys=np.zeros(4, np.float64)),
        dict(keys=np.zeros(4, "i4,i4")),
        dict(table=parent[:1].copy()),
        dict(table=parent[:6].copy(), out=filled(3)),
    ]
    for case in cases:
        backing = filled(6)
        call = dict(table=parent, position=2, next_id=5, out=backing[1:5],
                    keys=None)
        call.update(case)
        with pytest.raises((TypeError, ValueError)):
            compact_table(call["table"], call["position"], call["next_id"],
                          ReductionRule.BDD, call["out"], call["keys"])
        assert (backing == 99).all() and (call["out"] == 99).all(), case
    with pytest.raises(OverflowError):
        compact_table(parent, 2, 1 << 31, ReductionRule.BDD, filled(4))
    check_malformed_batches()


def check_malformed_batches():
    """The batch entry on a three-row layer 1 of three variables: wrong
    cell or index dtypes, non-contiguous or read-only outputs, outputs or
    level-cost arrays too short, previous-layer columns of unequal
    length, a predecessor row out of bounds, and successors whose
    positions or next ids fall outside the tables each raise before
    anything is written; so does a successor without a predecessor, as
    :class:`~repro.errors.OrderingError`."""
    tables = np.array([[2, 3, 2, 0], [1, 0, 3, 2], [0, 1, 1, 0]], np.uint16)
    outputs = ("tables", "mincost", "best_last", "level_masks",
               "level_vars", "level_created")

    def filled(shape, dtype=np.int64):
        return np.full(shape, 99, dtype)

    def read_only(array):
        array.flags.writeable = False
        return array

    def previous(**columns):
        layer = dict(tables=tables, sorted_masks=np.array([1, 2, 4]),
                     sorted_rows=np.array([0, 1, 2]),
                     mincost=np.array([1, 2, 1]))
        layer.update(columns)
        return SimpleNamespace(**layer)

    def call(case):
        """Runs ``case``; returns the arrays whose fill must survive a
        refused call: the default outputs' backing (guard entries
        around each) and the case's own outputs."""
        backing = [filled((5, 2), np.uint16), filled(5), filled(5),
                   filled((3, 8))]
        args = dict(
            previous=previous(), masks=np.array([3, 5, 6]),
            base=SimpleNamespace(mask=0, num_terminals=2),
            tables=backing[0][1:4], mincost=backing[1][1:4],
            best_last=backing[2][1:4], level_masks=backing[3][0, 1:7],
            level_vars=backing[3][1, 1:7], level_created=backing[3][2, 1:7],
        )
        args.update(case)
        try:
            settle_batch(
                args["previous"], args["masks"], args["base"],
                ReductionRule.BDD, tuple(args[name] for name in outputs[:3]),
                tuple(args[name] for name in outputs[3:]),
            )
        finally:
            untouched = backing + [case[name] for name in outputs
                                   if name in case]
            assert all((array == 99).all() for array in untouched), case

    with pytest.raises(AssertionError):  # a well-formed call writes
        call({})
    cases = [
        dict(previous=previous(tables=tables.astype(np.float64))),
        dict(previous=previous(tables=tables.astype(np.int32))),
        dict(previous=previous(tables=tables.astype(">u2"))),
        dict(tables=filled((3, 2), np.uint8)),
        dict(previous=previous(sorted_masks=np.array([1, 2, 4], np.int32))),
        dict(previous=previous(sorted_rows=np.array([0.0, 1.0, 2.0]))),
        dict(previous=previous(mincost=np.array([1, 2, 1], np.uint64))),
        dict(masks=np.array([3, 5, 6], np.int32)),
        dict(level_created=filled(6, np.int32)),
        dict(tables=filled((3, 4), np.uint16)[:, ::2]),
        dict(mincost=filled(6)[::2]),
        dict(best_last=filled(3)[::-1]),
        dict(level_vars=filled(12)[::2]),
        dict(tables=read_only(filled((3, 2), np.uint16))),
        dict(mincost=read_only(filled(3))),
        dict(level_masks=read_only(filled(6))),
        dict(tables=filled((2, 2), np.uint16)),
        dict(tables=filled((3, 3), np.uint16)),
        dict(mincost=filled(2)),
        dict(best_last=filled(2)),
        dict(level_masks=filled(5)),
        dict(level_vars=filled(5)),
        dict(level_created=filled(5)),
        dict(previous=previous(sorted_masks=np.array([1, 2]))),
        dict(previous=previous(sorted_rows=np.array([0, 1, 2, 2]))),
        dict(previous=previous(mincost=np.array([1, 2]))),
        dict(previous=previous(tables=tables[:2])),
        dict(previous=previous(sorted_rows=np.array([0, 1, 3]))),
        dict(previous=previous(sorted_rows=np.array([-1, 1, 2]))),
        dict(previous=previous(mincost=np.array([1, -3, 1]))),
        dict(masks=np.array([3, 5, -6])),
        dict(masks=np.array([3, 5, 9])),  # member 3 lies past the tables
        dict(base=SimpleNamespace(mask=-1, num_terminals=2)),
        dict(base=SimpleNamespace(mask=0, num_terminals=-2)),
    ]
    for case in cases:
        with pytest.raises((TypeError, ValueError)):
            call(case)
    with pytest.raises(OverflowError):
        call(dict(previous=previous(mincost=np.array([1, 1 << 31, 1]))))
    with pytest.raises(OrderingError, match="0x10"):
        call(dict(masks=np.array([3, 5, 16])))
