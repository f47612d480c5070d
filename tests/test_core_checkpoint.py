"""Crash-safety tests: checkpoint/resume, fault injection, corruption.

The contract under test (ISSUE acceptance criteria): for every DP entry
point that runs on the shared execution engine, a run fault-injected to
die after any layer ``k`` and then resumed from its checkpoint directory
is *bit-identical* to an uninterrupted run — in results and in
:class:`~repro.analysis.counters.OperationCounters` — for jobs=1 and
jobs=4.  And a damaged or mismatched
checkpoint must raise :class:`~repro.errors.CheckpointError` naming the
offending file, never resume silently.
"""

import base64
import json
import shutil

import numpy as np
import pytest

from repro._bitops import bits_of, subsets_of_size
from repro.analysis.counters import OperationCounters
from repro.core import (
    CheckpointStore,
    EngineConfig,
    FaultInjector,
    InjectedFault,
    corrupt_checkpoint,
    fs_star_levels,
    initial_state,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
    sweep_fingerprint,
    window_sweep,
)
from repro.core.checkpoint import write_checked_json
from repro.core.compaction import compact
from repro.core.spec import ReductionRule
from repro.errors import CheckpointError
from repro.observability import Profiler
from repro.truth_table import TruthTable

# The jobs axis: one chunk per layer, and several.
MATRIX = [1, 4]


def assert_same_result(resumed, clean):
    assert resumed.order == clean.order
    assert resumed.pi == clean.pi
    assert resumed.mincost == clean.mincost
    assert resumed.counters == clean.counters


# ----------------------------------------------------------------------
# the five entry points, interrupted after every layer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", MATRIX)
class TestCrashResumeMatrix:
    def test_run_fs(self, tmp_path, jobs):
        table = TruthTable.random(5, seed=11)
        clean = run_fs(table, counters=OperationCounters(), jobs=jobs)
        for k in range(1, 6):
            ckpt = str(tmp_path / f"k{k}")
            with pytest.raises(InjectedFault):
                run_fs(table, counters=OperationCounters(), jobs=jobs,
                       checkpoint_dir=ckpt,
                       fault_injector=FaultInjector(kill_after_layer=k))
            resumed = run_fs(table, counters=OperationCounters(), jobs=jobs,
                             checkpoint_dir=ckpt, resume=True)
            assert_same_result(resumed, clean)

    def test_run_fs_shared(self, tmp_path, jobs):
        tables = [TruthTable.random(4, seed=s) for s in (0, 1)]
        clean = run_fs_shared(tables, counters=OperationCounters(),
                              jobs=jobs)
        for k in range(1, 5):
            ckpt = str(tmp_path / f"k{k}")
            with pytest.raises(InjectedFault):
                run_fs_shared(tables, counters=OperationCounters(),
                              jobs=jobs, checkpoint_dir=ckpt,
                              fault_injector=FaultInjector(kill_after_layer=k))
            resumed = run_fs_shared(tables, counters=OperationCounters(),
                                    jobs=jobs, checkpoint_dir=ckpt,
                                    resume=True)
            assert_same_result(resumed, clean)

    def test_run_fs_constrained(self, tmp_path, jobs):
        table = TruthTable.random(5, seed=3)
        precedence = [(0, 1), (2, 3)]
        clean = run_fs_constrained(table, precedence,
                                   counters=OperationCounters(),
                                   jobs=jobs)
        for k in range(1, 6):
            ckpt = str(tmp_path / f"k{k}")
            with pytest.raises(InjectedFault):
                run_fs_constrained(table, precedence,
                                   counters=OperationCounters(),
                                   jobs=jobs, checkpoint_dir=ckpt,
                                   fault_injector=FaultInjector(
                                       kill_after_layer=k))
            resumed = run_fs_constrained(table, precedence,
                                         counters=OperationCounters(),
                                         jobs=jobs, checkpoint_dir=ckpt,
                                         resume=True)
            assert_same_result(resumed, clean)
            assert resumed.feasible_subsets == clean.feasible_subsets

    def test_fs_star(self, tmp_path, jobs):
        # An FS* sweep from a non-trivial base: one variable pre-placed.
        table = TruthTable.random(5, seed=9)
        rule = ReductionRule.BDD

        def base_state():
            return compact(initial_state(table, rule), 0, rule,
                           OperationCounters())

        j_mask = 0b11110
        clean_counters = OperationCounters()
        clean = fs_star_levels(
            base_state(), j_mask, counters=clean_counters,
            config=EngineConfig(jobs=jobs),
        )[j_mask]
        for k in range(1, 5):
            ckpt = str(tmp_path / f"k{k}")
            with pytest.raises(InjectedFault):
                fs_star_levels(
                    base_state(), j_mask, counters=OperationCounters(),
                    config=EngineConfig(
                        jobs=jobs, checkpoint_dir=ckpt,
                        fault_injector=FaultInjector(kill_after_layer=k)),
                )
            resumed_counters = OperationCounters()
            resumed = fs_star_levels(
                base_state(), j_mask, counters=resumed_counters,
                config=EngineConfig(jobs=jobs, checkpoint_dir=ckpt,
                                    resume=True),
            )[j_mask]
            assert resumed.pi == clean.pi
            assert resumed.mincost == clean.mincost
            assert resumed.table.tobytes() == clean.table.tobytes()
            assert resumed_counters == clean_counters

    def test_window_sweep(self, tmp_path, jobs):
        # The window optimizer chains many FS* solves through one
        # directory; kill after every single checkpoint commit across
        # the whole multi-solve run and resume each time.
        table = TruthTable.random(4, seed=6)
        clean = window_sweep(table, width=3, counters=OperationCounters(),
                             config=EngineConfig(jobs=jobs))
        probe = FaultInjector()
        window_sweep(table, width=3, counters=OperationCounters(),
                     config=EngineConfig(jobs=jobs,
                                         checkpoint_dir=str(tmp_path / "p"),
                                         fault_injector=probe))
        assert probe.commits_seen > 3  # several solves' worth of layers
        for writes in range(1, probe.commits_seen + 1):
            ckpt = str(tmp_path / f"w{writes}")
            with pytest.raises(InjectedFault):
                window_sweep(table, width=3, counters=OperationCounters(),
                             config=EngineConfig(
                                 jobs=jobs, checkpoint_dir=ckpt,
                                 fault_injector=FaultInjector(
                                     kill_after_writes=writes)))
            resumed = window_sweep(table, width=3,
                                   counters=OperationCounters(),
                                   config=EngineConfig(jobs=jobs,
                                                       checkpoint_dir=ckpt,
                                                       resume=True))
            assert resumed.order == clean.order
            assert resumed.size == clean.size
            assert resumed.windows_solved == clean.windows_solved
            assert resumed.counters == clean.counters


# ----------------------------------------------------------------------
# resume semantics
# ----------------------------------------------------------------------

class TestResumeSemantics:
    def test_resume_with_no_checkpoints_is_a_cold_start(self, tmp_path):
        table = TruthTable.random(4, seed=2)
        clean = run_fs(table, counters=OperationCounters())
        resumed = run_fs(table, counters=OperationCounters(),
                         checkpoint_dir=str(tmp_path), resume=True)
        assert_same_result(resumed, clean)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_fs(TruthTable.random(3, seed=0), resume=True)

    def test_resume_after_completion_skips_all_layers(self, tmp_path):
        table = TruthTable.random(4, seed=2)
        ckpt = str(tmp_path)
        clean = run_fs(table, counters=OperationCounters(),
                       checkpoint_dir=ckpt)
        profiler = Profiler()
        resumed = run_fs(table, counters=OperationCounters(),
                         checkpoint_dir=ckpt, resume=True,
                         profiler=profiler)
        assert_same_result(resumed, clean)
        # The final layer's checkpoint restores the whole sweep: no DP
        # layer executes again.
        assert profiler.layers == []
        assert "checkpoint_load" in profiler.phases

    def test_checkpoint_write_and_load_are_profiled(self, tmp_path):
        table = TruthTable.random(4, seed=5)
        ckpt = str(tmp_path)
        writer = Profiler()
        with pytest.raises(InjectedFault):
            run_fs(table, profiler=writer, checkpoint_dir=ckpt,
                   fault_injector=FaultInjector(kill_after_layer=2))
        assert writer.phases["checkpoint_write"] >= 0.0
        loader = Profiler()
        run_fs(table, profiler=loader, checkpoint_dir=ckpt, resume=True)
        assert loader.phases["checkpoint_load"] >= 0.0
        assert loader.phases["checkpoint_write"] >= 0.0

    def test_different_constraints_never_cross_resume(self, tmp_path):
        # Two constrained runs share a directory; the precedence closure
        # is folded into the fingerprint, so B's resume must cold-start
        # rather than pick up A's (incompatible) layers.
        table = TruthTable.random(5, seed=3)
        ckpt = str(tmp_path)
        run_fs_constrained(table, [(0, 1), (2, 3)], checkpoint_dir=ckpt)
        clean_b = run_fs_constrained(table, [(4, 0)],
                                     counters=OperationCounters())
        resumed_b = run_fs_constrained(table, [(4, 0)],
                                       counters=OperationCounters(),
                                       checkpoint_dir=ckpt, resume=True)
        assert_same_result(resumed_b, clean_b)
        assert resumed_b.feasible_subsets == clean_b.feasible_subsets

    def test_frontier_policies_do_not_cross_resume(self, tmp_path):
        # A full-layer run may not resume from a mincost-only layer file
        # (no tables to extend; its mincosts are wrong here) found in a
        # shared directory; the fingerprint's "frontier" key keeps them
        # apart, so the resume cold-starts.
        table = TruthTable.random(4, seed=8)
        ckpt = str(tmp_path)
        full = sweep_fingerprint(initial_state(table), 0b1111, "bdd", 4)
        mincost_only = dict(full, frontier="mincost")
        masks = list(subsets_of_size(0b1111, 2))
        blob = np.array(masks, np.int64).tobytes() + bytes(8 * len(masks))
        path = CheckpointStore(ckpt, mincost_only).layer_path(2)
        write_checked_json(path, {
            "fingerprint": mincost_only,
            "layer": 2,
            "mincost_by_subset": sorted(
                {0: 0, **dict.fromkeys(masks, 0)}.items()),
            "best_last": sorted((mask, bits_of(mask)[-1]) for mask in masks),
            "level_cost_by_choice": [],
            "subsets_processed": len(masks),
            "counter_delta": {},
            "frontier": {"rows": len(masks), "cells": 0, "dtype": None,
                         "blob": base64.b64encode(blob).decode("ascii")},
        })
        clean = run_fs(table, counters=OperationCounters())
        profiler = Profiler()
        resumed = run_fs(table, counters=OperationCounters(),
                         checkpoint_dir=ckpt, resume=True, profiler=profiler)
        assert_same_result(resumed, clean)
        assert len(profiler.layers) == 4


# ----------------------------------------------------------------------
# corruption: every damage mode raises, naming the file
# ----------------------------------------------------------------------

def _checkpointed_run(tmp_path, n=4, seed=7):
    table = TruthTable.random(n, seed=seed)
    directory = tmp_path / "ckpt"
    run_fs(table, checkpoint_dir=str(directory))
    files = sorted(directory.glob("ckpt_*_layer_*.json"))
    assert len(files) == n
    return table, directory, files


class TestCorruption:
    def test_truncated_file(self, tmp_path):
        table, directory, files = _checkpointed_run(tmp_path)
        newest = str(files[-1])
        corrupt_checkpoint(newest, "truncate")
        with pytest.raises(CheckpointError) as excinfo:
            run_fs(table, checkpoint_dir=str(directory), resume=True)
        assert newest in str(excinfo.value)

    def test_garbage_file(self, tmp_path):
        table, directory, files = _checkpointed_run(tmp_path)
        newest = str(files[-1])
        corrupt_checkpoint(newest, "garbage")
        with pytest.raises(CheckpointError, match="JSON") as excinfo:
            run_fs(table, checkpoint_dir=str(directory), resume=True)
        assert newest in str(excinfo.value)

    def test_checksum_mismatch(self, tmp_path):
        # Surgical bit rot: the JSON still parses, the payload changed,
        # the stored checksum no longer matches.
        table, directory, files = _checkpointed_run(tmp_path)
        newest = str(files[-1])
        document = json.loads(files[-1].read_text())
        document["payload"]["subsets_processed"] += 1
        files[-1].write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="checksum") as excinfo:
            run_fs(table, checkpoint_dir=str(directory), resume=True)
        assert newest in str(excinfo.value)

    def test_flipped_byte(self, tmp_path):
        table, directory, files = _checkpointed_run(tmp_path)
        newest = str(files[-1])
        corrupt_checkpoint(newest, "flip")
        with pytest.raises(CheckpointError) as excinfo:
            run_fs(table, checkpoint_dir=str(directory), resume=True)
        assert newest in str(excinfo.value)

    def test_injector_can_corrupt_the_layer_it_kills(self, tmp_path):
        table = TruthTable.random(4, seed=7)
        directory = str(tmp_path)
        with pytest.raises(InjectedFault):
            run_fs(table, checkpoint_dir=directory,
                   fault_injector=FaultInjector(kill_after_layer=2,
                                                corrupt_layer=2,
                                                corruption="truncate"))
        with pytest.raises(CheckpointError):
            run_fs(table, checkpoint_dir=directory, resume=True)

    def test_corrupt_checkpoint_rejects_unknown_mode(self, tmp_path):
        _, _, files = _checkpointed_run(tmp_path)
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_checkpoint(str(files[-1]), "meteor")


class TestFingerprintMismatch:
    """A file forced under the wrong fingerprint name must be rejected
    with the differing configuration keys spelled out."""

    @staticmethod
    def _store(table, rule="bdd", directory="."):
        base = initial_state(table, ReductionRule(rule))
        full = (1 << table.n) - 1
        return CheckpointStore(
            str(directory),
            sweep_fingerprint(base, full, rule, table.n),
        )

    def test_different_rule(self, tmp_path):
        table, directory, files = _checkpointed_run(tmp_path)
        zdd_store = self._store(table, rule="zdd", directory=directory)
        target = zdd_store.layer_path(table.n)
        shutil.copy(str(files[-1]), target)
        with pytest.raises(CheckpointError) as excinfo:
            zdd_store.load_file(target)
        message = str(excinfo.value)
        assert target in message
        assert "rule" in message

    def test_different_n(self, tmp_path):
        table, directory, files = _checkpointed_run(tmp_path)
        bigger = TruthTable.random(5, seed=7)
        big_store = self._store(bigger, directory=directory)
        target = big_store.layer_path(4)
        shutil.copy(str(files[-1]), target)
        with pytest.raises(CheckpointError) as excinfo:
            big_store.load_file(target)
        message = str(excinfo.value)
        assert target in message
        assert "universe_mask" in message


# ----------------------------------------------------------------------
# store round-trip details
# ----------------------------------------------------------------------

class TestStoreRoundTrip:
    def test_files_are_scoped_by_fingerprint(self, tmp_path):
        # Two different functions checkpoint into one directory without
        # interfering; each resume sees only its own files.
        a = TruthTable.random(4, seed=1)
        b = TruthTable.random(4, seed=2)
        directory = str(tmp_path)
        run_fs(a, checkpoint_dir=directory)
        run_fs(b, checkpoint_dir=directory)
        assert len(list(tmp_path.glob("ckpt_*_layer_*.json"))) == 8
        for table in (a, b):
            clean = run_fs(table, counters=OperationCounters())
            resumed = run_fs(table, counters=OperationCounters(),
                             checkpoint_dir=directory, resume=True)
            assert_same_result(resumed, clean)

    def test_layers_on_disk_and_load_latest(self, tmp_path):
        table, directory, files = _checkpointed_run(tmp_path)
        store = TestFingerprintMismatch._store(table, directory=directory)
        assert store.layers_on_disk() == [1, 2, 3, 4]
        restored = store.load_latest(upto=4)
        assert restored.layer == 4
        assert restored.path == store.layer_path(4)
        # upto caps which layers are considered (shorter sweeps ignore
        # deeper files).
        assert store.load_latest(upto=2).layer == 2
        assert store.load_latest(upto=0) is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        _, directory, _ = _checkpointed_run(tmp_path)
        assert list(directory.glob("*.tmp")) == []
