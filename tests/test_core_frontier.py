"""Tests for the pluggable frontier stores (:mod:`repro.core.frontier`).

The store contract: a frontier store changes *where the retained layer's
bytes live*, never what the sweep computes.  ``DictFrontier`` (the
historical dict of entries) and ``PackedFrontier`` (bit-packed columns)
must produce bit-identical results AND operation counters across every
``backend x jobs x FrontierPolicy`` cell; checkpoints written
under either store must resume under the other; and the packed store's
byte accounting must be exact — deterministic enough for the budget's
frontier cap to abort at the same layer under every backend.

Process-backed tests share one module-scoped ``ProcessBackend`` so the
interpreter-spawn cost is paid once, not per test.
"""

import numpy as np
import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    Budget,
    DictFrontier,
    EngineConfig,
    FaultInjector,
    FrontierStore,
    InjectedFault,
    PackedFrontier,
    ProcessBackend,
    available_frontier_stores,
    create_frontier_store,
    get_frontier_store,
    register_frontier_store,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
)
from repro.core import frontier as frontier_module
from repro.core.checkpoint import Skeleton
from repro.core.frontier import (
    BaseOverlay,
    _decode_cells,
    _encode_cells,
    _row_bytes,
)
from repro.core.spec import FSState
from repro.errors import BudgetExceeded
from repro.observability import STATE_OVERHEAD_BYTES, frontier_nbytes
from repro.truth_table import TruthTable


def paper_counters(counters):
    """Counter snapshot minus the process backend's transport tallies."""
    snap = counters.snapshot()
    snap.pop("tasks_shipped", None)
    snap.pop("bytes_shipped", None)
    return snap


@pytest.fixture(scope="module")
def process_pool():
    """One spawned pool for the whole module (spawn cost is seconds)."""
    backend = ProcessBackend(jobs=4)
    yield backend
    backend.close()


def make_state(mask, pi, mincost, table, num_terminals=2, num_roots=1,
               nodes=None):
    """An FSState with ``n`` derived so the table shape validates."""
    table = np.asarray(table, dtype=np.int64)
    n = int(mask).bit_count() + (len(table) // num_roots).bit_length() - 1
    return FSState(n=n, mask=mask, pi=pi, mincost=mincost, table=table,
                   num_terminals=num_terminals, nodes=nodes,
                   num_roots=num_roots)


# ----------------------------------------------------------------------
# registry + config plumbing
# ----------------------------------------------------------------------

class TestStoreRegistry:
    def test_builtins_registered(self):
        assert available_frontier_stores() == ["dict", "packed"]
        assert get_frontier_store("dict") is DictFrontier
        assert get_frontier_store("packed") is PackedFrontier

    def test_unknown_store_raises_with_choices(self):
        with pytest.raises(ValueError, match="packed"):
            get_frontier_store("gpu")
        with pytest.raises(ValueError):
            run_fs(TruthTable.random(2, seed=0), frontier_store="gpu")

    def test_config_validates_store(self):
        with pytest.raises(ValueError):
            EngineConfig(frontier_store="nope")
        with pytest.raises(ValueError):
            EngineConfig(frontier_store=42)
        assert EngineConfig(frontier_store="packed").frontier_store == "packed"
        assert (
            EngineConfig(frontier_store=PackedFrontier).frontier_store
            is PackedFrontier
        )

    def test_custom_store_registrable(self):
        @register_frontier_store("counting")
        class CountingFrontier(DictFrontier):
            name = "counting"
            puts = 0

            def put(self, mask, entry):
                type(self).puts += 1
                super().put(mask, entry)

        try:
            tt = TruthTable.random(4, seed=4)
            result = run_fs(tt, frontier_store="counting")
            assert result.mincost == run_fs(tt, frontier_store="dict").mincost
            assert CountingFrontier.puts > 0
            assert isinstance(
                create_frontier_store("counting"), CountingFrontier
            )
        finally:
            del frontier_module._STORES["counting"]

    def test_create_from_class(self):
        assert isinstance(create_frontier_store(PackedFrontier),
                          PackedFrontier)
        with pytest.raises(ValueError):
            create_frontier_store(object)


# ----------------------------------------------------------------------
# store round-trip semantics
# ----------------------------------------------------------------------

class TestPackedRoundTrip:
    def test_full_states_reconstruct_exactly(self):
        store = PackedFrontier()
        s1 = make_state(0b0001, (0,), 3, [0, 1, 2, 3, 4, 5, 6, 7])
        s2 = make_state(0b0010, (1,), 2, [7, 6, 5, 4, 3, 2, 1, 0])
        store.put(0b0001, s1)
        store.put(0b0010, s2)
        assert len(store) == 2
        assert 0b0001 in store and 0b0100 not in store
        assert store.masks() == [0b0001, 0b0010]
        assert store.min_mincost() == 2
        got = store.get(0b0001)
        assert isinstance(got, FSState)
        assert (got.n, got.mask, got.pi, got.mincost) == (4, 0b0001, (0,), 3)
        assert got.num_terminals == 2 and got.num_roots == 1
        np.testing.assert_array_equal(got.table, s1.table)
        np.testing.assert_array_equal(store.get(0b0010).table, s2.table)
        assert store.get(0b1000) is None

    def test_skeletons_reconstruct_exactly(self):
        store = PackedFrontier()
        store.put(0b011, Skeleton(pi=(0, 1), mincost=5))
        store.put(0b101, Skeleton(pi=(2, 0), mincost=4))
        assert store.get(0b011) == Skeleton(pi=(0, 1), mincost=5)
        assert store.get(0b101) == Skeleton(pi=(2, 0), mincost=4)
        assert store.min_mincost() == 4

    def test_insertion_order_survives_entry_dict(self):
        store = PackedFrontier()
        masks = [0b100, 0b001, 0b010]
        for m in masks:
            store.put(m, make_state(m, (m.bit_length() - 1,), 1, [0, 1]))
        assert list(store.to_entry_dict()) == masks
        assert [m for m, _ in store.items()] == masks

    def test_width_is_insertion_order_independent(self):
        # The packed width must converge on bit_length(layer max) no
        # matter the arrival order — that is what makes nbytes() (and so
        # budget aborts) deterministic across backends and job counts.
        wide = make_state(0b01, (0,), 1, [0, 1000, 2, 3])
        narrow = make_state(0b10, (1,), 1, [0, 1, 2, 3])
        a = PackedFrontier()
        a.put(0b01, wide)
        a.put(0b10, narrow)
        b = PackedFrontier()
        b.put(0b10, narrow)
        b.put(0b01, wide)
        assert a._bits == b._bits == 10
        assert a.nbytes() == b.nbytes()
        np.testing.assert_array_equal(a.get(0b10).table, narrow.table)
        np.testing.assert_array_equal(b.get(0b01).table, wide.table)

    def test_layer_homogeneity_enforced(self):
        store = PackedFrontier()
        store.put(0b01, make_state(0b01, (0,), 1, [0, 1, 2, 3]))
        with pytest.raises(ValueError, match="homogeneous"):
            store.put(0b10, make_state(0b10, (1,), 1, [0, 1]))

    def test_n_over_255_rejected(self):
        # FSState validation forbids building a (2^299)-cell table, so
        # exercise the guard at the metadata-adoption seam directly.
        store = PackedFrontier()
        with pytest.raises(ValueError, match="255"):
            store._adopt_meta("full", 300, 2, 1, 0, 1, 4)

    def test_node_tracking_side_list(self):
        store = PackedFrontier()
        nodes = {2: (0, 1, 0)}
        store.put(0b1, make_state(0b1, (0,), 1, [0, 1, 2, 2], nodes=nodes))
        assert store.get(0b1).nodes == nodes
        assert store.ship_slice([0b1]) is None
        assert store.checkpoint_payload() is None

    def test_ship_slice_and_absorb_round_trip(self):
        src = PackedFrontier()
        states = {}
        for m in (0b001, 0b010, 0b100):
            states[m] = make_state(m, (m.bit_length() - 1,), m, [m, 0, 5, 1])
            src.put(m, states[m])
        blob = src.ship_slice([0b100, 0b001])
        assert blob.count == 2
        assert blob.nbytes == (len(blob.masks) + len(blob.mincosts)
                               + len(blob.pis) + len(blob.tables))
        dst = PackedFrontier()
        dst.absorb({}, blob)
        assert dst.masks() == [0b100, 0b001]
        for m in (0b100, 0b001):
            np.testing.assert_array_equal(dst.get(m).table, states[m].table)
        # Absorbing a narrower slice into a wider store re-encodes it.
        dst.put(0b010, make_state(0b010, (1,), 9, [0, 70000, 0, 0]))
        np.testing.assert_array_equal(dst.get(0b001).table, states[0b001].table)

    def test_base_overlay_joins_base_and_slice(self):
        base = make_state(0, (), 0, list(range(64)))
        inner = PackedFrontier()
        inner.put(0b1, make_state(0b1, (0,), 1, list(range(32))))
        view = BaseOverlay(base, inner)
        assert view.get(0) is base
        np.testing.assert_array_equal(view.get(0b1).table, np.arange(32))
        assert view.get(0b10) is None


class TestCodec:
    @pytest.mark.parametrize("bits", [1, 7, 8, 9, 16, 33])
    def test_encode_decode_exact(self, bits):
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 1 << bits, size=37, dtype=np.int64)
        blob = _encode_cells(values, bits)
        assert len(blob) == _row_bytes(37, bits)
        np.testing.assert_array_equal(
            _decode_cells(blob, bits, 37), values
        )


# ----------------------------------------------------------------------
# byte accounting
# ----------------------------------------------------------------------

class TestByteAccounting:
    def test_packed_nbytes_is_exact(self):
        store = PackedFrontier()
        # Four 8-cell tables whose max value is 300 -> 9 bits per cell,
        # ceil(8 * 9 / 8) = 9 table bytes per entry; masks and mincosts
        # are 8 bytes each and the chain is one byte per placed variable.
        for m in (0b0011, 0b0101, 0b0110, 0b1010):
            store.put(m, make_state(m, tuple(range(2)), 1,
                                    [300, 0, 1, 2, 3, 4, 5, 6]))
        expected = 4 * (8 + 8 + 2 + 9)
        assert store.nbytes() == expected
        # frontier_nbytes delegates to the store's exact figure.
        assert frontier_nbytes(store) == expected

    def test_dict_nbytes_is_documented_estimate(self):
        entries = {
            0b01: make_state(0b01, (0,), 1, [0, 1, 2, 3]),
            0b10: make_state(0b10, (1,), 1, [3, 2, 1, 0]),
        }
        store = DictFrontier()
        store.extend(entries)
        expected = sum(
            e.table.nbytes + STATE_OVERHEAD_BYTES for e in entries.values()
        )
        assert store.nbytes() == expected
        assert frontier_nbytes(store) == expected
        assert frontier_nbytes(entries) == expected

    def test_packed_beats_dict_several_fold_in_a_real_sweep(self):
        from repro.observability import Profiler

        table = TruthTable.random(10, seed=5)
        peaks = {}
        for store in ("dict", "packed"):
            profiler = Profiler()
            run_fs(table, frontier_store=store, profiler=profiler)
            peaks[store] = profiler.peak_frontier_bytes
        assert peaks["packed"] * 2 <= peaks["dict"]

    def test_budget_abort_layer_is_backend_independent(self, process_pool):
        table = TruthTable.random(7, seed=3)
        aborts = []
        for backend, jobs in (("serial", 1), ("thread", 4),
                              (process_pool, 4)):
            with pytest.raises(BudgetExceeded) as info:
                run_fs(table, backend=backend, jobs=jobs,
                       frontier_store="packed",
                       budget=Budget(max_frontier_bytes=600))
            aborts.append(
                (info.value.reason, info.value.layers_completed,
                 info.value.where)
            )
        assert aborts[0][0] == "frontier_bytes"
        assert aborts.count(aborts[0]) == len(aborts)


# ----------------------------------------------------------------------
# bit-identical parity matrix: store x backend x jobs x policy
# ----------------------------------------------------------------------

class TestParityMatrix:
    TABLE = TruthTable.random(6, seed=13)

    _REFERENCES = {}

    @classmethod
    def reference(cls, frontier):
        """Dict-store serial jobs=1 baseline, per frontier policy."""
        if frontier not in cls._REFERENCES:
            counters = OperationCounters()
            result = run_fs(cls.TABLE, frontier=frontier, counters=counters,
                            frontier_store="dict", backend="serial", jobs=1)
            cls._REFERENCES[frontier] = (
                result.order, result.mincost, paper_counters(counters)
            )
        return cls._REFERENCES[frontier]

    @pytest.mark.parametrize("frontier", ["full", "mincost"])
    @pytest.mark.parametrize("spec", [
        ("serial", 1), ("thread", 1), ("thread", 4), ("process", 4),
    ], ids=lambda s: f"{s[0]}-j{s[1]}")
    def test_packed_matches_dict_reference(self, spec, frontier,
                                           process_pool):
        backend, jobs = spec
        if backend == "process":
            backend = process_pool
        counters = OperationCounters()
        result = run_fs(self.TABLE, frontier=frontier, counters=counters,
                        frontier_store="packed", backend=backend, jobs=jobs)
        order, mincost, snap = self.reference(frontier)
        assert result.order == order
        assert result.mincost == mincost
        assert paper_counters(counters) == snap

    def test_shared_and_constrained_parity(self):
        tables = [TruthTable.random(5, seed=s) for s in (1, 2)]
        for store in ("dict", "packed"):
            shared = run_fs_shared(tables, frontier_store=store)
            assert shared.mincost == run_fs_shared(tables).mincost
            assert shared.order == run_fs_shared(tables).order
        precedence = [(0, 3)]
        want = run_fs_constrained(self.TABLE, precedence)
        got = run_fs_constrained(self.TABLE, precedence,
                                 frontier_store="packed")
        assert (got.order, got.mincost) == (want.order, want.mincost)
        assert got.counters == want.counters

    def test_solve_front_door_accepts_store(self):
        from repro import solve

        a = solve(self.TABLE, frontier_store="dict")
        b = solve(self.TABLE, frontier_store="packed")
        assert (a.order, a.mincost) == (b.order, b.mincost)


# ----------------------------------------------------------------------
# checkpoint round-trips, including cross-format resume
# ----------------------------------------------------------------------

class TestCheckpointRoundTrip:
    TABLE = TruthTable.random(6, seed=21)

    def crash_then_resume(self, tmp_path, save_store, resume_store, k=3):
        clean = run_fs(self.TABLE, counters=OperationCounters())
        ckpt = tmp_path / f"{save_store}-to-{resume_store}"
        with pytest.raises(InjectedFault):
            run_fs(self.TABLE, counters=OperationCounters(),
                   frontier_store=save_store, checkpoint_dir=str(ckpt),
                   fault_injector=FaultInjector(kill_after_layer=k))
        resumed = run_fs(self.TABLE, counters=OperationCounters(),
                         frontier_store=resume_store,
                         checkpoint_dir=str(ckpt), resume=True)
        assert resumed.order == clean.order
        assert resumed.mincost == clean.mincost
        assert resumed.counters == clean.counters

    def test_packed_to_packed(self, tmp_path):
        self.crash_then_resume(tmp_path, "packed", "packed")

    def test_dict_checkpoint_resumes_under_packed(self, tmp_path):
        # Old-format checkpoints (per-entry "entries" payload) must load
        # under the packed store: the fingerprint excludes the store.
        self.crash_then_resume(tmp_path, "dict", "packed")

    def test_packed_checkpoint_resumes_under_dict(self, tmp_path):
        self.crash_then_resume(tmp_path, "packed", "dict")

    def test_packed_checkpoint_uses_column_payload(self, tmp_path):
        import json

        ckpt = tmp_path / "cols"
        run_fs(self.TABLE, frontier_store="packed",
               checkpoint_dir=str(ckpt))
        files = sorted(ckpt.glob("ckpt_*_layer_*.json"))
        assert files
        with open(files[0]) as handle:
            payload = json.load(handle)["payload"]
        assert "entries_packed" in payload
        assert "entries" not in payload
        assert payload["entries_packed"]["count"] > 0

    def test_payload_integrity_guard(self):
        store = PackedFrontier()
        store.put(0b1, make_state(0b1, (0,), 1, [0, 1, 2, 3]))
        payload = store.checkpoint_payload()
        decoded = PackedFrontier.decode_checkpoint_payload(payload)
        np.testing.assert_array_equal(
            decoded[0b1].table, store.get(0b1).table
        )
        tampered = dict(payload, mask_popcount=payload["mask_popcount"] + 1)
        with pytest.raises(ValueError, match="popcount"):
            PackedFrontier.decode_checkpoint_payload(tampered)
        with pytest.raises(ValueError, match="entries"):
            PackedFrontier.decode_checkpoint_payload(
                dict(payload, count=99)
            )
        with pytest.raises(ValueError, match="width"):
            PackedFrontier.decode_checkpoint_payload(
                dict(payload, bits=0)
            )

    def test_skeleton_layers_checkpoint_packed(self, tmp_path):
        ckpt = tmp_path / "skel"
        clean = run_fs(self.TABLE, counters=OperationCounters(),
                       frontier="mincost")
        with pytest.raises(InjectedFault):
            run_fs(self.TABLE, counters=OperationCounters(),
                   frontier="mincost", frontier_store="packed",
                   checkpoint_dir=str(ckpt),
                   fault_injector=FaultInjector(kill_after_layer=4))
        resumed = run_fs(self.TABLE, counters=OperationCounters(),
                         frontier="mincost", frontier_store="packed",
                         checkpoint_dir=str(ckpt), resume=True)
        assert resumed.order == clean.order
        assert resumed.counters == clean.counters


# ----------------------------------------------------------------------
# store-aware shipping (process backend transport accounting)
# ----------------------------------------------------------------------

class TestShipping:
    def test_packed_store_shrinks_bytes_shipped(self, process_pool):
        table = TruthTable.random(7, seed=9)
        shipped = {}
        for store in ("dict", "packed"):
            counters = OperationCounters()
            run_fs(table, backend=process_pool, jobs=4,
                   frontier_store=store, counters=counters)
            shipped[store] = counters.snapshot()["bytes_shipped"]
        assert 0 < shipped["packed"] * 2 <= shipped["dict"]
