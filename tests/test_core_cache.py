"""Tests for the canonical result cache (:mod:`repro.core.cache`).

The acceptance bar: for a randomized corpus (plus permuted/complemented
variants) the cached and uncached paths agree bit-for-bit on
``(mincost, width profile)``, and a cold-then-warm pair of identical
optimize calls performs *zero* kernel invocations on the warm run
(asserted via :class:`~repro.analysis.counters.OperationCounters`).
"""

import json
import random

import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    EngineConfig,
    ReductionRule,
    ResultCache,
    optimize_many,
    run_fs,
    run_fs_constrained,
    run_fs_shared,
    run_fs_star,
    table_key,
    window_sweep,
)
from repro.core.cache import (
    chain_result_maps,
    lookup_ordering,
    raw_table_key,
    state_key,
    store_ordering,
)
from repro.core.compaction import compact
from repro.core.fs import initial_state
from repro.core.reconstruct import reconstruct_minimum_diagram
from repro.core.shared import count_shared_subfunctions
from repro.errors import CacheError
from repro.observability import Profiler
from repro.truth_table import TruthTable, count_subfunctions


def random_table(rnd, n, num_values=2):
    return TruthTable(n, [rnd.randrange(num_values) for _ in range(1 << n)])


def entry_files(directory):
    """Every entry file under a cache directory, across both layouts:
    sharded (``<dir>/<shard>/cache_*.json``) and flat (PR-7 era)."""
    return sorted(
        list(directory.glob("*/cache_*.json"))
        + list(directory.glob("cache_*.json"))
    )


class TestFingerprints:
    def test_permutation_invariant(self):
        rnd = random.Random(0)
        for _ in range(20):
            n = rnd.randint(1, 6)
            tt = random_table(rnd, n)
            perm = list(range(n))
            rnd.shuffle(perm)
            key = table_key([tt], ReductionRule.BDD)
            key_perm = table_key([tt.permute(perm)], ReductionRule.BDD)
            assert key.fingerprint == key_perm.fingerprint

    def test_complement_invariant_for_bdd(self):
        tt = TruthTable.random(4, seed=1)
        comp = TruthTable(4, [1 - v for v in tt.values])
        assert (table_key([tt], ReductionRule.BDD).fingerprint
                == table_key([comp], ReductionRule.BDD).fingerprint)

    def test_complement_not_merged_for_zdd(self):
        # ZDD widths are not complement-invariant: x0 has 1 node, ~x0
        # (which is 1 when x0=0) has a different zero-suppressed shape.
        tt = TruthTable(2, [0, 1, 0, 1])
        comp = TruthTable(2, [1 - v for v in tt.values])
        assert (table_key([tt], ReductionRule.ZDD).fingerprint
                != table_key([comp], ReductionRule.ZDD).fingerprint)

    def test_support_reduction_merges_padded_tables(self):
        # f(x0, x1) = x0 & x1 embedded in 4 variables still matches the
        # 2-variable original: dead variables cost nothing under BDD.
        small = TruthTable.from_callable(2, lambda a, b: a & b)
        padded = TruthTable.from_callable(4, lambda a, b, c, d: a & b)
        assert (table_key([small], ReductionRule.BDD).fingerprint
                == table_key([padded], ReductionRule.BDD).fingerprint)
        # ...but not under ZDD, where dead variables are priced.
        assert (table_key([small], ReductionRule.ZDD).fingerprint
                != table_key([padded], ReductionRule.ZDD).fingerprint)

    def test_rules_never_collide(self):
        tt = TruthTable.random(4, seed=2)
        prints = {
            table_key([tt], rule).fingerprint
            for rule in (ReductionRule.BDD, ReductionRule.ZDD,
                         ReductionRule.CBDD)
        }
        assert len(prints) == 3

    def test_raw_key_distinguishes_extra(self):
        tt = TruthTable.random(3, seed=3)
        a = raw_table_key([tt], ReductionRule.BDD, "w", {"width": 2})
        b = raw_table_key([tt], ReductionRule.BDD, "w", {"width": 3})
        assert a != b


class TestCachedRunFs:
    @pytest.mark.parametrize("rule", [
        ReductionRule.BDD, ReductionRule.ZDD, ReductionRule.CBDD,
    ])
    def test_randomized_corpus_bit_identical(self, rule):
        rnd = random.Random(hash(rule.value) & 0xFFFF)
        cache = ResultCache()
        for _ in range(12):
            n = rnd.randint(1, 6)
            tt = random_table(rnd, n)
            reference = run_fs(tt, rule=rule)
            cached_cold = run_fs(tt, rule=rule, cache=cache)
            assert cached_cold.mincost == reference.mincost
            if not cached_cold.from_cache:
                # A true cold run is the uncached DP, bit for bit.  (A
                # small random table may land in the orbit of an earlier
                # trial and hit immediately — then only optimality holds.)
                assert cached_cold.order == reference.order
                warm = run_fs(tt, rule=rule, cache=cache)
                assert warm.from_cache
                assert warm.mincost == reference.mincost
                # A hit appends non-support variables at the bottom, so
                # only zero-width positions may move; the support levels'
                # widths are reproduced exactly.
                assert ([w for w in warm.width_profile() if w]
                        == [w for w in reference.width_profile() if w])
                assert sum(warm.width_profile()) == reference.mincost
            # permuted variant: same canonical entry, translated back
            perm = list(range(n))
            rnd.shuffle(perm)
            permuted = tt.permute(perm)
            hit = run_fs(permuted, rule=rule, cache=cache)
            assert hit.from_cache
            assert hit.mincost == run_fs(permuted, rule=rule).mincost
            assert sum(hit.width_profile()) == hit.mincost
            # the mapped-back ordering must actually achieve the cost
            state = initial_state(permuted, rule)
            for var in reversed(hit.order):
                state = compact(state, var, rule)
            assert state.mincost == hit.mincost

    def test_complemented_variant_hits(self):
        rnd = random.Random(7)
        cache = ResultCache()
        for _ in range(8):
            n = rnd.randint(1, 5)
            tt = random_table(rnd, n)
            run_fs(tt, cache=cache)
            comp = TruthTable(n, [1 - v for v in tt.values])
            hit = run_fs(comp, cache=cache)
            assert hit.from_cache
            assert hit.mincost == run_fs(comp).mincost
            widths = hit.width_profile()
            assert widths == count_subfunctions(comp, hit.order)

    def test_mtbdd_cached(self):
        rnd = random.Random(11)
        cache = ResultCache()
        tt = random_table(rnd, 4, num_values=3)
        cold = run_fs(tt, rule=ReductionRule.MTBDD, cache=cache)
        warm = run_fs(tt, rule=ReductionRule.MTBDD, cache=cache)
        assert warm.from_cache
        assert warm.mincost == cold.mincost
        assert warm.num_terminals == cold.num_terminals

    def test_warm_run_zero_kernel_invocations(self):
        cache = ResultCache()
        tt = TruthTable.random(5, seed=4)
        cold_counters = OperationCounters()
        run_fs(tt, counters=cold_counters, cache=cache)
        assert cold_counters.table_cells > 0
        warm_counters = OperationCounters()
        warm = run_fs(tt, counters=warm_counters, cache=cache)
        assert warm.from_cache
        assert warm_counters.table_cells == 0
        assert warm_counters.compactions == 0
        assert warm_counters.extra["cache_hits"] == 1

    def test_hit_result_reconstructs_diagram(self):
        cache = ResultCache()
        tt = TruthTable.random(4, seed=5)
        run_fs(tt, cache=cache)
        warm = run_fs(tt, cache=cache)
        diagram = reconstruct_minimum_diagram(tt, warm)
        assert diagram.to_truth_table() == tt
        assert diagram.mincost == warm.mincost

    def test_hit_blocks_full_enumeration(self):
        cache = ResultCache()
        tt = TruthTable.random(3, seed=6)
        run_fs(tt, cache=cache)
        warm = run_fs(tt, cache=cache)
        with pytest.raises(ValueError, match="cache"):
            warm.optimal_orderings()

    def test_profiler_phases_and_stats(self):
        cache = ResultCache()
        tt = TruthTable.random(4, seed=9)
        profiler = Profiler()
        run_fs(tt, cache=cache, profiler=profiler)
        run_fs(tt, cache=cache, profiler=profiler)
        assert "canonicalize" in profiler.phases
        assert "cache_lookup" in profiler.phases
        assert "cache_store" in profiler.phases
        profiler.note_cache_stats(cache.stats.snapshot())
        emitted = profiler.to_dict()
        assert emitted["cache"]["hits"] == 1
        assert emitted["cache"]["misses"] == 1


class TestSharedAndConstrained:
    def test_shared_permuted_variant_hits(self):
        rnd = random.Random(13)
        cache = ResultCache()
        tables = [random_table(rnd, 4) for _ in range(3)]
        cold = run_fs_shared(tables, cache=cache)
        perm = [2, 0, 3, 1]
        permuted = [t.permute(perm) for t in tables]
        hit = run_fs_shared(permuted, cache=cache)
        assert hit.from_cache
        reference = run_fs_shared(permuted)
        assert hit.mincost == reference.mincost == cold.mincost
        widths = count_shared_subfunctions(permuted, hit.order)
        assert sum(widths) == hit.mincost

    def test_single_output_shared_matches_run_fs_entry(self):
        cache = ResultCache()
        tt = TruthTable.random(4, seed=14)
        run_fs(tt, cache=cache)
        hit = run_fs_shared([tt], cache=cache)
        assert hit.from_cache  # one-output shared IS the run_fs problem

    def test_constrained_warm_is_free_and_keyed_by_constraints(self):
        cache = ResultCache()
        tt = TruthTable.random(5, seed=15)
        precedence = [(0, 3), (1, 4)]
        cold = run_fs_constrained(tt, precedence, cache=cache)
        counters = OperationCounters()
        warm = run_fs_constrained(tt, precedence, counters=counters,
                                  cache=cache)
        assert warm.from_cache
        assert counters.table_cells == 0
        assert (warm.order, warm.mincost, warm.feasible_subsets) == (
            cold.order, cold.mincost, cold.feasible_subsets)
        other = run_fs_constrained(tt, [(3, 0)], cache=cache)
        assert not other.from_cache
        assert other.order != cold.order or other.mincost >= cold.mincost


class TestFsStarAndWindow:
    def test_fs_star_replay_bit_identical(self):
        cache = ResultCache()
        config = EngineConfig(cache=cache)
        tt = TruthTable.random(5, seed=16)
        base = initial_state(tt)
        j_mask = 0b10110
        cold = run_fs_star(base, j_mask, config=config)
        counters = OperationCounters()
        warm = run_fs_star(base, j_mask, counters=counters, config=config)
        assert warm.pi == cold.pi
        assert warm.mincost == cold.mincost
        assert (warm.table == cold.table).all()
        # replay is O(|J|) compactions, tallied as extra, not paper-facing
        assert counters.compactions == 0
        assert counters.extra["cache_replay_compactions"] == 3

    def test_window_sweep_warm_identical_and_free(self):
        cache = ResultCache()
        config = EngineConfig(cache=cache)
        tt = TruthTable.random(6, seed=17)
        cold = window_sweep(tt, width=3, config=config)
        counters = OperationCounters()
        warm = window_sweep(tt, width=3, counters=counters, config=config)
        assert warm.from_cache
        assert (warm.order, warm.size, warm.improved, warm.windows_solved) \
            == (cold.order, cold.size, cold.improved, cold.windows_solved)
        assert counters.compactions == 0
        reference = window_sweep(tt, width=3)
        assert cold.size == reference.size

    def test_window_sweep_key_depends_on_initial_order(self):
        cache = ResultCache()
        config = EngineConfig(cache=cache)
        tt = TruthTable.random(5, seed=18)
        window_sweep(tt, [0, 1, 2, 3, 4], width=3, config=config)
        other = window_sweep(tt, [4, 3, 2, 1, 0], width=3, config=config)
        assert not other.from_cache


class TestDiskStore:
    def test_cold_then_warm_across_instances(self, tmp_path):
        tt = TruthTable.random(5, seed=19)
        cold = run_fs(tt, cache=ResultCache(directory=str(tmp_path)))
        counters = OperationCounters()
        warm_cache = ResultCache(directory=str(tmp_path))
        warm = run_fs(tt, counters=counters, cache=warm_cache)
        assert warm.from_cache
        assert warm.order == cold.order
        assert counters.table_cells == 0
        assert warm_cache.stats.disk_hits == 1

    def test_entries_are_checked_json(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        tt = TruthTable.random(3, seed=20)
        run_fs(tt, cache=cache)
        (path,) = entry_files(tmp_path)
        document = json.loads(path.read_text())
        assert set(document) == {"format", "checksum", "payload"}
        assert document["payload"]["entry"]["kind"] == "ordering"

    def test_corrupt_entry_raises_cache_error(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        tt = TruthTable.random(3, seed=21)
        run_fs(tt, cache=cache)
        (path,) = entry_files(tmp_path)
        document = json.loads(path.read_text())
        document["payload"]["entry"]["mincost"] += 1
        path.write_text(json.dumps(document))
        with pytest.raises(CacheError, match="checksum"):
            run_fs(tt, cache=ResultCache(directory=str(tmp_path)))

    def test_truncated_entry_raises_cache_error(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        tt = TruthTable.random(3, seed=22)
        run_fs(tt, cache=cache)
        (path,) = entry_files(tmp_path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(CacheError, match="JSON"):
            run_fs(tt, cache=ResultCache(directory=str(tmp_path)))

    def test_wrong_fingerprint_raises_cache_error(self, tmp_path):
        import os
        import pathlib

        cache = ResultCache(directory=str(tmp_path))
        tt = TruthTable.random(3, seed=23)
        run_fs(tt, cache=cache)
        (path,) = entry_files(tmp_path)
        key = table_key([tt], ReductionRule.BDD)
        # Plant the entry at the sharded path of an impostor fingerprint.
        other = pathlib.Path(cache.entry_path("0" * 64))
        other.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, other)
        # Force a lookup of the impostor fingerprint via a fresh cache.
        fresh = ResultCache(directory=str(tmp_path))
        assert fresh.lookup(key.fingerprint) is None  # original is gone
        with pytest.raises(CacheError, match="fingerprint"):
            fresh.lookup("0" * 64)

    def test_malformed_payload_raises_cache_error(self):
        cache = ResultCache()
        tt = TruthTable.random(3, seed=24)
        key = table_key([tt], ReductionRule.BDD)
        cache.store(key.fingerprint, {"kind": "ordering", "order": [0],
                                      "widths": [1], "mincost": 1})
        with pytest.raises(CacheError, match="malformed"):
            lookup_ordering(cache, key)


class TestLru:
    def test_eviction_order(self):
        cache = ResultCache(maxsize=2)
        cache.store("a", {"x": 1})
        cache.store("b", {"x": 2})
        assert cache.lookup("a") is not None  # refresh a
        cache.store("c", {"x": 3})  # evicts b
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None
        assert cache.stats.evictions == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)


class TestHelpers:
    def test_chain_result_maps_consistency(self):
        order = [2, 0, 1]
        widths = [1, 2, 1]
        mincost_by_subset, best_last, level_cost = chain_result_maps(
            order, widths)
        assert mincost_by_subset[0b111] == 4
        assert best_last[0b111] == 2
        assert level_cost[(0b011, 2)] == 1
        assert mincost_by_subset[0] == 0

    def test_store_rejects_nonzero_dead_width(self):
        tt = TruthTable.from_callable(3, lambda a, b, c: a & b)  # c dead
        key = table_key([tt], ReductionRule.BDD)
        with pytest.raises(CacheError, match="non-support"):
            store_ordering(ResultCache(), key, [0, 1, 2], [1, 1, 7])

    def test_state_key_distinguishes_j(self):
        tt = TruthTable.random(4, seed=25)
        base = initial_state(tt)
        assert (state_key(base, 0b0011, ReductionRule.BDD)
                != state_key(base, 0b0110, ReductionRule.BDD))


class TestOptimizeMany:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_dedup_and_order(self, jobs):
        rnd = random.Random(26)
        base_tables = [random_table(rnd, 4) for _ in range(3)]
        batch = []
        for tt in base_tables:
            perm = list(range(4))
            rnd.shuffle(perm)
            batch += [tt, tt.permute(perm),
                      TruthTable(4, [1 - v for v in tt.values])]
        cache = ResultCache()
        outcome = optimize_many(batch, cache=cache, jobs=jobs)
        assert len(outcome.results) == len(batch)
        assert outcome.unique <= 3
        for tt, result in zip(batch, outcome.results):
            assert result.mincost == run_fs(tt).mincost
        assert outcome.stats["hits"] >= len(batch) - outcome.unique

    def test_duplicates_cost_zero_kernel_work(self):
        tt = TruthTable.random(5, seed=27)
        cache = ResultCache()
        outcome = optimize_many([tt, tt, tt], cache=cache)
        assert [r.from_cache for r in outcome.results] == [
            False, True, True]

    def test_empty_batch(self):
        outcome = optimize_many([])
        assert outcome.results == []
        assert outcome.unique == 0

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            optimize_many([TruthTable.random(2, seed=28)], jobs=0)


class TestCrossProcessDisk:
    """The disk store is shared state: eviction and stats must hold up
    when several processes (daemons, CLI runs) mutate one directory."""

    def test_filelock_excludes_threads_and_reenters_nothing(self, tmp_path):
        from repro.core.cache import FileLock

        lock = FileLock(str(tmp_path / ".lock"))
        order = []

        def worker(tag):
            with lock:
                order.append((tag, "in"))
                order.append((tag, "out"))

        import threading

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Critical sections never interleave: every "in" is immediately
        # followed by the same tag's "out".
        for i in range(0, len(order), 2):
            assert order[i][0] == order[i + 1][0]
            assert (order[i][1], order[i + 1][1]) == ("in", "out")

    def test_disk_eviction_caps_entries_oldest_first(self, tmp_path):
        import os
        import time

        cache = ResultCache(directory=str(tmp_path), max_disk_entries=3)
        tables = [TruthTable.random(4, seed=s) for s in range(6)]
        keys = []
        for tt in tables:
            key = table_key([tt], ReductionRule.BDD)
            keys.append(key.fingerprint)
            cache.store(key.fingerprint, {"seed": key.fingerprint})
            # mtime granularity: make "oldest" unambiguous.
            os.utime(cache.entry_path(key.fingerprint))
            time.sleep(0.01)
        on_disk = {path.name for path in entry_files(tmp_path)}
        assert len(on_disk) == 3
        # The three newest survive.
        survivors = {f"cache_{fp}.json" for fp in keys[-3:]}
        assert on_disk == survivors
        assert cache.stats.evictions >= 3

    def test_vanished_entry_is_a_miss_not_an_error(self, tmp_path):
        import os

        writer = ResultCache(directory=str(tmp_path))
        reader = ResultCache(directory=str(tmp_path))
        key = table_key([TruthTable.random(4, seed=91)], ReductionRule.BDD)
        writer.store(key.fingerprint, {"payload": 1})
        # A sibling process evicts the file between the reader's memory
        # miss and its disk read.
        os.unlink(reader.entry_path(key.fingerprint))
        assert reader.lookup(key.fingerprint) is None
        assert reader.stats.misses == 1

    def test_damaged_entry_still_raises(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        key = table_key([TruthTable.random(4, seed=92)], ReductionRule.BDD)
        cache.store(key.fingerprint, {"payload": 1})
        fresh = ResultCache(directory=str(tmp_path))
        path = fresh.entry_path(key.fingerprint)
        with open(path, "w") as handle:
            handle.write('{"truncated": ')
        with pytest.raises(CacheError):
            fresh.lookup(key.fingerprint)

    def test_two_process_stress(self, tmp_path):
        """N writer processes over one directory with a tight disk cap:
        no crashes, the cap holds, and every surviving entry is intact."""
        import os
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import sys
            from repro.core.cache import ResultCache, table_key
            from repro.core.spec import ReductionRule
            from repro.truth_table import TruthTable

            directory, offset = sys.argv[1], int(sys.argv[2])
            cache = ResultCache(directory=directory, max_disk_entries=5)
            for seed in range(offset, offset + 12):
                tt = TruthTable.random(4, seed=seed)
                key = table_key([tt], ReductionRule.BDD)
                cache.store(key.fingerprint, {"seed": seed})
                cache.lookup(key.fingerprint)
            print("ok")
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), str(100 * i)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for i in range(3)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            assert out.decode().strip() == "ok"
        survivors = entry_files(tmp_path)
        assert 1 <= len(survivors) <= 5
        # Whatever survived the melee is readable and intact.
        fresh = ResultCache(directory=str(tmp_path))
        for path in survivors:
            fingerprint = path.name[len("cache_"):-len(".json")]
            payload = fresh.lookup(fingerprint)
            assert payload is not None and "seed" in payload


class TestSharding:
    """Fingerprint-prefix disk sharding: layout, the flat-layout (PR-7
    era) compatibility path, and the no-cross-shard-contention claim."""

    def test_entries_land_in_fingerprint_prefix_shard(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), shards=16)
        fp_a = "00" + "a" * 62
        fp_b = "1f" + "b" * 62   # 0x1f % 16 == 0x0f
        cache.store(fp_a, {"x": 1})
        cache.store(fp_b, {"x": 2})
        assert (tmp_path / "00" / f"cache_{fp_a}.json").exists()
        assert (tmp_path / "0f" / f"cache_{fp_b}.json").exists()
        # Each written shard has its own lockfile; the root has none.
        assert (tmp_path / "00" / ".cache.lock").exists()
        assert (tmp_path / "0f" / ".cache.lock").exists()
        assert not (tmp_path / ".cache.lock").exists()

    def test_shard_count_validated(self):
        with pytest.raises(ValueError, match="shards"):
            ResultCache(shards=0)
        with pytest.raises(ValueError, match="shards"):
            ResultCache(shards=257)

    def test_flat_layout_served_before_any_migration(self, tmp_path):
        """A PR-7-era directory (flat cache_*.json) serves hits through
        a sharded cache with zero writes — reads never reorganize."""
        flat_writer = ResultCache(directory=str(tmp_path), shards=1)
        tt = TruthTable.random(4, seed=40)
        key = table_key([tt], ReductionRule.BDD)
        flat_writer.store(key.fingerprint, {"seed": 40})
        # Recreate the historical flat layout byte-for-byte.
        import os

        for path in entry_files(tmp_path):
            os.replace(path, tmp_path / path.name)
        for shard_dir in [p for p in tmp_path.iterdir() if p.is_dir()]:
            for leftover in shard_dir.iterdir():
                leftover.unlink()
            shard_dir.rmdir()
        assert list(tmp_path.glob("cache_*.json"))

        reader = ResultCache(directory=str(tmp_path), shards=16)
        assert reader.lookup(key.fingerprint) == {"seed": 40}
        assert reader.stats.disk_hits == 1
        # Pure reads leave the flat layout untouched.
        assert list(tmp_path.glob("cache_*.json"))
        assert not list(tmp_path.glob("*/cache_*.json"))

    def test_flat_to_sharded_migration_round_trip(self, tmp_path):
        """First write migrates a flat directory into shards; every
        migrated entry is bit-identical and still readable."""
        import os

        tables = [TruthTable.random(4, seed=s) for s in range(50, 56)]
        flat_writer = ResultCache(directory=str(tmp_path), shards=1)
        fingerprints = []
        for index, tt in enumerate(tables):
            key = table_key([tt], ReductionRule.BDD)
            fingerprints.append(key.fingerprint)
            flat_writer.store(key.fingerprint, {"seed": index})
        for path in entry_files(tmp_path):
            os.replace(path, tmp_path / path.name)
        before = {
            path.name: path.read_bytes()
            for path in tmp_path.glob("cache_*.json")
        }
        assert len(before) == len(tables)

        sharded = ResultCache(directory=str(tmp_path), shards=16)
        trigger = "ff" + "c" * 62
        sharded.store(trigger, {"trigger": True})
        # The flat layout is gone; every entry lives in its shard with
        # its bytes unchanged.
        assert not list(tmp_path.glob("cache_*.json"))
        for fingerprint in fingerprints:
            migrated = tmp_path / sharded.shard_name(fingerprint) \
                / f"cache_{fingerprint}.json"
            assert migrated.read_bytes() == before[migrated.name]
        # And a fresh cache resolves all of them as disk hits.
        fresh = ResultCache(directory=str(tmp_path), shards=16)
        for index, fingerprint in enumerate(fingerprints):
            assert fresh.lookup(fingerprint) == {"seed": index}

    def test_filelock_wait_counter_counts_contention(self, tmp_path):
        import threading
        import time

        from repro.core.cache import FileLock

        waits = []
        lock = FileLock(str(tmp_path / ".lock"), on_wait=waits.append)
        release = threading.Event()

        def holder():
            with lock:
                release.wait(5)

        thread = threading.Thread(target=holder)
        thread.start()
        time.sleep(0.05)  # let the holder take the lock
        release_timer = threading.Timer(0.1, release.set)
        release_timer.start()
        with lock:
            pass
        thread.join()
        assert lock.contentions == 1
        assert lock.wait_seconds > 0
        assert len(waits) == 1 and waits[0] > 0

    def test_two_servers_disjoint_shards_no_lock_contention(self, tmp_path):
        """Two processes hammer one sharded directory — writes plus
        evictions — landing in disjoint shards: the per-shard locks mean
        neither ever waits (lock_waits == 0), and the global-accounting
        eviction still holds the cap across both writers' shards."""
        import os
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import sys
            from repro.core.cache import ResultCache

            directory, base = sys.argv[1], int(sys.argv[2])
            cache = ResultCache(directory=directory, shards=16,
                                max_disk_entries=8)
            for i in range(24):
                # Shard = first byte % 16; each process cycles its own
                # half of the shard space, so the two never collide.
                prefix = base + (i % 8)
                fingerprint = f"{prefix:02x}" + f"{i:02d}" * 31
                cache.store(fingerprint, {"who": base, "i": i})
                cache.lookup(fingerprint)
            print(cache.stats.lock_waits)
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), str(base)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for base in (0, 8)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            # Disjoint shards -> nobody ever waited on a lock.
            assert out.decode().strip() == "0"
        survivors = entry_files(tmp_path)
        assert 1 <= len(survivors) <= 8
        fresh = ResultCache(directory=str(tmp_path), shards=16)
        for path in survivors:
            fingerprint = path.name[len("cache_"):-len(".json")]
            payload = fresh.lookup(fingerprint)
            assert payload is not None and "who" in payload
