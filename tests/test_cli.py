"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.compaction import KERNEL
from repro.io import load_diagram, write_pla
from repro.truth_table import TruthTable


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestOptimize:
    def test_expr(self, run):
        code, out, err = run("optimize", "--expr", "x0 & x1 | x2 & x3")
        assert code == 0
        assert "total size       : 6" in out
        assert "optimal ordering" in out

    @pytest.mark.parametrize("algorithm", ["fs", "astar", "optobdd", "bruteforce"])
    def test_algorithms_agree(self, run, algorithm):
        code, out, _ = run(
            "optimize", "--expr", "x0 & x1 | x2", "--algorithm", algorithm
        )
        assert code == 0
        assert "internal nodes   : 3" in out

    def test_zdd_rule(self, run):
        code, out, _ = run("optimize", "--expr", "x0 & x1", "--rule", "zdd")
        assert code == 0
        assert "rule             : zdd" in out

    def test_engine_and_jobs_flags(self, run):
        expr = "x0 & x1 | x2 & x3"
        _, reference, _ = run("optimize", "--expr", expr)
        code, out, _ = run("optimize", "--expr", expr, "--jobs", "2")
        assert code == 0
        assert out == reference

    def test_unknown_engine_rejected(self, run):
        with pytest.raises(SystemExit):
            run("optimize", "--expr", "x0", "--engine", "numpy")

    @pytest.mark.parametrize("argv", [
        ("optimize", "--expr", "x0", "--frontier-store", "packed"),
        ("serve", "--frontier-store", "dict"),
        ("optimize", "--expr", "x0", "--backend", "process"),
        ("serve", "--backend", "process"),
        ("optimize", "--expr", "x0", "--max-pool-rebuilds", "2"),
        ("serve", "--max-pool-rebuilds", "2"),
    ])
    def test_frontier_store_flag_is_gone(self, run, argv):
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == 2  # an argparse usage error

    def test_backend_flags_agree(self, run):
        expr = "x0 & x1 | x2 & x3"
        _, reference, _ = run("optimize", "--expr", expr)
        for extra in (["--backend", "serial"],
                      ["--backend", "serial", "--jobs", "2"],
                      ["--backend", "thread", "--jobs", "2"]):
            code, out, _ = run("optimize", "--expr", expr, *extra)
            assert code == 0
            assert out == reference

    def test_unknown_backend_rejected(self, run):
        with pytest.raises(SystemExit):
            run("optimize", "--expr", "x0", "--backend", "gpu")

    def test_profile_flag_writes_trajectory(self, run, tmp_path):
        path = tmp_path / "profile.json"
        code, out, _ = run(
            "optimize", "--expr", "x0 & x1 | x2 & x3",
            "--profile", str(path),
        )
        assert code == 0
        assert "wrote profile" in out
        profile = json.loads(path.read_text())
        assert [layer["k"] for layer in profile["layers"]] == [1, 2, 3, 4]
        assert profile["peak_frontier_bytes"] > 0
        assert profile["layers"][-1]["counters"]["subsets_processed"] == 15
        assert profile["meta"]["kernel"] == KERNEL

    def test_pla_input(self, run, tmp_path):
        table = TruthTable.random(4, seed=1)
        path = tmp_path / "f.pla"
        path.write_text(write_pla(table))
        code, out, _ = run("optimize", "--pla", str(path))
        assert code == 0
        assert "variables        : 4" in out

    def test_blif_input(self, run, tmp_path):
        path = tmp_path / "ha.blif"
        path.write_text(
            ".model m\n.inputs a b\n.outputs s\n.names a b s\n10 1\n01 1\n.end\n"
        )
        code, out, _ = run("optimize", "--blif", str(path))
        assert code == 0
        assert "internal nodes   : 3" in out  # XOR

    def test_dimacs_input(self, run, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 2\n1 0\n2 0\n")
        code, out, _ = run("optimize", "--dimacs", str(path))
        assert code == 0
        assert "internal nodes   : 2" in out  # x0 & x1

    def test_exports(self, run, tmp_path):
        dot = tmp_path / "d.dot"
        blob = tmp_path / "d.json"
        code, out, _ = run(
            "optimize", "--expr", "x0 & x1",
            "--dot", str(dot), "--json", str(blob),
        )
        assert code == 0
        assert dot.read_text().startswith("digraph")
        diagram = load_diagram(blob)
        assert diagram.to_truth_table() == TruthTable.from_callable(
            2, lambda a, b: a & b
        )

    def test_requires_exactly_one_source(self, run, tmp_path):
        code, _, err = run("optimize")
        assert code == 2 and "exactly one" in err
        path = tmp_path / "f.pla"
        path.write_text(write_pla(TruthTable.random(2, seed=0)))
        code, _, err = run("optimize", "--expr", "x0", "--pla", str(path))
        assert code == 2

    def test_too_many_variables(self, run):
        code, _, err = run(
            "optimize", "--expr", "x0", "--num-vars", "20"
        )
        assert code == 2 and "practical range" in err


class TestOtherCommands:
    def test_tables(self, run):
        code, out, _ = run("tables")
        assert code == 0
        assert "gamma_0 = 2.98581" in out
        assert "k=6: gamma=2.83728" in out
        assert "2.77286" in out

    def test_gap(self, run):
        code, out, _ = run("gap", "--max-pairs", "3")
        assert code == 0
        lines = [l for l in out.splitlines() if l and l[0].isdigit() is False]
        assert "pairs" in out
        assert "    3     6           8            16        8" in out

    def test_heuristics(self, run):
        code, out, _ = run("heuristics", "--expr", "x0 & x1 | x2 & x3")
        assert code == 0
        assert "exact (FS)" in out
        assert "sift" in out
        assert "(1.00x)" in out  # exact row at least


class TestSharedOptimize:
    def test_all_outputs_blif(self, run, tmp_path):
        path = tmp_path / "ha.blif"
        path.write_text(
            ".model ha\n.inputs a b\n.outputs s c\n"
            ".names a b s\n10 1\n01 1\n.names a b c\n11 1\n.end\n"
        )
        code, out, _ = run("optimize", "--blif", str(path), "--all-outputs")
        assert code == 0
        assert "outputs          : 2 (s c)" in out
        assert "shared nodes     : 4" in out

    def test_all_outputs_pla(self, run, tmp_path):
        path = tmp_path / "f.pla"
        path.write_text(".i 2\n.o 2\n11 10\n01 01\n.e\n")
        code, out, _ = run("optimize", "--pla", str(path), "--all-outputs")
        assert code == 0
        assert "outputs          : 2" in out

    def test_all_outputs_requires_file_input(self, run):
        code, _, err = run("optimize", "--expr", "x0", "--all-outputs")
        assert code == 2 and "requires" in err


class TestReproduce:
    def test_quick_reproduction_passes(self, run):
        code, out, _ = run("reproduce", "--quick")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out
        assert "Table 2, iteration 10" in out


class TestSymmetryAndCertify:
    def test_symmetry_command(self, run):
        code, out, _ = run("symmetry", "--expr", "x0 & x1 | x2 & x3")
        assert code == 0
        assert "{x0 x1} {x2 x3}" in out
        assert "ordering orbits  : 6 of 24" in out
        assert "size spread" in out

    def test_certify_roundtrip(self, run, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run("certify", "--expr", "x0 & x1 | x2",
                           "--out", str(path))
        assert code == 0 and "certified optimum: 3" in out
        code, out, _ = run("certify", "--expr", "x0 & x1 | x2",
                           "--check", str(path))
        assert code == 0 and "VALID" in out

    def test_certify_detects_wrong_function(self, run, tmp_path):
        path = tmp_path / "cert.json"
        run("certify", "--expr", "x0 & x1 | x2", "--out", str(path))
        # xor has a different DP table, so the certificate cannot verify
        code, out, _ = run("certify", "--expr", "x0 ^ x1 ^ x2",
                           "--check", str(path))
        assert code == 1 and "INVALID" in out


class TestProfileFlag:
    """Every DP-running subcommand accepts --profile and writes a
    trajectory with per-layer counters."""

    def _check(self, path, expected_layers):
        profile = json.loads(path.read_text())
        assert [layer["k"] for layer in profile["layers"]] == expected_layers
        assert profile["peak_frontier_bytes"] > 0
        return profile

    def test_optimize_all_outputs(self, run, tmp_path):
        blif = tmp_path / "ha.blif"
        blif.write_text(
            ".model ha\n.inputs a b\n.outputs s c\n"
            ".names a b s\n10 1\n01 1\n.names a b c\n11 1\n.end\n"
        )
        path = tmp_path / "profile.json"
        code, out, _ = run("optimize", "--blif", str(blif), "--all-outputs",
                           "--profile", str(path))
        assert code == 0
        assert "wrote profile" in out
        self._check(path, [1, 2])

    def test_gap(self, run, tmp_path):
        path = tmp_path / "profile.json"
        code, out, _ = run("gap", "--max-pairs", "2",
                           "--profile", str(path))
        assert code == 0
        assert "wrote profile" in out
        # One trajectory accumulates both achilles-heel runs (n=2, n=4).
        self._check(path, [1, 2, 1, 2, 3, 4])

    def test_heuristics(self, run, tmp_path):
        path = tmp_path / "profile.json"
        code, out, _ = run("heuristics", "--expr", "x0 & x1 | x2 & x3",
                           "--profile", str(path))
        assert code == 0
        assert "wrote profile" in out
        self._check(path, [1, 2, 3, 4])

    def test_certify(self, run, tmp_path):
        cert = tmp_path / "cert.json"
        path = tmp_path / "profile.json"
        code, out, _ = run("certify", "--expr", "x0 & x1 | x2",
                           "--out", str(cert), "--profile", str(path))
        assert code == 0
        assert "wrote profile" in out
        self._check(path, [1, 2, 3])


class TestCheckpointFlags:
    def test_checkpoint_then_resume(self, run, tmp_path):
        expr = "x0 & x1 | x2 & x3"
        ckpt = tmp_path / "ckpt"
        _, reference, _ = run("optimize", "--expr", expr)
        code, out, _ = run("optimize", "--expr", expr,
                           "--checkpoint-dir", str(ckpt))
        assert code == 0 and out == reference
        assert list(ckpt.glob("ckpt_*_layer_*.json"))
        code, out, _ = run("optimize", "--expr", expr,
                           "--checkpoint-dir", str(ckpt), "--resume")
        assert code == 0 and out == reference

    def test_resume_requires_checkpoint_dir(self, run):
        code, _, err = run("optimize", "--expr", "x0 & x1", "--resume")
        assert code == 2
        assert "--resume requires --checkpoint-dir" in err


class TestCacheFlags:
    def test_cache_dir_warm_run_served_from_cache(self, run, tmp_path):
        expr = "x0 & x1 | x2 & x3"
        cache_dir = str(tmp_path / "cache")
        code, cold, _ = run("optimize", "--expr", expr,
                            "--cache-dir", cache_dir)
        assert code == 0
        assert "served from" not in cold
        code, warm, _ = run("optimize", "--expr", expr,
                            "--cache-dir", cache_dir)
        assert code == 0
        assert "served from      : result cache" in warm
        assert "internal nodes   : 4" in warm

    def test_cache_stats_in_profile(self, run, tmp_path):
        expr = "x0 ^ x1 ^ x2"
        cache_dir = str(tmp_path / "cache")
        profile = tmp_path / "prof.json"
        run("optimize", "--expr", expr, "--cache-dir", cache_dir)
        code, out, _ = run("optimize", "--expr", expr,
                           "--cache-dir", cache_dir,
                           "--profile", str(profile))
        assert code == 0
        assert "cache            : 1 hits / 0 misses" in out
        payload = json.loads(profile.read_text())
        assert payload["cache"]["hits"] == 1
        assert payload["cache"]["misses"] == 0
        assert "cache_lookup" in payload["phases"]

    def test_renamed_variant_hits_across_runs(self, run, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run("optimize", "--expr", "x0 & x1 | x2", "--cache-dir", cache_dir)
        code, out, _ = run("optimize", "--expr", "x1 & x2 | x0",
                           "--cache-dir", cache_dir)
        assert code == 0
        assert "served from      : result cache" in out


class TestBatchOptimize:
    def manifest(self, tmp_path, entries):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_batch_dedupes_variants(self, run, tmp_path):
        path = self.manifest(tmp_path, {"tables": [
            {"expr": "x0 & x1 | x2", "label": "f"},
            {"expr": "x1 & x2 | x0", "label": "f-renamed"},
            {"expr": "~(x0 & x1 | x2)", "label": "f-complemented"},
            {"expr": "x0 ^ x1", "label": "xor"},
        ]})
        code, out, _ = run("optimize", "--batch", path)
        assert code == 0
        assert "batch            : 4 tables, 2 unique functions" in out
        assert out.count("[cached]") == 2
        assert "f-renamed" in out

    def test_batch_bare_expression_strings(self, run, tmp_path):
        path = self.manifest(tmp_path, ["x0 & x1", "x0 | x1"])
        code, out, _ = run("optimize", "--batch", path)
        assert code == 0
        assert "2 tables, 2 unique functions" in out

    def test_batch_jobs_deterministic(self, run, tmp_path):
        entries = {"tables": [
            {"expr": "x0 & x1 | x2 & x3", "label": "a"},
            {"expr": "x0 ^ x1 ^ x2", "label": "b"},
            {"expr": "x2 & x3 | x0 & x1", "label": "c"},
        ]}
        path = self.manifest(tmp_path, entries)
        _, sequential, _ = run("optimize", "--batch", path)
        _, parallel, _ = run("optimize", "--batch", path, "--jobs", "3")
        assert sequential == parallel

    def test_batch_with_cache_dir_is_warm_second_time(self, run, tmp_path):
        path = self.manifest(tmp_path, ["x0 & x1 | x2"])
        cache_dir = str(tmp_path / "cache")
        run("optimize", "--batch", path, "--cache-dir", cache_dir)
        code, out, _ = run("optimize", "--batch", path,
                           "--cache-dir", cache_dir)
        assert code == 0
        assert "[cached]" in out
        assert "1 hits / 0 misses" in out

    def test_batch_pla_entry(self, run, tmp_path):
        tt = TruthTable.from_callable(3, lambda a, b, c: a & b | c)
        (tmp_path / "f.pla").write_text(write_pla(tt))
        path = self.manifest(tmp_path, [{"pla": "f.pla", "label": "from-pla"}])
        code, out, _ = run("optimize", "--batch", path)
        assert code == 0
        assert "from-pla" in out

    def test_batch_rejects_empty_manifest(self, run, tmp_path):
        path = self.manifest(tmp_path, [])
        code, _, err = run("optimize", "--batch", path)
        assert code == 2
        assert "non-empty" in err

    def test_batch_isolates_ambiguous_entry(self, run, tmp_path):
        # A malformed entry becomes a [failed] row (exit 1), not a
        # batch-aborting traceback; the other entries still solve.
        path = self.manifest(tmp_path, [
            {"expr": "x0", "pla": "f.pla"},
            {"expr": "x0 & x1", "label": "fine"},
        ])
        code, out, _ = run("optimize", "--batch", path)
        assert code == 1
        assert "[failed]" in out
        assert "exactly one" in out
        assert "fine" in out and "nodes=" in out
        assert "1 ok / 0 fallback / 1 failed" in out

    def test_shared_optimize_warm_marker(self, run, tmp_path):
        pla = tmp_path / "two.pla"
        pla.write_text(".i 3\n.o 2\n1-1 10\n011 01\n110 11\n.e\n")
        cache_dir = str(tmp_path / "cache")
        code, cold, _ = run("optimize", "--pla", str(pla), "--all-outputs",
                            "--cache-dir", cache_dir)
        assert code == 0
        assert "served from" not in cold
        code, warm, _ = run("optimize", "--pla", str(pla), "--all-outputs",
                            "--cache-dir", cache_dir)
        assert code == 0
        assert "served from      : result cache" in warm
        assert [l for l in warm.splitlines() if "shared nodes" in l] == \
               [l for l in cold.splitlines() if "shared nodes" in l]


class TestResourceGovernance:
    """--timeout / --max-frontier-mb / --fallback / --max-retries."""

    def heavy_pla(self, tmp_path, n=14, seed=3):
        # An exact solve of about 0.15-0.2 s on a 2-vCPU host (n = 13
        # takes about 0.06 s): past the 0.05 s budgets below.  Unmerged
        # minterms write in milliseconds.
        path = tmp_path / f"heavy{n}.pla"
        path.write_text(write_pla(TruthTable.random(n, seed=seed),
                                  merge=False))
        return str(path)

    def test_timeout_without_fallback_is_a_clean_error(self, run, tmp_path):
        code, out, err = run("optimize", "--pla", self.heavy_pla(tmp_path),
                             "--timeout", "0.05")
        assert code == 2
        assert "error:" in err
        assert "wall-clock budget" in err
        assert "Traceback" not in err

    def test_timeout_with_fallback_degrades_and_tags(self, run, tmp_path):
        code, out, _ = run("optimize", "--pla", self.heavy_pla(tmp_path),
                           "--timeout", "0.05", "--fallback")
        assert code == 0
        assert "best ordering" in out
        assert "fallback, not certified optimal" in out
        assert "optimal ordering" not in out

    def test_fallback_with_ample_budget_stays_exact(self, run):
        code, out, _ = run("optimize", "--expr", "x0 & x1 | x2 & x3",
                           "--timeout", "60", "--fallback")
        assert code == 0
        assert "optimal ordering" in out
        assert "method           : fs (exact)" in out

    def test_generous_limits_do_not_change_output(self, run):
        expr = "x0 & x1 | x2 & x3"
        _, reference, _ = run("optimize", "--expr", expr)
        code, out, _ = run("optimize", "--expr", expr,
                           "--timeout", "60", "--max-frontier-mb", "512")
        assert code == 0
        assert out == reference

    def test_frontier_cap_without_fallback_is_a_clean_error(self, run):
        code, _, err = run("optimize", "--expr",
                           " | ".join(f"x{i} & x{i+1}" for i in range(0, 8, 2)),
                           "--max-frontier-mb", "0.0001")
        assert code == 2
        assert "frontier" in err

    def test_fallback_requires_fs_algorithm(self, run):
        code, _, err = run("optimize", "--expr", "x0 & x1",
                           "--algorithm", "astar", "--fallback")
        assert code == 2
        assert "requires --algorithm fs" in err

    def test_dot_rejected_for_uncertified_ordering(self, run, tmp_path):
        code, _, err = run("optimize", "--pla", self.heavy_pla(tmp_path),
                           "--timeout", "0.05", "--fallback",
                           "--dot", str(tmp_path / "out.dot"))
        assert code == 2
        assert "uncertified" in err

    def test_certify_rejects_inexact_result(self, run, tmp_path):
        # Certificates stop at n = 12, whose exact solve takes about
        # 0.02-0.03 s: a 5 ms budget forces the fallback.
        code, _, err = run("certify", "--pla", self.heavy_pla(tmp_path, 12),
                           "--timeout", "0.005", "--fallback",
                           "--out", str(tmp_path / "cert.json"))
        assert code == 2
        assert "cannot certify" in err

    def test_gap_marks_fallback_bounds(self, run):
        # Seven pairs end on an n = 14 function, whose exact solve takes
        # about 0.1 s against the 0.05 s budget (six pairs end at n = 12,
        # about 0.025 s, inside it).
        code, out, _ = run("gap", "--max-pairs", "7",
                           "--timeout", "0.05", "--fallback")
        assert code == 0
        assert "~" in out

    def test_max_retries_flag_accepted(self, run, tmp_path):
        code, out, _ = run("optimize", "--expr", "x0 & x1 | x2",
                           "--cache-dir", str(tmp_path / "cache"),
                           "--max-retries", "2")
        assert code == 0
        assert "total size" in out

    def manifest(self, tmp_path, entries):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_batch_timeout_without_fallback_fails_only_slow_items(
            self, run, tmp_path):
        self.heavy_pla(tmp_path)
        path = self.manifest(tmp_path, [
            {"pla": "heavy14.pla", "label": "slow"},
            {"expr": "x0 & x1", "label": "fast"},
        ])
        code, out, _ = run("optimize", "--batch", path, "--timeout", "0.05")
        assert code == 1
        assert "[failed] BudgetExceeded" in out
        assert "fast" in out and "nodes=" in out
        assert "1 ok / 0 fallback / 1 failed" in out

    def test_batch_timeout_with_fallback_tags_rung(self, run, tmp_path):
        self.heavy_pla(tmp_path)
        path = self.manifest(tmp_path, [
            {"pla": "heavy14.pla", "label": "slow"},
            {"expr": "x0 & x1", "label": "fast"},
        ])
        code, out, _ = run("optimize", "--batch", path,
                           "--timeout", "0.05", "--fallback")
        assert code == 0
        assert "[fallback:" in out
        assert "1 ok / 1 fallback / 0 failed" in out
