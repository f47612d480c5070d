"""Round-trip and rejection tests for :mod:`repro.io.serialize`.

The generic round-trip lives in ``test_io.py``; this file pins the two
rules with non-trivial encodings — CBDD (children are complement-tagged
edges, one terminal) and MTBDD (arbitrary terminal multiplicities) — and
the named malformed-payload paths: missing child, terminal collision,
bad format tag.
"""

import json

import pytest

from repro.core import ReductionRule, reconstruct_minimum_diagram, run_fs
from repro.errors import ParseError
from repro.io import diagram_from_json, diagram_to_json, load_diagram, save_diagram
from repro.truth_table import TruthTable


def cbdd_diagram(seed=40, n=4):
    tt = TruthTable.random(n, seed=seed)
    result = run_fs(tt, rule=ReductionRule.CBDD)
    return tt, reconstruct_minimum_diagram(tt, result)


def mtbdd_diagram(seed=41, n=4, num_values=4):
    tt = TruthTable.random(n, seed=seed, num_values=num_values)
    result = run_fs(tt, rule=ReductionRule.MTBDD)
    return tt, reconstruct_minimum_diagram(tt, result)


class TestCbddRoundTrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_function_preserved(self, seed):
        tt, diagram = cbdd_diagram(seed=seed)
        restored = diagram_from_json(diagram_to_json(diagram))
        assert restored.rule is ReductionRule.CBDD
        assert restored.to_truth_table() == tt
        assert restored.mincost == diagram.mincost
        assert restored.num_terminals == 1

    def test_edge_encoding_survives(self):
        # A complemented function exercises root-level complement bits.
        tt = TruthTable.from_callable(3, lambda a, b, c: 1 - (a & b & c))
        diagram = reconstruct_minimum_diagram(
            tt, run_fs(tt, rule=ReductionRule.CBDD))
        restored = diagram_from_json(diagram_to_json(diagram))
        assert restored.root == diagram.root
        assert restored.nodes == diagram.nodes
        assert restored.to_truth_table() == tt

    def test_file_roundtrip(self, tmp_path):
        tt, diagram = cbdd_diagram(seed=5)
        path = tmp_path / "cbdd.json"
        save_diagram(diagram, path)
        assert load_diagram(path).to_truth_table() == tt


class TestMtbddRoundTrip:
    @pytest.mark.parametrize("num_values", [3, 5])
    def test_function_preserved(self, num_values):
        tt, diagram = mtbdd_diagram(num_values=num_values)
        restored = diagram_from_json(diagram_to_json(diagram))
        assert restored.rule is ReductionRule.MTBDD
        assert restored.to_truth_table() == tt
        assert restored.terminal_values == diagram.terminal_values

    def test_terminal_values_order_preserved(self):
        tt, diagram = mtbdd_diagram(seed=42, num_values=4)
        payload = json.loads(diagram_to_json(diagram))
        assert payload["terminal_values"] == sorted(payload["terminal_values"])
        assert payload["num_terminals"] == len(payload["terminal_values"])

    def test_file_roundtrip(self, tmp_path):
        tt, diagram = mtbdd_diagram(seed=43)
        path = tmp_path / "mtbdd.json"
        save_diagram(diagram, path)
        assert load_diagram(path).to_truth_table() == tt


class TestMalformedPayloads:
    @pytest.mark.parametrize("rule", [ReductionRule.CBDD, ReductionRule.MTBDD])
    def test_missing_child(self, rule):
        if rule is ReductionRule.MTBDD:
            tt, diagram = mtbdd_diagram()
        else:
            tt, diagram = cbdd_diagram()
        payload = json.loads(diagram_to_json(diagram))
        victim = max(int(k) for k in payload["nodes"])
        var, lo, hi = payload["nodes"][str(victim)]
        # Point at a node id that exists in no encoding: far beyond both
        # the plain-id and the (node << 1 | c) edge ranges.
        payload["nodes"][str(victim)] = [var, lo, 10 ** 6]
        with pytest.raises(ParseError, match="missing child"):
            diagram_from_json(json.dumps(payload))

    def test_terminal_collision(self):
        tt, diagram = mtbdd_diagram()
        payload = json.loads(diagram_to_json(diagram))
        # Claim a decision node whose id collides with a terminal id.
        payload["nodes"]["0"] = [0, 0, 1]
        with pytest.raises(ParseError, match="collides with terminals"):
            diagram_from_json(json.dumps(payload))

    def test_bad_format_tag(self):
        tt, diagram = cbdd_diagram()
        payload = json.loads(diagram_to_json(diagram))
        payload["format"] = "repro-diagram-v999"
        with pytest.raises(ParseError, match="unknown diagram format"):
            diagram_from_json(json.dumps(payload))

    def test_missing_format_tag(self):
        tt, diagram = cbdd_diagram()
        payload = json.loads(diagram_to_json(diagram))
        del payload["format"]
        with pytest.raises(ParseError, match="unknown diagram format"):
            diagram_from_json(json.dumps(payload))

    def test_unknown_root(self):
        tt, diagram = mtbdd_diagram()
        payload = json.loads(diagram_to_json(diagram))
        payload["root"] = 10 ** 6
        with pytest.raises(ParseError, match="root"):
            diagram_from_json(json.dumps(payload))
