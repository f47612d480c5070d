"""Unit tests for the interchange formats (PLA, BLIF, diagram JSON)."""

import numpy as np
import pytest

from repro.core import ReductionRule, build_diagram, reconstruct_minimum_diagram, run_fs
from repro.errors import DimensionError, ParseError
from repro.io import (
    diagram_from_json,
    diagram_to_json,
    load_diagram,
    parse_blif,
    parse_pla,
    read_blif,
    read_pla,
    save_diagram,
    write_pla,
)
from repro.truth_table import TruthTable


EXAMPLE_PLA = """\
# two-output example
.i 3
.o 2
.p 3
1-1 10
011 01
110 11
.e
"""


class TestPlaParse:
    def test_declarations(self):
        pla = parse_pla(EXAMPLE_PLA)
        assert pla.num_inputs == 3
        assert pla.num_outputs == 2
        assert len(pla.cubes) == 3

    def test_truth_tables_semantics(self):
        tables = parse_pla(EXAMPLE_PLA).truth_tables()
        f0, f1 = tables
        # output 0: cubes 1-1 and 110 (positions little-endian)
        assert f0(1, 0, 1) == 1 and f0(1, 1, 1) == 1
        assert f0(1, 1, 0) == 1
        assert f0(0, 1, 1) == 0
        # output 1: cubes 011 and 110
        assert f1(0, 1, 1) == 1 and f1(1, 1, 0) == 1
        assert f1(1, 0, 1) == 0

    def test_single_output_helper(self):
        pla = parse_pla(".i 2\n.o 1\n11 1\n.e\n")
        assert pla.truth_table() == TruthTable.from_callable(2, lambda a, b: a & b)
        with pytest.raises(DimensionError):
            parse_pla(EXAMPLE_PLA).truth_table()

    def test_glued_output_form(self):
        pla = parse_pla(".i 2\n.o 1\n111\n.e\n")
        assert pla.cubes == [("11", "1")]

    def test_labels(self):
        pla = parse_pla(".i 2\n.o 1\n.ilb a b\n.ob f\n11 1\n.e\n")
        assert pla.input_labels == ["a", "b"]
        assert pla.output_labels == ["f"]

    @pytest.mark.parametrize("bad", [
        ".o 1\n11 1\n",                 # missing .i
        ".i 2\n.o 1\n1x 1\n.e\n",       # bad symbol
        ".i 2\n.o 1\n111 1\n.e\n",      # wrong width
        ".i 2\n.o 1\n.p 5\n11 1\n.e\n", # wrong product count
        ".i 2\n.o 1\n.type z\n.e\n",    # unsupported type
        ".i 2\n.o 1\n.frob\n.e\n",      # unknown directive
    ])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_pla(bad)

    def test_comment_and_blank_lines(self):
        pla = parse_pla("# header\n.i 1\n\n.o 1\n1 1  # cube\n.e\n")
        assert pla.cubes == [("1", "1")]

    def test_ilb_count_must_match_i(self):
        with pytest.raises(ParseError, match=r"\.ilb names 3 inputs"):
            parse_pla(".i 2\n.o 1\n.ilb a b c\n11 1\n.e\n")

    def test_ob_count_must_match_o(self):
        with pytest.raises(ParseError, match=r"\.ob names 1 outputs"):
            parse_pla(".i 2\n.o 2\n.ob f\n11 10\n.e\n")

    def test_matching_label_counts_accepted(self):
        pla = parse_pla(".i 3\n.o 2\n.ilb a b c\n.ob f g\n1-1 10\n.e\n")
        assert pla.input_labels == ["a", "b", "c"]
        assert pla.output_labels == ["f", "g"]

    def test_glued_cube_before_o_declaration(self):
        # The single-field form is ambiguous until '.o 1' has been seen;
        # the parser must say so instead of a generic malformed-cube error.
        with pytest.raises(ParseError, match=r"before the \.o declaration"):
            parse_pla(".i 2\n111\n.o 1\n.e\n")

    def test_glued_cube_in_multi_output_pla(self):
        with pytest.raises(ParseError, match="2-output"):
            parse_pla(".i 2\n.o 2\n1110\n.e\n")


def _write_pla_reference(table, merge):
    """The PLA writer as it was: every literal-drop trial masks all
    ``2^n`` assignments."""
    n = table.n
    on = table.values != 0
    assignments = np.arange(1 << n, dtype=np.int64)

    def cover(cube):
        inside = np.ones(1 << n, dtype=bool)
        for position, symbol in enumerate(cube):
            if symbol != "-":
                bit = ((assignments >> position) & 1).astype(bool)
                inside &= bit if symbol == "1" else ~bit
        return inside

    cubes = []
    covered = np.zeros(1 << n, dtype=bool)
    for minterm in np.nonzero(on)[0]:
        if covered[minterm]:
            continue
        cube = ["1" if (int(minterm) >> i) & 1 else "0" for i in range(n)]
        if merge:
            for i in range(n):
                trial = cube[:i] + ["-"] + cube[i + 1:]
                if np.all(on[cover(trial)]):
                    cube = trial
        covered |= cover(cube)
        cubes.append("".join(cube))
    lines = [f".i {n}", ".o 1", f".p {len(cubes)}"]
    lines += [f"{cube} 1" for cube in cubes]
    lines.append(".e")
    return "\n".join(lines) + "\n"


class TestPlaWrite:
    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip(self, seed):
        tt = TruthTable.random(5, seed=seed)
        text = write_pla(tt)
        assert parse_pla(text).truth_table() == tt

    def test_merge_produces_fewer_cubes(self):
        tt = TruthTable.constant(4, 1)
        merged = write_pla(tt, merge=True)
        plain = write_pla(tt, merge=False)
        assert merged.count("\n") < plain.count("\n")
        assert parse_pla(merged).truth_table() == tt

    @pytest.mark.parametrize("n", range(1, 11))
    def test_merge_matches_all_assignments_reference(self, n):
        tables = [TruthTable.random(n, seed=seed) for seed in range(3)]
        tables += [TruthTable.constant(n, 0), TruthTable.constant(n, 1)]
        for tt in tables:
            for merge in (True, False):
                assert write_pla(tt, merge) == _write_pla_reference(tt, merge)

    def test_empty_onset(self):
        tt = TruthTable.constant(3, 0)
        assert parse_pla(write_pla(tt)).truth_table() == tt

    def test_rejects_multivalued(self):
        with pytest.raises(DimensionError):
            write_pla(TruthTable(1, [0, 2]))

    def test_file_roundtrip(self, tmp_path):
        tt = TruthTable.random(4, seed=9)
        path = tmp_path / "f.pla"
        path.write_text(write_pla(tt))
        assert read_pla(path).truth_table() == tt


EXAMPLE_BLIF = """\
.model half_adder
.inputs a b
.outputs s c
.names a b s
10 1
01 1
.names a b c
11 1
.end
"""


class TestBlif:
    def test_parse_structure(self):
        net = parse_blif(EXAMPLE_BLIF)
        assert net.name == "half_adder"
        assert net.inputs == ["a", "b"]
        assert net.outputs == ["s", "c"]
        assert len(net.nodes) == 2

    def test_semantics(self):
        net = parse_blif(EXAMPLE_BLIF)
        assert net.truth_table("s") == TruthTable.from_callable(
            2, lambda a, b: a ^ b
        )
        assert net.truth_table("c") == TruthTable.from_callable(
            2, lambda a, b: a & b
        )

    def test_default_output(self):
        net = parse_blif(EXAMPLE_BLIF)
        assert net.truth_table() == net.truth_table("s")

    def test_offset_cover(self):
        text = ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n"
        net = parse_blif(text)
        assert net.truth_table() == TruthTable.from_callable(
            2, lambda a, b: 0 if (a and b) else 1
        )

    def test_constant_node(self):
        text = ".model m\n.inputs a\n.outputs f\n.names f\n1\n.end\n"
        assert parse_blif(text).truth_table() == TruthTable.constant(1, 1)

    def test_empty_cover_is_zero(self):
        text = ".model m\n.inputs a\n.outputs f\n.names f\n.end\n"
        assert parse_blif(text).truth_table() == TruthTable.constant(1, 0)

    def test_dont_care_pattern(self):
        text = ".model m\n.inputs a b c\n.outputs f\n.names a b c f\n1-0 1\n.end\n"
        net = parse_blif(text)
        assert net.truth_table() == TruthTable.from_callable(
            3, lambda a, b, c: a & (1 - c)
        )

    def test_continuation_lines(self):
        text = (".model m\n.inputs a \\\nb\n.outputs f\n"
                ".names a b f\n11 1\n.end\n")
        assert parse_blif(text).inputs == ["a", "b"]

    @pytest.mark.parametrize("bad", [
        ".model m\n.outputs f\n.names f\n1\n.end\n",       # no inputs
        ".model m\n.inputs a\n.outputs f\n11 1\n.end\n",   # cube outside .names
        ".model m\n.inputs a\n.outputs f\n.latch a f\n",   # sequential
        ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n0 0\n.end\n",  # mixed
        ".model m\n.inputs a\n.outputs f\n.names a f\nxx 1\n.end\n",      # bad cube
    ])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_blif(bad)

    def test_optimizer_pipeline(self, tmp_path):
        path = tmp_path / "ha.blif"
        path.write_text(EXAMPLE_BLIF)
        net = read_blif(path)
        result = run_fs(net.truth_table("s"))
        assert result.mincost == 3  # XOR of two variables


class TestDiagramJson:
    @pytest.mark.parametrize("rule", list(ReductionRule))
    def test_roundtrip(self, rule):
        if rule is ReductionRule.MTBDD:
            tt = TruthTable.random(4, seed=20, num_values=3)
        else:
            tt = TruthTable.random(4, seed=20)
        diagram = reconstruct_minimum_diagram(tt, run_fs(tt, rule=rule))
        restored = diagram_from_json(diagram_to_json(diagram))
        assert restored.to_truth_table() == tt
        assert restored.order == diagram.order
        assert restored.mincost == diagram.mincost

    def test_file_roundtrip(self, tmp_path):
        tt = TruthTable.random(3, seed=21)
        diagram = build_diagram(tt, [2, 0, 1])
        path = tmp_path / "d.json"
        save_diagram(diagram, path)
        assert load_diagram(path).to_truth_table() == tt

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(format="bogus"),
        lambda p: p.update(order=[0, 0, 1, 2]),
        lambda p: p["nodes"].update({"2": [99, 0, 1]}),
        lambda p: p.update(root=999),
        lambda p: p.update(terminal_values=[0]),
    ])
    def test_validation(self, mutate):
        import json

        tt = TruthTable.random(4, seed=22)
        diagram = build_diagram(tt, [0, 1, 2, 3])
        payload = json.loads(diagram_to_json(diagram))
        mutate(payload)
        with pytest.raises(ParseError):
            diagram_from_json(json.dumps(payload))

    def test_not_json(self):
        with pytest.raises(ParseError):
            diagram_from_json("{nope")
