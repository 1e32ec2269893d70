import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhc.data import PlantedHierarchySpec, generate_planted
from lhc.networks import CollisionError, StringLookupTable
from lhc.tree import (CanonicalForm, build_tree, canonicalize, export_tree, tree_distance,
                      tree_from_json)


def internal_prefixes(table: StringLookupTable) -> list[str]:
    """The proper prefixes of the table's strings, its tree's internal nodes, in preorder."""
    return sorted({s[:k] for s in table.class_to_string.values() for k in range(len(s))})


def flipped_table(table: StringLookupTable, decisions) -> dict[int, str]:
    """Re-read the strings after swapping the 0/1 children of chosen nodes.

    decisions pair with internal_prefixes(table); a flip at prefix p toggles
    bit len(p) of every string under p (a single child moves to the other
    edge).
    """
    flips = dict(zip(internal_prefixes(table), decisions))
    return {c: "".join(str(int(s[i]) ^ flips[s[:i]]) for i in range(len(s)))
            for c, s in table.class_to_string.items()}


class TestBuildTree:
    def test_mapping_becomes_its_table(self):
        mapping = {0: "00", 1: "01", 2: "10", 3: "11"}
        table = build_tree(mapping)
        assert isinstance(table, StringLookupTable)
        assert table.class_to_string == mapping and table.string_length == 2
        assert internal_prefixes(table) == ["", "0", "1"]

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            build_tree({0: "0", 1: "01"})

    def test_duplicate_strings_rejected(self):
        with pytest.raises(CollisionError, match="one-to-one"):
            build_tree({0: "01", 1: "01"})

    def test_non_binary_string_rejected(self):
        with pytest.raises(ValueError, match="non-binary"):
            build_tree({0: "0a", 1: "01"})

    def test_lookup_table_is_its_own_tree(self):
        table = StringLookupTable({0: "00", 1: "11"}, class_names=["ant", "bee"])
        assert build_tree(table) is table


class TestCanonicalize:
    def test_global_bit_flip_is_invisible(self):
        a = build_tree({0: "00", 1: "01", 2: "10", 3: "11"})
        b = build_tree({0: "11", 1: "10", 2: "01", 3: "00"})
        assert canonicalize(a) == canonicalize(b)

    def test_subtree_flip_is_invisible(self):
        a = build_tree({0: "00", 1: "01", 2: "10", 3: "11"})
        b = build_tree({0: "01", 1: "00", 2: "10", 3: "11"})  # flip under "0"
        assert canonicalize(a) == canonicalize(b)

    def test_different_groupings_differ(self):
        a = build_tree({0: "00", 1: "01", 2: "10", 3: "11"})
        b = build_tree({0: "00", 2: "01", 1: "10", 3: "11"})
        assert canonicalize(a) != canonicalize(b)

    def test_exhaustive_flip_invariance_complete_tree(self):
        table = build_tree({c: format(c, "03b") for c in range(8)})
        reference = canonicalize(table)
        k = len(internal_prefixes(table))
        assert k == 7
        for decisions in itertools.product([False, True], repeat=k):
            flipped = build_tree(flipped_table(table, decisions))
            assert canonicalize(flipped) == reference

    def test_exhaustive_flip_invariance_sparse_tree(self):
        # 10 of 16 leaves: single-child chains appear; still <= 15 internal
        rng = np.random.default_rng(11)
        codes = rng.choice(16, size=10, replace=False)
        table = build_tree({c: format(v, "04b") for c, v in enumerate(codes)})
        k = len(internal_prefixes(table))
        assert k <= 15
        reference = canonicalize(table)
        for decisions in itertools.product([False, True], repeat=k):
            flipped = build_tree(flipped_table(table, decisions))
            assert canonicalize(flipped) == reference

    def test_flips_never_collide_distinct_forms(self):
        # two genuinely different hierarchies stay different under any flips
        a = build_tree({0: "00", 1: "01", 2: "10", 3: "11"})
        b = build_tree({0: "00", 2: "01", 1: "10", 3: "11"})
        forms_a = {canonicalize(build_tree(flipped_table(a, d)))
                   for d in itertools.product([False, True], repeat=3)}
        forms_b = {canonicalize(build_tree(flipped_table(b, d)))
                   for d in itertools.product([False, True], repeat=3)}
        assert len(forms_a) == 1 and len(forms_b) == 1
        assert forms_a != forms_b

    def test_single_child_chains_are_contracted(self):
        form = canonicalize(build_tree({0: "000", 1: "001", 2: "110"}))
        assert form == canonicalize(build_tree({0: "00", 1: "01", 2: "10"}))
        assert form.clusters == {frozenset({0, 1, 2}), frozenset({0, 1})}

    def test_planted_strings_with_a_bit_appended_are_the_planted_tree(self):
        _, planted = generate_planted(PlantedHierarchySpec(depth=3, feature_dim=2,
                                                           samples_per_class=1))
        longer = build_tree({c: s + str(c % 2) for c, s in planted.class_to_string.items()})
        cmp = tree_distance(canonicalize(longer), canonicalize(planted))
        assert cmp.equal
        assert cmp.shared_fraction == 1.0

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(length=st.integers(1, 5), data=st.data())
    def test_a_bit_inserted_in_every_string_changes_nothing(self, length, data):
        codes = data.draw(st.lists(st.integers(0, 2 ** length - 1), min_size=1, max_size=12,
                                   unique=True))
        table = build_tree({c: format(v, f"0{length}b") for c, v in enumerate(codes)})
        position = data.draw(st.integers(0, length))
        bit = data.draw(st.sampled_from("01"))
        longer = build_tree({c: s[:position] + bit + s[position:]
                             for c, s in table.class_to_string.items()})
        form, longer_form = canonicalize(table), canonicalize(longer)
        assert longer_form == form
        assert all(len(cluster) >= 2 for cluster in longer_form.clusters)


class TestTreeDistance:
    def test_identical_trees(self):
        a = canonicalize(build_tree({c: format(c, "03b") for c in range(8)}))
        cmp = tree_distance(a, a)
        assert cmp.equal
        assert cmp.shared_clusters == cmp.total_a == 7
        assert cmp.shared_fraction == 1.0

    def test_one_swapped_pair_loses_clusters(self):
        a = canonicalize(build_tree({0: "00", 1: "01", 2: "10", 3: "11"}))
        b = canonicalize(build_tree({0: "00", 2: "01", 1: "10", 3: "11"}))
        cmp = tree_distance(a, b)
        assert not cmp.equal
        assert cmp.shared_clusters < cmp.total_a
        assert cmp.shared_clusters == 1  # only the root cluster survives

    def test_leaf_set_mismatch_rejected(self):
        a = canonicalize(build_tree({0: "0", 1: "1"}))
        b = canonicalize(build_tree({0: "0", 2: "1"}))
        with pytest.raises(ValueError, match="leaf sets"):
            tree_distance(a, b)

    def test_one_class_trees_are_equal(self):
        a = canonicalize(build_tree({3: "01"}))
        assert a == CanonicalForm(clusters=frozenset(), leaf_ids=frozenset({3}))
        cmp = tree_distance(a, canonicalize(build_tree({3: "1"})))
        assert cmp.equal and cmp.shared_fraction == 1.0


EDGE_RE = re.compile(r'^  "n_[01]*" -> "n_[01]*" \[label="[01]"\];$')
NODE_RE = re.compile(r'^  "n_[01]*" \[shape=box, label="[^"]*"\];$')


class TestExport:
    def test_two_class_dot_has_three_nodes_two_edges(self):
        dot = export_tree(build_tree({0: "0", 1: "1"}), "dot")
        edges = [l for l in dot.splitlines() if "->" in l]
        assert len(edges) == 2
        names = set(re.findall(r'"(n_[01]*)"', dot))
        assert names == {"n_", "n_0", "n_1"}

    def test_dot_subset_grammar(self):
        # no DOT parser is available in this environment; validate the
        # emitted statement subset strictly instead
        rng = np.random.default_rng(7)
        codes = rng.choice(16, size=10, replace=False)
        dot = export_tree(build_tree({c: format(v, "04b") for c, v in enumerate(codes)}), "dot")
        lines = dot.splitlines()
        assert lines[0] == "digraph hierarchy {"
        assert lines[1] == '  node [shape=circle, label=""];'
        assert lines[-1] == "}"
        declared = set()
        referenced = set()
        for line in lines[2:-1]:
            if "->" in line:
                assert EDGE_RE.match(line), line
                referenced.update(re.findall(r'"(n_[01]*)"', line))
            else:
                assert NODE_RE.match(line), line
                declared.update(re.findall(r'"(n_[01]*)"', line))
        assert declared <= referenced | {"n_"}

    def test_dot_edges_one_per_line_labelled(self):
        dot = export_tree(build_tree({0: "00", 1: "01", 2: "10", 3: "11"}), "dot")
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(edge_lines) == 6
        assert all('label="0"' in l or 'label="1"' in l for l in edge_lines)

    def test_dot_lists_leaves_in_string_order_then_edges_depth_first(self):
        table = StringLookupTable({0: "11", 1: "00", 2: "01"}, class_names=["a", "b", "c"])
        assert export_tree(table, "dot") == "\n".join([
            "digraph hierarchy {",
            '  node [shape=circle, label=""];',
            '  "n_00" [shape=box, label="b"];',
            '  "n_01" [shape=box, label="c"];',
            '  "n_11" [shape=box, label="a"];',
            '  "n_" -> "n_0" [label="0"];',
            '  "n_0" -> "n_00" [label="0"];',
            '  "n_0" -> "n_01" [label="1"];',
            '  "n_" -> "n_1" [label="1"];',
            '  "n_1" -> "n_11" [label="1"];',
            "}"]) + "\n"

    def test_dot_labels_escape_quotes_and_backslashes(self):
        table = StringLookupTable({0: "0", 1: "1"}, class_names=['say "hi"', "back\\slash"])
        dot = export_tree(table, "dot")
        assert 'label="say \\"hi\\""' in dot
        assert 'label="back\\\\slash"' in dot

    def test_json_lists_the_leaves_in_class_id_order(self):
        table = StringLookupTable({1: "10", 0: "01"}, class_names=["ant", "bee"])
        assert json.loads(export_tree(table, "json")) == {"version": 2, "leaves": [
            {"class_id": 0, "class_name": "ant", "string": "01"},
            {"class_id": 1, "class_name": "bee", "string": "10"}]}

    def test_json_round_trip_is_byte_identical(self):
        table = build_tree({0: "010", 1: "011", 2: "100", 3: "111"})
        text = export_tree(table, "json")
        again = export_tree(tree_from_json(text), "json")
        assert text == again

    def test_json_preserves_structure(self):
        table = StringLookupTable({0: "00", 1: "01", 2: "11"}, class_names=["x", "y", "z"])
        clone = tree_from_json(export_tree(table, "json"))
        assert clone.class_to_string == table.class_to_string
        assert clone.class_names == table.class_names
        assert clone.string_length == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            export_tree(build_tree({0: "0", 1: "1"}), "svg")


def _leaf(class_id, string, name=None):
    return {"class_id": class_id, "class_name": str(class_id) if name is None else name,
            "string": string}


def _tree_doc(leaves, **header):
    return json.dumps({"version": 2, "leaves": leaves, **header})


_LEAVES_01 = [_leaf(0, "0"), _leaf(1, "1")]

MALFORMED_TREE_JSON = {
    "not JSON": "{",
    "deep nesting": "[" * 100_000,
    "list document": "[]",
    "empty object": "{}",
    "missing version": json.dumps({"leaves": _LEAVES_01}),
    "missing leaves": json.dumps({"version": 2}),
    "extra header key": _tree_doc(_LEAVES_01, note="x"),
    "str version": json.dumps({"version": "2", "leaves": _LEAVES_01}),
    "leaves object": _tree_doc({"0": _leaf(0, "0")}),
    "null leaves": _tree_doc(None),
    "empty leaves": _tree_doc([]),
    "leaf not an object": _tree_doc([_leaf(0, "0"), ["1", 1]]),
    "leaf without string": _tree_doc([_leaf(0, "0"), {"class_id": 1, "class_name": "1"}]),
    "leaf without class id": _tree_doc([_leaf(0, "0"), {"class_name": "1", "string": "1"}]),
    "leaf without class name": _tree_doc([_leaf(0, "0"), {"class_id": 1, "string": "1"}]),
    "leaf with a prefix key": _tree_doc([_leaf(0, "0"), {**_leaf(1, "1"), "prefix": "1"}]),
    "str class id": _tree_doc([_leaf(0, "0"), _leaf("1", "1")]),
    "bool class id": _tree_doc([_leaf(0, "0"), _leaf(True, "1")]),
    "float class id": _tree_doc([_leaf(0, "0"), _leaf(1.0, "1")]),
    "duplicate class ids": _tree_doc([_leaf(0, "0"), _leaf(0, "1")]),
    "int class name": _tree_doc([_leaf(0, "0"), _leaf(1, "1", name=1)]),
    "int string": _tree_doc([_leaf(0, "0"), _leaf(1, 1)]),
    "mixed lengths": _tree_doc([_leaf(0, "0"), _leaf(1, "10")]),
    "non-binary string": _tree_doc([_leaf(0, "0"), _leaf(1, "z")]),
    "duplicate string": _tree_doc([_leaf(0, "1"), _leaf(1, "1")]),
    "empty strings": _tree_doc([_leaf(0, "")]),
    "version 1": json.dumps({"version": 1, "L": 1, "root": {"prefix": "", "children": []}}),
    "version 3": json.dumps({"version": 3, "leaves": _LEAVES_01}),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED_TREE_JSON))
def test_malformed_tree_json_raises_value_error(defect):
    with pytest.raises(ValueError):
        tree_from_json(MALFORMED_TREE_JSON[defect])


def test_a_version_1_tree_json_is_rejected_by_its_version():
    with pytest.raises(ValueError, match="version 1"):
        tree_from_json(MALFORMED_TREE_JSON["version 1"])


def test_valid_tree_json_loads():
    table = tree_from_json(_tree_doc([_leaf(1, "1", name="b"), _leaf(0, "0", name="a")]))
    assert table.class_to_string == {0: "0", 1: "1"}
    assert table.class_names == ["a", "b"]
