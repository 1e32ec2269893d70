import itertools
import json
import re

import numpy as np
import pytest

from lhc.networks import CollisionError, StringLookupTable
from lhc.tree import (CanonicalForm, PrefixTree, build_tree, canonicalize,
                      export_tree, tree_distance, tree_from_json)


def flipped_table(tree: PrefixTree, decisions) -> dict[int, str]:
    """Re-read leaf strings after swapping the 0/1 children of chosen nodes.

    decisions are consumed in preorder over internal nodes of the original
    tree; True swaps that node's children (a single child moves to the
    other edge).
    """
    out = {}
    it = iter(decisions)

    def walk(node, path):
        if node.is_leaf:
            out[node.class_id] = path
            return
        swap = next(it)
        for bit in sorted(node.children):
            new_bit = str(1 - int(bit)) if swap else bit
            walk(node.children[bit], path + new_bit)

    walk(tree.root, "")
    return out


class TestBuildTree:
    def test_full_depth_two_tree(self):
        tree = build_tree({0: "00", 1: "01", 2: "10", 3: "11"})
        assert tree.string_length == 2
        leaves = tree.leaves()
        assert [l.class_id for l in leaves] == [0, 1, 2, 3]
        assert [l.prefix for l in leaves] == ["00", "01", "10", "11"]
        assert len(tree.internal_nodes()) == 3

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            build_tree({0: "0", 1: "01"})

    def test_duplicate_strings_rejected(self):
        with pytest.raises(CollisionError, match="one-to-one"):
            build_tree({0: "01", 1: "01"})

    def test_non_binary_string_rejected(self):
        with pytest.raises(ValueError, match="non-binary"):
            build_tree({0: "0a", 1: "01"})

    def test_accepts_lookup_table_with_names(self):
        table = StringLookupTable({0: "00", 1: "11"}, class_names=["ant", "bee"])
        tree = build_tree(table)
        assert [l.class_name for l in tree.leaves()] == ["ant", "bee"]

    def test_round_trip_reproduces_table(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            codes = rng.choice(2 ** 5, size=12, replace=False)
            table = {c: format(v, "05b") for c, v in enumerate(codes)}
            assert build_tree(table).to_table() == table

    def test_every_leaf_sits_at_full_depth(self):
        rng = np.random.default_rng(4)
        codes = rng.choice(2 ** 6, size=20, replace=False)
        tree = build_tree({c: format(v, "06b") for c, v in enumerate(codes)})
        assert all(len(l.prefix) == 6 for l in tree.leaves())


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
        tree = build_tree({c: format(c, "03b") for c in range(8)})
        reference = canonicalize(tree)
        k = len(tree.internal_nodes())
        assert k == 7
        for decisions in itertools.product([False, True], repeat=k):
            flipped = build_tree(flipped_table(tree, decisions))
            assert canonicalize(flipped) == reference

    def test_exhaustive_flip_invariance_sparse_tree(self):
        # 10 of 16 leaves: single-child chains appear; still <= 15 internal
        rng = np.random.default_rng(11)
        codes = rng.choice(16, size=10, replace=False)
        tree = build_tree({c: format(v, "04b") for c, v in enumerate(codes)})
        k = len(tree.internal_nodes())
        assert k <= 15
        reference = canonicalize(tree)
        for decisions in itertools.product([False, True], repeat=k):
            flipped = build_tree(flipped_table(tree, decisions))
            assert canonicalize(flipped) == reference

    def test_flips_never_collide_distinct_forms(self):
        # two genuinely different hierarchies stay different under any flips
        a = build_tree({0: "00", 1: "01", 2: "10", 3: "11"})
        b = build_tree({0: "00", 2: "01", 1: "10", 3: "11"})
        forms_a = {canonicalize(build_tree(flipped_table(a, d))).term
                   for d in itertools.product([False, True], repeat=3)}
        forms_b = {canonicalize(build_tree(flipped_table(b, d))).term
                   for d in itertools.product([False, True], repeat=3)}
        assert len(forms_a) == 1 and len(forms_b) == 1
        assert forms_a != forms_b


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

    def test_json_round_trip_is_byte_identical(self):
        tree = build_tree({0: "010", 1: "011", 2: "100", 3: "111"})
        text = export_tree(tree, "json")
        again = export_tree(tree_from_json(text), "json")
        assert text == again

    def test_json_preserves_structure(self):
        tree = build_tree({0: "00", 1: "01", 2: "11"})
        clone = tree_from_json(export_tree(tree, "json"))
        assert clone.to_table() == tree.to_table()
        assert clone.string_length == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            export_tree(build_tree({0: "0", 1: "1"}), "svg")


def _leaf(prefix, class_id):
    return {"prefix": prefix, "class_id": class_id, "class_name": str(class_id)}


def _tree_doc(root, length=1, **header):
    return json.dumps({"version": 1, "L": length, "root": root, **header})


_ROOT_01 = {"prefix": "", "children": [_leaf("0", 0), _leaf("1", 1)]}

MALFORMED_TREE_JSON = {
    "non-binary leaf prefixes": _tree_doc(
        {"prefix": "", "children": [{"prefix": "z", "children": [_leaf("zz", 0)]},
                                    _leaf("q", 1)]}, length=2),
    "list document": "[]",
    "missing root": json.dumps({"version": 1, "L": 1}),
    "children object": _tree_doc({"prefix": "", "children": {}}),
    "empty children list": _tree_doc({"prefix": "", "children": []}),
    "three children": _tree_doc({"prefix": "", "children": [_leaf("0", 0), _leaf("1", 1),
                                                             _leaf("1", 2)]}),
    "repeated bit": _tree_doc({"prefix": "", "children": [_leaf("0", 0), _leaf("0", 1)]}),
    "child skips a bit": _tree_doc({"prefix": "", "children": [
        {"prefix": "0", "children": [_leaf("10", 0)]}]}, length=2),
    "root prefix not empty": _tree_doc({"prefix": "0", "children": [_leaf("00", 0)]}),
    "leaf above depth L": _tree_doc(_ROOT_01, length=2),
    "node below depth L": _tree_doc({"prefix": "", "children": [
        {"prefix": "0", "children": [_leaf("00", 0)]}]}, length=1),
    "duplicate class ids": _tree_doc({"prefix": "", "children": [_leaf("0", 0), _leaf("1", 0)]}),
    "str class id": _tree_doc({"prefix": "", "children": [_leaf("0", 0), _leaf("1", "x")]}),
    "bool class id": _tree_doc({"prefix": "", "children": [_leaf("0", 0), _leaf("1", True)]}),
    "missing class name": _tree_doc({"prefix": "", "children": [
        _leaf("0", 0), {"prefix": "1", "class_id": 1}]}),
    "child not an object": _tree_doc({"prefix": "", "children": [[]]}),
    "int child prefix": _tree_doc({"prefix": "", "children": [
        {"prefix": 0, "class_id": 0, "class_name": "0"}]}),
    "str L": _tree_doc(_ROOT_01, length="1"),
    "zero L": _tree_doc({"prefix": "", "class_id": 0, "class_name": "0"}, length=0),
    "wrong version": json.dumps({"version": 2, "L": 1, "root": _ROOT_01}),
    "extra header key": _tree_doc(_ROOT_01, note="x"),
    "deep nesting": "[" * 100_000,
    "not JSON": "{",
    "empty object": "{}",
    "missing version": json.dumps({"L": 1, "root": _ROOT_01}),
    "missing L": json.dumps({"version": 1, "root": _ROOT_01}),
    "null root": _tree_doc(None),
    "float L": _tree_doc(_ROOT_01, length=1.0),
    "bool L": _tree_doc(_ROOT_01, length=True),
    "float class id": _tree_doc({"prefix": "", "children": [_leaf("0", 0), _leaf("1", 1.0)]}),
    "int class name": _tree_doc({"prefix": "", "children": [
        _leaf("0", 0), {"prefix": "1", "class_id": 1, "class_name": 1}]}),
    "leaf without prefix": _tree_doc({"prefix": "", "children": [
        _leaf("0", 0), {"class_id": 1, "class_name": "1"}]}),
    "leaf with a string key": _tree_doc({"prefix": "", "children": [
        _leaf("0", 0), {**_leaf("1", 1), "string": "1"}]}),
    "internal node with a class id": _tree_doc({**_ROOT_01, "class_id": 0}),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED_TREE_JSON))
def test_malformed_tree_json_raises_value_error(defect):
    with pytest.raises(ValueError):
        tree_from_json(MALFORMED_TREE_JSON[defect])


def test_valid_tree_json_loads():
    tree = tree_from_json(_tree_doc(_ROOT_01))
    assert tree.to_table() == {0: "0", 1: "1"}
