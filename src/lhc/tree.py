"""The learned hierarchy: the prefix tree of a StringLookupTable's strings.

The table is the tree. All strings share one length L, so each class is a
leaf at depth L, and the node at prefix p holds the classes whose strings
start with p. canonicalize and the DOT export derive the tree from the
strings. A node with one child adds nothing to the hierarchy, so
canonicalize contracts single-child chains and every cluster it reports
holds two or more classes. tree.json and an LH checkpoint's metadata list
the leaves, one per class (tree_obj); tree_from_json and tree_from_obj read
them back into a StringLookupTable, the one validator of a mapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .networks import StringLookupTable


def build_tree(table) -> StringLookupTable:
    """The table itself; a plain {class_id: string} mapping becomes one.

    So StringLookupTable's checks apply to the mapping.
    """
    return table if isinstance(table, StringLookupTable) else StringLookupTable(dict(table))


@dataclass(frozen=True)
class CanonicalForm:
    """Tree identity modulo swapping any node's 0/1 children.

    clusters holds the class-id set under each node with two children, so
    each has two or more classes. No node has a single child, so clusters
    and leaf_ids fix the tree, and two forms are equal when both are.
    """

    clusters: frozenset[frozenset[int]]
    leaf_ids: frozenset[int]


def canonicalize(table: StringLookupTable) -> CanonicalForm:
    """Split the class ids by their bit at each depth, contracting one-sided splits."""
    strings = table.class_to_string
    clusters: set[frozenset[int]] = set()

    def split(ids: list[int], depth: int) -> None:
        if len(ids) > 1:
            sides = [[c for c in ids if strings[c][depth] == bit] for bit in "01"]
            if all(sides):
                clusters.add(frozenset(ids))
            for side in filter(None, sides):
                split(side, depth + 1)

    split(list(strings), 0)
    return CanonicalForm(clusters=frozenset(clusters), leaf_ids=frozenset(strings))


@dataclass(frozen=True)
class TreeComparison:
    shared_clusters: int
    total_a: int
    total_b: int

    @property
    def shared_fraction(self) -> float:
        """Recovery: shared clusters over the larger tree's cluster count.

        Clusters hold two or more classes, so a tree whose strings carry
        extra bits scores 1.0 against the tree it refines to.
        """
        larger = max(self.total_a, self.total_b)
        # one class makes no cluster, and two one-class trees are equal
        return self.shared_clusters / larger if larger else 1.0


def tree_distance(a: CanonicalForm, b: CanonicalForm) -> TreeComparison:
    """The count of leaf-clusters present in both; equal forms (==) are the same tree."""
    if a.leaf_ids != b.leaf_ids:
        raise ValueError(f"leaf sets differ: {sorted(a.leaf_ids)} vs {sorted(b.leaf_ids)}")
    shared = len(a.clusters & b.clusters)
    return TreeComparison(shared_clusters=shared, total_a=len(a.clusters), total_b=len(b.clusters))


TREE_JSON_VERSION = 2
_LEAF_KEYS = {"class_id", "class_name", "string"}


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tree_obj(table: StringLookupTable) -> dict:
    """tree.json's object: the version and the leaves in class-id order."""
    return {"version": TREE_JSON_VERSION, "leaves": [
        {"class_id": c, "class_name": name, "string": s}
        for (c, s), name in zip(table.class_to_string.items(), table.class_names)]}


def export_tree(table: StringLookupTable, format: str) -> str:
    """Render as graphviz DOT or as tree.json, the list of leaves in class-id order."""
    if format == "json":
        return json.dumps(tree_obj(table), indent=2, sort_keys=True)
    if format == "dot":
        lines = ["digraph hierarchy {", "  node [shape=circle, label=\"\"];"]
        strings = table.class_to_string.values()
        for s, name in sorted(zip(strings, table.class_names)):
            lines.append(f'  "n_{s}" [shape=box, label={_dot_quoted(name)}];')
        # sorted prefixes are the tree's depth-first order
        for p in sorted({s[:k] for s in strings for k in range(1, len(s) + 1)}):
            lines.append(f'  "n_{p[:-1]}" -> "n_{p}" [label="{p[-1]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown tree format {format!r} (expected 'dot' or 'json')")


def tree_from_json(text: str) -> StringLookupTable:
    """Inverse of export_tree(table, "json"); raises ValueError on any malformed file."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("tree JSON nests too deeply") from None
    return tree_from_obj(obj)


def tree_from_obj(obj) -> StringLookupTable:
    """Inverse of tree_obj; a malformed object or mapping raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("tree JSON must be an object")
    if obj.get("version") != TREE_JSON_VERSION:
        raise ValueError(f"unsupported tree JSON version {obj.get('version')!r} "
                         f"(this reader reads version {TREE_JSON_VERSION})")
    if set(obj) != {"version", "leaves"} or not isinstance(obj["leaves"], list):
        raise ValueError("tree JSON must hold exactly a version and a list of leaves")
    for leaf in obj["leaves"]:
        if not isinstance(leaf, dict) or set(leaf) != _LEAF_KEYS \
                or type(leaf["class_id"]) is not int or not isinstance(leaf["string"], str):
            raise ValueError("tree JSON: each leaf needs exactly an int class_id, "
                             "a str class_name and a str string")
    leaves = sorted(obj["leaves"], key=lambda leaf: leaf["class_id"])
    mapping = {leaf["class_id"]: leaf["string"] for leaf in leaves}
    if len(mapping) != len(leaves):
        raise ValueError("tree JSON: a class id appears at more than one leaf")
    return StringLookupTable(mapping, class_names=[leaf["class_name"] for leaf in leaves])
