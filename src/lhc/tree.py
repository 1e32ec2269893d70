"""Prefix trees over the learned class strings: build, canonicalize, export.

All strings share one length L, so every leaf sits at depth L; internal
nodes with a single child are kept as-is, never contracted, so that leaf
paths always spell the table strings literally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .networks import StringLookupTable


@dataclass
class TreeNode:
    prefix: str
    children: dict[str, "TreeNode"] = field(default_factory=dict)
    class_id: int | None = None
    class_name: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.class_id is not None


class PrefixTree:
    """Binary tree whose root-to-leaf paths spell the class strings."""

    def __init__(self, root: TreeNode, string_length: int):
        self.root = root
        self.string_length = string_length

    def leaves(self) -> list[TreeNode]:
        out: list[TreeNode] = []

        def walk(node: TreeNode):
            if node.is_leaf:
                out.append(node)
            for bit in sorted(node.children):
                walk(node.children[bit])

        walk(self.root)
        return out

    def internal_nodes(self) -> list[TreeNode]:
        out: list[TreeNode] = []

        def walk(node: TreeNode):
            if not node.is_leaf:
                out.append(node)
                for bit in sorted(node.children):
                    walk(node.children[bit])

        walk(self.root)
        return out

    def to_table(self) -> dict[int, str]:
        """Read leaf paths back out; inverse of build_tree."""
        return {leaf.class_id: leaf.prefix for leaf in self.leaves()}


def build_tree(table) -> PrefixTree:
    """Build the prefix tree of a bijective class-to-string table.

    Accepts a StringLookupTable or a plain {class_id: string} mapping, which
    becomes one, so the table's checks apply: ValueError for an empty table,
    strings of mixed lengths or non-binary strings, CollisionError for a
    string shared by two classes.
    """
    if not isinstance(table, StringLookupTable):
        table = StringLookupTable(dict(table))
    root = TreeNode(prefix="")
    for (class_id, string), name in zip(table.class_to_string.items(), table.class_names):
        node = root
        for bit in string:
            if bit not in node.children:
                node.children[bit] = TreeNode(prefix=node.prefix + bit)
            node = node.children[bit]
        node.class_id = class_id
        node.class_name = name
    return PrefixTree(root, table.string_length)


@dataclass(frozen=True)
class CanonicalForm:
    """Tree identity modulo swapping any internal node's 0/1 children.

    term renders each subtree with children ordered by their smallest
    contained class id; clusters holds the leaf-id set under each internal
    node.
    """

    term: str
    clusters: frozenset[frozenset[int]]
    leaf_ids: frozenset[int]

    def __eq__(self, other) -> bool:
        return isinstance(other, CanonicalForm) and self.term == other.term


def canonicalize(tree: PrefixTree) -> CanonicalForm:
    clusters: set[frozenset[int]] = set()

    def walk(node: TreeNode) -> tuple[str, frozenset[int]]:
        if node.is_leaf:
            return str(node.class_id), frozenset([node.class_id])
        rendered = []
        leaf_ids: frozenset[int] = frozenset()
        for bit in node.children:
            term, ids = walk(node.children[bit])
            rendered.append((min(ids), term))
            leaf_ids |= ids
        clusters.add(leaf_ids)
        rendered.sort()
        return "(" + ",".join(term for _, term in rendered) + ")", leaf_ids

    term, leaf_ids = walk(tree.root)
    return CanonicalForm(term=term, clusters=frozenset(clusters), leaf_ids=leaf_ids)


@dataclass(frozen=True)
class TreeComparison:
    equal: bool
    shared_clusters: int
    total_a: int
    total_b: int

    @property
    def shared_fraction(self) -> float:
        return self.shared_clusters / max(self.total_a, self.total_b)


def tree_distance(a: CanonicalForm, b: CanonicalForm) -> TreeComparison:
    """Equality plus the count of internal-node leaf-clusters present in both."""
    if a.leaf_ids != b.leaf_ids:
        raise ValueError(f"leaf sets differ: {sorted(a.leaf_ids)} vs {sorted(b.leaf_ids)}")
    shared = len(a.clusters & b.clusters)
    return TreeComparison(equal=(a == b), shared_clusters=shared,
                          total_a=len(a.clusters), total_b=len(b.clusters))


TREE_JSON_VERSION = 1


def _node_to_obj(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"prefix": node.prefix, "class_id": node.class_id,
                "class_name": node.class_name}
    return {"prefix": node.prefix,
            "children": [_node_to_obj(node.children[b]) for b in sorted(node.children)]}


def _node_from_obj(obj, prefix: str, length: int, seen: set[int]) -> TreeNode:
    """Rebuild the subtree whose root must sit at prefix; raises ValueError."""
    if not isinstance(obj, dict) or obj.get("prefix") != prefix:
        raise ValueError(f"tree JSON: expected a node object with prefix {prefix!r}")
    if len(prefix) == length:
        class_id, name = obj.get("class_id"), obj.get("class_name")
        if set(obj) != {"prefix", "class_id", "class_name"} or type(class_id) is not int \
                or not isinstance(name, str):
            raise ValueError(f"tree JSON: leaf {prefix!r} needs only an int class_id "
                             f"and a str class_name")
        if class_id in seen:
            raise ValueError(f"tree JSON: class id {class_id} appears at more than one leaf")
        seen.add(class_id)
        return TreeNode(prefix=prefix, class_id=class_id, class_name=name)
    children = obj.get("children")
    if set(obj) != {"prefix", "children"} or not isinstance(children, list) \
            or not 1 <= len(children) <= 2:
        raise ValueError(f"tree JSON: node {prefix!r} at depth {len(prefix)} < L={length} "
                         f"needs a list of one or two children and nothing else")
    node = TreeNode(prefix=prefix)
    for child_obj in children:
        child_prefix = child_obj.get("prefix") if isinstance(child_obj, dict) else None
        bit = next((b for b in "01" if child_prefix == prefix + b), None)
        if bit is None or bit in node.children:
            raise ValueError(f"tree JSON: a child of {prefix!r} must extend it by a "
                             f"new bit, 0 or 1")
        node.children[bit] = _node_from_obj(child_obj, prefix + bit, length, seen)
    return node


def export_tree(tree: PrefixTree, format: str) -> str:
    """Render as graphviz DOT or as nested JSON."""
    if format == "json":
        obj = {"version": TREE_JSON_VERSION, "L": tree.string_length,
               "root": _node_to_obj(tree.root)}
        return json.dumps(obj, indent=2, sort_keys=True)
    if format == "dot":
        lines = ["digraph hierarchy {", "  node [shape=circle, label=\"\"];"]
        for leaf in tree.leaves():
            lines.append(f'  "n_{leaf.prefix}" [shape=box, label="{leaf.class_name}"];')

        def walk(node: TreeNode):
            for bit in sorted(node.children):
                child = node.children[bit]
                lines.append(f'  "n_{node.prefix}" -> "n_{child.prefix}" [label="{bit}"];')
                walk(child)

        walk(tree.root)
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown tree format {format!r} (expected 'dot' or 'json')")


def tree_from_json(text: str) -> PrefixTree:
    """Inverse of export_tree(tree, "json"); raises ValueError on any malformed tree.

    Each child's prefix must be its parent's plus one bit, every leaf must
    sit at depth L and every internal node above it, and class ids must be
    distinct ints.
    """
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("tree JSON nests too deeply") from None
    if not isinstance(obj, dict) or set(obj) != {"version", "L", "root"}:
        raise ValueError("tree JSON must be an object with exactly version, L and root")
    if obj["version"] != TREE_JSON_VERSION:
        raise ValueError(f"unsupported tree JSON version {obj['version']!r}")
    length = obj["L"]
    if type(length) is not int or length < 1:
        raise ValueError(f"tree JSON: L must be a positive int, got {length!r}")
    return PrefixTree(_node_from_obj(obj["root"], "", length, set()), length)
