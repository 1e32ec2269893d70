"""Prefix trees over the learned class strings: build, canonicalize, export.

All strings share one length L, so every leaf sits at depth L; internal
nodes with a single child are kept as-is, never contracted, so that leaf
paths always spell the table strings literally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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

    Accepts a StringLookupTable or a plain {class_id: string} dict.
    """
    if hasattr(table, "class_to_string"):
        mapping = table.class_to_string
        names = {c: table.class_names[i] for i, c in enumerate(mapping)}
    else:
        mapping = dict(table)
        names = {c: str(c) for c in mapping}
    if not mapping:
        raise ValueError("cannot build a tree from an empty table")
    lengths = {len(s) for s in mapping.values()}
    if len(lengths) != 1:
        raise ValueError(f"strings must share one length, got lengths {sorted(lengths)}")
    bad = [s for s in mapping.values() if set(s) - {"0", "1"}]
    if bad:
        raise ValueError(f"non-binary string {bad[0]!r}")
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("duplicate strings in table")
    length = lengths.pop()

    root = TreeNode(prefix="")
    for class_id in sorted(mapping):
        node = root
        for bit in mapping[class_id]:
            if bit not in node.children:
                node.children[bit] = TreeNode(prefix=node.prefix + bit)
            node = node.children[bit]
        node.class_id = class_id
        node.class_name = names[class_id]
    return PrefixTree(root, length)


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


def _node_from_obj(obj: dict) -> TreeNode:
    if "class_id" in obj:
        return TreeNode(prefix=obj["prefix"], class_id=obj["class_id"],
                        class_name=obj["class_name"])
    node = TreeNode(prefix=obj["prefix"])
    for child_obj in obj["children"]:
        child = _node_from_obj(child_obj)
        node.children[child.prefix[-1]] = child
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
    obj = json.loads(text)
    if obj.get("version") != TREE_JSON_VERSION:
        raise ValueError(f"unsupported tree JSON version {obj.get('version')}")
    return PrefixTree(_node_from_obj(obj["root"]), obj["L"])
