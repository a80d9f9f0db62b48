"""The :class:`IndexTree` container.

Wraps a root :class:`~repro.tree.node.Node` and provides the traversals,
lookups and derived quantities the scheduler needs: preorder numbering of
index nodes (§3.2), per-node ancestor sets (§3.3 ``Ancestor(D_i)``), level
decomposition (Corollary 1), subtree weights (the §4.2 sorting comparator)
and structural validation.

The tree is deliberately a thin, explicit object — the search code in
``repro.core`` treats nodes as opaque partially-ordered jobs, exactly as the
paper's Personnel Assignment transformation does.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ..exceptions import TreeError
from .node import DataNode, IndexNode, Node

__all__ = ["IndexTree"]


class IndexTree:
    """A rooted index tree of index (internal) and data (leaf) nodes.

    Parameters
    ----------
    root:
        The root node. Usually an :class:`IndexNode`; a bare
        :class:`DataNode` is allowed (a degenerate one-item broadcast).
    renumber:
        When true (default), assign preorder numbers to index nodes and, if
        an index node has an empty label, label it with its number — the
        paper's Fig. 1 convention.
    validate:
        When true (default), check structural invariants immediately.
    """

    def __init__(self, root: Node, renumber: bool = True, validate: bool = True) -> None:
        self.root = root
        if renumber:
            self.renumber()
        if validate:
            self.validate()

    # -- traversals ----------------------------------------------------------
    def preorder(self) -> Iterator[Node]:
        """Yield all nodes in preorder (parent before children, left to right)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, IndexNode):
                stack.extend(reversed(node.children))

    def postorder(self) -> Iterator[Node]:
        """Yield all nodes in postorder (children before parent)."""
        result: list[Node] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            result.append(node)
            if isinstance(node, IndexNode):
                stack.extend(node.children)
        return reversed(result)

    def nodes(self) -> list[Node]:
        """All nodes in preorder, as a list."""
        result: list[Node] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            result.append(node)
            if isinstance(node, IndexNode):
                stack.extend(reversed(node.children))
        return result

    def index_nodes(self) -> list[IndexNode]:
        """All index nodes in preorder."""
        return [n for n in self.nodes() if isinstance(n, IndexNode)]

    def data_nodes(self) -> list[DataNode]:
        """All data nodes in preorder (left-to-right leaf order)."""
        return [n for n in self.nodes() if isinstance(n, DataNode)]

    def levels(self) -> list[list[Node]]:
        """Nodes grouped by depth: ``levels()[0]`` is ``[root]``."""
        result: list[list[Node]] = []
        frontier: list[Node] = [self.root]
        while frontier:
            result.append(frontier)
            next_frontier: list[Node] = []
            for node in frontier:
                if isinstance(node, IndexNode):
                    next_frontier.extend(node.children)
            frontier = next_frontier
        return result

    # -- derived quantities ----------------------------------------------------
    def depth(self) -> int:
        """Tree depth counting the root as level 1 (paper convention)."""
        return len(self.levels())

    def max_level_width(self) -> int:
        """The maximal number of nodes on any one level (Corollary 1 bound)."""
        return max(len(level) for level in self.levels())

    def fanout(self) -> int:
        """The maximal number of children of any index node (0 if none)."""
        widths = [len(n.children) for n in self.index_nodes()]
        return max(widths, default=0)

    def total_weight(self) -> float:
        """Sum of all data-node weights, the denominator of formula (1)."""
        return sum(d.weight for d in self.data_nodes())

    def subtree_data_weight(self, node: Node) -> float:
        """Sum of data weights in the subtree rooted at ``node``."""
        if isinstance(node, DataNode):
            return node.weight
        total = 0.0
        stack: list[Node] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, DataNode):
                total += current.weight
            else:
                stack.extend(current.children)  # type: ignore[union-attr]
        return total

    def subtree_size(self, node: Node) -> int:
        """Number of nodes (index + data) in the subtree rooted at ``node``."""
        count = 0
        stack: list[Node] = [node]
        while stack:
            current = stack.pop()
            count += 1
            if isinstance(current, IndexNode):
                stack.extend(current.children)
        return count

    def ancestors_of(self, node: Node) -> list[IndexNode]:
        """``Ancestor(node)``: proper ancestors, root first (paper §3.3)."""
        chain = list(node.ancestors())
        chain.reverse()
        return chain

    # -- bookkeeping -------------------------------------------------------------
    def renumber(self) -> None:
        """Assign preorder order-numbers ``1..m`` to index nodes (§3.2).

        Index nodes with empty labels are given their number as label,
        matching the paper's figures.
        """
        counter = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, IndexNode):
                counter += 1
                node.order = counter
                if not node.label:
                    node.label = str(counter)
                stack.extend(reversed(node.children))

    def find(self, label: str) -> Node:
        """Return the first preorder node with the given ``label``.

        Raises :class:`KeyError` if absent. Convenient in tests and
        examples; production callers hold node references directly.
        """
        for node in self.preorder():
            if node.label == label:
                return node
        raise KeyError(label)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TreeError` on failure.

        Invariants (§2.1): the node graph is a rooted tree (each node
        reachable exactly once, parent pointers consistent), index nodes
        have at least one child, data nodes are leaves with non-negative
        weight, and index-node order numbers are unique.
        """
        # Lazily: a cycle must fail at its first repeat, not grow a list.
        _validate_nodes(self.root, self.preorder())

    # -- transformation ------------------------------------------------------------
    def clone(self) -> "IndexTree":
        """Deep-copy the tree (fresh node objects, same labels/weights/keys)."""

        def copy(node: Node) -> Node:
            if isinstance(node, DataNode):
                return DataNode(node.label, node.weight, key=node.key)
            assert isinstance(node, IndexNode)
            duplicate = IndexNode(node.label, key=node.key)
            duplicate.order = node.order
            for child in node.children:
                duplicate.add_child(copy(child))
            return duplicate

        return IndexTree(copy(self.root), renumber=False, validate=False)

    def map_sorted_children(
        self, sort_key: Callable[[Node], object]
    ) -> "IndexTree":
        """Return a clone whose sibling lists are sorted by ``sort_key``."""
        duplicate = self.clone()
        for node in duplicate.preorder():
            if isinstance(node, IndexNode):
                node.children.sort(key=sort_key)
        return duplicate

    # -- rendering -----------------------------------------------------------------
    def to_ascii(self) -> str:
        """Render the tree as indented ASCII art (labels and weights)."""
        lines: list[str] = []

        def walk(node: Node, prefix: str, is_last: bool, is_root: bool) -> None:
            connector = "" if is_root else ("`-- " if is_last else "|-- ")
            if isinstance(node, DataNode):
                lines.append(f"{prefix}{connector}{node.label} (w={node.weight:g})")
            else:
                lines.append(f"{prefix}{connector}[{node.label}]")
                extension = "" if is_root else ("    " if is_last else "|   ")
                child_prefix = prefix + extension
                assert isinstance(node, IndexNode)
                for position, child in enumerate(node.children):
                    walk(
                        child,
                        child_prefix,
                        position == len(node.children) - 1,
                        False,
                    )

        walk(self.root, "", True, True)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IndexTree depth={self.depth()} "
            f"index={len(self.index_nodes())} data={len(self.data_nodes())}>"
        )


def _validate_nodes(root: Node, nodes: Iterable[Node]) -> None:
    """:meth:`IndexTree.validate` over ``root``'s nodes in preorder."""
    if root.parent is not None:
        raise TreeError("root must not have a parent")
    seen: set[int] = set()
    orders: set[int] = set()
    for node in nodes:
        ident = id(node)
        if ident in seen:
            raise TreeError(f"node {node.label!r} reachable more than once")
        seen.add(ident)
        if isinstance(node, IndexNode):
            children = node.children
            if not children:
                raise TreeError(f"index node {node.label!r} has no children")
            order = node.order
            if order:
                if order in orders:
                    raise TreeError(f"duplicate index order number {order}")
                orders.add(order)
            for child in children:
                if child.parent is not node:
                    raise TreeError(
                        f"child {child.label!r} has inconsistent parent pointer"
                    )
        elif isinstance(node, DataNode):
            if node.weight < 0:
                raise TreeError(
                    f"data node {node.label!r} has negative weight"
                )
        else:  # pragma: no cover - defensive
            raise TreeError(f"unknown node type: {type(node)!r}")
