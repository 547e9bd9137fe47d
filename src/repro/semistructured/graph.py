"""Semi-structured data graphs (Section 6.3 substrate).

Section 6.3 argues bounding-schemas apply beyond LDAP forests to
semi-structured databases — rooted, labeled graphs in the style of OEM /
UnQL, where existing path-constraint formalisms (Buneman-Fan-Weinstein
fixed-length paths; Abiteboul-Vianu regular path constraints on
destinations) cannot express "every *person* node has a *name* node
somewhere below it" or "no *country* node below another *country* node".

:class:`DataGraph` is a minimal such model: labeled nodes, unlabeled
parent→child edges, arbitrary graph shape (sharing and cycles allowed —
descendant/ancestor mean proper reachability).  It wraps a
:mod:`networkx` digraph, which supplies reachability.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

import networkx as nx

from repro.errors import ModelError

__all__ = ["DataGraph"]


class DataGraph:
    """A rooted, node-labeled directed graph.

    Nodes carry a *label* (the analogue of an object class) and optional
    (attribute, value) pairs.  Edges are parent→child.  Unlike the LDAP
    forest, sharing (in-degree > 1) and cycles are allowed.
    """

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._by_label: Dict[str, Set[Hashable]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node: Hashable,
        label: str,
        value: Optional[object] = None,
    ) -> Hashable:
        """Add a labeled node; returns the node id.

        Raises
        ------
        ModelError
            If the node already exists.
        """
        if node in self._graph:
            raise ModelError(f"node {node!r} already exists")
        self._graph.add_node(node, label=label, value=value)
        self._by_label.setdefault(label, set()).add(node)
        return node

    def add_edge(self, parent: Hashable, child: Hashable) -> None:
        """Add a parent→child edge between existing nodes."""
        if parent not in self._graph or child not in self._graph:
            raise ModelError("both endpoints must exist before adding an edge")
        self._graph.add_edge(parent, child)

    def add_child(
        self,
        parent: Hashable,
        node: Hashable,
        label: str,
        value: Optional[object] = None,
    ) -> Hashable:
        """Convenience: add a node and an edge from ``parent`` to it."""
        self.add_node(node, label, value)
        self.add_edge(parent, node)
        return node

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def label(self, node: Hashable) -> str:
        """The label of ``node``."""
        return self._graph.nodes[node]["label"]

    def value(self, node: Hashable) -> Optional[object]:
        """The value attached to ``node`` (``None`` when absent)."""
        return self._graph.nodes[node].get("value")

    def nodes_with_label(self, label: str) -> Set[Hashable]:
        """All nodes carrying ``label``."""
        return set(self._by_label.get(label, ()))

    def labels(self) -> Set[str]:
        """All labels in use."""
        return set(self._by_label)

    def children(self, node: Hashable) -> List[Hashable]:
        """Direct successors of ``node``."""
        return list(self._graph.successors(node))

    def parents(self, node: Hashable) -> List[Hashable]:
        """Direct predecessors of ``node``."""
        return list(self._graph.predecessors(node))

    def descendants(self, node: Hashable) -> Set[Hashable]:
        """All nodes properly reachable from ``node`` (non-empty path).

        In a cyclic graph a node can be its own proper descendant — a
        cycle through it — matching the path semantics of Section 6.3.
        ``networkx.descendants`` always excludes the source, so the
        cycle case is patched up explicitly.
        """
        reached = nx.descendants(self._graph, node)
        if any(
            child == node or node in nx.descendants(self._graph, child)
            for child in self._graph.successors(node)
        ):
            reached.add(node)
        return reached

    def ancestors(self, node: Hashable) -> Set[Hashable]:
        """All nodes that properly reach ``node`` (non-empty path)."""
        reached = nx.ancestors(self._graph, node)
        if any(
            parent == node or node in nx.ancestors(self._graph, parent)
            for parent in self._graph.predecessors(node)
        ):
            reached.add(node)
        return reached

    def roots(self) -> List[Hashable]:
        """Nodes with no incoming edges."""
        return [n for n in self._graph if self._graph.in_degree(n) == 0]

    def is_tree_shaped(self) -> bool:
        """Whether the graph is a forest (every node has at most one
        parent and there are no cycles) — the shape that embeds into an
        LDAP directory instance."""
        if any(self._graph.in_degree(n) > 1 for n in self._graph):
            return False
        return nx.is_directed_acyclic_graph(self._graph)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._graph.nodes)

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __contains__(self, node: Hashable) -> bool:
        return node in self._graph

    def edges(self) -> Iterator[Tuple[Hashable, Hashable]]:
        """All parent→child edges."""
        return iter(self._graph.edges)
