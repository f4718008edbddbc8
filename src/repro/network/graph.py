"""Network graph primitives: nodes, capacitated links, and adjacency.

The paper models a network graph ``G`` as a set of nodes connected by ``n``
links ``l_1 .. l_n``, where each link ``l_j`` has a capacity ``c_j`` that
limits the aggregate flow it can carry (Section 2, Table 1).  Links are
undirected in the paper's formulation; a bidirectional link with independent
per-direction capacity can be modelled as two parallel links.

This module provides :class:`Link` and :class:`NetworkGraph`.  The graph is
deliberately small and explicit rather than a thin wrapper over ``networkx``:
fairness algorithms index links by integer id constantly and benefit from the
direct list/dict representation.  Minimum-hop routing runs one batched
breadth-first search in NumPy over a CSR adjacency cached on the graph
(:meth:`NetworkGraph.shortest_path_trees`).  A
:meth:`NetworkGraph.to_networkx` bridge is provided for interoperability
(e.g. drawing, alternative routing); ``networkx`` is an optional dependency,
imported only when the bridge is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import NetworkModelError, RoutingError

if TYPE_CHECKING:  # pragma: no cover - optional dependency, imported on use
    import networkx as nx

__all__ = ["Link", "NetworkGraph", "unreachable_error"]

#: Cells (sources x (nodes + adjacency entries)) one batch of a
#: multi-source search — routing here, edge betweenness in
#: ``topology.metrics`` — may touch: the batch's per-cell tables and
#: frontier expansions stay around 1-2 MB however many sources a call has.
_SEARCH_BATCH_CELLS = 1 << 17

#: Parent-link sentinels of the search table.
_UNSEEN = -1
_SOURCE = -2


@dataclass(frozen=True)
class Link:
    """A capacitated link between two nodes.

    Attributes
    ----------
    link_id:
        Zero-based integer identifier.  The paper writes ``l_j`` with
        ``1 <= j <= n``; we use zero-based ids internally and format them as
        ``l{j+1}`` for display.
    u, v:
        Endpoint node names.  Order carries no meaning.
    capacity:
        The capacity ``c_j`` (in rate units, e.g. Mbit/s or packets/s).
        Must be strictly positive; ``float('inf')`` is allowed for
        uncapacitated links.
    name:
        Optional human-readable name (defaults to ``l{j+1}``).
    """

    link_id: int
    u: str
    v: str
    capacity: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.link_id < 0:
            raise NetworkModelError(f"link_id must be non-negative, got {self.link_id}")
        if not self.capacity > 0:  # rejects NaN too: NaN > 0 is False
            raise NetworkModelError(
                f"link {self.link_id} capacity must be positive, got {self.capacity}"
            )
        if self.u == self.v:
            raise NetworkModelError(f"link {self.link_id} is a self-loop at node {self.u!r}")
        if not self.name:
            object.__setattr__(self, "name", f"l{self.link_id + 1}")

    @property
    def endpoints(self) -> Tuple[str, str]:
        """The pair of endpoint node names."""
        return (self.u, self.v)

    def other_end(self, node: str) -> str:
        """Return the endpoint opposite ``node``.

        Raises
        ------
        NetworkModelError
            If ``node`` is not an endpoint of this link.
        """
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise NetworkModelError(f"node {node!r} is not an endpoint of {self.name}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({self.u}--{self.v}, c={self.capacity})"


class NetworkGraph:
    """An undirected graph of named nodes and capacitated links.

    Parameters
    ----------
    nodes:
        Optional iterable of node names to pre-register.  Nodes referenced by
        :meth:`add_link` are registered automatically.

    Examples
    --------
    >>> g = NetworkGraph()
    >>> g.add_link("a", "b", capacity=5.0)
    Link(link_id=0, u='a', v='b', capacity=5.0, name='l1')
    >>> g.num_links
    1
    """

    def __init__(self, nodes: Optional[Iterable[str]] = None) -> None:
        self._nodes: List[str] = []
        self._node_index: Dict[str, int] = {}
        self._links: List[Link] = []
        self._incident: Dict[str, List[int]] = {}
        self._link_name_index: Dict[str, int] = {}
        self._capacities_cache: Optional[List[float]] = None
        self._adjacency_cache: Optional[Tuple[np.ndarray, ...]] = None
        if nodes is not None:
            for node in nodes:
                self.add_node(node)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> str:
        """Register a node.  Adding an existing node is a no-op."""
        if not isinstance(name, str) or not name:
            raise NetworkModelError(f"node name must be a non-empty string, got {name!r}")
        if name not in self._node_index:
            self._node_index[name] = len(self._nodes)
            self._nodes.append(name)
            self._incident[name] = []
            self._adjacency_cache = None
        return name

    def add_link(self, u: str, v: str, capacity: float, name: str = "") -> Link:
        """Create a link between ``u`` and ``v`` with the given capacity.

        Endpoints that are not yet registered are added automatically.
        Parallel links between the same pair of nodes are permitted (each gets
        its own id), which is occasionally useful for modelling per-direction
        capacities.  Display names must be unique across the graph (whether
        supplied explicitly or auto-generated); a duplicate raises
        :class:`NetworkModelError` instead of silently shadowing the earlier
        link in name-based lookups.
        """
        self.add_node(u)
        self.add_node(v)
        link = Link(link_id=len(self._links), u=u, v=v, capacity=capacity, name=name)
        if link.name in self._link_name_index:
            raise NetworkModelError(
                f"duplicate link name {link.name!r} (already used by link "
                f"{self._link_name_index[link.name]})"
            )
        self._links.append(link)
        self._link_name_index[link.name] = link.link_id
        self._incident[u].append(link.link_id)
        self._incident[v].append(link.link_id)
        self._capacities_cache = None
        self._adjacency_cache = None
        return link

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Sequence[str]:
        """Node names in insertion order."""
        return tuple(self._nodes)

    @property
    def links(self) -> Sequence[Link]:
        """All links in id order."""
        return tuple(self._links)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def has_node(self, name: str) -> bool:
        return name in self._node_index

    def link(self, link_id: int) -> Link:
        """Return the link with the given id."""
        try:
            return self._links[link_id]
        except IndexError:
            raise NetworkModelError(f"no link with id {link_id}") from None

    def link_by_name(self, name: str) -> Link:
        """Return the link with the given display name (O(1) dict lookup)."""
        try:
            return self._links[self._link_name_index[name]]
        except KeyError:
            raise NetworkModelError(f"no link named {name!r}") from None

    def capacity(self, link_id: int) -> float:
        """Capacity ``c_j`` of link ``link_id``."""
        return self.link(link_id).capacity

    def capacities(self) -> List[float]:
        """Capacities of all links, indexed by link id (cached between adds)."""
        if self._capacities_cache is None:
            self._capacities_cache = [link.capacity for link in self._links]
        return list(self._capacities_cache)

    def incident_links(self, node: str) -> List[int]:
        """Ids of links incident to ``node``."""
        if node not in self._node_index:
            raise NetworkModelError(f"unknown node {node!r}")
        return list(self._incident[node])

    def neighbors(self, node: str) -> List[str]:
        """Nodes adjacent to ``node`` (each neighbour listed once)."""
        seen: Set[str] = set()
        result: List[str] = []
        for link_id in self.incident_links(node):
            other = self._links[link_id].other_end(node)
            if other not in seen:
                seen.add(other)
                result.append(other)
        return result

    def links_between(self, u: str, v: str) -> List[Link]:
        """All links whose endpoints are exactly ``{u, v}``."""
        return [
            link
            for link in self._links
            if {link.u, link.v} == {u, v}
        ]

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def __len__(self) -> int:
        return len(self._links)

    # ------------------------------------------------------------------
    # path finding
    # ------------------------------------------------------------------
    def _adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR adjacency ``(ptr, far, via, ends)``, cached until the graph grows.

        Entries ``ptr[i]:ptr[i + 1]`` belong to node ``i`` (insertion order)
        and list its incident links in ascending id, the order of
        :meth:`incident_links`: ``via`` holds the link id and ``far`` the
        node index at its other end.  ``ends[j]`` is the sum of link ``j``'s
        endpoint indices, so ``ends[j] - i`` crosses link ``j`` from node ``i``.
        """
        if self._adjacency_cache is None:
            index = self._node_index
            count = len(self._links)
            u = np.fromiter((index[link.u] for link in self._links), dtype=np.intp, count=count)
            v = np.fromiter((index[link.v] for link in self._links), dtype=np.intp, count=count)
            ends = u + v
            degrees = [len(self._incident[node]) for node in self._nodes]
            via = np.fromiter(
                chain.from_iterable(self._incident[node] for node in self._nodes),
                dtype=np.intp,
                count=2 * count,
            )
            ptr = np.zeros(len(self._nodes) + 1, dtype=np.intp)
            np.cumsum(degrees, out=ptr[1:])
            far = ends[via] - np.repeat(np.arange(len(self._nodes)), degrees)
            self._adjacency_cache = (ptr, far, via, ends)
        return self._adjacency_cache

    def _search(
        self, sources: np.ndarray, goals: Sequence[np.ndarray]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Breadth-first search from many sources at once, one level at a time.

        Yields ``(start, parent)`` per batch of sources: row ``b`` of the
        int32 ``parent`` table belongs to ``sources[start + b]`` and holds,
        for every node index, the link the search first reached that node
        by (``_SOURCE`` at the source, ``_UNSEEN`` where it never arrived).
        A source stops expanding once all of its ``goals`` are reached.

        Within a source, frontier nodes expand in discovery order and each
        node's links in ascending id, exactly as a queue-driven BFS would,
        and a node's parent link is its first discovery in that flat order.
        ``np.minimum.at`` over a rank buffer picks that first discovery
        without sorting and without relying on the write order of fancy
        assignment.
        """
        ptr, far, via, _ = self._adjacency()
        n = len(self._nodes)
        batch = _batch_size(ptr, far)
        unranked = np.iinfo(np.intp).max
        rank = np.full(min(batch, len(sources)) * n, unranked, dtype=np.intp)
        for start in range(0, len(sources), batch):
            stop = start + batch
            rows = np.arange(len(sources[start:stop])) * n
            parent = np.full(rows.size * n, _UNSEEN, dtype=np.int32)
            frontier = rows + sources[start:stop]
            parent[frontier] = _SOURCE
            goal_owner = np.repeat(np.arange(rows.size), [goal.size for goal in goals[start:stop]])
            goal_cells = rows[goal_owner] + np.concatenate(goals[start:stop])
            while frontier.size:
                # Sources whose goals are all reached stop expanding.
                pending = goal_owner[parent[goal_cells] == _UNSEEN]
                live = np.bincount(pending, minlength=rows.size) > 0
                frontier = frontier[live[frontier // n]]
                entries, cells = _expand(ptr, far, frontier)
                fresh = parent[cells] == _UNSEEN
                cells, entries = cells[fresh], entries[fresh]
                order = np.arange(cells.size)
                np.minimum.at(rank, cells, order)
                winners = rank[cells] == order
                rank[cells] = unranked
                frontier = cells[winners]
                parent[frontier] = via[entries[winners]]
            yield start, parent.reshape(rows.size, n)

    def shortest_path_trees(
        self, requests: Sequence[Tuple[str, Iterable[str]]]
    ) -> List[Dict[str, List[int]]]:
        """Minimum-hop paths for many ``(source, targets)`` requests at once.

        Entry ``i`` maps every target of request ``i`` to the link ids of its
        path from the source (``[]`` for the source itself); targets in
        another component are left out.  Ties are broken deterministically
        by preferring lower link ids, so repeated calls yield the same
        routes.  All requests share one batched search (:meth:`_search`), so
        routing every session of a network costs a few NumPy passes per BFS
        level instead of a Python loop over every link.
        """
        index = self._node_index
        sources: List[int] = []
        goals: List[np.ndarray] = []
        names: List[List[str]] = []
        for source, targets in requests:
            if source not in index:
                raise NetworkModelError(f"unknown source node {source!r}")
            targets = list(targets)
            for target in targets:
                if target not in index:
                    raise NetworkModelError(f"unknown target node {target!r}")
            sources.append(index[source])
            goals.append(np.array([index[target] for target in targets], dtype=np.intp))
            names.append(targets)
        ends = self._adjacency()[3]
        trees: List[Dict[str, List[int]]] = []
        for start, parent in self._search(np.array(sources, dtype=np.intp), goals):
            stop = start + len(parent)
            paths = iter(_walk_back(parent, goals[start:stop], ends))
            for targets in names[start:stop]:
                tree: Dict[str, List[int]] = {}
                for target in targets:
                    path = next(paths)
                    if path is not None:
                        tree[target] = path
                trees.append(tree)
        return trees

    def shortest_path_tree(
        self, source: str, targets: Iterable[str]
    ) -> Dict[str, List[int]]:
        """Minimum-hop paths from ``source`` to every node in ``targets``.

        The single-request form of :meth:`shortest_path_trees`.  Raises
        :class:`RoutingError` naming every unreachable target.
        """
        targets = list(targets)
        tree = self.shortest_path_trees([(source, targets)])[0]
        stranded = [target for target in targets if target not in tree]
        if stranded:
            raise unreachable_error(source, stranded)
        return tree

    def shortest_path_links(self, source: str, target: str) -> List[int]:
        """Return link ids of a minimum-hop path from ``source`` to ``target``.

        Ties are broken deterministically by preferring lower link ids, so
        repeated calls yield the same route.  Raises :class:`RoutingError`
        (via :class:`NetworkModelError` subclassing) if no path exists.
        """
        path = self.shortest_path_trees([(source, [target])])[0].get(target)
        if path is None:
            raise RoutingError(f"no path from {source!r} to {target!r}")
        return path

    def is_connected(self) -> bool:
        """True if every node is reachable from every other node."""
        if self.num_nodes <= 1:
            return True
        everything = np.arange(self.num_nodes, dtype=np.intp)
        _, parent = next(self._search(np.zeros(1, dtype=np.intp), [everything]))
        return bool((parent != _UNSEEN).all())

    # ------------------------------------------------------------------
    # interoperability
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.MultiGraph:
        """Convert to a :class:`networkx.MultiGraph` with capacity attributes."""
        import networkx as nx

        graph = nx.MultiGraph()
        graph.add_nodes_from(self._nodes)
        for link in self._links:
            graph.add_edge(link.u, link.v, key=link.link_id, capacity=link.capacity, name=link.name)
        return graph

    @classmethod
    def from_networkx(cls, graph: nx.Graph, capacity_attr: str = "capacity") -> "NetworkGraph":
        """Build a :class:`NetworkGraph` from a networkx graph.

        Every edge must carry a positive ``capacity`` attribute (name
        configurable through ``capacity_attr``).
        """
        result = cls(nodes=(str(n) for n in graph.nodes))
        for u, v, data in graph.edges(data=True):
            if capacity_attr not in data:
                raise NetworkModelError(
                    f"edge ({u!r}, {v!r}) is missing the {capacity_attr!r} attribute"
                )
            result.add_link(str(u), str(v), capacity=float(data[capacity_attr]))
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkGraph(nodes={self.num_nodes}, links={self.num_links})"


def unreachable_error(source: str, targets: Iterable[str]) -> RoutingError:
    """The :class:`RoutingError` for ``targets`` cut off from ``source``."""
    unreachable = ", ".join(repr(node) for node in sorted(set(targets)))
    return RoutingError(
        f"no path from {source!r} to node(s) {unreachable}: the graph "
        "is disconnected between them"
    )


def _batch_size(ptr: np.ndarray, far: np.ndarray) -> int:
    """Sources per batch of a multi-source search over the CSR ``(ptr, far)``.

    Keeps a batch within ``_SEARCH_BATCH_CELLS`` cells of ``nodes +
    adjacency entries`` per source, and at one source or more.
    """
    return max(1, _SEARCH_BATCH_CELLS // (len(ptr) - 1 + len(far)))


def _expand(
    ptr: np.ndarray, far: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every adjacency entry out of a multi-source frontier, in one gather.

    ``frontier`` holds cells ``row * n + node``.  Returns ``(entries,
    cells)``: the CSR entry index of each link out of each frontier cell
    and the cell at its far end, in flat order — frontier cells in the
    order given, each node's links in ascending id, as a queue-driven
    search would scan them.
    """
    nodes = frontier % (len(ptr) - 1)
    first = ptr[nodes]
    counts = ptr[nodes + 1] - first
    offsets = np.cumsum(counts) - counts
    entries = np.repeat(first - offsets, counts)
    entries += np.arange(entries.size)
    cells = np.repeat(frontier - nodes, counts)
    cells += far[entries]
    return entries, cells


def _walk_back(
    parent: np.ndarray, goals: Sequence[np.ndarray], ends: np.ndarray
) -> List[Optional[List[int]]]:
    """Link-id paths from each row's source to its goals (``None`` if unreached).

    Follows the parent links of :meth:`NetworkGraph._search` back from
    every goal of the batch at once, one hop per step, then reverses each
    hop list into source-to-goal order.
    """
    owner = np.repeat(np.arange(len(parent)), [goal.size for goal in goals])
    node = np.concatenate(goals)
    reached = parent[owner, node] != _UNSEEN
    hops: List[np.ndarray] = []
    walking = np.flatnonzero(reached)
    while True:
        link = parent[owner[walking], node[walking]]
        walking, link = walking[link >= 0], link[link >= 0]
        if not walking.size:
            break
        column = np.full(node.size, -1, dtype=np.intp)
        column[walking] = link
        hops.append(column)
        node[walking] = ends[link] - node[walking]
    table = np.stack(hops, axis=1).tolist() if hops else [[] for _ in node]
    return [
        [link for link in reversed(row) if link >= 0] if ok else None
        for row, ok in zip(table, reached.tolist())
    ]
