"""The batched breadth-first search against a per-source oracle.

``NetworkGraph.shortest_path_trees`` routes many sources at once in NumPy.
The oracle below is the plain queue-driven search it replaced: it walks
each frontier node's links in ascending id and keeps the first discovery
of every node.  Every route the batched search returns must equal the
oracle's link for link, on random multigraphs (parallel links, isolated
nodes, several components) and on the generated and shipped topologies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.network.graph as graph_module
from repro.core import max_min_fair_allocation
from repro.errors import NetworkModelError, RoutingError
from repro.network import NetworkGraph, Network, Session
from repro.network.topology.formats import load_topology
from repro.network.topology.generators import barabasi_albert, fat_tree, waxman

TOPOLOGIES = Path(__file__).resolve().parents[2] / "examples" / "topologies"


def oracle_tree(
    graph: NetworkGraph, source: str, targets: Iterable[str]
) -> Dict[str, List[int]]:
    """Per-source BFS: paths to every reachable target (unreachable ones left out)."""
    targets = list(targets)
    remaining = set(targets) - {source}
    prev: Dict[str, Tuple[str, int]] = {}
    frontier = [source]
    visited = {source}
    while frontier and remaining:
        next_frontier: List[str] = []
        for node in frontier:
            for link_id in graph.incident_links(node):
                other = graph.link(link_id).other_end(node)
                if other in visited:
                    continue
                visited.add(other)
                prev[other] = (node, link_id)
                remaining.discard(other)
                next_frontier.append(other)
        frontier = next_frontier
    tree: Dict[str, List[int]] = {}
    for target in targets:
        if target != source and target not in prev:
            continue
        path: List[int] = []
        node = target
        while node != source:
            node, link_id = prev[node]
            path.append(link_id)
        tree[target] = path[::-1]
    return tree


def _assert_matches_oracle(graph: NetworkGraph, requests) -> None:
    trees = graph.shortest_path_trees(requests)
    assert len(trees) == len(requests)
    for (source, targets), tree in zip(requests, trees):
        expected = oracle_tree(graph, source, targets)
        assert tree == expected
        assert list(tree) == list(expected)  # same key order


@st.composite
def multigraph_requests(draw):
    """A random multigraph plus routing requests over it."""
    num_nodes = draw(st.integers(1, 14))
    names = [f"v{index}" for index in range(num_nodes)]
    graph = NetworkGraph(nodes=names)
    if num_nodes > 1:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1))
                .filter(lambda pair: pair[0] != pair[1]),
                max_size=30,
            )
        )
        for u, v in pairs:  # repeats become parallel links
            graph.add_link(names[u], names[v], capacity=1.0)
    node = st.sampled_from(names)
    requests = draw(
        st.lists(
            st.tuples(node, st.lists(node, max_size=8)).map(
                # every target list also names the source itself
                lambda request: (request[0], request[1] + [request[0]])
            ),
            min_size=1,
            max_size=8,
        )
    )
    return graph, requests


class TestAgainstOracle:
    @given(multigraph_requests(), st.integers(1, 64))
    def test_random_multigraphs(self, case, batch_cells):
        graph, requests = case
        _assert_matches_oracle(graph, requests)
        # Tiny batches split the requests across many search batches.
        with mock.patch.object(graph_module, "_SEARCH_BATCH_CELLS", batch_cells):
            _assert_matches_oracle(graph, requests)

    @given(multigraph_requests())
    def test_single_request_wrappers(self, case):
        graph, requests = case
        source, targets = requests[0]
        expected = oracle_tree(graph, source, targets)
        for target in targets:
            if target in expected:
                assert graph.shortest_path_links(source, target) == expected[target]
            else:
                with pytest.raises(RoutingError):
                    graph.shortest_path_links(source, target)
        if set(targets) <= set(expected):
            assert graph.shortest_path_tree(source, targets) == expected
        else:
            with pytest.raises(RoutingError):
                graph.shortest_path_tree(source, targets)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: barabasi_albert(500, 2, seed=1),
            lambda: barabasi_albert(2000, 3, seed=4),
            lambda: waxman(300, seed=5),
            lambda: fat_tree(4),
            lambda: fat_tree(8),
            lambda: load_topology(TOPOLOGIES / "abilene.gml"),
            lambda: load_topology(TOPOLOGIES / "triangle_core.json"),
        ],
        ids=["ba500", "ba2000-m3", "waxman300", "fat-tree4", "fat-tree8", "abilene", "triangle"],
    )
    def test_topologies_every_node_from_spread_sources(self, build):
        graph = build()
        nodes = list(graph.nodes)
        sources = nodes[:: max(1, len(nodes) // 12)]
        _assert_matches_oracle(graph, [(source, nodes) for source in sources])

    @pytest.mark.parametrize("placement", ["random", "hub", "leaf"])
    def test_ba5000_session_routes(self, placement):
        graph = barabasi_albert(5000, 2, seed=2)
        network = Network.from_graph(
            graph, num_sessions=40, receivers_per_session=8, seed=3, placement=placement
        )
        for session in network.sessions:
            expected = oracle_tree(graph, session.sender.node, [r.node for r in session.receivers])
            for receiver in session.receivers:
                assert list(network.data_path(receiver.receiver_id)) == expected[receiver.node]

    @pytest.mark.slow
    def test_ba20000_session_routes(self):
        graph = barabasi_albert(20000, 2, seed=3)
        network = Network.from_graph(graph, num_sessions=100, receivers_per_session=8, seed=4)
        for session in network.sessions:
            expected = oracle_tree(graph, session.sender.node, [r.node for r in session.receivers])
            for receiver in session.receivers:
                assert list(network.data_path(receiver.receiver_id)) == expected[receiver.node]


def _islands() -> NetworkGraph:
    graph = NetworkGraph()
    graph.add_link("a", "b", capacity=1.0)
    graph.add_link("c", "d", capacity=1.0)
    graph.add_node("e")
    return graph


class TestRoutingErrors:
    """Messages are pinned byte for byte to the per-source search's."""

    def test_tree_names_every_unreachable_target_once(self):
        with pytest.raises(RoutingError) as info:
            _islands().shortest_path_tree("a", ["d", "b", "c", "e", "c", "a"])
        assert str(info.value) == (
            "no path from 'a' to node(s) 'c', 'd', 'e': the graph is disconnected between them"
        )

    def test_single_target(self):
        with pytest.raises(RoutingError) as info:
            _islands().shortest_path_links("e", "a")
        assert str(info.value) == "no path from 'e' to 'a'"

    def test_network_names_session_and_stranded_receivers(self):
        sessions = [Session(0, "a", ["b"]), Session(1, "c", ["d", "a", "e", "b"])]
        with pytest.raises(RoutingError) as info:
            Network(_islands(), sessions)
        assert str(info.value) == (
            "session S2: receiver(s) r2,2, r2,3, r2,4 are disconnected from sender "
            "node 'c' (no path from 'c' to node(s) 'a', 'b', 'e': the graph is "
            "disconnected between them)"
        )
        assert str(info.value.__cause__) == (
            "no path from 'c' to node(s) 'a', 'b', 'e': the graph is disconnected between them"
        )

    def test_batched_form_leaves_unreachable_targets_out(self):
        trees = _islands().shortest_path_trees([("a", ["b", "c", "a"]), ("e", ["e", "a"]), ("c", [])])
        assert trees == [{"b": [0], "a": []}, {"e": []}, {}]


class TestAdjacencyCache:
    def test_shortcut_added_after_routing_changes_the_route(self):
        graph = NetworkGraph()
        for index in range(5):
            graph.add_link(f"n{index}", f"n{index + 1}", capacity=1.0)
        assert graph.shortest_path_links("n0", "n5") == [0, 1, 2, 3, 4]
        shortcut = graph.add_link("n0", "n4", capacity=1.0)
        assert graph.shortest_path_links("n0", "n5") == [shortcut.link_id, 4]

    def test_node_added_after_routing_is_routable(self):
        graph = NetworkGraph()
        graph.add_link("a", "b", capacity=1.0)
        assert graph.is_connected()
        graph.add_node("c")
        assert not graph.is_connected()
        graph.add_link("b", "c", capacity=1.0)
        assert graph.shortest_path_tree("a", ["c"]) == {"c": [0, 1]}


class TestSameMemberCopies:
    """Type and link-rate copies reuse the routing table of their parent."""

    @pytest.fixture
    def network(self):
        return Network.from_graph(
            barabasi_albert(300, 2, seed=8), num_sessions=25, receivers_per_session=6,
            seed=9, session_types="mixed",
        )

    @staticmethod
    def _assert_same(copy: Network, fresh: Network) -> None:
        ids = fresh.all_receiver_ids()
        assert copy.all_receiver_ids() == ids
        assert [copy.data_path(rid) for rid in ids] == [fresh.data_path(rid) for rid in ids]
        expected = max_min_fair_allocation(fresh)
        actual = max_min_fair_allocation(copy)
        np.testing.assert_array_equal(
            [actual[rid] for rid in ids], [expected[rid] for rid in ids]
        )

    def test_all_single_rate(self, network):
        copy = network.with_all_single_rate()
        assert copy.routing is network.routing
        assert copy.single_rate_session_ids() == frozenset(range(network.num_sessions))
        self._assert_same(copy, Network(network.graph, copy.sessions))

    def test_all_multi_rate(self, network):
        copy = network.with_all_multi_rate()
        assert copy.routing is network.routing
        self._assert_same(copy, Network(network.graph, copy.sessions))

    def test_link_rate_functions(self, network):
        functions = {0: lambda rates: 2.0 * max(rates), 3: lambda rates: sum(rates)}
        copy = network.with_link_rate_functions(functions)
        assert copy.routing is network.routing
        assert copy.link_rate_functions == functions
        self._assert_same(
            copy, Network(network.graph, network.sessions, link_rate_functions=functions)
        )

    def test_link_rate_function_for_unknown_session_still_rejected(self, network):
        with pytest.raises(NetworkModelError):
            network.with_link_rate_functions({network.num_sessions: max})
