"""Edge betweenness: the batched Brandes pass against its oracles.

``edge_betweenness`` runs Brandes' algorithm for a batch of sources at a
time in NumPy.  Three independent checks hold it in place:

* the plain per-source queue loop it replaced (kept below, verbatim, as the
  oracle) must give the same bytes — on random multigraphs with parallel
  links, isolated nodes and several components, for every ``pivots``
  form, with sources split over many batches, and on the generated and
  embedded topologies;
* closed forms on paths, stars and cycles;
* ``networkx.edge_betweenness_centrality`` on simple generated graphs
  (skipped where ``networkx`` is not installed).

The ``scalefree_bottleneck`` experiment's canonical JSON must not change
when the oracle replaces the batched pass.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.experiments.scalefree_bottleneck as scalefree_module
import repro.network.graph as graph_module
from repro.experiments.registry import get_experiment
from repro.network.graph import NetworkGraph
from repro.network.topology.formats import graph_from_gml, graph_from_json
from repro.network.topology.generators import barabasi_albert, fat_tree, waxman
from repro.network.topology.metrics import edge_betweenness
from repro.network.topology.samples import ABILENE_GML, TRIANGLE_CORE_JSON


def oracle_betweenness(graph: NetworkGraph, pivots: Optional[int] = None) -> np.ndarray:
    """Per-source Brandes loop over dicts and a deque (the replaced code)."""
    nodes = list(graph.nodes)
    betweenness = np.zeros(graph.num_links, dtype=np.float64)
    if graph.num_links == 0 or len(nodes) < 2:
        return betweenness
    sources = nodes if pivots is None else nodes[: max(1, min(pivots, len(nodes)))]

    incident: Dict[str, List[Tuple[int, str]]] = {
        node: [(link_id, graph.link(link_id).other_end(node)) for link_id in graph.incident_links(node)]
        for node in nodes
    }

    for source in sources:
        # Brandes phase 1: BFS counting shortest paths (sigma) and recording
        # predecessor links.
        sigma: Dict[str, float] = {source: 1.0}
        dist: Dict[str, int] = {source: 0}
        preds: Dict[str, List[Tuple[str, int]]] = {source: []}
        order: List[str] = []
        queue = deque([source])
        while queue:
            node = queue.popleft()
            order.append(node)
            for link_id, other in incident[node]:
                if other not in dist:
                    dist[other] = dist[node] + 1
                    sigma[other] = 0.0
                    preds[other] = []
                    queue.append(other)
                if dist[other] == dist[node] + 1:
                    sigma[other] += sigma[node]
                    preds[other].append((node, link_id))
        # Phase 2: accumulate dependencies leaves-first.
        delta: Dict[str, float] = {node: 0.0 for node in order}
        for node in reversed(order):
            for pred, link_id in preds[node]:
                share = sigma[pred] / sigma[node] * (1.0 + delta[node])
                betweenness[link_id] += share
                delta[pred] += share
    if pivots is None:
        betweenness /= 2.0  # undirected: each (s, t) pair counted from both ends
    else:
        betweenness *= len(nodes) / (2.0 * len(sources))
    return betweenness


def _assert_identical(graph: NetworkGraph, pivots: Optional[int] = None) -> None:
    result = edge_betweenness(graph, pivots=pivots)
    expected = oracle_betweenness(graph, pivots=pivots)
    assert result.dtype == expected.dtype and result.shape == expected.shape
    assert result.tobytes() == expected.tobytes()


@st.composite
def multigraphs(draw):
    """Random multigraphs: parallel links, isolated nodes, several components."""
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
    return graph


def _dense_multigraph() -> NetworkGraph:
    """Two components with parallel links, plus an isolated node."""
    graph = barabasi_albert(40, 2, seed=11)
    for index in range(0, 20, 3):
        link = graph.link(index)
        graph.add_link(link.u, link.v, capacity=1.0)
    graph.add_link("x0", "x1", capacity=1.0)
    graph.add_link("x1", "x2", capacity=1.0)
    graph.add_link("x0", "x1", capacity=1.0, name="x-parallel")
    graph.add_node("lonely")
    return graph


class TestAgainstOracle:
    @given(multigraphs(), st.sampled_from([None, 0, 1, 3, 7, 20]), st.integers(1, 64))
    def test_random_multigraphs(self, graph, pivots, batch_cells):
        _assert_identical(graph, pivots)
        # Tiny batches split the sources across many batches.
        with mock.patch.object(graph_module, "_SEARCH_BATCH_CELLS", batch_cells):
            _assert_identical(graph, pivots)

    @pytest.mark.parametrize("extra", [None, 0, 1, 7, "n", "n+5"])
    def test_pivots(self, extra):
        graph = _dense_multigraph()
        n = graph.num_nodes
        pivots = {"n": n, "n+5": n + 5}.get(extra, extra)
        _assert_identical(graph, pivots)

    @pytest.mark.parametrize("batch_cells", [1, 97, 1000])
    def test_sources_spanning_many_batches(self, batch_cells):
        graph = barabasi_albert(120, 2, seed=5)
        with mock.patch.object(graph_module, "_SEARCH_BATCH_CELLS", batch_cells):
            _assert_identical(graph)
            _assert_identical(graph, pivots=30)
            _assert_identical(_dense_multigraph())

    @pytest.mark.parametrize(
        "build",
        [
            *(lambda seed=seed: barabasi_albert(120, 2, seed=seed) for seed in range(5)),
            lambda: barabasi_albert(500, 3, seed=1),
            lambda: waxman(200, seed=3),
            lambda: fat_tree(4),
            lambda: fat_tree(8),
            lambda: graph_from_gml(ABILENE_GML),
            lambda: graph_from_json(TRIANGLE_CORE_JSON),
        ],
        ids=[f"ba120-{seed}" for seed in range(5)]
        + ["ba500m3", "waxman200", "fat-tree4", "fat-tree8", "abilene", "triangle"],
    )
    def test_topologies(self, build):
        graph = build()
        _assert_identical(graph)
        _assert_identical(graph, pivots=7)

    @pytest.mark.slow
    def test_barabasi_albert_1000(self):
        _assert_identical(barabasi_albert(1000, 2, seed=7))

    def test_degenerate_graphs(self):
        assert edge_betweenness(NetworkGraph()).shape == (0,)
        assert edge_betweenness(NetworkGraph(nodes=["a", "b"])).shape == (0,)
        single = NetworkGraph(nodes=["a"])
        assert edge_betweenness(single).shape == (0,)
        pair = NetworkGraph()
        pair.add_link("a", "b", capacity=1.0)
        pair.add_link("a", "b", capacity=1.0)
        # Two parallel links split the one (a, b) pair.
        assert edge_betweenness(pair).tolist() == [0.5, 0.5]


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 16])
    def test_path(self, n):
        graph = NetworkGraph()
        for index in range(n - 1):
            graph.add_link(f"v{index}", f"v{index + 1}", capacity=1.0)
        expected = [(i + 1) * (n - 1 - i) for i in range(n - 1)]
        assert edge_betweenness(graph).tolist() == expected

    @pytest.mark.parametrize("n", [2, 3, 6, 20])
    def test_star(self, n):
        graph = NetworkGraph()
        for leaf in range(1, n):
            graph.add_link("hub", f"leaf{leaf}", capacity=1.0)
        # Each spoke carries its leaf's pairs with every other node.
        assert edge_betweenness(graph).tolist() == [n - 1] * (n - 1)

    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_cycle(self, n):
        graph = NetworkGraph()
        for index in range(n):
            graph.add_link(f"v{index}", f"v{(index + 1) % n}", capacity=1.0)
        betweenness = edge_betweenness(graph)
        assert betweenness == pytest.approx(np.full(n, betweenness[0]), rel=1e-12)
        # The n(n-1)/2 pairs' path lengths, spread evenly over n links.
        lengths = sum(min(d, n - d) for d in range(1, n)) * n / 2
        assert betweenness.sum() == pytest.approx(lengths, rel=1e-12)


class TestAgainstNetworkx:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: barabasi_albert(60, 2, seed=1),
            lambda: barabasi_albert(300, 3, seed=4),
            lambda: waxman(150, seed=2),
            lambda: fat_tree(4),
        ],
        ids=["ba60", "ba300m3", "waxman150", "fat-tree4"],
    )
    def test_simple_graphs(self, build):
        nx = pytest.importorskip("networkx")
        graph = build()
        simple = nx.Graph()
        simple.add_nodes_from(graph.nodes)
        simple.add_edges_from(link.endpoints for link in graph.links)
        assert simple.number_of_edges() == graph.num_links  # no parallel links
        reference = nx.edge_betweenness_centrality(simple, normalized=False)
        expected = [
            reference.get((link.u, link.v), reference.get((link.v, link.u)))
            for link in graph.links
        ]
        assert edge_betweenness(graph) == pytest.approx(expected, rel=1e-9)


class TestScalefreeBottleneck:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"betweenness_pivots": 7},
            *({"topologies": ["ba"], "num_nodes": 120, "seed": seed} for seed in (0, 1, 101)),
        ],
        ids=["reduced", "reduced-pivots7", "ba120-0", "ba120-1", "ba120-101"],
    )
    def test_canonical_json_unchanged_by_the_batched_pass(self, overrides):
        experiment = get_experiment("scalefree_bottleneck")
        batched = experiment.run(**overrides).canonical_json()
        with mock.patch.object(scalefree_module, "edge_betweenness", oracle_betweenness):
            looped = experiment.run(**overrides).canonical_json()
        assert batched == looped
