"""Structural graph metrics: edge betweenness centrality.

The ``scalefree_bottleneck`` experiment tests the scale-free-bottleneck
hypothesis: links that carry many shortest paths (high betweenness) should
be the ones water-filling saturates first.  Betweenness is computed with
Brandes' dependency-accumulation algorithm in its unweighted (BFS) form,
extended to parallel links — every link between the same node pair carries
its own share of the path counts.

The pass runs in NumPy over the graph's cached CSR adjacency, a batch of
sources at a time and one BFS level at a time (the frontier expansion is
the one routing uses, :func:`repro.network.graph._expand`).  Its floating
point operations happen in the order of the textbook per-source queue loop,
so the result is bit-identical to it: path counts are integers, exact in
any order; each dependency share is ``sigma[p] / sigma[w] * (1 + delta[w])``
with the same operands; a node's dependency sums its shares successor by
successor in reverse discovery order; and the per-link totals add the
sources one after another, never by pairwise summation.

For large graphs an exact pass over all sources is O(V·E); ``pivots``
restricts the accumulation to the first ``k`` nodes (deterministic choice,
node order) and rescales by ``V/k``, the standard pivot approximation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..graph import NetworkGraph, _batch_size, _expand

__all__ = ["edge_betweenness"]


def edge_betweenness(graph: NetworkGraph, pivots: Optional[int] = None) -> np.ndarray:
    """Edge betweenness per link id (unweighted shortest paths).

    Returns an array of length ``graph.num_links``.  With ``pivots=k`` only
    the first ``k`` nodes (insertion order) act as path sources and the
    result is scaled by ``V/k`` — an unbiased estimate under random node
    order, and a deterministic one here.
    """
    n = graph.num_nodes
    num_links = graph.num_links
    betweenness = np.zeros(num_links, dtype=np.float64)
    if num_links == 0 or n < 2:
        return betweenness
    num_sources = n if pivots is None else max(1, min(pivots, n))
    ptr, far, _, _ = graph._adjacency()
    batch = _batch_size(ptr, far)
    for start in range(0, num_sources, batch):
        sources = np.arange(start, min(start + batch, num_sources))
        shares = _source_shares(graph, sources)
        for row in shares:  # source by source, as the per-source loop adds
            betweenness += row
    if pivots is None:
        betweenness /= 2.0  # undirected: each (s, t) pair counted from both ends
    else:
        betweenness *= n / (2.0 * num_sources)
    return betweenness


def _source_shares(graph: NetworkGraph, sources: np.ndarray) -> np.ndarray:
    """Brandes dependency share of every link, one row per source.

    Row ``b`` holds what source ``sources[b]`` adds to each link's
    betweenness (0 where no shortest path from it crosses the link).  Cells
    ``b * n + node`` index the per-source state of the whole batch.
    """
    ptr, far, via, ends = graph._adjacency()
    n = graph.num_nodes
    rows = np.arange(sources.size) * n
    seen = np.zeros(rows.size * n, dtype=bool)
    sigma = np.zeros(rows.size * n, dtype=np.float64)
    unranked = np.iinfo(np.intp).max
    rank = np.full(rows.size * n, unranked, dtype=np.intp)
    frontier = rows + sources
    seen[frontier] = True
    sigma[frontier] = 1.0

    # Phase 1: level by level, count shortest paths (sigma) and keep every
    # DAG link — each link into a cell first reached at this level.
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    while frontier.size:
        entries, cells = _expand(ptr, far, frontier)
        fresh = ~seen[cells]
        entries, cells = entries[fresh], cells[fresh]
        links = via[entries]
        # The cell each DAG link leaves: same row, the link's other end.
        preds = cells + ends[links] - 2 * far[entries]
        np.add.at(sigma, cells, sigma[preds])
        # A cell's first appearance in flat order is its discovery by a
        # queue-driven search; the next frontier keeps that order.
        order = np.arange(cells.size)
        np.minimum.at(rank, cells, order)
        discovered = rank[cells]
        rank[cells] = unranked
        frontier = cells[discovered == order]
        seen[frontier] = True
        # Phase 2 visits successors in reverse discovery order, each
        # successor's links in the order they were found.
        last_first = np.argsort(-discovered, kind="stable")
        levels.append((cells[last_first], links[last_first]))

    # Phase 2: deepest level first, accumulate dependencies (delta).
    delta = np.zeros(rows.size * n, dtype=np.float64)
    shares = np.zeros((rows.size, graph.num_links), dtype=np.float64)
    for cells, links in reversed(levels):
        preds = cells + ends[links] - 2 * (cells % n)  # as in phase 1
        share = sigma[preds] / sigma[cells] * (1.0 + delta[cells])
        np.add.at(delta, preds, share)
        shares[cells // n, links] = share
    return shares
