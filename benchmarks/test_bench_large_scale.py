"""Large-scale performance baseline for the vectorised core (PR 1).

These cases are far beyond the toy scales of ``test_bench_core_scaling`` and
exist to give future PRs a recorded perf baseline.  They are marked
``slow`` (deselected by default, see ``pytest.ini``); regenerate the JSON
baseline (this module plus the Figure-8 benches the regression envelope
tracks) with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_large_scale.py \
        benchmarks/test_bench_figure8.py -m "" --benchmark-json=BENCH_core.json

The committed ``BENCH_core.json`` holds the numbers measured when this PR
landed; compare against it before accepting changes to the hot paths.
"""

from __future__ import annotations

import pytest

from repro.core import max_min_fair_allocation
from repro.network import random_multicast_network
from repro.network.network import Network
from repro.network.topology.generators import barabasi_albert
from repro.network.topology.metrics import edge_betweenness
from repro.protocols import make_protocol
from repro.simulator import simulate_star, uniform_star

pytestmark = pytest.mark.slow


@pytest.mark.parametrize(
    "num_sessions,num_links,max_receivers",
    [(50, 200, 6), (100, 400, 8)],
    ids=["50s-200l", "100s-400l"],
)
def test_bench_water_filling_large(benchmark, num_sessions, num_links, max_receivers):
    """The ISSUE-1 acceptance case: ~500 receivers must finish in seconds."""
    network = random_multicast_network(
        seed=42,
        num_links=num_links,
        num_sessions=num_sessions,
        max_receivers_per_session=max_receivers,
    )
    allocation = benchmark(max_min_fair_allocation, network)
    assert allocation.min_rate() > 0
    # Single-run wall-clock guard for the acceptance criterion (<10s).
    assert benchmark.stats.stats.max < 10.0


def test_bench_water_filling_scalefree_csr(benchmark):
    """ISSUE-8 acceptance: 10^3 sessions on a ~10^4-link scale-free graph.

    The graph is dense enough in receivers x links terms that the incidence
    auto-selects the CSR path; the network (routing + placement) is built
    once outside the timer so the benchmark isolates water-filling itself.
    """
    graph = barabasi_albert(5000, 2, seed=7)
    assert graph.num_links >= 9_000
    network = Network.from_graph(
        graph, num_sessions=1000, receivers_per_session=3, seed=7
    )
    assert network.incidence().is_sparse
    allocation = benchmark(max_min_fair_allocation, network)
    assert allocation.min_rate() > 0
    # Single-run wall-clock guard for the acceptance criterion (<10s).
    assert benchmark.stats.stats.max < 10.0


def build_scalefree_network_pair(graph):
    """Place and route 300 sessions x 8 receivers, then the single-rate copy."""
    network = Network.from_graph(graph, num_sessions=300, receivers_per_session=8, seed=7)
    return network, network.with_all_single_rate()


def test_bench_network_build_scalefree(benchmark):
    """Routing at scale: ``waterfill_scale``'s heavy op without water-filling.

    Each round routes on a freshly generated 5 000-node Barabasi-Albert
    graph (generated outside the timer), so the cached adjacency is built
    inside the measurement.
    """
    network, single = benchmark.pedantic(
        build_scalefree_network_pair,
        setup=lambda: ((barabasi_albert(5000, 2, seed=7),), {}),
        rounds=5,
        iterations=1,
    )
    assert network.num_receivers == single.num_receivers == 2400
    assert single.single_rate_session_ids() == frozenset(range(300))


def test_bench_edge_betweenness(benchmark):
    """Exact edge betweenness on a 1 000-node Barabasi-Albert graph (m=2).

    The ``scalefree_bottleneck`` experiment's betweenness pass at paper
    scale.  Each round runs on a freshly generated graph (generated outside
    the timer), so the cached adjacency is built inside the measurement.
    """
    betweenness = benchmark.pedantic(
        edge_betweenness,
        setup=lambda: ((barabasi_albert(1000, 2, seed=7),), {}),
        rounds=5,
        iterations=1,
    )
    assert betweenness.shape == (1997,)
    assert betweenness.min() >= 1.0  # every link carries at least its own pair


@pytest.mark.parametrize("method", ["vectorized", "reference"])
def test_bench_water_filling_method_comparison(benchmark, method):
    """Reference-vs-vectorised on one mid-sized network (speedup tracking)."""
    network = random_multicast_network(
        seed=42, num_links=80, num_sessions=20, max_receivers_per_session=5
    )
    allocation = benchmark(max_min_fair_allocation, network, method=method)
    assert allocation.min_rate() > 0


def test_bench_simulator_large_star(benchmark):
    """Figure-8-scale packet simulation (100 receivers, batched sampling)."""
    config = uniform_star(100, 0.0001, 0.05, duration_units=500)

    def run():
        return simulate_star(make_protocol("coordinated"), config, seed=0)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.redundancy >= 1.0
