"""CSR-vs-dense conformance: the sparse incidence path changes nothing.

``NetworkIncidence`` picks CSR structures past a density threshold; this
suite forces both representations on every built-in topology plus generated
graphs and asserts the water-filling outcome is *identical* — final rates
bit-for-bit (the sparse path only changes how the saturated-receiver mask
is computed, never the arithmetic), the same saturation order, and the same
multi-vs-single-rate throughput.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MaxMinTrace, max_min_fair_allocation
from repro.core.maxmin import _VectorizedWaterFillState
from repro.network import (
    figure1_network,
    figure2_network,
    figure3a_network,
    figure3b_network,
    figure4_network,
    modified_star_network,
    random_multicast_network,
    shared_bottleneck_with_redundancy,
    single_bottleneck_network,
    star_network,
)
from repro.network.incidence import NetworkIncidence
from repro.network.network import Network
from repro.network.topology.generators import barabasi_albert, fat_tree, waxman

BUILTIN_TOPOLOGIES = {
    "figure1": lambda: figure1_network(),
    "figure2": lambda: figure2_network(),
    "figure3a": lambda: figure3a_network(),
    "figure3b": lambda: figure3b_network(),
    "figure4": lambda: figure4_network(),
    "single_bottleneck": lambda: single_bottleneck_network(4, capacity=2.0,
                                                           receivers_per_session=3),
    "shared_bottleneck": lambda: shared_bottleneck_with_redundancy(6, 2, 2.5, 3.0),
    "star": lambda: star_network(5, shared_capacity=4.0, fanout_capacity=1.0),
    "modified_star": lambda: modified_star_network(4),
    "random_tree": lambda: random_multicast_network(seed=3, num_links=18,
                                                    num_sessions=6,
                                                    multi_rate_fraction=0.5),
    "ba": lambda: Network.from_graph(barabasi_albert(40, 2, seed=1),
                                     num_sessions=6, receivers_per_session=3, seed=2),
    "waxman": lambda: Network.from_graph(waxman(30, seed=4),
                                         num_sessions=5, receivers_per_session=3, seed=5),
    "fat_tree": lambda: Network.from_graph(fat_tree(4),
                                           num_sessions=6, receivers_per_session=3, seed=6),
}


def _force_incidence(network: Network, sparse: bool) -> NetworkIncidence:
    incidence = NetworkIncidence(network, sparse=sparse)
    network._incidence = incidence
    return incidence


def _water_fill(network: Network, sparse: bool):
    """Run the full solver with the incidence representation forced."""
    _force_incidence(network, sparse)
    trace = MaxMinTrace()
    allocation = max_min_fair_allocation(network, trace=trace)
    saturation_order = [step.saturated_links for step in trace.steps]
    return allocation, saturation_order


@pytest.mark.parametrize("name", sorted(BUILTIN_TOPOLOGIES))
def test_sparse_and_dense_solver_outcomes_identical(name):
    build = BUILTIN_TOPOLOGIES[name]
    dense_alloc, dense_order = _water_fill(build(), sparse=False)
    sparse_alloc, sparse_order = _water_fill(build(), sparse=True)

    rids = list(dense_alloc)
    assert list(sparse_alloc) == rids
    dense_rates = np.array([dense_alloc[rid] for rid in rids])
    sparse_rates = np.array([sparse_alloc[rid] for rid in rids])
    # ulp-tight: the representations must not change the arithmetic at all.
    np.testing.assert_array_equal(dense_rates, sparse_rates)
    assert dense_order == sparse_order


@pytest.mark.parametrize("name", sorted(BUILTIN_TOPOLOGIES))
def test_sparse_and_dense_vectorized_engine_identical(name):
    """Drive the NumPy engine directly so the ``is_sparse`` freeze branch runs
    even on networks small enough for the scalar twin."""
    build = BUILTIN_TOPOLOGIES[name]
    rates = {}
    for sparse in (False, True):
        network = build()
        incidence = _force_incidence(network, sparse)
        assert incidence.is_sparse is sparse
        state = _VectorizedWaterFillState(network, {}, 1e-9)
        while state.has_active:
            increment = state.compute_increment()
            state.apply_increment(increment)
            state.freeze_receivers()
        rates[sparse] = state.final_rates()
    assert set(rates[False]) == set(rates[True])
    for rid, rate in rates[False].items():
        assert rates[True][rid] == rate, f"receiver {rid} differs between paths"


@pytest.mark.parametrize("name", ["figure2", "shared_bottleneck", "ba"])
def test_sparse_and_dense_redundancy_identical(name):
    """Multi-vs-single-rate throughputs (the redundancy comparison) agree."""
    totals = {}
    for sparse in (False, True):
        network = BUILTIN_TOPOLOGIES[name]()
        _force_incidence(network, sparse)
        multi = max_min_fair_allocation(network.with_all_multi_rate())
        single = max_min_fair_allocation(network.with_all_single_rate())
        totals[sparse] = (
            multi.total_receiver_throughput(),
            single.total_receiver_throughput(),
        )
    assert totals[False] == totals[True]


def test_density_heuristic_and_forced_flags():
    network = BUILTIN_TOPOLOGIES["figure1"]()
    auto = NetworkIncidence(network)
    assert auto.is_sparse is False  # tiny network stays dense by default
    assert NetworkIncidence(network, sparse=True).is_sparse is True
    assert 0.0 < auto.density <= 1.0


def test_sparse_membership_matches_dense():
    """The lazy dense membership reconstructed from CSR equals the dense one."""
    network = BUILTIN_TOPOLOGIES["ba"]()
    dense = NetworkIncidence(network, sparse=False)
    sparse = NetworkIncidence(network, sparse=True)
    np.testing.assert_array_equal(dense.membership, sparse.membership)
    links = np.arange(sparse.num_links)  # compact link indices
    np.testing.assert_array_equal(
        sparse.receivers_on_links(links), dense.membership[:, links].any(axis=1)
    )


@pytest.mark.parametrize("name", sorted(BUILTIN_TOPOLOGIES))
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_receivers_on_links_matches_membership_columns(name, sparse):
    """The one-pass CSR gather equals the dense column test on any link set."""
    incidence = NetworkIncidence(BUILTIN_TOPOLOGIES[name](), sparse=sparse)
    membership = incidence.membership
    rng = np.random.default_rng(7)
    num_links = incidence.num_links
    subsets = [
        np.arange(0),
        np.arange(num_links),
        np.array([num_links - 1, 0, num_links - 1]),  # unordered, repeated
    ] + [rng.choice(num_links, size=rng.integers(1, num_links + 1)) for _ in range(5)]
    for links in subsets:
        np.testing.assert_array_equal(
            incidence.receivers_on_links(links), membership[:, links].any(axis=1)
        )
