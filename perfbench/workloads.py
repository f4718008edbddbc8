"""The three in-process workloads: ``fig8_panel``, ``bursty_ge``, ``waterfill_scale``.

Each workload is a fixed unit of work (a *pass*) split into a light and a
heavy operation class, repeated until the run's time budget is spent.
Inputs derive from the run's seed only; every pass repeats the same
inputs, so every pass must also reproduce the first pass's output
exactly.  Correctness checks run outside the timed operations.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from harness import Measurement

ENGINE = "bitpacked"

#: Figure 8 at the reduced preset: 60 receivers, 1200 units, 3 reps,
#: 5 independent-loss points, three protocols; panel (a) is light, (b) heavy.
FIG8 = {
    "num_receivers": 60,
    "duration_units": 1200,
    "repetitions": 3,
    "independent_loss_rates": (0.005, 0.02, 0.05, 0.08, 0.1),
}
FIG8_PANELS = (("light", 0.0001), ("heavy", 0.05))

#: Burstiness at 40 receivers over the burst-length grid, as (mean burst
#: length, base-seed offset): burst length 1 is Bernoulli (light,
#: chunk-sampled) and runs on two base seeds, so a run has nearly as many
#: light samples as heavy ones; 2/4/8 are Gilbert-Elliott (heavy, sampled
#: once per time unit).
BURSTY = {"num_receivers": 40, "duration_units": 250, "repetitions": 1}
BURST_OPS = ((1.0, 0), (1.0, 1), (2.0, 0), (4.0, 0), (8.0, 0))

#: Barabasi-Albert water-filling sizes: (class, nodes, sessions, networks
#: per pass); two attachments per node give about 2x nodes links.  Ten
#: distinct 10^3-link networks per pass give the light class (about 40 ms
#: each) enough samples for a steady median.
WATERFILL = (("light", 500, 30, 10), ("heavy", 5000, 300, 1))
WATERFILL_RECEIVERS = 8

#: Reference-engine slices: small enough for the per-packet loop.
FIG8_SLICE = {
    "num_receivers": 6,
    "duration_units": 60,
    "repetitions": 1,
    "independent_loss_rates": (0.02, 0.08),
}
BURSTY_SLICE = {"num_receivers": 5, "duration_units": 40, "repetitions": 1}

PROTOCOL_COUNT = 3


def _packets_per_unit() -> int:
    from repro.layering.layers import ExponentialLayerScheme
    from repro.simulator.packets import PacketSchedule

    return PacketSchedule(ExponentialLayerScheme(8)).packets_per_unit


def _receiver_slots(sizes: Dict[str, object], points: int) -> float:
    """Simulated receiver-packet slots of one experiment call."""
    return float(
        sizes["num_receivers"]
        * sizes["duration_units"]
        * _packets_per_unit()
        * sizes["repetitions"]
        * points
        * PROTOCOL_COUNT
    )


def _experiment_ops(key: str, specs: List[Tuple[str, object]], slots: List[float], m: Measurement):
    """One pass over registry experiment calls, checked against the first pass."""
    from repro.experiments.registry import get_experiment

    experiment = get_experiment(key)
    first: Dict[int, str] = {}

    def one_pass() -> float:
        results, timed = [], 0.0
        for klass, spec in specs:
            result, elapsed = m.timed(klass, lambda: experiment.run(spec))
            results.append(result)
            timed += elapsed
        for index, result in enumerate(results):
            m.work += slots[index]
            check_experiment_result(result, m)
            canonical = result.canonical_json()
            m.check(
                first.setdefault(index, canonical) == canonical,
                f"{key} op {index}: output differs from the first pass",
            )
        return timed

    return one_pass


def check_experiment_result(result, m: Measurement) -> None:
    """No MISMATCH verdict, and every redundancy is at least 1."""
    m.check(result.verdict.ok, f"{result.key}: verdict {result.verdict.summary!r}")
    redundancies = [record["redundancy"] for record in result.records]
    m.check(
        bool(redundancies) and all(r >= 1.0 - 1e-9 and math.isfinite(r) for r in redundancies),
        f"{result.key}: redundancy outside [1, inf)",
    )


def check_engines_agree(key: str, spec, m: Measurement) -> None:
    """A small slice gives byte-identical canonical JSON on both engines."""
    from repro.experiments.registry import get_experiment

    experiment = get_experiment(key)
    packed = experiment.run(spec.replace(engine=ENGINE))
    reference = experiment.run(spec.replace(engine="reference"))
    m.check(
        packed.canonical_json() == reference.canonical_json(),
        f"{key}: reference engine disagrees with {ENGINE} on the seeded slice",
    )


def fig8_panel(seed: int, m: Measurement) -> Callable[[], float]:
    from repro.experiments.figure8 import Figure8PanelSpec

    check_engines_agree(
        "figure8_panel",
        Figure8PanelSpec(shared_loss_rate=0.05, base_seed=seed, **FIG8_SLICE),
        m,
    )
    specs = [
        (klass, Figure8PanelSpec(shared_loss_rate=shared, base_seed=seed, engine=ENGINE, **FIG8))
        for klass, shared in FIG8_PANELS
    ]
    slots = [_receiver_slots(FIG8, len(FIG8["independent_loss_rates"]))] * len(specs)
    return _experiment_ops("figure8_panel", specs, slots, m)


def bursty_ge(seed: int, m: Measurement) -> Callable[[], float]:
    from repro.experiments.burstiness import BurstinessSpec

    check_engines_agree(
        "burstiness",
        BurstinessSpec(burst_lengths=(1.0, 4.0), base_seed=seed, **BURSTY_SLICE),
        m,
    )
    specs = [
        (
            "light" if length == 1.0 else "heavy",
            BurstinessSpec(burst_lengths=(length,), base_seed=seed + offset, engine=ENGINE, **BURSTY),
        )
        for length, offset in BURST_OPS
    ]
    slots = [_receiver_slots(BURSTY, 1)] * len(specs)
    return _experiment_ops("burstiness", specs, slots, m)


def build_and_solve(nodes: int, sessions: int, seed: int):
    """One water-filling operation: generate, place and route, solve twice."""
    from repro.core import max_min_fair_allocation
    from repro.network.network import Network
    from repro.network.topology.generators import barabasi_albert
    from repro.simulator.rng import spawn_run_entropy

    graph_seed, placement_seed = spawn_run_entropy(seed, 2)
    graph = barabasi_albert(nodes, attachments=2, seed=graph_seed)
    network = Network.from_graph(
        graph,
        num_sessions=sessions,
        receivers_per_session=WATERFILL_RECEIVERS,
        seed=placement_seed,
    )
    multi = max_min_fair_allocation(network)
    single = max_min_fair_allocation(network.with_all_single_rate())
    return network, multi, single


def _rates(network, allocation) -> np.ndarray:
    return np.array([allocation[rid] for rid in network.all_receiver_ids()])


def check_feasible(network, allocation, m: Measurement, what: str) -> None:
    """Every rate positive and no link over capacity."""
    rates = _rates(network, allocation)
    over = [
        link_id
        for link_id, rate in allocation.link_rates().items()
        if rate > network.link_capacity(link_id) * (1 + 1e-9)
    ]
    m.check(bool(rates.size) and bool((rates > 0).all()) and not over, f"{what}: infeasible allocation")


def check_reference_rates(nodes: int, sessions: int, seed: int, m: Measurement) -> None:
    """Vectorised water-filling agrees with ``method="reference"`` to 1e-9."""
    from repro.core import max_min_fair_allocation

    network, multi, _ = build_and_solve(nodes, sessions, seed)
    reference = max_min_fair_allocation(network, method="reference")
    gap = float(np.max(np.abs(_rates(network, multi) - _rates(network, reference))))
    m.check(gap <= 1e-9, f"water-filling: vectorised differs from reference by {gap:g}")


def waterfill_scale(seed: int, m: Measurement) -> Callable[[], float]:
    from repro.simulator.rng import spawn_run_entropy

    ops = [
        (klass, nodes, sessions)
        for klass, nodes, sessions, count in WATERFILL
        for _ in range(count)
    ]
    seeds = spawn_run_entropy(seed, len(ops))
    check_reference_rates(ops[0][1], ops[0][2], seeds[0], m)
    first: Dict[int, bytes] = {}

    def one_pass() -> float:
        timed = 0.0
        for index, ((klass, nodes, sessions), op_seed) in enumerate(zip(ops, seeds)):
            (network, multi, single), elapsed = m.timed(
                klass, lambda: build_and_solve(nodes, sessions, op_seed)
            )
            timed += elapsed
            m.work += 1
            check_feasible(network, multi, m, f"{nodes}-node multi-rate")
            check_feasible(network, single, m, f"{nodes}-node single-rate")
            m.check(
                multi.total_receiver_throughput() >= single.total_receiver_throughput() - 1e-9,
                f"{nodes}-node: single-rate throughput above multi-rate",
            )
            digest = _rates(network, multi).tobytes() + _rates(network, single).tobytes()
            m.check(
                first.setdefault(index, digest) == digest,
                f"{nodes}-node: rates differ from the first pass",
            )
        return timed

    return one_pass


#: Each workload checks its seeded slice and returns its pass function,
#: which returns the seconds its timed operations took (checks excluded).
WORKLOADS: Dict[str, Callable[[int, Measurement], Callable[[], float]]] = {
    "fig8_panel": fig8_panel,
    "bursty_ge": bursty_ge,
    "waterfill_scale": waterfill_scale,
}

#: Engine each workload simulates with (``None``: no simulation).
ENGINES = {"fig8_panel": ENGINE, "bursty_ge": ENGINE, "waterfill_scale": None}
