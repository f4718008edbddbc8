"""Packet-level simulation of one layered multicast session on a star.

This is the workhorse behind the Figure 8 experiments.  One sender
transmits the exponential layer scheme over a shared link; each receiver
hangs off its own fan-out link (the modified-star topology of Figure 7).
Losses on the shared link are observed by every subscribed receiver
(correlated loss); losses on fan-out links are independent per receiver.
Receivers run one of the Section-4 congestion-control protocols, leaving a
layer on every observed congestion event and joining according to the
protocol's coordination rule.

Measured quantities (after an optional warm-up period):

* the number of packets the shared link carries — a packet of layer ``l``
  crosses the shared link iff some receiver is subscribed to ``l`` when it
  is sent (layers are nested, so the link carries layers ``1..max level``);
* per-receiver received packet counts (their long-term average rates);
* the redundancy of the session on the shared link:
  shared-link rate divided by the largest receiver rate (Definition 3).

Two Section-5 "future work" effects are also modelled:

* **protocol-controlled leaves** — protocols may override which receivers
  actually drop a layer on a congestion event
  (:meth:`repro.protocols.base.LayeredProtocol.congestion_leaves`), which is
  how the active-node coordination extension is expressed;
* **leave latency** — when ``leave_latency > 0`` a receiver's leave takes
  that many time units to propagate, during which the shared link keeps
  carrying the layers the receiver was subscribed to even though its own
  receiving rate drops immediately (the paper's hypothesis is that this
  increases redundancy).  A receiver that leaves several layers in quick
  succession keeps advertising its highest recent subscription until the
  latency after its last leave expires — a slightly conservative
  approximation that over- rather than under-states carriage.

**Two engines, one behaviour.**  The simulator ships a time-unit-batched
engine (the default) and the original per-packet reference loop
(``engine="reference"``).  Both produce bit-for-bit identical results for
any seed: the batched engine restructures each chunk of time units as a
per-receiver *event scan* (see :mod:`repro.protocols.scan`) instead of a
Python-level loop over packets, which is possible because the Section-4
protocols are receiver-local and the random stream is pre-sampled
state-independently.  Protocols that do not implement the batched hooks
transparently fall back to the reference loop.

**Counter-based randomness (RNG schemes 4 and 5).**  Every run derives a
family of independent Philox streams from one ``SeedSequence`` (see
:mod:`repro.simulator.rng`): shared-link loss outcomes, independent
(fan-out) loss outcomes, and protocol randomness each live in their own
counter-keyed stream, and the Uncoordinated protocol's join uniforms are
keyed per receiver and consumed one draw per packet the receiver actually
receives.  Separating the streams removes the per-unit interleaving of
schemes 2/3: the batched engine samples whole chunks of each loss stream
in single calls, while the reference loop samples unit by unit from the
same streams — bit-identical because every loss process is
split-invariant (since scheme 5 Gilbert–Elliott too, see
:mod:`repro.simulator.loss`).  Per-receiver join-draw streams are what let
the batched scan materialise only the draws its receivers reach instead
of the full receiver x scheduled-packet matrix.  Scheme 2 introduced
per-unit loss pre-sampling, scheme 3 pre-sampled the Uncoordinated join
draws receiver-major per unit, scheme 4 is the counter-based layout
described here, and scheme 5 draws Gilbert–Elliott sojourns in
split-invariant batches; seeded results are reproducible within a scheme
version (and across engines, chunk sizes and process counts) but differ
across versions — deliberate, version-bumped changes.  Statistically the
processes are unchanged; Gilbert–Elliott burst state still advances once
per scheduled packet, i.e. with link time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..layering.layers import ExponentialLayerScheme, LayerScheme
from ..protocols import bitpack
from ..protocols.base import LayeredProtocol
from ..protocols.kernel import (
    ENGINES,
    PACKED_ENGINES,
    SCAN_ENGINES,
    ScanKernel,
    backend_ops_for,
)
from ..protocols.scan import UnitChunk
from .loss import BernoulliLoss, LossProcess, NoLoss
from .packets import PacketSchedule
from .rng import RunStreams

__all__ = [
    "SessionSimulationResult",
    "LayeredSessionSimulator",
    "simulate_layered_session",
    "simulate_session_group",
    "RNG_SCHEME_VERSION",
    "ENGINES",
]

#: Version of the random-stream layout.  Bumped to 2 when loss sampling
#: switched from per-packet draws to per-unit pre-sampled arrays, to 3 when
#: the Uncoordinated protocol's join draws joined the per-unit layout, and
#: to 4 for the counter-based Philox scheme (independent per-run streams
#: for shared loss / independent loss / protocol draws, per-receiver join
#: draws consumed per received packet, single-precision Bernoulli arrays,
#: and ``SeedSequence.spawn``-derived replicate seeds), and to 5 when
#: Gilbert–Elliott loss became split-invariant (sojourns drawn in fixed
#: batches, so the engines sample it once per chunk); seeded results are
#: reproducible within a version (and across engines) but differ across
#: versions.
RNG_SCHEME_VERSION = 5

# The engine registry (``ENGINES``, plus the scan/packed subsets and the
# per-engine backend-ops factory) lives in :mod:`repro.protocols.kernel` —
# the single source of truth shared with the experiment API and the CLI —
# and is re-exported here for backward compatibility.

IndependentLoss = Union[LossProcess, Sequence[LossProcess]]


class _RunContext:
    """One run's counter-based streams plus its private loss-process state.

    Loss processes are copied per run (:meth:`LossProcess.copy` returns a
    fresh-state instance), so every seeded run consumes its processes from
    a clean slate: results depend only on the seed, and a run stacked into
    a batched group samples bit for bit what it would sample solo.
    """

    __slots__ = ("streams", "shared_loss", "per_receiver_loss")

    def __init__(
        self,
        streams: RunStreams,
        shared_loss: LossProcess,
        per_receiver_loss: List[LossProcess],
    ) -> None:
        self.streams = streams
        self.shared_loss = shared_loss
        self.per_receiver_loss = per_receiver_loss


@dataclass
class SessionSimulationResult:
    """Outcome of one simulated run of a layered session.

    Rates are reported in packets per sender time unit; the exponential
    scheme sends at aggregate rate ``2^(M-1)`` at full subscription.
    """

    protocol: str
    num_receivers: int
    num_layers: int
    duration_units: int
    warmup_units: int
    measured_units: int
    shared_link_packets: int
    receiver_packets: np.ndarray
    total_sender_packets: int
    mean_subscription_level: float
    mean_max_subscription_level: float
    shared_loss_rate: float
    independent_loss_rates: np.ndarray
    leave_latency: float = 0.0

    @property
    def shared_link_rate(self) -> float:
        """Average rate carried by the shared link (packets per time unit)."""
        return self.shared_link_packets / self.measured_units

    @property
    def receiver_rates(self) -> np.ndarray:
        """Average receiving rate of every receiver (packets per time unit)."""
        return self.receiver_packets / self.measured_units

    @property
    def max_receiver_rate(self) -> float:
        """The efficient shared-link rate: the fastest receiver's average rate."""
        return float(self.receiver_rates.max())

    @property
    def mean_receiver_rate(self) -> float:
        return float(self.receiver_rates.mean())

    @property
    def redundancy(self) -> float:
        """Redundancy of the session on the shared link (Definition 3).

        Degenerate runs where no receiver decoded a single measured packet
        follow a documented convention: if the shared link nevertheless
        carried packets the redundancy is ``inf`` (everything the link
        carried was wasted), and only a run where the link also carried
        nothing reports the vacuous ideal ``1.0``.
        """
        efficient = self.max_receiver_rate
        if efficient <= 0:
            return 1.0 if self.shared_link_packets == 0 else float("inf")
        return self.shared_link_rate / efficient

    def summary(self) -> str:
        return (
            f"{self.protocol}: R={self.num_receivers} layers={self.num_layers} "
            f"shared-loss={self.shared_loss_rate:g} "
            f"mean-ind-loss={float(self.independent_loss_rates.mean()):g} "
            f"redundancy={self.redundancy:.3f} "
            f"link-rate={self.shared_link_rate:.2f} "
            f"max-receiver-rate={self.max_receiver_rate:.2f}"
        )


class LayeredSessionSimulator:
    """Configurable simulator for one layered session on a modified star.

    Parameters
    ----------
    protocol:
        The congestion-control protocol instance (reset per run).
    num_receivers:
        Number of receivers in the session.
    shared_loss:
        Loss process of the shared link abutting the sender.
    independent_loss:
        Either one loss process applied independently per receiver (suitable
        for memoryless processes such as :class:`BernoulliLoss`) or a
        sequence with one (stateful) process per receiver.
    scheme:
        Layer scheme; defaults to the paper's 8-layer exponential scheme.
    duration_units / warmup_units:
        Sender time units to simulate and to exclude from measurement while
        the receivers climb from layer 1 towards their operating point.
    leave_latency:
        Time units a leave takes to propagate into the network.  While a
        leave is pending, the shared link keeps carrying the receiver's
        previously subscribed layers.  Zero (the default) models the
        idealised instantaneous leaves of Section 4.
    engine:
        ``"bitpacked"`` (the default) runs the per-receiver event scan on
        uint64-packed matrices with popcount reductions (8x denser
        windows); ``"batched"`` runs the same scan on dense boolean
        matrices; ``"reference"`` runs the original per-packet loop.
        Results are bit-for-bit identical for any seed; protocols without
        batched support always use the reference loop, and protocols
        without packed support (the active-node group drain) run the dense
        scan under ``"bitpacked"``.
    chunk_units:
        Time units the batched engine processes per chunk (performance
        knob only; results do not depend on it).  ``None`` (the default)
        picks 8 units — wider chunks amortise per-chunk assembly but
        inflate the per-generation word range of the packed scan, and 8
        balances the two on both scan engines.
    """

    def __init__(
        self,
        protocol: LayeredProtocol,
        num_receivers: int,
        shared_loss: LossProcess,
        independent_loss: IndependentLoss,
        scheme: Optional[LayerScheme] = None,
        duration_units: int = 800,
        warmup_units: Optional[int] = None,
        leave_latency: float = 0.0,
        engine: str = "bitpacked",
        chunk_units: Optional[int] = None,
    ) -> None:
        if num_receivers < 1:
            raise SimulationError(f"need at least one receiver, got {num_receivers}")
        if duration_units < 2:
            raise SimulationError(f"duration_units must be >= 2, got {duration_units}")
        if leave_latency < 0:
            raise SimulationError(f"leave_latency must be non-negative, got {leave_latency}")
        if engine not in ENGINES:
            raise SimulationError(f"engine must be one of {ENGINES}, got {engine!r}")
        if chunk_units is None:
            chunk_units = 8
        if chunk_units < 1:
            raise SimulationError(f"chunk_units must be positive, got {chunk_units}")
        self.engine = engine
        #: The backend primitives this engine lowers the scan kernel with
        #: (``engine="compiled"`` resolves to the NumPy packed primitives
        #: when numba is absent — bit-identical, bitpacked speed).
        self.backend_ops = backend_ops_for(engine)
        self.chunk_units = int(chunk_units)
        #: Scan-window width in time units (internal performance knob of the
        #: batched engine; 0 scans each chunk in one unbounded window).
        self.scan_window_units = 2
        self._chunk_static: Dict[int, Tuple[np.ndarray, List[np.ndarray], np.ndarray]] = {}
        self._packed_static: Dict[int, np.ndarray] = {}
        self.protocol = protocol
        self.num_receivers = num_receivers
        self.scheme = scheme if scheme is not None else ExponentialLayerScheme(8)
        self.shared_loss = shared_loss
        self.independent_loss = independent_loss
        self.duration_units = duration_units
        if warmup_units is None:
            warmup_units = duration_units // 4
        if not 0 <= warmup_units < duration_units:
            raise SimulationError(
                f"warmup_units must lie in [0, duration_units), got {warmup_units}"
            )
        self.warmup_units = warmup_units
        self.leave_latency = float(leave_latency)
        self.schedule = PacketSchedule(self.scheme)
        self._per_receiver_loss = self._resolve_independent_loss(independent_loss)

    def _resolve_independent_loss(self, independent_loss: IndependentLoss) -> List[LossProcess]:
        if isinstance(independent_loss, LossProcess):
            return [independent_loss]
        processes = list(independent_loss)
        if len(processes) != self.num_receivers:
            raise SimulationError(
                "independent_loss must be a single process or one per receiver "
                f"({len(processes)} != {self.num_receivers})"
            )
        return processes

    def _independent_loss_rates(self) -> np.ndarray:
        if len(self._per_receiver_loss) == 1:
            return np.full(self.num_receivers, self._per_receiver_loss[0].average_loss_rate)
        return np.array([p.average_loss_rate for p in self._per_receiver_loss])

    def _make_run_context(self, seed) -> "_RunContext":
        """One run's random streams plus fresh per-run loss-process state.

        The loss processes are copied per run (``LossProcess.copy`` resets
        state), so a seeded run's outcome depends only on its seed — never
        on earlier runs' consumption of a shared stateful process — and
        stacked runs sample exactly what their solo runs would.
        """
        streams = RunStreams(
            seed,
            self.num_receivers,
            per_receiver_independent=len(self._per_receiver_loss) > 1,
        )
        return _RunContext(
            streams,
            self.shared_loss.copy(),
            [process.copy() for process in self._per_receiver_loss],
        )

    def _sample_unit_losses(
        self, context: "_RunContext", num_packets: int
    ) -> tuple:
        """Pre-sample one time unit's loss outcomes in bulk.

        Returns ``(shared, independent)`` with ``shared`` of shape
        ``(num_packets,)`` and ``independent`` receiver-major of shape
        ``(num_receivers, num_packets)``.  Each quantity is drawn from its
        own stream (RNG scheme 5): the shared link from the context's
        shared stream, a single independent-loss process receiver-major
        within the unit from the independent stream, and per-receiver
        process lists from one spawned stream per receiver.
        """
        streams = context.streams
        shared = context.shared_loss.sample_array(streams.shared_rng, num_packets)
        if len(context.per_receiver_loss) == 1:
            independent = context.per_receiver_loss[0].sample_array(
                streams.independent_rng, num_packets * self.num_receivers
            ).reshape(self.num_receivers, num_packets)
        else:
            independent = np.stack(
                [
                    process.sample_array(rng, num_packets)
                    for process, rng in zip(
                        context.per_receiver_loss, streams.independent_rngs
                    )
                ]
            )
        return shared, independent

    def _scatter_chunk_losses(
        self,
        context: "_RunContext",
        num_units: int,
        packets_per_unit: int,
        receivable_block: np.ndarray,
        shared_dense: Optional[np.ndarray],
        independent_dense: Optional[np.ndarray],
    ) -> None:
        """Apply one chunk's loss outcomes for this run (batched engine).

        Losses are sparse, so the engine samples their *positions* and
        clears them out of the pre-set ``receivable`` matrix instead of
        materialising dense per-packet outcome matrices; the dense forms
        are only filled in for protocols that declare
        ``needs_dense_losses``.  Every loss process is split-invariant, so
        each stream is sampled once for the whole chunk: the values equal
        what the reference loop reads unit by unit.  Under
        ``engine="bitpacked"`` the block is a uint64 word matrix and the
        shared columns plus every receiver's ``(row, column)`` positions
        are cleared in one fused sweep — the stream consumption is
        identical either way.
        """
        n = num_units * packets_per_unit
        receivers = self.num_receivers
        streams = context.streams
        shared_cols = context.shared_loss.sample_positions(streams.shared_rng, n)
        if len(context.per_receiver_loss) == 1:
            flat = context.per_receiver_loss[0].sample_positions(
                streams.independent_rng, n * receivers
            )
            # Flattened (unit, receiver, packet) order -> (row, column).
            unit_index, remainder = np.divmod(flat, receivers * packets_per_unit)
            row, packet = np.divmod(remainder, packets_per_unit)
            column = unit_index * packets_per_unit + packet
        else:
            pairs = zip(context.per_receiver_loss, streams.independent_rngs)
            columns = [process.sample_positions(rng, n) for process, rng in pairs]
            column = np.concatenate(columns)
            row = np.repeat(
                np.arange(receivers), [positions.size for positions in columns]
            )
        if receivable_block.dtype == np.uint64:
            bitpack.clear_cols_and_bits(receivable_block, shared_cols, row, column)
        else:
            receivable_block[:, shared_cols] = False
            receivable_block[row, column] = False
        if shared_dense is not None:
            shared_dense[shared_cols] = True
        if independent_dense is not None:
            independent_dense[row, column] = True

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, seed: Optional[int] = None) -> SessionSimulationResult:
        """Simulate one run and return its measurements.

        The engine selected at construction does the work; both engines
        consume the same counter-based random streams and return identical
        results.
        """
        context = self._make_run_context(seed)
        self.protocol.reset(
            self.num_receivers, self.scheme, context.streams.protocol_rng
        )
        self.protocol.bind_run_streams([context.streams], self.num_receivers)
        if self.engine in SCAN_ENGINES and self.protocol.supports_batched_units:
            return self._run_batched([(self, context)])[0]
        return self._run_reference(context)

    def run_many(self, seeds: Sequence[Optional[int]]) -> List[SessionSimulationResult]:
        """Simulate one run per seed; equals ``[run(s) for s in seeds]`` bit for bit.

        When the batched engine drives a protocol whose per-receiver state
        stacks (the three Section-4 protocols), the runs are simulated
        *together* — each run's receivers become an independent block of a
        wider session, with its own random generator and loss samples — so
        the scan's per-iteration cost is shared across repetitions.  This
        is the fast path behind replicated measurements such as the
        Figure 8 points.
        """
        seeds = list(seeds)
        if not seeds:
            return []
        stacked = (
            len(seeds) > 1
            and self.engine in SCAN_ENGINES
            and self.protocol.supports_batched_units
            and self.protocol.supports_stacked_runs
        )
        if not stacked:
            return [self.run(seed=seed) for seed in seeds]
        contexts = [self._make_run_context(seed) for seed in seeds]
        self.protocol.reset(
            self.num_receivers * len(contexts), self.scheme, contexts[0].streams.protocol_rng
        )
        self.protocol.bind_run_streams(
            [context.streams for context in contexts], self.num_receivers
        )
        return self._run_batched([(self, context) for context in contexts])

    # ------------------------------------------------------------------
    # reference engine: one packet at a time
    # ------------------------------------------------------------------
    def _run_reference(self, context: "_RunContext") -> SessionSimulationResult:
        num_layers = self.scheme.num_layers
        levels = np.ones(self.num_receivers, dtype=np.int64)
        # The reference loop drives its per-packet transitions through the
        # same backend-neutral kernel as the scan engines: hook dispatch
        # and the level-step invariants live in one place.
        kernel = ScanKernel(self.protocol, levels, self.num_receivers)
        packets_per_unit = self.schedule.packets_per_unit

        track_advertised = self.leave_latency > 0.0
        advertised = np.ones(self.num_receivers, dtype=np.int64)
        advert_expiry = np.zeros(self.num_receivers, dtype=float)

        shared_link_packets = 0
        receiver_packets = np.zeros(self.num_receivers, dtype=np.int64)
        level_sum = 0.0
        max_level_sum = 0.0
        measured_units = self.duration_units - self.warmup_units
        total_sender_packets = self.schedule.total_packets(self.duration_units)
        max_level = 1
        carriage_level = 1

        for unit in range(self.duration_units):
            measuring = unit >= self.warmup_units
            if measuring:
                level_sum += float(levels.mean())
                max_level_sum += float(max_level)
            unit_packets = self.schedule.unit_packets(unit)
            shared_lost, independent_lost = self._sample_unit_losses(
                context, len(unit_packets)
            )
            self.protocol.begin_unit(context.streams.protocol_rng, len(unit_packets))
            for packet_index, packet in enumerate(unit_packets):
                if track_advertised:
                    pending = (advertised > levels) & (advert_expiry <= packet.time)
                    if pending.any():
                        advertised[pending] = levels[pending]
                    carriage_level = int(max(max_level, advertised.max()))
                else:
                    carriage_level = max_level

                if packet.layer > carriage_level:
                    # Neither a live subscription nor a pending leave wants
                    # this layer: the shared link does not carry the packet.
                    continue
                if measuring:
                    shared_link_packets += 1

                subscribed = levels >= packet.layer
                if not subscribed.any():
                    # Carried only because of pending leaves; no receiver can
                    # observe it, so no protocol state changes.
                    continue

                if shared_lost[packet_index]:
                    # Correlated congestion: every subscribed receiver
                    # observes the loss.
                    congested = subscribed
                    received = None
                else:
                    independent = independent_lost[:, packet_index]
                    congested = subscribed & independent
                    received = subscribed & ~independent

                col = unit * packets_per_unit + packet_index
                if congested.any():
                    leavers = kernel.packet_congested(congested, col, packet)
                    if leavers.any():
                        if track_advertised:
                            advertised[leavers] = np.maximum(
                                advertised[leavers], levels[leavers]
                            )
                            advert_expiry[leavers] = packet.time + self.leave_latency
                        kernel.apply_leaves(leavers)
                        max_level = int(levels.max())

                if received is not None and received.any():
                    if measuring:
                        receiver_packets[received] += 1
                    joins = kernel.packet_received(received, col, num_layers, packet)
                    if joins.any():
                        kernel.apply_joins(joins)
                        if track_advertised:
                            advertised[joins] = np.maximum(advertised[joins], levels[joins])
                        level_max = int(levels.max())
                        if level_max > max_level:
                            max_level = level_max

        return SessionSimulationResult(
            protocol=self.protocol.name,
            num_receivers=self.num_receivers,
            num_layers=num_layers,
            duration_units=self.duration_units,
            warmup_units=self.warmup_units,
            measured_units=measured_units,
            shared_link_packets=shared_link_packets,
            receiver_packets=receiver_packets,
            total_sender_packets=total_sender_packets,
            mean_subscription_level=level_sum / measured_units,
            mean_max_subscription_level=max_level_sum / measured_units,
            shared_loss_rate=self.shared_loss.average_loss_rate,
            independent_loss_rates=self._independent_loss_rates(),
            leave_latency=self.leave_latency,
        )

    # ------------------------------------------------------------------
    # batched engine: one chunk of time units at a time
    # ------------------------------------------------------------------
    def _run_batched(
        self, runs: List[Tuple["LayeredSessionSimulator", "_RunContext"]]
    ) -> List[SessionSimulationResult]:
        """Chunked engine: one independently-seeded run per (simulator, context).

        Multiple runs are stacked as receiver blocks of one wide session —
        each block driven by its own generator and loss processes, so the
        per-run results match the solo runs bit for bit — and all per-run
        accounting is split back out per chunk.  The runs' simulators may
        differ in loss configuration but must share this simulator's
        geometry (receivers, scheme, duration, warm-up, leave latency) and
        its protocol instance drives all blocks.
        """
        num_runs = len(runs)
        receivers = self.num_receivers
        total_receivers = receivers * num_runs
        levels = np.ones(total_receivers, dtype=np.int64)
        track_advertised = self.leave_latency > 0.0
        advertised = np.ones(total_receivers, dtype=np.int64)
        advert_expiry = np.zeros(total_receivers, dtype=float)

        shared_link_packets = [0] * num_runs
        receiver_packets = np.zeros((num_runs, receivers), dtype=np.int64)
        level_sum = [0.0] * num_runs
        max_level_sum = [0.0] * num_runs
        measured_units = self.duration_units - self.warmup_units
        total_sender_packets = self.schedule.total_packets(self.duration_units)

        for start_unit, num_units, measuring in self._chunk_plan():
            chunk = self._assemble_chunk(runs, start_unit, num_units, track_advertised)
            start_levels = levels.copy()
            result = self.protocol.step_chunk(chunk, levels)
            if measuring:
                receiver_packets += result.received.reshape(num_runs, receivers)
                # Accumulate the unit-start statistics in unit order, with
                # the same floats the reference loop adds (the per-run
                # reductions run over each run's contiguous receiver block,
                # so the values equal the solo runs' bit for bit).
                boundary = _unit_start_levels(
                    chunk,
                    start_levels,
                    result.event_cols,
                    result.event_receivers,
                    result.event_old_levels,
                    result.event_new_levels,
                ).reshape(chunk.num_units, num_runs, receivers)
                means = boundary.mean(axis=2)
                maxes = boundary.max(axis=2)
                for index in range(chunk.num_units):
                    for run in range(num_runs):
                        level_sum[run] += float(means[index, run])
                        max_level_sum[run] += float(maxes[index, run])
                if not track_advertised:
                    carried = _carried_packets_group(
                        chunk,
                        start_levels,
                        result.event_cols,
                        result.event_receivers,
                        result.event_old_levels,
                        result.event_new_levels,
                        num_runs,
                        receivers,
                    )
                    for run in range(num_runs):
                        shared_link_packets[run] += int(carried[run])
            if track_advertised:
                if num_runs == 1:
                    blocks = [
                        (
                            slice(0, receivers),
                            result.event_cols,
                            result.event_receivers,
                            result.event_old_levels,
                            result.event_new_levels,
                        )
                    ]
                else:
                    run_of_event = result.event_receivers // receivers
                    blocks = []
                    for run in range(num_runs):
                        mine = run_of_event == run
                        blocks.append(
                            (
                                slice(run * receivers, (run + 1) * receivers),
                                result.event_cols[mine],
                                result.event_receivers[mine] - run * receivers,
                                result.event_old_levels[mine],
                                result.event_new_levels[mine],
                            )
                        )
                for run, (block, event_cols, event_receivers, event_old, event_new) in enumerate(blocks):
                    carried = self._advertised_carriage(
                        chunk,
                        start_levels[block],
                        levels[block],
                        event_cols,
                        event_receivers,
                        event_old,
                        event_new,
                        advertised[block],
                        advert_expiry[block],
                    )
                    if measuring:
                        shared_link_packets[run] += carried

        return [
            SessionSimulationResult(
                protocol=self.protocol.name,
                num_receivers=receivers,
                num_layers=self.scheme.num_layers,
                duration_units=self.duration_units,
                warmup_units=self.warmup_units,
                measured_units=measured_units,
                shared_link_packets=shared_link_packets[run],
                receiver_packets=receiver_packets[run],
                total_sender_packets=total_sender_packets,
                mean_subscription_level=level_sum[run] / measured_units,
                mean_max_subscription_level=max_level_sum[run] / measured_units,
                shared_loss_rate=simulator.shared_loss.average_loss_rate,
                independent_loss_rates=simulator._independent_loss_rates(),
                leave_latency=self.leave_latency,
            )
            for run, (simulator, _context) in enumerate(runs)
        ]

    def _chunk_plan(self) -> List[Tuple[int, int, bool]]:
        """(start_unit, num_units, measuring) chunks, split at the warm-up
        boundary so every chunk is uniformly measured or unmeasured."""
        plan: List[Tuple[int, int, bool]] = []
        segments = (
            (0, self.warmup_units, False),
            (self.warmup_units, self.duration_units, True),
        )
        for low, high, measuring in segments:
            unit = low
            while unit < high:
                count = min(self.chunk_units, high - unit)
                plan.append((unit, count, measuring))
                unit += count
        return plan

    def _assemble_chunk(
        self,
        runs: List[Tuple["LayeredSessionSimulator", "_RunContext"]],
        start_unit: int,
        num_units: int,
        with_times: bool,
    ) -> UnitChunk:
        """Pre-sample one chunk's randomness and package it for the scan.

        Each run's loss outcomes come from its own counter-based streams
        (RNG scheme 5): every loss process is split-invariant, so each
        stream is drawn for the whole chunk in one call — the values equal
        what the reference loop reads from the same streams unit by unit,
        and stacked runs preserve each run's solo stream exactly.
        """
        packets_per_unit = self.schedule.packets_per_unit
        static = self._chunk_static.get(num_units)
        if static is None:
            layers = np.tile(self.schedule.pattern_layers, num_units).astype(np.int16)
            cols_for_level = [
                np.nonzero(layers <= level)[0].astype(np.int32)
                for level in range(self.scheme.num_layers + 1)
            ]
            # observed_before[l, c]: packet columns before c a level-l
            # receiver can observe — an upper bound on its receptions.
            observed_before = np.zeros(
                (self.scheme.num_layers + 1, layers.size + 1), dtype=np.int64
            )
            for level in range(self.scheme.num_layers + 1):
                np.cumsum(layers <= level, out=observed_before[level, 1:])
            offsets = np.tile(self.schedule.pattern_offsets, num_units)
            static = (layers, cols_for_level, observed_before, offsets)
            self._chunk_static[num_units] = static
        layers, cols_for_level, observed_before, offsets = static

        num_runs = len(runs)
        receivers = self.num_receivers
        self.protocol.begin_chunk(num_runs, num_units, packets_per_unit)
        num_packets = num_units * packets_per_unit
        dense = self.protocol.needs_dense_losses
        packed = (
            self.engine in PACKED_ENGINES
            and self.protocol.supports_bitpacked
            and not dense
        )
        receivable_packed = None
        layer_masks_packed = None
        if packed:
            receivable = None
            receivable_packed = bitpack.ones_rows(receivers * num_runs, num_packets)
            layer_masks_packed = self._packed_static.get(num_units)
            if layer_masks_packed is None:
                level_rows = np.arange(self.scheme.num_layers + 1, dtype=np.int16)
                layer_masks_packed = bitpack.pack_bits(
                    layers[None, :] <= level_rows[:, None]
                )
                self._packed_static[num_units] = layer_masks_packed
        else:
            receivable = np.ones((receivers * num_runs, num_packets), dtype=bool)
        shared_lost = np.zeros((num_runs, num_packets), dtype=bool) if dense else None
        independent_lost = (
            np.zeros((receivers * num_runs, num_packets), dtype=bool) if dense else None
        )
        scatter_target = receivable_packed if packed else receivable
        for run, (simulator, context) in enumerate(runs):
            block = slice(run * receivers, (run + 1) * receivers)
            simulator._scatter_chunk_losses(
                context,
                num_units,
                packets_per_unit,
                scatter_target[block],
                shared_lost[run] if dense else None,
                independent_lost[block] if dense else None,
            )
        shared_for_chunk = None
        if dense:
            shared_for_chunk = shared_lost[0] if num_runs == 1 else shared_lost

        # Mirror PacketSchedule.sync_levels_for_unit: level i may join at
        # units that are positive multiples of 2^(i-1).
        units = np.arange(start_unit, start_unit + num_units)
        periods = 2 ** np.arange(self.schedule.num_sync_levels, dtype=np.int64)
        marks = (units[:, None] % periods[None, :] == 0) & (units > 0)[:, None]
        with_sync = np.nonzero(marks.any(axis=1))[0]
        sync_cols = with_sync * packets_per_unit
        sync_ok = np.zeros((with_sync.size, self.scheme.num_layers + 2), dtype=bool)
        sync_ok[:, 1:self.schedule.num_sync_levels + 1] = marks[with_sync]

        times = None
        if with_times:
            # unit + offset in exactly the reference loop's operand order,
            # so leave-latency expiry comparisons see identical floats.
            units = np.repeat(
                np.arange(start_unit, start_unit + num_units, dtype=float),
                packets_per_unit,
            )
            times = units + offsets

        if packed:
            # Packed rows cost one byte per 8 columns, so a far larger
            # column budget keeps the window matrices cache-sized: small
            # stacks scan multiple whole chunks' columns in one window,
            # and even ~1000-row sweep stacks get half-chunk windows —
            # trading matrix bytes for far fewer Python-level window
            # establishments (still purely a performance knob).  The
            # exact chain drain consumes every event of a window in one
            # pass with a single fresh-join hook call, so packed windows
            # amortise better the wider they get until the clamp.
            scan_window = max(
                32,
                min(
                    16 * self.scan_window_units * packets_per_unit,
                    524288 // max(1, receivers * num_runs),
                ),
            )
        else:
            scan_window = max(
                32,
                min(
                    self.scan_window_units * packets_per_unit,
                    # Keep one window's matrices cache-sized however many
                    # runs are stacked (purely a performance knob).  Wide
                    # stacks run sub-unit windows: the correlated-loss
                    # regime packs events densely enough that short, hot
                    # windows beat unit-wide matrices.
                    32768 // max(1, receivers * num_runs),
                ),
            )
        return UnitChunk(
            start_unit=start_unit,
            num_units=num_units,
            packets_per_unit=packets_per_unit,
            num_layers=self.scheme.num_layers,
            layers=layers,
            shared_lost=shared_for_chunk,
            independent_lost=independent_lost,
            receivable=receivable,
            receivable_packed=receivable_packed,
            layer_masks_packed=layer_masks_packed,
            cols_for_level=cols_for_level,
            observed_before=observed_before,
            sync_cols=sync_cols,
            sync_ok=sync_ok,
            times=times,
            scan_window=scan_window,
            ops=self.backend_ops if packed else None,
        )

    def _advertised_carriage(
        self,
        chunk: UnitChunk,
        start_levels: np.ndarray,
        end_levels: np.ndarray,
        event_cols: np.ndarray,
        event_receivers: np.ndarray,
        event_old: np.ndarray,
        event_new: np.ndarray,
        advertised: np.ndarray,
        advert_expiry: np.ndarray,
    ) -> int:
        """Shared-link carriage for one chunk under leave latency.

        Replays the reference loop's lazily-dropped advertisements from the
        chunk's level-change events: each leave opens (or extends) a
        per-receiver advertisement window at the pre-leave level, which
        closes at the first packet at or after its expiry time; the shared
        link carries a layer while any window or live subscription wants
        it.  ``advertised``/``advert_expiry`` are updated in place to the
        end-of-chunk state.
        """
        n = chunk.num_packets
        times = chunk.times
        if event_cols.size == 0:
            base_max: np.ndarray = np.full(n, int(start_levels.max()), dtype=np.int64)
        else:
            base_max = _max_level_per_packet(
                chunk, start_levels, event_cols, event_old, event_new
            ).astype(np.int64)

        intervals: List[Tuple[int, int, int]] = []
        window_value: Dict[int, int] = {}
        window_expiry: Dict[int, float] = {}
        window_start: Dict[int, int] = {}
        for pending in np.nonzero(advertised > start_levels)[0]:
            receiver = int(pending)
            window_value[receiver] = int(advertised[receiver])
            window_expiry[receiver] = float(advert_expiry[receiver])
            window_start[receiver] = 0

        if event_cols.size:
            order = np.lexsort((event_cols, event_receivers))
            for row, receiver, old, new in zip(
                event_cols[order].tolist(),
                event_receivers[order].tolist(),
                event_old[order].tolist(),
                event_new[order].tolist(),
            ):
                if new > old:
                    # A join never raises a pending advertisement: the
                    # advertised level always bounds the live subscription.
                    continue
                if receiver in window_value:
                    drop = int(np.searchsorted(times, window_expiry[receiver]))
                    if drop <= row:
                        if drop > window_start[receiver]:
                            intervals.append(
                                (window_start[receiver], drop, window_value[receiver])
                            )
                        window_value[receiver] = old
                        window_start[receiver] = row + 1
                    elif old > window_value[receiver]:
                        # The advertised level is a *running* max: packets up
                        # to and including this one saw the old value.
                        if row + 1 > window_start[receiver]:
                            intervals.append(
                                (window_start[receiver], row + 1, window_value[receiver])
                            )
                        window_value[receiver] = old
                        window_start[receiver] = row + 1
                else:
                    window_value[receiver] = old
                    window_start[receiver] = row + 1
                window_expiry[receiver] = float(times[row]) + self.leave_latency

        advertised[:] = end_levels
        for receiver, value in window_value.items():
            expiry = window_expiry[receiver]
            drop = int(np.searchsorted(times, expiry))
            end = min(drop, n)
            if end > window_start[receiver]:
                intervals.append((window_start[receiver], end, value))
            if drop >= n:
                # Still pending at the chunk boundary; carry the window over.
                advertised[receiver] = value
                advert_expiry[receiver] = expiry

        if intervals:
            extra = np.zeros(n, dtype=np.int64)
            for start, end, value in intervals:
                segment = extra[start:end]
                np.maximum(segment, value, out=segment)
            carriage = np.maximum(base_max, extra)
        else:
            carriage = base_max
        return int(np.count_nonzero(chunk.layers <= carriage))


def _unit_start_levels(
    chunk: UnitChunk,
    start_levels: np.ndarray,
    event_cols: np.ndarray,
    event_receivers: np.ndarray,
    event_old: np.ndarray,
    event_new: np.ndarray,
) -> np.ndarray:
    """Subscription levels at the start of each of the chunk's units."""
    num_units = chunk.num_units
    num_receivers = start_levels.size
    if event_cols.size == 0:
        return np.tile(start_levels, (num_units, 1))
    delta = event_new - event_old
    boundary = event_cols // chunk.packets_per_unit + 1
    keep = boundary < num_units
    accumulated = np.bincount(
        boundary[keep] * num_receivers + event_receivers[keep],
        weights=delta[keep],
        minlength=num_units * num_receivers,
    ).reshape(num_units, num_receivers)
    return start_levels[None, :] + accumulated.cumsum(axis=0).astype(np.int64)


def _max_level_per_packet(
    chunk: UnitChunk,
    start_levels: np.ndarray,
    event_cols: np.ndarray,
    event_old: np.ndarray,
    event_new: np.ndarray,
) -> np.ndarray:
    """Highest live subscription level at the start of every packet.

    Tracks the per-level receiver occupancy instead of per-receiver
    trajectories: each level change moves one receiver between two level
    buckets, so the occupancy histogram over packets is a cumulative sum of
    scattered ±1 deltas, and the carried level is the highest non-empty
    bucket — work proportional to ``packets × levels`` however many
    receivers moved.
    """
    n = chunk.num_packets
    width = chunk.num_layers + 1
    keep = event_cols + 1 < n
    rows = event_cols[keep] + 1
    flat = np.concatenate((rows * width + event_old[keep],
                           rows * width + event_new[keep]))
    weights = np.concatenate((np.full(rows.size, -1.0), np.full(rows.size, 1.0)))
    deltas = np.bincount(flat, weights=weights, minlength=n * width).reshape(n, width)
    occupancy = np.bincount(start_levels, minlength=width)[None, :] + deltas.cumsum(axis=0)
    return width - 1 - (occupancy[:, ::-1] > 0).argmax(axis=1)


def _carried_packets_group(
    chunk: UnitChunk,
    start_levels: np.ndarray,
    event_cols: np.ndarray,
    event_receivers: np.ndarray,
    event_old: np.ndarray,
    event_new: np.ndarray,
    num_runs: int,
    receivers: int,
) -> np.ndarray:
    """Per-run packets of the chunk carried by the shared link (no latency).

    The carried level is piecewise constant between level-change events, so
    each run's count is a handful of lookups into the chunk's static
    ``observed_before`` prefix table — one segment per distinct event
    column — instead of per-packet work.  All runs' segment structures are
    built in one keyed sort/bincount pass (run-major keys), leaving only a
    tiny per-run loop over its own segments.
    """
    n = chunk.num_packets
    table = chunk.observed_before
    width = chunk.num_layers + 1
    start_tops = start_levels.reshape(num_runs, receivers).max(axis=1)
    counts = table[start_tops, n].astype(np.int64)
    if event_cols.size == 0:
        return counts
    event_runs = event_receivers // receivers
    key = event_runs * np.int64(n + 1) + event_cols
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    fresh = np.empty(sorted_key.size, dtype=bool)
    fresh[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=fresh[1:])
    segment_of = np.empty(sorted_key.size, dtype=np.int64)
    segment_of[order] = np.cumsum(fresh) - 1
    segment_keys = sorted_key[fresh]
    segment_runs = segment_keys // (n + 1)
    segment_cols = segment_keys % (n + 1)
    num_segments = segment_keys.size
    flat = np.concatenate(
        (segment_of * width + event_old, segment_of * width + event_new)
    )
    weights = np.concatenate(
        (np.full(event_cols.size, -1.0), np.full(event_cols.size, 1.0))
    )
    deltas = np.bincount(
        flat, weights=weights, minlength=num_segments * width
    ).reshape(num_segments, width)
    start_occupancy = np.bincount(
        np.arange(num_runs).repeat(receivers) * width + start_levels,
        minlength=num_runs * width,
    ).reshape(num_runs, width)
    run_bounds = np.searchsorted(segment_runs, np.arange(num_runs + 1))
    for run in range(num_runs):
        low, high = int(run_bounds[run]), int(run_bounds[run + 1])
        if low == high:
            continue  # no events: the start-top count already stands
        occupancy = start_occupancy[run][None, :] + deltas[low:high].cumsum(axis=0)
        tops = np.concatenate(
            (
                [int(start_tops[run])],
                width - 1 - (occupancy[:, ::-1] > 0).argmax(axis=1),
            )
        )
        edges = np.concatenate(([0], segment_cols[low:high] + 1, [n]))
        spans = table[tops, np.minimum(edges[1:], n)] - table[tops, edges[:-1]]
        counts[run] = int(spans.sum())
    return counts


def simulate_session_group(
    simulators: Sequence[LayeredSessionSimulator],
    seeds: Sequence[Sequence[Optional[int]]],
) -> List[List[SessionSimulationResult]]:
    """Run several simulators' seeded repetitions in one batched scan.

    The Figure 8 sweep evaluates many (loss-rate, repetition) points that
    share everything but their loss processes; since every run's receivers
    are independent blocks with their own random stream, *all* of a
    protocol's points can ride one scan.  ``seeds[i]`` lists the seeds for
    ``simulators[i]``; the return value mirrors that shape, and every
    result is bit-for-bit what ``simulators[i].run(seed)`` returns.

    Simulators must share geometry (receivers, scheme, duration, warm-up,
    leave latency) and behaviourally identical protocols; incompatible or
    non-stackable groups transparently fall back to per-simulator
    :meth:`~LayeredSessionSimulator.run_many` calls, with identical
    results.
    """
    if len(simulators) != len(seeds):
        raise SimulationError(
            f"need one seed list per simulator ({len(simulators)} != {len(seeds)})"
        )
    if not simulators:
        return []
    lead = simulators[0]
    flat = [
        (simulator, seed)
        for simulator, seed_list in zip(simulators, seeds)
        for seed in seed_list
    ]
    stackable = (
        len(flat) > 1
        and lead.engine in SCAN_ENGINES
        and lead.protocol.supports_batched_units
        and lead.protocol.supports_stacked_runs
        and all(_stack_compatible(lead, simulator) for simulator in simulators[1:])
    )
    if not stackable:
        return [
            simulator.run_many(seed_list)
            for simulator, seed_list in zip(simulators, seeds)
        ]
    runs = [
        (simulator, simulator._make_run_context(seed)) for simulator, seed in flat
    ]
    lead.protocol.reset(
        lead.num_receivers * len(runs), lead.scheme, runs[0][1].streams.protocol_rng
    )
    lead.protocol.bind_run_streams(
        [context.streams for _simulator, context in runs], lead.num_receivers
    )
    flat_results = lead._run_batched(runs)
    grouped: List[List[SessionSimulationResult]] = []
    cursor = 0
    for seed_list in seeds:
        grouped.append(flat_results[cursor:cursor + len(seed_list)])
        cursor += len(seed_list)
    return grouped


def _stack_compatible(lead: LayeredSessionSimulator, other: LayeredSessionSimulator) -> bool:
    """Whether ``other``'s runs may ride in ``lead``'s batched session."""
    return (
        other.engine == lead.engine
        and other.num_receivers == lead.num_receivers
        and other.duration_units == lead.duration_units
        and other.warmup_units == lead.warmup_units
        and other.leave_latency == lead.leave_latency
        and other.protocol.supports_batched_units
        and other.protocol.supports_stacked_runs
        and other.protocol.stacking_key() == lead.protocol.stacking_key()
        and other.scheme.num_layers == lead.scheme.num_layers
        and np.array_equal(other.schedule.pattern_layers, lead.schedule.pattern_layers)
        and np.array_equal(other.schedule.pattern_offsets, lead.schedule.pattern_offsets)
        and other.schedule.num_sync_levels == lead.schedule.num_sync_levels
    )


def simulate_layered_session(
    protocol: LayeredProtocol,
    num_receivers: int,
    shared_loss_rate: float,
    independent_loss_rate: float,
    num_layers: int = 8,
    duration_units: int = 800,
    warmup_units: Optional[int] = None,
    leave_latency: float = 0.0,
    seed: Optional[int] = None,
    engine: str = "bitpacked",
) -> SessionSimulationResult:
    """Convenience wrapper: Bernoulli losses, exponential layers, one run.

    This matches the Figure 8 setting: one shared Bernoulli loss rate and
    one independent Bernoulli loss rate applied to every fan-out link.
    """
    simulator = LayeredSessionSimulator(
        protocol=protocol,
        num_receivers=num_receivers,
        shared_loss=BernoulliLoss(shared_loss_rate) if shared_loss_rate > 0 else NoLoss(),
        independent_loss=BernoulliLoss(independent_loss_rate)
        if independent_loss_rate > 0
        else NoLoss(),
        scheme=ExponentialLayerScheme(num_layers),
        duration_units=duration_units,
        warmup_units=warmup_units,
        leave_latency=leave_latency,
        engine=engine,
    )
    return simulator.run(seed=seed)
