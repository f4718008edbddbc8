"""Counter-based random streams for the simulation engines (RNG scheme 5).

The stream layout below dates from scheme 4; scheme 5 kept it and changed
only how Gilbert–Elliott loss consumes its stream (see below).  Scheme 4
replaced the single sequential generator of schemes 2/3 with a family of
independent **Philox counter-based streams** derived from one
:class:`numpy.random.SeedSequence` per run.  Every random quantity the
simulator consumes is addressed by ``(seed, stream, position)``:

* stream 0 — shared-link loss outcomes, one draw per scheduled packet in
  transmission order (position = time unit x packets-per-unit + packet);
* stream 1 — independent (fan-out) loss outcomes; for the common
  single-process configuration one stream laid out unit-major then
  receiver-major (``unit, receiver, packet``), for per-receiver process
  lists one spawned child stream per receiver;
* stream 2 — protocol randomness.  The stream itself seeds the generator
  handed to :meth:`repro.protocols.base.LayeredProtocol.reset` (custom
  protocols keep drawing from it); its spawned children, one per receiver,
  are the Uncoordinated protocol's **join-draw streams**, consumed one
  uniform per join/leave event (:class:`ReceiverDrawStreams`).

Because the streams are independent, neither engine has to interleave its
sampling per time unit the way schemes 2/3 did: the batched engine draws a
whole chunk of every stream in one call, the per-packet reference engine
draws unit by unit, and both read bit-identical values — splitting a
Philox stream's ``random`` calls never changes the values produced (the
generator consumes its 64-bit counter blocks strictly sequentially; see
``tests/simulator/test_loss.py``).  Since scheme 5 every loss process is
split-invariant, the stateful Gilbert–Elliott chain included: it draws its
good/bad sojourns in fixed batches that depend only on the stream, so the
engines sample it once per receiver per chunk, the reference loop samples
it unit by unit, and both read the same outcomes whatever the
``chunk_units`` knob.

Keying the join draws per ``(seed, receiver)`` is what lets the batched
scan materialise only the draws a receiver actually reaches: between two
join/leave events a receiver's per-received-packet join probability
``2^(-2(i-1))`` is constant, so the packets-until-next-join count is
geometric and one uniform per event (inverted through the geometric CDF)
replaces scheme 3's uniform on every scheduled packet of every receiver —
the draw count tracks the event density instead of the packet schedule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = [
    "STREAM_SHARED",
    "STREAM_INDEPENDENT",
    "STREAM_PROTOCOL",
    "RunStreams",
    "ReceiverDrawStreams",
    "spawn_run_entropy",
]

#: Spawn indices of a run's top-level streams (children of the run's root
#: :class:`~numpy.random.SeedSequence`, in spawn order).
STREAM_SHARED = 0
STREAM_INDEPENDENT = 1
STREAM_PROTOCOL = 2

SeedLike = Union[None, int, SeedSequence]


def spawn_run_entropy(base_seed: int, num_tasks: int) -> List[int]:
    """Derive ``num_tasks`` non-overlapping run seeds from one base seed.

    Each seed is the 128-bit entropy pool of one spawned child of
    ``SeedSequence(base_seed)``, so the runs' Philox streams are
    statistically independent for *any* pair of base seeds — unlike the
    pre-scheme-4 ``base_seed + index`` schedule, under which two sweeps
    with nearby base seeds silently shared most of their replicate
    streams.  Deterministic: the same ``(base_seed, num_tasks)`` always
    yields the same schedule, and schedules are prefixes of longer ones.
    """
    children = SeedSequence(base_seed).spawn(num_tasks)
    return [
        int.from_bytes(child.generate_state(4, np.uint32).tobytes(), "little")
        for child in children
    ]


class RunStreams:
    """The independent random streams of one simulation run.

    Parameters
    ----------
    seed:
        Run seed (``None`` draws fresh OS entropy, exactly like
        ``numpy.random.default_rng``); an existing ``SeedSequence`` is used
        as the root directly.
    num_receivers:
        Receivers in the run (sizes the per-receiver stream families).
    per_receiver_independent:
        Whether the independent-loss configuration is a per-receiver
        process list (one spawned stream per receiver) rather than a single
        process (one stream, receiver-major layout within each unit).
    """

    def __init__(
        self,
        seed: SeedLike,
        num_receivers: int,
        per_receiver_independent: bool = False,
    ) -> None:
        self.root = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
        shared_ss, independent_ss, protocol_ss = self.root.spawn(3)
        self.num_receivers = num_receivers
        self.shared_rng = Generator(Philox(shared_ss))
        self.independent_rng: Optional[Generator]
        self.independent_rngs: Optional[List[Generator]]
        if per_receiver_independent:
            self.independent_rng = None
            self.independent_rngs = [
                Generator(Philox(child)) for child in independent_ss.spawn(num_receivers)
            ]
        else:
            self.independent_rng = Generator(Philox(independent_ss))
            self.independent_rngs = None
        self.protocol_rng = Generator(Philox(protocol_ss))
        self._protocol_ss = protocol_ss

    def join_stream_seeds(self) -> List[SeedSequence]:
        """One join-draw stream seed per receiver (children of stream 2)."""
        return self._protocol_ss.spawn(self.num_receivers)


class ReceiverDrawStreams:
    """Per-receiver counter-based draw streams, materialised in blocks.

    One Philox stream per receiver row; draw ``i`` of row ``r`` is the
    uniform that row consumes at its ``i``-th *consumption point*.  Under
    RNG scheme 4 the Uncoordinated protocol consumes one draw per
    join/leave event (inverting it into a geometric next-join countdown),
    so both engines — which agree bit for bit on the event sequence —
    read identical values while materialising only a handful of uniforms
    per receiver instead of scheme 3's full receiver x scheduled-packet
    matrix.

    Buffers are filled a block at a time per row (``_cursor`` counts
    consumed draws, ``_avail`` materialised ones), so the per-row
    generator calls amortise over many events.
    """

    def __init__(self, seed_seqs: Sequence[SeedSequence], block: int = 128) -> None:
        self._generators = [Generator(Philox(seed)) for seed in seed_seqs]
        rows = len(self._generators)
        self.num_rows = rows
        self._block = int(block)
        self._draws = np.empty((rows, self._block), dtype=np.float64)
        self._avail = np.zeros(rows, dtype=np.int64)
        self._cursor = np.zeros(rows, dtype=np.int64)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Consume and return one draw per row of ``rows`` (ordinal order)."""
        exhausted = rows[self._cursor[rows] >= self._avail[rows]]
        for row in exhausted.tolist():
            self._draws[row] = self._generators[row].random(self._block)
            self._avail[row] += self._block
        offsets = (self._cursor[rows] + self._block - self._avail[rows])
        draws = self._draws[rows, offsets]
        self._cursor[rows] += 1
        return draws
