"""Packet-loss processes used by the layered congestion-control simulator.

Section 4 models packet loss (equivalently, congestion marking) as a
Bernoulli process, arguing that on links carrying many flows there is little
correlation between an individual flow's rate and the link loss rate.  The
simulator therefore uses :class:`BernoulliLoss` for both the shared link and
the per-receiver fan-out links of the modified-star topologies.

A two-state :class:`GilbertElliottLoss` process is provided as an extension
for studying bursty loss (the paper cites the temporal-dependence
measurements of Yajnik et al. as motivation for the Bernoulli choice); it is
exercised by the burstiness ablation but not needed for Figure 8.

Every process is *split-invariant* (RNG scheme 5): drawing ``n1 + n2``
outcomes in one call consumes the generator exactly like two calls of
``n1`` and ``n2`` and yields the same outcomes, bit for bit.  That is what
lets the bit-packed engine sample a whole chunk of time units per call
while the reference loop samples unit by unit from the same stream.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

__all__ = ["LossProcess", "BernoulliLoss", "GilbertElliottLoss", "NoLoss"]

_NO_POSITIONS = np.zeros(0, dtype=np.int64)


def _check_count(n: int) -> None:
    if n < 0:
        raise SimulationError(f"cannot sample a negative number of packets, got {n}")


class LossProcess:
    """Interface: decide, per packet, whether it is lost.

    Implementations may be stateful (e.g. Gilbert–Elliott), so a separate
    instance must be used per link.  ``sample`` draws a single outcome;
    ``sample_array`` draws ``n`` consecutive outcomes at once (used for the
    per-receiver fan-out links which are mutually independent but share a
    random generator).  Both array forms must be split-invariant (see the
    module docstring); the default per-packet loop is, trivially.
    """

    def sample(self, rng: np.random.Generator) -> bool:
        raise NotImplementedError

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Default: ``n`` independent draws of :meth:`sample`."""
        _check_count(n)
        return np.array([self.sample(rng) for _ in range(n)], dtype=bool)

    def sample_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Indices of the lost packets among the next ``n`` outcomes.

        Consumes the generator exactly like :meth:`sample_array` (the
        default literally wraps it), so the two forms are interchangeable
        mid-stream.  Sparse-friendly processes override this natively and
        implement :meth:`sample_array` on top, letting the bit-packed
        engine scatter a handful of loss positions instead of materialising
        dense outcome matrices.
        """
        return np.nonzero(self.sample_array(rng, n))[0]

    @property
    def average_loss_rate(self) -> float:
        """Long-run fraction of packets lost (used for reporting)."""
        raise NotImplementedError

    def copy(self) -> "LossProcess":
        """A fresh, state-independent copy (per-link instances)."""
        raise NotImplementedError


class NoLoss(LossProcess):
    """A lossless link."""

    def sample(self, rng: np.random.Generator) -> bool:
        return False

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        _check_count(n)
        return np.zeros(n, dtype=bool)

    def sample_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        _check_count(n)
        return _NO_POSITIONS

    @property
    def average_loss_rate(self) -> float:
        return 0.0

    def copy(self) -> "NoLoss":
        return NoLoss()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NoLoss()"


class _QueuedLoss(LossProcess):
    """Split-invariant sampling from a carried queue of upcoming losses.

    Subclasses implement :meth:`_refill`, which extends the queue by a
    block whose size depends only on the generator stream, never on the
    caller's ``n``.  The queued positions past ``n`` and the covered
    frontier carry across calls as process state, so the i-th refill
    draws the same values however the packets are partitioned into calls.
    ``copy()`` (used by the engines once per run) resets the queue.
    """

    def __init__(self, frontier: int) -> None:
        # Upcoming loss indices relative to the next packet, and how far
        # the queue reaches (every loss before the frontier is queued).
        self._pending = _NO_POSITIONS
        self._frontier = frontier

    def _refill(self, rng: np.random.Generator, frontier: int):
        """``(positions, frontier)`` of the next block after ``frontier``."""
        raise NotImplementedError

    def sample_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        _check_count(n)
        frontier = self._frontier
        queue = [self._pending]
        while frontier < n:
            positions, frontier = self._refill(rng, frontier)
            queue.append(positions)
        positions = queue[0] if len(queue) == 1 else np.concatenate(queue)
        cut = int(np.searchsorted(positions, n))
        self._pending = positions[cut:] - n
        self._frontier = frontier - n
        return positions[:cut]

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        positions = self.sample_positions(rng, n)
        out = np.zeros(n, dtype=bool)
        out[positions] = True
        return out


class BernoulliLoss(_QueuedLoss):
    """Independent per-packet loss with fixed probability ``p``.

    Since RNG scheme 4 ``sample_array`` samples the *gaps* between losses
    (geometrically distributed with parameter ``p``, drawn in fixed-size
    batches) instead of one uniform per packet, so the generator work is
    proportional to the number of losses rather than the number of
    scheduled packets — the dominant RNG cost of the Figure-8 sweeps
    through scheme 3.  The construction is the exact Bernoulli process:
    inter-loss gaps of a Bernoulli(p) sequence are i.i.d. geometric, and
    the in-progress gap carries across calls (the queue's frontier is the
    last queued loss).  Single draws through ``sample`` use a plain uniform
    and a different stream position; the engines only ever consume the
    array form.
    """

    #: Gaps drawn per refill.  Part of the stream layout: the batch size
    #: must not depend on the caller's array sizes, or the two engines'
    #: (differently-granular) calls would consume the stream differently.
    _GAP_BATCH = 2048

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(
                f"loss probability must lie in [0, 1], got {probability}"
            )
        self.probability = float(probability)
        super().__init__(frontier=-1)

    def sample(self, rng: np.random.Generator) -> bool:
        if self.probability == 0.0:
            return False
        return bool(rng.random() < self.probability)

    def _refill(self, rng: np.random.Generator, frontier: int):
        gaps = np.cumsum(rng.geometric(self.probability, self._GAP_BATCH))
        gaps += frontier
        return gaps, int(gaps[-1])

    def sample_positions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.probability == 0.0:
            _check_count(n)
            return _NO_POSITIONS
        return super().sample_positions(rng, n)

    @property
    def average_loss_rate(self) -> float:
        return self.probability

    def copy(self) -> "BernoulliLoss":
        return BernoulliLoss(self.probability)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BernoulliLoss({self.probability})"


class GilbertElliottLoss(_QueuedLoss):
    """Two-state bursty loss process (good/bad states with per-state loss rates).

    Parameters
    ----------
    p_good_to_bad, p_bad_to_good:
        Per-packet transition probabilities between the good and bad states.
    loss_good, loss_bad:
        Loss probability while in each state (classically 0 and 1).

    The chain starts good and transitions *before* each packet's loss
    draw, so the state sequence is a run of ``Geom(p_good_to_bad) - 1``
    good packets (possibly empty), then alternating bad runs of
    ``Geom(p_bad_to_good)`` and good runs of ``Geom(p_good_to_bad)``
    packets — the dwell time in a Markov state is geometric.  A switch
    probability of 0 makes the run infinite.

    Since RNG scheme 5 the process is split-invariant like
    :class:`BernoulliLoss`: each refill draws a fixed-size batch of
    sojourn lengths in one ``geometric`` call, then the losses inside
    those runs — all of a run's packets at in-state rate 1 (no further
    draws), otherwise the state's own carried Bernoulli gap sequence laid
    over its concatenated run time (given the state, packets are lost
    independently).  What a refill consumes depends only on the stream,
    so the engines take one call per chunk.
    """

    #: Sojourns drawn per refill.  Even, so every refill starts good; part
    #: of the scheme-5 stream layout (it must never depend on the caller's
    #: ``n``).
    _SOJOURN_BATCH = 1024
    #: Packets covered per refill of an infinite good run.
    _ENDLESS_STRETCH = 1 << 16

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        for name, value in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ]:
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must lie in [0, 1], got {value}")
        if p_bad_to_good == 0.0 and p_good_to_bad > 0.0:
            raise SimulationError("the bad state must be escapable (p_bad_to_good > 0)")
        self.p_good_to_bad = float(p_good_to_bad)
        self.p_bad_to_good = float(p_bad_to_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self._switch = np.tile(
            [self.p_good_to_bad, self.p_bad_to_good], self._SOJOURN_BATCH // 2
        )
        self._started = False
        self._in_state = (BernoulliLoss(self.loss_good), BernoulliLoss(self.loss_bad))
        super().__init__(frontier=0)

    def sample(self, rng: np.random.Generator) -> bool:
        return bool(self.sample_positions(rng, 1).size)

    def _refill(self, rng: np.random.Generator, frontier: int):
        if self.p_good_to_bad == 0.0:
            # The chain never leaves the good state.
            runs = np.full(1, self._ENDLESS_STRETCH, dtype=np.int64)
        else:
            runs = rng.geometric(self._switch)
            if not self._started:
                runs[0] -= 1
        self._started = True
        ends = np.cumsum(runs)
        starts = ends - runs + frontier
        good = self._run_losses(rng, self._in_state[0], starts[0::2], runs[0::2])
        bad = self._run_losses(rng, self._in_state[1], starts[1::2], runs[1::2])
        positions = np.concatenate([good, bad])
        if good.size and bad.size:
            positions.sort()
        return positions, frontier + int(ends[-1])

    @staticmethod
    def _run_losses(rng, in_state: BernoulliLoss, starts, lengths) -> np.ndarray:
        """Loss positions inside the runs ``[starts[i], starts[i] + lengths[i])``."""
        total = int(lengths.sum())
        # Offset of each run within the state's concatenated run time.
        offsets = np.cumsum(lengths) - lengths
        if in_state.probability == 1.0:
            return np.repeat(starts - offsets, lengths) + np.arange(total)
        lost = in_state.sample_positions(rng, total)
        run = np.searchsorted(offsets, lost, side="right") - 1
        return (starts - offsets)[run] + lost

    @property
    def average_loss_rate(self) -> float:
        denominator = self.p_good_to_bad + self.p_bad_to_good
        if denominator == 0.0:
            stationary_bad = 0.0
        else:
            stationary_bad = self.p_good_to_bad / denominator
        return stationary_bad * self.loss_bad + (1.0 - stationary_bad) * self.loss_good

    def copy(self) -> "GilbertElliottLoss":
        return GilbertElliottLoss(
            self.p_good_to_bad, self.p_bad_to_good, self.loss_good, self.loss_bad
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GilbertElliottLoss(g2b={self.p_good_to_bad}, b2g={self.p_bad_to_good}, "
            f"loss_good={self.loss_good}, loss_bad={self.loss_bad})"
        )
