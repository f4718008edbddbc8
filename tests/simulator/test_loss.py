"""Unit tests for the packet-loss processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulator import BernoulliLoss, GilbertElliottLoss, LossProcess, NoLoss


class TestNoLoss:
    def test_never_loses(self):
        rng = np.random.default_rng(0)
        process = NoLoss()
        assert not process.sample(rng)
        assert not process.sample_array(rng, 100).any()
        assert process.average_loss_rate == 0.0
        assert isinstance(process.copy(), NoLoss)


class TestBernoulliLoss:
    def test_validation(self):
        with pytest.raises(SimulationError):
            BernoulliLoss(-0.1)
        with pytest.raises(SimulationError):
            BernoulliLoss(1.5)

    def test_zero_probability_never_loses(self):
        rng = np.random.default_rng(0)
        process = BernoulliLoss(0.0)
        assert not process.sample_array(rng, 1000).any()

    def test_one_probability_always_loses(self):
        rng = np.random.default_rng(0)
        process = BernoulliLoss(1.0)
        assert process.sample_array(rng, 100).all()
        assert process.sample(rng)

    def test_empirical_rate_matches_probability(self):
        rng = np.random.default_rng(42)
        process = BernoulliLoss(0.2)
        samples = process.sample_array(rng, 50_000)
        assert samples.mean() == pytest.approx(0.2, abs=0.01)
        assert process.average_loss_rate == 0.2

    def test_copy_is_independent_instance(self):
        process = BernoulliLoss(0.3)
        clone = process.copy()
        assert clone is not process
        assert clone.probability == 0.3


class TestGilbertElliottLoss:
    def test_validation(self):
        with pytest.raises(SimulationError):
            GilbertElliottLoss(1.5, 0.5)
        with pytest.raises(SimulationError):
            GilbertElliottLoss(0.5, 0.0)  # bad state must be escapable

    def test_degenerate_good_only(self):
        rng = np.random.default_rng(1)
        process = GilbertElliottLoss(0.0, 1.0, loss_good=0.0, loss_bad=1.0)
        assert not any(process.sample(rng) for _ in range(200))
        assert process.average_loss_rate == 0.0

    def test_average_loss_rate_from_stationary_distribution(self):
        process = GilbertElliottLoss(0.1, 0.3, loss_good=0.0, loss_bad=1.0)
        assert process.average_loss_rate == pytest.approx(0.25)

    def test_empirical_rate_matches_stationary(self):
        rng = np.random.default_rng(3)
        process = GilbertElliottLoss(0.05, 0.2, loss_good=0.0, loss_bad=1.0)
        samples = [process.sample(rng) for _ in range(40_000)]
        assert np.mean(samples) == pytest.approx(process.average_loss_rate, abs=0.02)

    def test_losses_are_bursty(self):
        # Consecutive losses should be more likely than under Bernoulli with
        # the same average rate.
        rng = np.random.default_rng(5)
        process = GilbertElliottLoss(0.02, 0.2, loss_good=0.0, loss_bad=1.0)
        samples = np.array([process.sample(rng) for _ in range(60_000)])
        rate = samples.mean()
        consecutive = (samples[1:] & samples[:-1]).mean()
        assert consecutive > (rate * rate) * 2

    def test_copy_resets_state(self):
        process = GilbertElliottLoss(0.5, 0.5)
        clone = process.copy()
        assert clone is not process
        assert clone.p_good_to_bad == 0.5


class TestSamplePositions:
    def test_positions_match_sample_array_bit_for_bit(self):
        # Both forms must consume the generator identically so the engines
        # can mix them mid-stream.
        for process_a, process_b in [
            (BernoulliLoss(0.07), BernoulliLoss(0.07)),
            (GilbertElliottLoss(0.05, 0.3), GilbertElliottLoss(0.05, 0.3)),
        ]:
            rng_a = np.random.default_rng(5)
            rng_b = np.random.default_rng(5)
            for n in (64, 128, 1, 1000):
                dense = process_a.sample_array(rng_a, n)
                positions = process_b.sample_positions(rng_b, n)
                assert np.array_equal(np.nonzero(dense)[0], positions)

    def test_noloss_positions_empty(self):
        rng = np.random.default_rng(0)
        assert NoLoss().sample_positions(rng, 50).size == 0


def _partitioned(process, seed, total, partition_rng):
    """Loss positions of ``total`` packets drawn in random-sized calls."""
    rng = np.random.default_rng(seed)
    parts, done = [], 0
    while done < total:
        step = min(int(partition_rng.integers(0, 300)), total - done)
        parts.append(process.sample_positions(rng, step) + done)
        done += step
    return np.concatenate(parts)


#: Gilbert–Elliott configurations of the split-invariance suite:
#: (p_good_to_bad, p_bad_to_good, loss_good, loss_bad).
GE_CONFIGS = [
    (0.02, 0.3, 0.0, 1.0),  # classic: runs expand with no further draws
    (0.1, 0.4, 1.0, 0.0),  # good state lossy, bad state clean
    (0.05, 0.25, 0.1, 0.9),  # in-state rates strictly inside (0, 1)
    (0.3, 0.6, 0.0, 0.5),  # one rate in {0, 1}, one inside
    (1.0, 1.0, 0.0, 1.0),  # empty first good run, alternating packets
    (0.0, 0.5, 0.2, 1.0),  # p_good_to_bad = 0: one infinite good run
    (0.0, 0.0, 1.0, 1.0),
    (0.0, 0.0, 0.0, 0.0),
]


class TestSplitInvariance:
    """RNG scheme 5 contract: every loss process produces bit-identical
    outcomes however the packets are partitioned into calls, which is what
    lets the bit-packed engine sample whole chunks while the reference
    engine samples unit by unit."""

    @pytest.mark.parametrize("probability", [0.01, 0.2, 0.9])
    def test_bernoulli_outcomes_independent_of_call_granularity(self, probability):
        total = 4096
        whole_process = BernoulliLoss(probability)
        whole = whole_process.sample_array(np.random.default_rng(3), total)
        for split in (1, 7, 128, 1000):
            process = BernoulliLoss(probability)
            rng = np.random.default_rng(3)
            parts = []
            remaining = total
            while remaining:
                step = min(split, remaining)
                parts.append(process.sample_array(rng, step))
                remaining -= step
            assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("config", GE_CONFIGS, ids=str)
    def test_gilbert_elliott_outcomes_independent_of_call_granularity(self, config):
        # Long enough for several sojourn refills (and, with p_good_to_bad
        # = 0, several stretches of the infinite run) per partition.
        total = 150_000
        for seed in range(3):
            whole = GilbertElliottLoss(*config).sample_positions(
                np.random.default_rng(seed), total
            )
            partition_rng = np.random.default_rng(100 + seed)
            for _ in range(3):
                parts = _partitioned(
                    GilbertElliottLoss(*config), seed, total, partition_rng
                )
                assert np.array_equal(parts, whole)

    @pytest.mark.parametrize(
        "make", [NoLoss, lambda: BernoulliLoss(0.07), lambda: GilbertElliottLoss(0.05, 0.3)]
    )
    def test_dense_and_sparse_calls_interleave(self, make):
        # sample_array and sample_positions share one stream position, so
        # mixing them mid-stream still matches one whole-span call.
        total = 20_000
        whole = make().sample_positions(np.random.default_rng(4), total)
        process, rng = make(), np.random.default_rng(4)
        partition_rng = np.random.default_rng(5)
        parts, done = [], 0
        while done < total:
            step = min(int(partition_rng.integers(0, 500)), total - done)
            if partition_rng.random() < 0.5:
                lost = np.nonzero(process.sample_array(rng, step))[0]
            else:
                lost = process.sample_positions(rng, step)
            parts.append(lost + done)
            done += step
        assert np.array_equal(np.concatenate(parts), whole)

    def test_copy_resets_carried_gap(self):
        process = BernoulliLoss(0.3)
        process.sample_array(np.random.default_rng(0), 100)
        clone = process.copy()
        fresh = BernoulliLoss(0.3)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(
            clone.sample_array(rng_a, 200), fresh.sample_array(rng_b, 200)
        )

    @pytest.mark.parametrize("config", GE_CONFIGS, ids=str)
    def test_gilbert_elliott_copy_resets_carried_state(self, config):
        # Mid-run state (queued losses, the in-progress run, the first-run
        # offset) must not leak into a copy: it samples like a fresh process.
        process = GilbertElliottLoss(*config)
        process.sample_positions(np.random.default_rng(0), 12_345)
        clone = process.copy()
        fresh = GilbertElliottLoss(*config)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(
            clone.sample_positions(rng_a, 30_000), fresh.sample_positions(rng_b, 30_000)
        )


class TestNegativeCounts:
    """A negative packet count is a caller bug: it must raise, and must not
    shift the carried state (which would silently corrupt later draws)."""

    @pytest.mark.parametrize(
        "make",
        [NoLoss, lambda: BernoulliLoss(0.2), lambda: BernoulliLoss(0.0),
         lambda: GilbertElliottLoss(0.05, 0.3),
         lambda: GilbertElliottLoss(0.0, 0.5, 0.3, 1.0)],
    )
    def test_negative_n_is_rejected_without_side_effects(self, make):
        process, rng = make(), np.random.default_rng(2)
        first = process.sample_positions(rng, 50)
        with pytest.raises(SimulationError):
            process.sample_positions(rng, -5)
        with pytest.raises(SimulationError):
            process.sample_array(rng, -5)
        rest = process.sample_positions(rng, 500)
        fresh = make().sample_positions(np.random.default_rng(2), 550)
        assert np.array_equal(np.concatenate([first, rest + 50]), fresh)

    def test_base_per_packet_loop_rejects_negative_n(self):
        class Coin(LossProcess):
            def sample(self, rng):
                return bool(rng.random() < 0.5)

        with pytest.raises(SimulationError):
            Coin().sample_positions(np.random.default_rng(0), -1)
        assert Coin().sample_array(np.random.default_rng(0), 0).size == 0


def _runs(outcomes):
    """Lengths of the maximal runs of True in a boolean sequence."""
    padded = np.concatenate([[False], outcomes, [False]]).astype(np.int8)
    edges = np.diff(padded)
    return np.nonzero(edges == -1)[0] - np.nonzero(edges == 1)[0]


class TestGilbertElliottSojournConstruction:
    """Statistical proof obligations for the split-invariant sojourn
    construction: short calls must carry the chain state across call
    boundaries, the burst (bad-run) lengths must be ``Geom(p_bad_to_good)``
    and the marginal loss rate must match the stationary distribution —
    including with ``loss_good > 0``."""

    PARAMS = dict(p_good_to_bad=0.05, p_bad_to_good=0.25, loss_good=0.1, loss_bad=0.9)
    #: Same chain, but the state is observable: a packet is lost iff bad.
    OBSERVABLE = dict(p_good_to_bad=0.05, p_bad_to_good=0.25, loss_good=0.0, loss_bad=1.0)

    def test_transition_happens_before_the_loss_draw(self):
        # With both switch probabilities 1 the first good run is empty and
        # every run lasts one packet: packet 0 is already in the bad state.
        for loss_good, loss_bad, first in ((0.0, 1.0, True), (1.0, 0.0, False)):
            process = GilbertElliottLoss(1.0, 1.0, loss_good=loss_good, loss_bad=loss_bad)
            rng = np.random.default_rng(0)
            outcomes = np.concatenate([process.sample_array(rng, 7) for _ in range(300)])
            expected = np.resize([first, not first], outcomes.size)
            assert np.array_equal(outcomes, expected)

    def test_marginal_loss_rate_matches_scalar_sampling(self):
        rng = np.random.default_rng(17)
        blocked = GilbertElliottLoss(**self.PARAMS)
        block_rate = np.mean(
            [blocked.sample_array(rng, 257).mean() for _ in range(300)]
        )
        scalar = GilbertElliottLoss(**self.PARAMS)
        scalar_rate = np.mean([scalar.sample(rng) for _ in range(77_100)])
        assert block_rate == pytest.approx(scalar.average_loss_rate, abs=0.01)
        assert scalar_rate == pytest.approx(scalar.average_loss_rate, abs=0.01)

    def test_chain_state_after_short_calls_matches_stationary_occupancy(self):
        # After many 29-packet calls, the fraction of calls whose last
        # packet is lost (i.e. that end in the bad state) must match the
        # stationary distribution, and the next call's first packet must
        # stay bad with probability 1 - p_bad_to_good: the carried state
        # advances exactly like n scalar steps would, across call edges.
        rng = np.random.default_rng(23)
        process = GilbertElliottLoss(**self.OBSERVABLE)
        stationary_bad = process.average_loss_rate
        blocks = np.array([process.sample_array(rng, 29) for _ in range(8000)])
        ends_bad = blocks[:-1, -1]
        starts_bad = blocks[1:, 0]
        assert ends_bad.mean() == pytest.approx(stationary_bad, abs=0.02)
        stay_bad = starts_bad[ends_bad].mean()
        leave_good = starts_bad[~ends_bad].mean()
        assert stay_bad == pytest.approx(1.0 - process.p_bad_to_good, abs=0.04)
        assert leave_good == pytest.approx(process.p_good_to_bad, abs=0.01)

    @pytest.mark.parametrize("p_bad_to_good", [0.5, 0.25, 0.125])
    def test_burst_lengths_are_geometric(self, p_bad_to_good):
        # The burstiness experiment's parametrisation: mean burst length
        # 1 / p_bad_to_good at a 5 % average loss rate, drawn in short calls.
        p_good_to_bad = 0.05 * p_bad_to_good / 0.95
        process = GilbertElliottLoss(p_good_to_bad, p_bad_to_good)
        rng = np.random.default_rng(int(1 / p_bad_to_good))
        outcomes = np.concatenate([process.sample_array(rng, 61) for _ in range(20_000)])
        bursts = _runs(outcomes)[1:-1]  # drop the runs cut by the span edges
        gaps = _runs(~outcomes)[1:-1]
        assert bursts.size > 1000
        assert bursts.mean() == pytest.approx(1.0 / p_bad_to_good, rel=0.05)
        assert np.mean(bursts == 1) == pytest.approx(p_bad_to_good, abs=0.03)
        assert gaps.mean() == pytest.approx(1.0 / p_good_to_bad, rel=0.06)
        assert outcomes.mean() == pytest.approx(process.average_loss_rate, rel=0.06)

    @pytest.mark.parametrize(
        "config", [c for c in GE_CONFIGS if 0.0 < c[2] < 1.0 or 0.0 < c[3] < 1.0], ids=str
    )
    def test_marginal_loss_rate_with_in_state_gap_sampling(self, config):
        process = GilbertElliottLoss(*config)
        rng = np.random.default_rng(41)
        outcomes = np.concatenate([process.sample_array(rng, 997) for _ in range(300)])
        assert outcomes.mean() == pytest.approx(process.average_loss_rate, abs=0.01)

    def test_burstiness_survives_block_sampling(self):
        rng = np.random.default_rng(31)
        process = GilbertElliottLoss(0.02, 0.2, loss_good=0.05, loss_bad=0.95)
        samples = np.concatenate([process.sample_array(rng, 997) for _ in range(40)])
        rate = samples.mean()
        consecutive = (samples[1:] & samples[:-1]).mean()
        assert consecutive > (rate * rate) * 2
