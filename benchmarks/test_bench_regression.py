"""Bench-envelope regression against the recorded ``BENCH_core.json``.

The committed baseline used to be eyeball-diffed: regenerate, stare at the
stdout table, decide whether the numbers moved.  This module turns the two
properties we actually relied on into assertions (seeding ROADMAP item 3's
performance tracking):

* the *recorded* baseline itself must stay well-formed and keep the engine
  ordering the docs and the default flip are justified by — in particular
  the Figure-8 panel (b) engine comparison must show the bit-packed scan
  at least 1.2x faster than the batched scan (the fused multi-event
  drain's acceptance ratio), and the reduced burstiness sweep at least
  1.5x faster than its recorded RNG-scheme-4 row (split-invariant
  Gilbert–Elliott loss), and the scale-free network build at least 3x
  faster than its recorded parent row (batched BFS routing), and the exact
  edge betweenness pass at least 3x faster than its recorded parent row
  (batched Brandes);
* a *live* re-measurement (``-m slow``, run with the other scale
  benchmarks) must land inside a generous tolerance band of the recorded
  medians, so a silent performance cliff in either scan engine, in the
  Gilbert–Elliott loss layer, in routing or in betweenness fails the bench
  step instead of shipping unnoticed.

The band is wide (``ENVELOPE = 4``) because shared CI machines jitter by
integer factors; the test is a cliff detector, not a microbenchmark.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_core.json"

#: Benchmarks the envelope tracks, and the live/recorded tolerance factor.
ENGINE_COMPARISON = (
    "test_bench_figure8_engine_comparison[batched]",
    "test_bench_figure8_engine_comparison[bitpacked]",
    "test_bench_figure8_engine_comparison[reference]",
    "test_bench_figure8a_engine_comparison[batched]",
    "test_bench_figure8a_engine_comparison[bitpacked]",
)
FIGURE8_PANELS = (
    "test_bench_figure8a_low_shared_loss",
    "test_bench_figure8b_high_shared_loss",
)
LARGE_SCALE = (
    "test_bench_water_filling_scalefree_csr",
)
EXTENSIONS = (
    "test_bench_extension_burstiness",
)
ROUTING = (
    "test_bench_network_build_scalefree",
)
#: The routing row recorded on the same machine before the batched search
#: (one pure-Python BFS per session, repeated for the single-rate copy).
ROUTING_PARENT = "test_bench_network_build_scalefree[parent]"
BETWEENNESS = (
    "test_bench_edge_betweenness",
)
#: The betweenness row recorded on the same machine before the batched
#: Brandes pass (one pure-Python dict-and-deque loop per source).
BETWEENNESS_PARENT = "test_bench_edge_betweenness[parent]"
#: The burstiness row recorded on the same machine before Gilbert–Elliott
#: loss became split-invariant (RNG scheme 4: sampled once per time unit).
BURSTINESS_SCHEME_4 = "test_bench_extension_burstiness[rng-scheme-4]"
ENVELOPE = 4.0


def _recorded_stats():
    with open(BASELINE_PATH) as handle:
        data = json.load(handle)
    return {bench["name"]: bench["stats"] for bench in data["benchmarks"]}


class TestRecordedBaseline:
    """Fast sanity of the committed baseline (runs in tier-1)."""

    def test_baseline_records_every_tracked_benchmark(self):
        stats = _recorded_stats()
        for name in (
            ENGINE_COMPARISON + FIGURE8_PANELS + LARGE_SCALE + EXTENSIONS + ROUTING + BETWEENNESS
        ):
            assert name in stats, f"BENCH_core.json lost {name}"
            for field in ("mean", "median", "min"):
                assert stats[name][field] > 0.0

    def test_recorded_engine_ordering_holds(self):
        # The default-engine flip rests on this ordering; regenerating the
        # baseline on a machine where it no longer holds must fail loudly.
        stats = _recorded_stats()
        batched = stats["test_bench_figure8_engine_comparison[batched]"]
        bitpacked = stats["test_bench_figure8_engine_comparison[bitpacked]"]
        reference = stats["test_bench_figure8_engine_comparison[reference]"]
        assert bitpacked["mean"] < batched["mean"] < reference["mean"]
        panel_a = stats["test_bench_figure8a_engine_comparison[batched]"]
        panel_a_packed = stats["test_bench_figure8a_engine_comparison[bitpacked]"]
        assert panel_a_packed["mean"] < panel_a["mean"]

    def test_recorded_panel_b_speedup_meets_target(self):
        # Figure-8 panel (b), duration 400: the fused multi-event drain's
        # acceptance criterion — bit-packed >= 1.2x faster than batched.
        stats = _recorded_stats()
        batched = stats["test_bench_figure8_engine_comparison[batched]"]["mean"]
        bitpacked = stats["test_bench_figure8_engine_comparison[bitpacked]"]["mean"]
        assert batched / bitpacked >= 1.2

    def test_recorded_burstiness_speedup_meets_target(self):
        # Split-invariant GE loss (one sampling call per receiver per chunk
        # instead of per unit): the reduced burstiness sweep must be at
        # least 1.5x faster than its scheme-4 row from the same machine.
        stats = _recorded_stats()
        before = stats[BURSTINESS_SCHEME_4]["median"]
        after = stats["test_bench_extension_burstiness"]["median"]
        assert before / after >= 1.5

    def test_recorded_routing_speedup_meets_target(self):
        # Batched BFS routing, shared by the single-rate copy: placing and
        # routing 300 sessions x 8 receivers on a 5 000-node BA graph plus
        # the single-rate copy must be at least 3x faster than the parent's
        # row from the same machine.
        stats = _recorded_stats()
        before = stats[ROUTING_PARENT]["median"]
        after = stats["test_bench_network_build_scalefree"]["median"]
        assert before / after >= 3.0

    def test_recorded_betweenness_speedup_meets_target(self):
        # Batched Brandes pass over the cached CSR adjacency: exact edge
        # betweenness on a 1 000-node BA graph must be at least 3x faster
        # than the parent's row from the same machine.
        stats = _recorded_stats()
        before = stats[BETWEENNESS_PARENT]["median"]
        after = stats["test_bench_edge_betweenness"]["median"]
        assert before / after >= 3.0

    def test_recorded_compiled_speedup_meets_target(self):
        # The compiled (numba) row only exists in baselines regenerated on
        # a numba-equipped machine — the CI compiled-engine leg records it;
        # machines without numba skip rather than fabricate a number.
        # When present: the jitted drain must beat the bit-packed scan by
        # the acceptance ratio on Figure-8 panel (b), duration 400.
        stats = _recorded_stats()
        name = "test_bench_figure8_engine_comparison[compiled]"
        if name not in stats:
            pytest.skip("baseline has no compiled-engine row (numba leg not recorded)")
        bitpacked = stats["test_bench_figure8_engine_comparison[bitpacked]"]["mean"]
        compiled = stats[name]["mean"]
        assert bitpacked / compiled >= 1.15


@pytest.mark.slow
class TestLiveEnvelope:
    """Re-measure and compare against the recorded medians (``-m slow``)."""

    @pytest.mark.parametrize("engine", ("batched", "bitpacked"))
    def test_panel_b_engine_comparison_within_envelope(self, engine):
        from test_bench_figure8 import _run_panel

        recorded = _recorded_stats()[
            f"test_bench_figure8_engine_comparison[{engine}]"
        ]["median"]
        _run_panel(0.05, engine=engine, duration=400)  # warm caches
        elapsed = min(
            _timed(_run_panel, 0.05, engine=engine, duration=400)
            for _ in range(2)
        )
        assert recorded / ENVELOPE <= elapsed <= recorded * ENVELOPE, (
            f"{engine} panel (b) took {elapsed:.3f}s; recorded median "
            f"{recorded:.3f}s (envelope x{ENVELOPE})"
        )

    def test_burstiness_within_envelope(self):
        from repro.experiments import run_burstiness

        recorded = _recorded_stats()["test_bench_extension_burstiness"]["median"]
        elapsed = _timed(run_burstiness)
        assert recorded / ENVELOPE <= elapsed <= recorded * ENVELOPE, (
            f"burstiness took {elapsed:.3f}s; recorded median "
            f"{recorded:.3f}s (envelope x{ENVELOPE})"
        )

    def test_network_build_within_envelope(self):
        from repro.network.topology.generators import barabasi_albert
        from test_bench_large_scale import build_scalefree_network_pair

        recorded = _recorded_stats()["test_bench_network_build_scalefree"]["median"]
        elapsed = min(
            _timed(build_scalefree_network_pair, barabasi_albert(5000, 2, seed=7))
            for _ in range(2)
        )
        assert recorded / ENVELOPE <= elapsed <= recorded * ENVELOPE, (
            f"scale-free network build took {elapsed:.3f}s; recorded median "
            f"{recorded:.3f}s (envelope x{ENVELOPE})"
        )

    def test_edge_betweenness_within_envelope(self):
        from repro.network.topology.generators import barabasi_albert
        from repro.network.topology.metrics import edge_betweenness

        recorded = _recorded_stats()["test_bench_edge_betweenness"]["median"]
        elapsed = min(
            _timed(edge_betweenness, barabasi_albert(1000, 2, seed=7))
            for _ in range(2)
        )
        assert recorded / ENVELOPE <= elapsed <= recorded * ENVELOPE, (
            f"edge betweenness took {elapsed:.3f}s; recorded median "
            f"{recorded:.3f}s (envelope x{ENVELOPE})"
        )


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start
