"""The repository benchmark: one workload per run, metrics as one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload fig8_panel --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, every
time scaled to a reference host speed by a probe sampled alongside the
program (see ``harness.HostProbe``); ``--trace 1`` measures the
per-layer metrics (and the tracing overhead) instead.  Human-readable
lines come first: the environment stamp, every metric with its unit and
meaning, and any failed checks.  The last line
is ``{"correct", "attempted", "failed", "metrics"}``.  The workloads,
their layers and the metric definitions are recorded in
``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig8_panel", "bursty_ge", "waterfill_scale", "serve_mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_in_process(name: str, seed: int, seconds: float, trace: bool, m):
    """fig8_panel, bursty_ge and waterfill_scale run inside this process."""
    import workloads
    from harness import SETUP_SAMPLES, import_profile, own_peak_rss_mb, run_passes, spawn_to_ready

    one_pass = workloads.WORKLOADS[name](seed, m)
    if not trace:
        for _ in range(SETUP_SAMPLES):
            m.time_setup(spawn_to_ready)
        m.probe.start()
        try:
            run_passes(seconds, one_pass, m)
        finally:
            m.probe.stop()
        m.peak_rss_mb = own_peak_rss_mb()
        return m.end_to_end()

    from tracing import Tracer, install, layer_metrics

    run_passes(seconds / 2, one_pass, m, min_passes=1)
    untraced = list(m.passes)
    tracer = Tracer()
    install(tracer)
    tracer.reset()
    run_passes(seconds / 2, one_pass, m, min_passes=1)
    traced = m.passes[len(untraced):]
    metrics = layer_metrics(tracer.snapshot(), len(traced))
    metrics.update(import_profile())
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics.update(
        {
            "trace.untraced_pass_s": untraced_s,
            "trace.traced_pass_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
        }
    )
    return metrics


def measure_serve(seed: int, seconds: float, trace: bool, m, root: Path):
    from harness import import_profile
    import serve_mix

    workdir = root / ".perfbench_work" / f"serve_mix-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if not trace:
            serve_mix.measure(seed, seconds, m, workdir)
            return m.end_to_end()
        metrics = serve_mix.measure_traced(seed, seconds, m, workdir)
        metrics.update(import_profile())
        return metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def declared_metrics(trace: bool):
    """``(name, unit)`` of every metric ``BENCHMARK.json`` declares for this mode."""
    with open(HERE.parent / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return [(entry["name"], entry["unit"]) for entry in declared]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ["PYTHONHASHSEED"] = "0"

    from harness import Measurement, environment_stamp
    from workloads import ENGINES

    with open(HERE / "design.json") as handle:
        design = json.load(handle)
    m = Measurement()
    trace = bool(args.trace)
    stamp = environment_stamp(ENGINES.get(args.workload))
    print("env " + json.dumps(stamp, sort_keys=True), flush=True)
    if args.workload == "serve_mix":
        values = measure_serve(args.seed, args.seconds, trace, m, root)
    else:
        values = measure_in_process(args.workload, args.seed, args.seconds, trace, m)

    # A layer the workload bypasses reads 0; every end-to-end metric must exist.
    metrics = {
        name: {"value": float(values.get(name, 0.0) if trace else values[name]), "unit": unit}
        for name, unit in declared_metrics(trace)
    }

    meanings = design["workloads"][args.workload]["metrics"]
    mode = "traced" if trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} {mode}: {len(m.passes)} passes, "
          f"{len(m.light)} light and {len(m.heavy)} heavy operations")
    for name, metric in metrics.items():
        meaning = meanings.get(name) or meanings.get(name.split("_p")[0], "")
        print(f"  {name:24s} {metric['value']:14.6g} {metric['unit']:6s} {meaning}")
    if not trace:
        raw = m.raw()
        print(f"  host speed scale {raw.pop('host_scale'):.4g} (median over passes); unscaled medians: "
              + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
        print("  passes (unscaled s @ host scale): "
              + " ".join(f"{seconds:.4g}@{scale:.3g}" for seconds, scale in zip(m.passes, m.pass_scale)))
        for name, (value, count) in m.tails().items():
            print(f"  {name:24s} {value:14.6g} {'ms':6s} over {count} samples (printed, not bounded)")
    error_rate = m.failed / m.attempted if m.attempted else 1.0
    print(f"  {'error_rate':24s} {error_rate:14.6g} {'ratio':6s} {m.failed} failed of {m.attempted} checked operations")
    for failure in m.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": m.failed == 0 and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
