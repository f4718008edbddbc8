"""Self-test: the benchmark's output checks trip on wrong results.

Run from the repository root::

    python3 perfbench/selftest.py

Each case feeds one workload a wrong result (by patching the library
function that produces it, or by rewriting a cached entry behind the
daemon's back) at a tiny size and requires the run to count failed
operations, i.e. ``error_rate > 0``.  A clean tiny run of the same
workload must count none.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import serve_mix  # noqa: E402
import workloads  # noqa: E402
from harness import Measurement  # noqa: E402
from tracing import parse_importtime  # noqa: E402

TINY = {
    "FIG8": {"num_receivers": 6, "duration_units": 60, "repetitions": 1, "independent_loss_rates": (0.02, 0.08)},
    "BURSTY": {"num_receivers": 5, "duration_units": 40, "repetitions": 1},
}
SEED = 7


def run_tiny(name: str) -> Measurement:
    m = Measurement()
    with mock.patch.dict(workloads.FIG8, TINY["FIG8"]), mock.patch.dict(workloads.BURSTY, TINY["BURSTY"]), \
            mock.patch.object(workloads, "WATERFILL", (("light", 60, 5, 2), ("heavy", 120, 10, 1))):
        one_pass = workloads.WORKLOADS[name](SEED, m)
        one_pass()
        one_pass()
    return m


def _patched_run(tamper):
    """Patch ``Experiment.run`` so ``tamper(result)`` rewrites its results."""
    from repro.experiments.registry import Experiment

    original = Experiment.run

    def run(self, spec=None, **overrides):
        return tamper(original(self, spec, **overrides))

    return mock.patch.object(Experiment, "run", run)


def flip_verdict(result):
    from repro.experiments.api import Verdict

    return dataclasses.replace(result, verdict=Verdict(False, "MISMATCH"))


def skew_reference(result):
    """Only the reference engine's output changes: the engines disagree."""
    if result.spec.engine != "reference":
        return result
    records = tuple(dict(record, redundancy=record["redundancy"] + 1e-6) for record in result.records)
    return dataclasses.replace(result, records=records)


def skew_reference_rates():
    """``method="reference"`` water-filling returns rates off by 1e-6."""
    import repro.core

    original = repro.core.max_min_fair_allocation

    class Skewed:
        def __init__(self, allocation):
            self.allocation = allocation

        def __getitem__(self, receiver_id):
            return self.allocation[receiver_id] * (1 + 1e-6)

    def allocate(network, *args, **kwargs):
        allocation = original(network, *args, **kwargs)
        return Skewed(allocation) if kwargs.get("method") == "reference" else allocation

    return mock.patch.object(repro.core, "max_min_fair_allocation", allocate)


def overload_links():
    """Every allocation reports its links at twice their capacity."""
    from repro.core.allocation import Allocation

    original = Allocation.link_rates

    def link_rates(self):
        return {link: 2 * rate + 1 for link, rate in original(self).items()}

    return mock.patch.object(Allocation, "link_rates", link_rates)


def corrupt_warm_entry(daemon: serve_mix.Daemon):
    """Rewrite one cached result with a valid checksum but altered records."""

    def corrupt() -> None:
        path = sorted((daemon.dir / "cache" / "objects").glob("*/*.json"))[0]
        entry = json.loads(path.read_text())
        entry["result"]["records"][0]["nodes"] += 1
        blob = json.dumps(entry["result"], sort_keys=True, separators=(",", ":")).encode()
        entry["payload_sha256"] = hashlib.sha256(blob).hexdigest()
        path.write_text(json.dumps(entry))

    return corrupt


def serve_run(tamper: bool) -> Measurement:
    m = Measurement()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_selftest-", dir=ROOT))
    try:
        daemon = serve_mix.Daemon(workdir, "daemon")
        try:
            serve_mix.run_phase(
                daemon, SEED, 1.0, m, min_passes=1,
                on_start=corrupt_warm_entry(daemon) if tamper else None,
            )
        finally:
            daemon.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return m


def main() -> int:
    cases = []

    def expect(name: str, m: Measurement, should_fail: bool) -> None:
        ok = (m.failed > 0) == should_fail and m.attempted > 0
        cases.append(ok)
        verdict = "ok" if ok else "WRONG"
        print(f"{verdict:5s} {name}: {m.failed} failed of {m.attempted}"
              + (f" (first: {m.failures[0]})" if m.failures else ""))

    for name in ("fig8_panel", "bursty_ge", "waterfill_scale"):
        expect(f"{name} clean", run_tiny(name), False)
    for name in ("fig8_panel", "bursty_ge"):
        with _patched_run(flip_verdict):
            expect(f"{name} with a MISMATCH verdict", run_tiny(name), True)
        with _patched_run(skew_reference):
            expect(f"{name} with engines disagreeing", run_tiny(name), True)
    with skew_reference_rates():
        expect("waterfill_scale with reference rates off by 1e-6", run_tiny("waterfill_scale"), True)
    with overload_links():
        expect("waterfill_scale with links over capacity", run_tiny("waterfill_scale"), True)
    expect("serve_mix clean", serve_run(tamper=False), False)
    expect("serve_mix with a hit differing from its miss", serve_run(tamper=True), True)

    empty = Path(tempfile.mkdtemp(prefix=".perfbench_selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", empty)
        shutil.copytree(HERE, empty / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "fig8_panel",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(empty, ignore_errors=True)
    ok = completed.returncode != 0 and not completed.stdout.strip()
    cases.append(ok)
    print(f"{'ok' if ok else 'WRONG':5s} without the program: exit {completed.returncode}, no result printed")

    sample = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |     numpy.core\n"
        "import time:       200 |        300 |   numpy\n"
        "import time:        50 |         50 |   scipy.stats._a\n"
        "import time:        10 |        360 | repro\n"
    )
    parsed = parse_importtime(sample)
    ok = parsed == {"import.total_s": 360e-6, "import.scipy_stats_s": 50e-6, "import.numpy_s": 300e-6}
    cases.append(ok)
    print(f"{'ok' if ok else 'WRONG':5s} import-time parsing: {parsed}")
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
