"""Shared measurement plumbing: passes, host speed, percentiles, set-up probes, stamps."""

from __future__ import annotations

import importlib.util
import itertools
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Spawns per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 3

#: Seconds between host-speed samples while an in-process workload runs.
PROBE_INTERVAL_S = 0.2

#: Fewest host-speed samples one scale is averaged over.
PROBE_MIN_SAMPLES = 3

#: Host-speed samples per CPU on each side of a set-up spawn or a serve_mix pass.
PROBE_EDGE_SAMPLES = 5

#: Probe kernel time on a 2-vCPU Intel Xeon host in its fast stretches: the
#: host speed at which the reported (scaled) times equal raw wall times.
REFERENCE_PROBE_S = 0.77e-3

#: What a fresh process does before it can serve the workload: import the
#: package and load the experiment registry (every experiment module).
SETUP_PROBE = (
    "import sys; sys.path.insert(0, 'src')\n"
    "from repro.experiments.registry import experiment_keys\n"
    "experiment_keys()\n"
    "print('ready', flush=True)\n"
)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class HostProbe:
    """How fast the host runs a fixed reference kernel, sampled as a run goes.

    The benchmark gets a few cores of a shared host whose speed drifts by
    tens of per cent over seconds to minutes, so a raw wall time says as
    much about the neighbours as about the program.  The probe times a
    fixed kernel of the benchmark's own (a breadth-first search over a
    fixed Python graph, then NumPy sorts, scans and bit operations on
    fixed arrays, the two kinds of work the program does) next to the
    program's work, and every time metric of the untraced run is scaled by
    the mean of ``REFERENCE_PROBE_S / probe time`` over the same interval.
    The kernel never calls the program, so a change to the program moves
    the scaled times as much as the raw ones.

    Each sample runs the kernel twice and times the second, warm run, so
    what the program left in the caches does not move it.  ``spent`` is
    the wall time all samples took; :meth:`clock` excludes it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20260101)
        self._floats = rng.random(20_000)
        self._words = rng.integers(0, 2**62, 10_000, dtype=np.uint64)
        self._bits = rng.random(20_000) < 0.3
        graph = random.Random(20260101)
        self._adjacency: List[List[int]] = [[] for _ in range(1_500)]
        for node in range(1, len(self._adjacency)):
            for _ in range(2):
                other = graph.randrange(node)
                self._adjacency[node].append(other)
                self._adjacency[other].append(node)
        self.samples: List[float] = []
        self.spent = 0.0
        self._sampling = False

    def _kernel(self) -> int:
        distance = {0: 0}
        queue = [0]
        for node in queue:
            step = distance[node] + 1
            for other in self._adjacency[node]:
                if other not in distance:
                    distance[other] = step
                    queue.append(other)
        for _ in range(2):
            np.sort(self._floats)
            np.cumsum(self._floats)
            np.bitwise_and(self._words, self._words >> np.uint64(3))
            np.packbits(self._bits)
            np.flatnonzero(self._bits)
            np.count_nonzero(self._bits)
        return len(distance)

    def sample(self) -> None:
        if self._sampling:  # a timer signal inside a sample
            return
        self._sampling = True
        try:
            begun = time.perf_counter()
            self._kernel()
            timed = time.perf_counter()
            self._kernel()
            ended = time.perf_counter()
            self.samples.append(ended - timed)
            self.spent += ended - begun
        finally:
            self._sampling = False

    def sample_edge(self) -> None:
        """:data:`PROBE_EDGE_SAMPLES` samples on each CPU this process may use.

        The host's CPUs drift apart in speed, and a daemon or a spawned
        child may run on any of them, so an edge of a multi-process
        interval samples every one, pinning this thread to each in turn.
        """
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                for _ in range(PROBE_EDGE_SAMPLES):
                    self.sample()
        finally:
            os.sched_setaffinity(0, cpus)

    def start(self) -> None:
        """Sample every :data:`PROBE_INTERVAL_S` seconds, from a timer signal."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Wall seconds, minus the time the probe itself took."""
        return time.perf_counter() - self.spent

    def scale(self, since: int) -> float:
        """Mean of ``REFERENCE_PROBE_S / probe time`` over the samples since ``since``.

        The samples are evenly spaced in time, so this is the host's speed
        averaged over the interval: a pass that spent part of its time on a
        slow stretch is scaled by that share.  A probe preempted mid-sample
        counts as a near-zero speed, not as an unbounded one.  An interval
        shorter than the timer's (a light operation) takes a fresh sample and
        the latest ones before it, :data:`PROBE_MIN_SAMPLES` in all.
        """
        if len(self.samples) == since:
            self.sample()
        since = min(since, max(0, len(self.samples) - PROBE_MIN_SAMPLES))
        return statistics.fmean(REFERENCE_PROBE_S / seconds for seconds in self.samples[since:])


def _scaled(values: List[float], scales: List[float]) -> List[float]:
    return [value * scale for value, scale in zip(values, scales)]


class Measurement:
    """Everything one run of a workload measures and checks.

    ``passes`` are the raw wall times of the workload's fixed unit of
    work, repeated until the run's time budget is spent; ``light`` and
    ``heavy`` are raw latencies of the workload's two operation classes;
    ``setup`` the raw spawn-to-ready times.  Each has a parallel list of
    host-speed scales (see :class:`HostProbe`) measured over the same
    interval.  ``work`` is the count behind the throughput
    (receiver-packet slots, allocations or queries).
    ``attempted``/``failed`` count every checked operation.
    """

    def __init__(self) -> None:
        self.probe = HostProbe()
        self.passes: List[float] = []
        self.light: List[float] = []
        self.heavy: List[float] = []
        self.setup: List[float] = []
        self.pass_scale: List[float] = []
        self.light_scale: List[float] = []
        self.heavy_scale: List[float] = []
        self.setup_scale: List[float] = []
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.peak_rss_mb = 0.0

    def timed(self, klass: str, operation: Callable[[], object]) -> Tuple[object, float]:
        """Run one ``light`` or ``heavy`` operation; record its seconds and scale.

        Returns the operation's result and its seconds on the probe clock.
        """
        since = len(self.probe.samples)
        begun = self.probe.clock()
        result = operation()
        elapsed = self.probe.clock() - begun
        getattr(self, klass).append(elapsed)
        getattr(self, f"{klass}_scale").append(self.probe.scale(since))
        return result, elapsed

    def time_setup(self, spawn: Callable[[], float]) -> None:
        """One set-up sample: ``spawn()`` returns its spawn-to-ready seconds."""
        since = len(self.probe.samples)
        self.probe.sample_edge()
        self.setup.append(spawn())
        self.probe.sample_edge()
        self.setup_scale.append(self.probe.scale(since))

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def end_to_end(self) -> Dict[str, float]:
        """The bounded metrics: medians of host-speed-scaled times."""
        passes = _scaled(self.passes, self.pass_scale)
        return {
            "setup_s": statistics.median(_scaled(self.setup, self.setup_scale)),
            "wall_s": statistics.median(passes),
            "throughput_per_s": self.work / sum(passes),
            "light_p50_ms": 1e3 * statistics.median(_scaled(self.light, self.light_scale)),
            "heavy_p50_ms": 1e3 * statistics.median(_scaled(self.heavy, self.heavy_scale)),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def raw(self) -> Dict[str, float]:
        """The same medians unscaled, and the host's median scale (printed only)."""
        return {
            "setup_s": statistics.median(self.setup),
            "wall_s": statistics.median(self.passes),
            "light_p50_ms": 1e3 * statistics.median(self.light),
            "heavy_p50_ms": 1e3 * statistics.median(self.heavy),
            "host_scale": statistics.median(self.pass_scale),
        }

    def tails(self) -> Dict[str, Tuple[float, int]]:
        """Tail latencies with their sample counts (printed, not bounded).

        A tail is only as steady as the samples beyond it: serve_mix has
        thousands of hits and hundreds of misses per run, the simulation
        workloads a handful of operations per class.
        """
        light = _scaled(self.light, self.light_scale)
        heavy = _scaled(self.heavy, self.heavy_scale)
        return {
            "light_p99_ms": (1e3 * percentile(light, 99), len(light)),
            "heavy_p90_ms": (1e3 * percentile(heavy, 90), len(heavy)),
        }


def run_passes(
    seconds: float,
    one_pass: Callable[[], float],
    measurement: Measurement,
    min_passes: int = 2,
) -> None:
    """Repeat ``one_pass`` for about ``seconds`` (``min_passes`` at least).

    ``one_pass`` records its own operation latencies and work, checks its
    outputs, and returns the seconds its timed operations took, measured
    on ``measurement.probe.clock()``; that (checks excluded) is the pass's
    recorded wall time.  The last pass starts only if it is likely to end
    within half a pass of the budget.
    """
    probe = measurement.probe
    start = time.perf_counter()
    for done in itertools.count(1):
        since = len(probe.samples)
        begun = time.perf_counter()
        measurement.passes.append(one_pass())
        measurement.pass_scale.append(probe.scale(since))
        now = time.perf_counter()
        if done >= min_passes and now - start + (now - begun) / 2 >= seconds:
            return


def python_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_to_ready() -> float:
    """Spawn-to-ready seconds of a fresh interpreter running :data:`SETUP_PROBE`."""
    begun = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE],
        stdout=subprocess.PIPE,
        env=python_env(),
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - begun
        process.stdout.read()
    finally:
        process.stdout.close()
        code = process.wait(timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def import_profile() -> Dict[str, float]:
    """The ``import.*`` per-layer metrics of one fresh set-up probe."""
    from tracing import parse_importtime

    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", SETUP_PROBE],
        capture_output=True,
        text=True,
        env=python_env(),
        timeout=60,
        check=True,
    )
    return parse_importtime(completed.stderr)


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, or 0 when it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (from ``/proc/*/stat``)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and fields[1] == str(pid):
            children.append(int(entry.name))
    return children


def environment_stamp(engine: Optional[str]) -> Dict[str, object]:
    """Where and with what the numbers were measured."""
    import numpy
    import scipy
    from repro.protocols.kernel import backend_ops_for
    from repro.simulator.engine import RNG_SCHEME_VERSION

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    stamp: Dict[str, object] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "engine": engine,
        "rng_scheme_version": RNG_SCHEME_VERSION,
    }
    if engine is not None:
        # The backend an engine resolves to shows a silent fallback.
        stamp["engine_backend"] = type(backend_ops_for(engine)).__name__
    return stamp
