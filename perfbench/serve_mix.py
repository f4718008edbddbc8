"""The ``serve_mix`` workload: a ``repro serve --jobs 1`` daemon under a request mix.

Two client connections drive the daemon over a Unix socket in a closed
loop (each waits for its reply before sending the next request).  A pass
starts with both clients sending the same cold spec at once (one joins
the other's in-flight simulation), then each client sends 99 requests of
which every tenth (10 in all) is a distinct cold ``scalefree_bottleneck``
spec and the rest are seeded warm hits on specs pre-computed before
timing.  The
clients meet at a barrier between passes, where the host-speed probe is
sampled while the daemon is idle (sampling it during a pass would time
the daemon's own load on the shared cores as host slowness).

Checks: every response is ``ok``; a warm spec is answered from the cache;
every hit's result equals the result of the miss that produced it; the
daemon's ``stats`` counters agree with the clients' own counts.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import (
    SETUP_SAMPLES,
    Measurement,
    child_pids,
    percentile,
    process_peak_rss_mb,
    python_env,
)

CLIENTS = 2
REQUESTS_PER_PASS = 99  # per client, after the shared cold pair
#: Every COLD_EVERY-th request of a client's pass is a distinct cold spec,
#: the two clients offset by half the spacing: every pass is the same
#: amount of work, and the clients' misses queue for the one pool worker
#: in the same pattern every pass.
COLD_EVERY = 10
WARM_SPECS = 24
BA_NODES = 120

EXPERIMENT = "scalefree_bottleneck"
#: Fields of a result envelope that define the computation's output.
CANONICAL_FIELDS = ("key", "records", "verdict", "rng_scheme_version")
EXECUTION_ONLY = ("jobs", "engine")


def _spec(seed: int) -> Dict[str, object]:
    return {"topologies": ["ba"], "num_nodes": BA_NODES, "seed": seed}


def _spec_seed(run_seed: int, kind: str, index: int) -> int:
    """Disjoint topology-seed ranges per run seed for warm, cold and pair specs."""
    offset = {"warm": 0, "cold": 1_000, "pair": 900_000}[kind]
    return run_seed * 1_000_003 + offset + index


def canonical(result: Dict[str, object]) -> str:
    """A result envelope minus wall time and execution knobs."""
    document = {name: result.get(name) for name in CANONICAL_FIELDS}
    spec = dict(result.get("spec") or {})
    for name in EXECUTION_ONLY:
        spec.pop(name, None)
    document["spec"] = spec
    return json.dumps(document, sort_keys=True)


class Client:
    """One persistent JSON-lines connection."""

    def __init__(self, path: str) -> None:
        self.socket = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.socket.settimeout(120)
        self.socket.connect(path)
        self.reader = self.socket.makefile("rb")

    def call(self, payload: Dict[str, object]) -> Tuple[Dict[str, object], float]:
        begun = time.perf_counter()
        self.socket.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self.reader.readline()
        elapsed = time.perf_counter() - begun
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line), elapsed

    def close(self) -> None:
        self.reader.close()
        self.socket.close()


class Daemon:
    """A ``repro serve`` process with a fresh cache, started and stopped here."""

    def __init__(self, workdir: Path, name: str, trace_dir: Optional[Path] = None) -> None:
        self.dir = workdir / name
        self.dir.mkdir(parents=True)
        self.socket_path = os.path.relpath(self.dir / "serve.sock")
        serve_args = [
            "serve",
            "--cache", str(self.dir / "cache"),
            "--socket", self.socket_path,
            "--jobs", "1",
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "traced_serve.py"
            command = [sys.executable, str(launcher), str(trace_dir), *serve_args]
        env = python_env()
        env["PYTHONPATH"] = "src"
        self.log = self.dir / "stderr.log"
        begun = time.perf_counter()
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command, env=env, stdout=subprocess.DEVNULL, stderr=log
            )
        try:
            self.setup_s = self._wait_ready(begun)
        except BaseException:
            self.process.kill()
            self.process.wait(timeout=30)
            raise

    def _wait_ready(self, begun: float) -> float:
        """Seconds from spawn to the first answered ``ping``."""
        deadline = begun + 60
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited: {self.log.read_text()[-2000:]}")
            try:
                client = Client(self.socket_path)
            except OSError:
                time.sleep(0.002)
                continue
            try:
                response, _ = client.call({"op": "ping"})
            finally:
                client.close()
            if response.get("ok"):
                return time.perf_counter() - begun
        raise RuntimeError("daemon did not answer ping within 60 s")

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon plus its pool workers."""
        pids = [self.process.pid, *child_pids(self.process.pid)]
        return sum(process_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Shut down gracefully, and make sure the daemon and its workers end."""
        workers = {pid: _start_time(pid) for pid in child_pids(self.process.pid)}
        try:
            client = Client(self.socket_path)
            try:
                client.call({"op": "shutdown"})
            finally:
                client.close()
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait(timeout=30)
        # A drained pool has already joined its workers; kill leftovers only
        # if the pid still names the same process (start time unchanged).
        leftovers = [pid for pid, start in workers.items() if start and _start_time(pid) == start]
        for pid in leftovers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.monotonic() + 10
        while any(_start_time(pid) for pid in leftovers) and time.monotonic() < deadline:
            time.sleep(0.01)


def _start_time(pid: int) -> Optional[str]:
    """Start time of a running ``pid``; ``None`` once it ended (zombies included)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat[stat.rfind(")") + 2:].split()
    return None if fields[0] == "Z" else fields[19]


def _stats(client: Client) -> Dict[str, object]:
    response, _ = client.call({"op": "stats"})
    if not response.get("ok"):
        raise RuntimeError(f"stats failed: {response}")
    return response


class Phase:
    """The clients' view of one measured phase."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.counts = {"requests": 0, "hit": 0, "miss": 0, "join": 0, "failed": 0}
        self.hit_s: List[float] = []
        self.miss_s: List[float] = []
        self.handle_s: List[float] = []
        self.wait_s: List[float] = []
        self.pass_s: List[float] = []
        self.pass_scale: List[float] = []  # host-speed scale per pass
        self.hit_scale: List[float] = []
        self.miss_scale: List[float] = []
        self.responses: List[Tuple[str, Dict[str, object]]] = []
        self.before: Dict[str, object] = {}  # stats response before the first pass
        self.after: Dict[str, object] = {}  # stats response after the last pass


def run_phase(
    daemon: Daemon,
    seed: int,
    seconds: float,
    m: Measurement,
    min_passes: int,
    on_start=None,
) -> Phase:
    """Pre-warm the daemon's cache, then drive the request mix for ``seconds``.

    ``on_start`` runs once pre-warming is done, before the first pass.
    """
    warm = [_spec(_spec_seed(seed, "warm", index)) for index in range(WARM_SPECS)]
    expected: Dict[str, str] = {}  # address -> canonical result of its miss
    prewarm = Client(daemon.socket_path)
    try:
        for spec in warm:
            response, _ = prewarm.call({"op": "run", "experiment": EXPERIMENT, "spec": spec})
            if m.check(response.get("ok", False), f"pre-warm failed: {response.get('error')}"):
                expected[response["address"]] = canonical(response["result"])
        before = _stats(prewarm)
    finally:
        prewarm.close()
    if on_start is not None:
        on_start()

    phase = Phase()
    stop = threading.Event()
    marks: List[float] = []  # barrier crossings: pass boundaries
    edges: List[int] = []  # probe sample count at each crossing

    def cross() -> None:
        now = time.perf_counter()
        probe = m.probe
        if marks:
            phase.pass_s.append(now - marks[-1])
            probe.sample_edge()
            scale = probe.scale(edges[-1])  # the samples on both sides of the pass
            phase.pass_scale.append(scale)
            phase.hit_scale.extend([scale] * (len(phase.hit_s) - len(phase.hit_scale)))
            phase.miss_scale.extend([scale] * (len(phase.miss_s) - len(phase.miss_scale)))
            if len(phase.pass_s) >= min_passes and now - marks[0] + phase.pass_s[-1] / 2 >= seconds:
                stop.set()
                return
        edges.append(len(probe.samples))
        probe.sample_edge()
        marks.append(time.perf_counter())

    barrier = threading.Barrier(CLIENTS, action=cross)
    cold_counter = itertools.count()
    cold_lock = threading.Lock()

    def next_cold() -> Dict[str, object]:
        with cold_lock:
            return _spec(_spec_seed(seed, "cold", next(cold_counter)))

    def record(response, elapsed, spec_kind: str) -> None:
        state = response.get("cache")
        with phase.lock:
            phase.counts["requests"] += 1
            if not response.get("ok"):
                phase.counts["failed"] += 1
            elif state in ("hit", "miss", "join"):
                phase.counts[state] += 1
                phase.handle_s.append(response["elapsed_seconds"])
                phase.wait_s.append(elapsed - response["elapsed_seconds"])
                if state == "hit":
                    phase.hit_s.append(elapsed)
                elif state == "miss":
                    phase.miss_s.append(elapsed)
            phase.responses.append((spec_kind, response))

    def drive(index: int) -> None:
        rng = random.Random(f"{seed}:{index}")
        client = Client(daemon.socket_path)
        try:
            barrier.wait()
            pass_index = 0
            while not stop.is_set():
                pair = _spec(_spec_seed(seed, "pair", pass_index))
                response, elapsed = client.call(
                    {"op": "run", "experiment": EXPERIMENT, "spec": pair}
                )
                record(response, elapsed, "pair")
                for position in range(REQUESTS_PER_PASS):
                    if position % COLD_EVERY == index * COLD_EVERY // CLIENTS:
                        spec, kind = next_cold(), "cold"
                    else:
                        spec, kind = rng.choice(warm), "warm"
                    response, elapsed = client.call(
                        {"op": "run", "experiment": EXPERIMENT, "spec": spec}
                    )
                    record(response, elapsed, kind)
                barrier.wait()
                pass_index += 1
        except threading.BrokenBarrierError:
            pass
        except Exception:
            barrier.abort()
            raise
        finally:
            client.close()

    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            drive(index)
        except BaseException as error:  # reported after the join
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(index,)) for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    if errors or any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"client failed: {errors[:1]}")

    checker = Client(daemon.socket_path)
    try:
        after = _stats(checker)
    finally:
        checker.close()
    phase.before, phase.after = before, after
    _check_responses(phase, expected, m)
    _check_counters(phase, m)
    return phase


def _check_responses(phase: Phase, expected: Dict[str, str], m: Measurement) -> None:
    """Every request succeeded, warm specs hit, and every hit or join
    returned exactly what the miss that computed its address returned."""
    for kind, response in phase.responses:
        state = response.get("cache")
        if not m.check(bool(response.get("ok")), f"run failed: {response.get('error')}"):
            continue
        if kind == "warm":
            m.check(state == "hit", f"warm spec answered as {state!r}")
        elif kind == "cold":
            m.check(state == "miss", f"distinct cold spec answered as {state!r}")
        if state == "miss":
            expected.setdefault(response["address"], canonical(response["result"]))
    for kind, response in phase.responses:
        if response.get("ok") and response.get("cache") in ("hit", "join"):
            address = response["address"]
            m.check(
                expected.get(address) == canonical(response["result"]),
                f"{response['cache']} result differs from its miss ({address[:12]})",
            )


def _counter_deltas(phase: Phase) -> Dict[str, int]:
    before, after = phase.before["counters"], phase.after["counters"]
    return {name: after[name] - before[name] for name in after}


def _check_counters(phase: Phase, m: Measurement) -> None:
    """The daemon's counters agree with the clients' own counts."""
    delta = _counter_deltas(phase)
    counts = phase.counts
    m.check(delta["requests"] == counts["requests"] + 1, f"daemon requests {delta['requests']} != clients {counts['requests']} + 1 stats")
    m.check(delta["hits"] == counts["hit"], f"daemon hits {delta['hits']} != clients {counts['hit']}")
    m.check(
        delta["misses"] == counts["miss"] + counts["join"],
        f"daemon misses {delta['misses']} != clients {counts['miss']} + {counts['join']} joins",
    )
    m.check(delta["coalesced"] == counts["join"], f"daemon coalesced {delta['coalesced']} != clients {counts['join']}")
    m.check(delta["errors"] == counts["failed"], f"daemon errors {delta['errors']} != clients {counts['failed']}")


def _fold(phase: Phase, m: Measurement) -> None:
    m.passes.extend(phase.pass_s)
    m.pass_scale.extend(phase.pass_scale)
    m.light.extend(phase.hit_s)
    m.light_scale.extend(phase.hit_scale)
    m.heavy.extend(phase.miss_s)
    m.heavy_scale.extend(phase.miss_scale)
    m.work += phase.counts["requests"]


def measure(seed: int, seconds: float, m: Measurement, workdir: Path) -> None:
    """Untraced run: set-up probes, then one measured phase on the last daemon."""
    daemons: List[Daemon] = []

    def spawn() -> float:
        daemons.append(Daemon(workdir, f"daemon-{len(daemons)}"))
        return daemons[-1].setup_s

    try:
        for _ in range(SETUP_SAMPLES):
            if daemons:
                daemons[-1].stop()
            m.time_setup(spawn)
        phase = run_phase(daemons[-1], seed, seconds, m, min_passes=2)
        m.peak_rss_mb = daemons[-1].peak_rss_mb()
    finally:
        if daemons:
            daemons[-1].stop()
    _fold(phase, m)


def _read_snapshots(trace_dir: Path, prefix: str) -> List[dict]:
    return [json.loads(path.read_text()) for path in sorted(trace_dir.glob(f"{prefix}*.json"))]


def _subtract(end: dict, start: dict) -> dict:
    return {
        table: {name: value - start.get(table, {}).get(name, 0) for name, value in values.items()}
        for table, values in end.items()
    }


def measure_traced(seed: int, seconds: float, m: Measurement, workdir: Path) -> Dict[str, float]:
    """Traced run: an untraced phase, then a traced daemon's phase; layer metrics."""
    from tracing import layer_metrics, merge

    untraced = Daemon(workdir, "untraced")
    try:
        plain = run_phase(untraced, seed, seconds / 2, m, min_passes=1)
    finally:
        untraced.stop()
    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    traced = Daemon(workdir, "traced", trace_dir=trace_dir)
    try:
        workers_at_start: List[dict] = []

        def snapshot_workers() -> None:
            workers_at_start.extend(_read_snapshots(trace_dir, "worker-"))

        phase = run_phase(traced, seed, seconds / 2, m, 1, on_start=snapshot_workers)
    finally:
        traced.stop()
    _fold(phase, m)
    daemon_dumps = _read_snapshots(trace_dir, "daemon-stats-")
    start = merge([daemon_dumps[0], *workers_at_start])
    end = merge([daemon_dumps[1], *_read_snapshots(trace_dir, "worker-")])
    passes = len(phase.pass_s)
    metrics = layer_metrics(_subtract(end, start), passes)
    counters = _counter_deltas(phase)
    metrics.update(
        {
            "serve.requests": counters["requests"] / passes,
            "serve.hits": counters["hits"] / passes,
            "serve.misses": counters["misses"] / passes,
            "serve.coalesced": counters["coalesced"] / passes,
            "serve.errors": counters["errors"] / passes,
            "serve.handle_ms_p50": 1e3 * percentile(phase.handle_s, 50),
            "serve.handle_ms_p99": 1e3 * percentile(phase.handle_s, 99),
            "serve.wait_ms_p50": 1e3 * percentile(phase.wait_s, 50),
            "serve.wait_ms_p99": 1e3 * percentile(phase.wait_s, 99),
            # Client-observed tails, from the untraced half.
            "serve.hit_p99_ms": 1e3 * percentile(plain.hit_s, 99),
            "serve.miss_p90_ms": 1e3 * percentile(plain.miss_s, 90),
            "store.quarantined": (
                phase.after["store"]["quarantined"] - phase.before["store"]["quarantined"]
            ),
            "pool.rebuilds": phase.after["pool"]["rebuilds"],
            "pool.degraded": float(bool(phase.after["pool"]["degraded"])),
        }
    )
    untraced_s = statistics.median(plain.pass_s)
    traced_s = statistics.median(phase.pass_s)
    metrics.update(
        {
            "trace.untraced_pass_s": untraced_s,
            "trace.traced_pass_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
        }
    )
    return metrics
