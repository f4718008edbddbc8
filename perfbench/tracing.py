"""Per-layer tracing installed from outside the program.

Nothing under ``src/`` is edited: :func:`install` replaces the public
functions and methods each layer exposes with thin wrappers that record a
span around every call.  Spans are aggregated online per layer (calls,
busy time, self time, event counts) rather than kept one by one, because
the loss layer alone emits hundreds of thousands of spans per run.

Nesting rules:

* a span whose parent belongs to the same layer is transparent (for
  example ``run_many`` calling ``run``, or a Gilbert-Elliott
  ``sample_positions`` calling its own ``sample_array``): only the
  outermost span of a layer counts a call and busy time;
* a layer's self time is its busy time minus the time covered by its
  direct child spans of other layers (``engine.self_s`` is the engine's
  time outside loss sampling, loss scatter and the scan).

Spans are thread-local stacks, so the traced ``repro serve`` daemon (one
thread per connection) records correctly; the totals are lock-protected.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional


class Tracer:
    """Online per-layer span aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self) -> None:
        with self._lock:
            for table in (self.calls, self.busy, self.self_time, self.counts):
                table.clear()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(
        self,
        layer: str,
        function: Callable,
        count: Optional[Callable[[Any, tuple, dict], Dict[str, float]]] = None,
    ) -> Callable:
        """``function`` recording one ``layer`` span per outermost call.

        ``count(result, args, kwargs)`` (outermost calls only) returns event
        counts to add, e.g. the number of loss positions sampled.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = not stack or stack[-1][0] != layer
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame[1]
                if outer:
                    with self._lock:
                        self.calls[layer] += 1
                        self.busy[layer] += elapsed
                        self.self_time[layer] += elapsed - frame[2]
                    if stack:
                        stack[-1][2] += elapsed
                else:
                    # Same-layer nesting is transparent: hand the inner
                    # span's other-layer child time up to the outer span.
                    stack[-1][2] += frame[2]
            if outer and count is not None:
                for name, value in count(result, args, kwargs).items():
                    self.add(name, value)
            return result

        return traced

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "busy": dict(self.busy),
                "self": dict(self.self_time),
                "counts": dict(self.counts),
            }


def merge(snapshots: Iterable[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum several :meth:`Tracer.snapshot` results (daemon plus workers)."""
    total: Dict[str, Dict[str, float]] = {
        "calls": defaultdict(float),
        "busy": defaultdict(float),
        "self": defaultdict(float),
        "counts": defaultdict(float),
    }
    for snapshot in snapshots:
        for table, values in snapshot.items():
            for name, value in values.items():
                total[table][name] += value
    return {table: dict(values) for table, values in total.items()}


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that *is* ``original``.

    Modules that did ``from x import f`` hold their own binding, so the
    wrapper has to replace each of them, not just the defining module's.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _module(name: str):
    """The named module, or ``None`` once a refactor has removed it."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _wrap_function(tracer: Tracer, module, name: str, layer: str, count=None) -> None:
    original = getattr(module, name, None)
    if callable(original):
        _replace_everywhere(original, tracer.wrap(layer, original, count))


def _wrap_method(tracer: Tracer, cls, name: str, layer: str, count=None) -> None:
    raw = vars(cls).get(name) if cls is not None else None
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(tracer.wrap(layer, raw.__func__, count)))
    elif callable(raw):
        setattr(cls, name, tracer.wrap(layer, raw, count))


def _subclasses(cls: type) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _loss_events(result, args, kwargs) -> Dict[str, float]:
    import numpy as np

    if result.dtype == bool:
        return {"loss.events": float(np.count_nonzero(result))}
    return {"loss.events": float(result.size)}


def _store_read_bytes(result, args, kwargs) -> Dict[str, float]:
    if result is None:
        return {}
    store, key, spec = args[0], args[1], args[2]
    try:
        size = store.entry_path(store.key_for(key, spec)).stat().st_size
    except OSError:
        size = 0
    return {"store.bytes_read": float(size)}


def _store_written_bytes(result, args, kwargs) -> Dict[str, float]:
    try:
        return {"store.bytes_written": float(Path(result).stat().st_size)}
    except OSError:
        return {}


def _wrap_maxmin(tracer: Tracer, function: Callable) -> Callable:
    """Water-filling wrapper: iterations come from a ``MaxMinTrace``."""
    from repro.core import MaxMinTrace

    traced = tracer.wrap("maxmin", function)

    @functools.wraps(function)
    def with_iterations(network, *args, **kwargs):
        trace = args[2] if len(args) >= 3 else kwargs.get("trace")
        if trace is None and len(args) < 3:
            trace = kwargs["trace"] = MaxMinTrace()
        before = trace.num_iterations if trace is not None else 0
        result = traced(network, *args, **kwargs)
        if trace is not None:
            tracer.add("maxmin.iterations", trace.num_iterations - before)
        return result

    return with_iterations


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public entry points; call once per process.

    Entry points a later refactor removes are skipped, so the benchmark
    keeps running on every commit; their metrics then read 0.
    """
    from repro.experiments.registry import experiment_keys

    experiment_keys()  # import every experiment module before rebinding
    engine = _module("repro.simulator.engine")
    simulator = getattr(engine, "LayeredSessionSimulator", None)

    # simulator.engine
    for name in ("run", "run_many"):
        _wrap_method(tracer, simulator, name, "engine")
    _wrap_function(tracer, engine, "simulate_session_group", "engine")

    # simulator.loss
    loss = getattr(_module("repro.simulator.loss"), "LossProcess", None)
    for cls in _subclasses(loss) if loss is not None else ():
        for name in ("sample_positions", "sample_array"):
            _wrap_method(tracer, cls, name, "loss", _loss_events)

    # protocols.scan
    protocol = getattr(_module("repro.protocols.base"), "LayeredProtocol", None)
    for cls in _subclasses(protocol) if protocol is not None else ():
        _wrap_method(tracer, cls, "step_chunk", "scan")

    # protocols.bitpack (loss scatter into packed words)
    bitpack = _module("repro.protocols.bitpack")
    for name in ("clear_cols", "clear_cols_and_bits"):
        _wrap_function(tracer, bitpack, name, "bitpack.scatter")

    # network
    generators = _module("repro.network.topology.generators")
    for name in ("barabasi_albert", "waxman", "fat_tree", "generate"):
        _wrap_function(tracer, generators, name, "topology.generate")
    network = getattr(_module("repro.network.network"), "Network", None)
    _wrap_method(tracer, network, "from_graph", "network.build")
    _wrap_method(tracer, network, "incidence", "network.incidence")
    metrics = _module("repro.network.topology.metrics")
    _wrap_function(tracer, metrics, "edge_betweenness", "topology.betweenness")

    # core.maxmin
    maxmin = _module("repro.core.maxmin")
    original = getattr(maxmin, "max_min_fair_allocation", None)
    if original is not None:
        _replace_everywhere(original, _wrap_maxmin(tracer, original))

    # experiments.store
    store = getattr(_module("repro.experiments.store"), "ResultStore", None)
    _wrap_method(tracer, store, "get", "store.get", _store_read_bytes)
    _wrap_method(tracer, store, "put", "store.put", _store_written_bytes)


def install_task_dump(tracer: Tracer, directory: Path) -> None:
    """Trace ``repro serve``'s pool tasks inside the worker processes.

    The pool pickles its task function by reference, so rebinding
    ``repro.experiments.runner._run_task`` before the service imports it
    makes forked workers run the wrapper.  After each task the worker
    writes its cumulative totals to ``worker-<pid>.json`` in
    ``directory``: pool workers leave through ``os._exit``, which skips
    exit hooks.  A fork inherits the daemon's totals, so the first task in
    a new process resets them.
    """
    runner = _module("repro.experiments.runner")
    original = getattr(runner, "_run_task", None)
    if original is None:
        return
    owner = {"pid": os.getpid()}
    traced = tracer.wrap("pool.task", original)

    @functools.wraps(original)
    def run_task(*args, **kwargs):
        if owner["pid"] != os.getpid():
            owner["pid"] = os.getpid()
            tracer.reset()
        try:
            return traced(*args, **kwargs)
        finally:
            path = directory / f"worker-{os.getpid()}.json"
            temporary = path.with_suffix(".tmp")
            temporary.write_text(json.dumps(tracer.snapshot()))
            os.replace(temporary, path)

    _replace_everywhere(original, run_task)


def layer_metrics(snapshot: Dict[str, Dict[str, float]], passes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced phase, per pass of the workload."""
    calls, busy = snapshot["calls"], snapshot["busy"]
    self_time, counts = snapshot["self"], snapshot["counts"]
    scale = 1.0 / max(1, passes)
    loss_calls = calls.get("loss", 0)
    values = {
        "engine.calls": calls.get("engine", 0),
        "engine.busy_s": busy.get("engine", 0.0),
        "engine.self_s": self_time.get("engine", 0.0),
        "loss.calls": loss_calls,
        "loss.busy_s": busy.get("loss", 0.0),
        "loss.events": counts.get("loss.events", 0.0),
        "scan.calls": calls.get("scan", 0),
        "scan.busy_s": busy.get("scan", 0.0),
        "bitpack.scatter_calls": calls.get("bitpack.scatter", 0),
        "bitpack.scatter_s": busy.get("bitpack.scatter", 0.0),
        "topology.generate_s": busy.get("topology.generate", 0.0),
        "network.build_s": busy.get("network.build", 0.0),
        "network.incidence_s": busy.get("network.incidence", 0.0),
        "topology.betweenness_s": busy.get("topology.betweenness", 0.0),
        "maxmin.calls": calls.get("maxmin", 0),
        "maxmin.busy_s": busy.get("maxmin", 0.0),
        "maxmin.iterations": counts.get("maxmin.iterations", 0.0),
        "store.get_calls": calls.get("store.get", 0),
        "store.get_s": busy.get("store.get", 0.0),
        "store.bytes_read": counts.get("store.bytes_read", 0.0),
        "store.put_calls": calls.get("store.put", 0),
        "store.put_s": busy.get("store.put", 0.0),
        "store.bytes_written": counts.get("store.bytes_written", 0.0),
        "pool.tasks": calls.get("pool.task", 0),
        "pool.task_s": busy.get("pool.task", 0.0),
    }
    metrics = {name: value * scale for name, value in values.items()}
    metrics["loss.events_per_call"] = (
        counts.get("loss.events", 0.0) / loss_calls if loss_calls else 0.0
    )
    return metrics


def parse_importtime(stderr: str) -> Dict[str, float]:
    """``import.*`` metrics from ``python -X importtime`` output (seconds).

    Lines read ``import time: <self us> | <cumulative us> | <indent><name>``
    in post-order (children first, two spaces of indent per level).  A
    package's time is the cumulative time of its outermost entries:
    ``from scipy import stats`` loads ``scipy.stats`` through a lazy
    attribute, so only its submodules appear, one level below the
    importer.  Top-level entries sum to the total.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(fields[1]) / 1e6))

    def outermost(package: str) -> float:
        total, ancestors = 0.0, []
        for depth, name, seconds in reversed(entries):  # pre-order
            del ancestors[depth:]
            inside = name == package or name.startswith(package + ".")
            if inside and not any(ancestors):
                total += seconds
            ancestors.append(inside)
        return total

    return {
        "import.total_s": sum(seconds for depth, _, seconds in entries if depth == 0),
        "import.scipy_stats_s": outermost("scipy.stats"),
        "import.numpy_s": outermost("numpy"),
    }
