"""Run ``python -m repro serve`` with the layer tracing installed.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/traced_serve.py TRACE_DIR serve --cache DIR --socket PATH

Each ``stats`` request first writes the daemon's span totals to
``TRACE_DIR/daemon-stats-<n>.json``, so a client brackets its measured
phase with two ``stats`` calls; pool workers write
``TRACE_DIR/worker-<pid>.json`` after every task.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

from tracing import Tracer, install, install_task_dump


def main(argv) -> int:
    trace_dir = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    install_task_dump(tracer, trace_dir)

    from repro.__main__ import main as repro_main
    from repro.experiments.serve import ExperimentService

    handle = ExperimentService.handle_request
    dumps = iter(range(10**6))

    @functools.wraps(handle)
    def handle_request(self, payload):
        if isinstance(payload, dict) and payload.get("op") == "stats":
            path = trace_dir / f"daemon-stats-{next(dumps):06d}.json"
            path.write_text(json.dumps(tracer.snapshot()))
        return handle(self, payload)

    ExperimentService.handle_request = handle_request
    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
