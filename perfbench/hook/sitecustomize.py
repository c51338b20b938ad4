"""Layer spans inside the service's processes, for the traced run only.

The benchmark puts this directory first on ``PYTHONPATH`` when it starts
``owl serve`` for a traced run, so the server and every fleet worker it
spawns import this file at interpreter start.  With ``PERFBENCH_SPANS``
set to a directory, each process wraps the layers listed in
``perfbench/spans.py``, enables the program's own ``repro.profiling``
hooks, and writes its spans to ``<dir>/<pid>.json`` when it exits or
receives SIGTERM.  Without the variable this file does nothing.
"""

import os


def _start(out_dir: str) -> None:
    import atexit
    import json
    import signal
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import spans as spans_module
    from repro import profiling

    # the layer modules import numpy and friends; pulling them in here
    # costs the traced run only
    import repro.core  # noqa: F401  (every wrapped layer)
    import repro.service.client  # noqa: F401
    import repro.service.execute  # noqa: F401
    import repro.store.serialize  # noqa: F401

    prof = profiling.enable()
    recorder = spans_module.SpanRecorder()
    recorder.install()
    # one span per executed work unit, carrying its wall time by kind and
    # the kernel-execute time the program's own profiling hooks booked
    # while it ran, so that all of it is windowed to the measured phase
    recorder.install([("service.unit", "repro.service.execute",
                       "execute_unit", spans_module.UnitProbe(prof))])
    written = []

    def dump() -> None:
        if written:
            return
        written.append(True)
        payload = [[s.name, s.start, s.end, s.parent, s.counts]
                   for s in recorder.spans]
        path = os.path.join(out_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    def on_term(signum, frame) -> None:
        dump()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    atexit.register(dump)
    signal.signal(signal.SIGTERM, on_term)


if os.environ.get("PERFBENCH_SPANS"):
    _start(os.environ["PERFBENCH_SPANS"])
