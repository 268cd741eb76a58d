"""Start a program entry point, optionally under the span recorder.

Usage::

    python3 perfbench/launch.py [--spans PATH] service <repro.service args>
    python3 perfbench/launch.py [--spans PATH] dist-worker <worker args>

``service`` calls ``repro.service.__main__.main`` and
``dist-worker`` calls ``repro.sim.distributed.main(["worker", ...])``,
so the child process runs exactly the code the program's own CLIs run.
With ``--spans`` the layer wrappers are installed first and every
span is written to PATH when the entry point returns or the process
gets SIGTERM, which is how the benchmark stops both children once
their work is done.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    command, rest = argv[0], argv[1:]
    recorder = None
    if spans is not None:
        sys.path.insert(0, HERE)
        import tracing

        recorder = tracing.Recorder(f"{command}-{os.getpid()}")

        def stop(signum, frame):
            recorder.dump(spans)
            os._exit(0)

        signal.signal(signal.SIGTERM, stop)
        tracing.install(recorder)
    try:
        if command == "service":
            from repro.service.__main__ import main as entry

            return entry(rest)
        if command == "dist-worker":
            from repro.sim.distributed import main as entry

            return entry(["worker"] + rest)
        raise SystemExit(f"unknown command {command!r}")
    finally:
        if recorder is not None:
            recorder.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
