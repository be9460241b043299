"""``repro-server`` behind a host-speed reading; traced under ``repro.obs.recording()``.

Usage: ``python3 perfbench/serve_daemon.py TRACE_OUT ARTIFACT [repro-server flags]``,
with ``-`` as TRACE_OUT for an untraced daemon.  Before it imports the
library it prints ``REFERENCE <reading> <seconds it took>`` (see
``common.reference_s``), so the parent can put the daemon's own set-up at
reference speed.  Then it runs the daemon's own CLI entry point
unchanged; a traced daemon writes the recorder's spans and counters to
TRACE_OUT when that returns (after SIGTERM).
"""

import json
import sys
import time

import common


def main():
    started = time.monotonic()
    reference = common.reference_s()
    print("REFERENCE %r %r" % (reference, time.monotonic() - started), flush=True)
    from repro.server.cli import main as server_main

    if sys.argv[1] == "-":
        return server_main(sys.argv[2:])
    from repro import obs

    with obs.recording() as recorder:
        code = server_main(sys.argv[2:])
    with open(sys.argv[1], "w") as handle:
        json.dump(recorder.export_state(), handle, default=str)
    return code


if __name__ == "__main__":
    sys.exit(main())
