"""Traced CLI child: install the benchmark's wrappers, then run the CLI.

Usage: python3 bench/cli_shim.py STATE_JSON <creditcurves arguments...>

Writes STATE_JSON with the process start time on the system-wide
monotonic clock, the import time of ``creditcurves.cli`` and the trace,
and exits with the CLI's exit code.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    state_path, argv = sys.argv[1], sys.argv[2:]
    before = time.monotonic()
    import creditcurves.cli as cli
    import_s = time.monotonic() - before

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli.main", cli.main, argv, _info=argv[0])
    finally:
        tracer.uninstall()
    with open(state_path, "w") as handle:
        json.dump({"started": STARTED, "import_s": import_s, "trace": tracer.export()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
