"""Set-up probe: run in a fresh interpreter, time ``import quadcert`` plus
one warm-up op, and print {"setup_s": seconds} as JSON.

Usage: python3 probe.py '<op as JSON>'  (with quadcert's src on PYTHONPATH)

Only the standard library is imported before the clock starts, so numpy's
import is inside the measurement.
"""

import contextlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    request = json.loads(sys.argv[1])
    start = time.perf_counter()
    import quadcert  # noqa: F401

    if "argv" in request:
        import quadcert.cli

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            quadcert.cli.main(request["argv"])
    else:
        from qcbench import ops

        ops.run(request["op"])
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
