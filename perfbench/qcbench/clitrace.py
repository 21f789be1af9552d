"""Traced CLI process: install the span tracer, run ``quadcert.cli.main``
on the given arguments and write the spans as JSON to the path in
$QCBENCH_SPANS, even when main raises. The exit code is main's.

Usage: QCBENCH_SPANS=out.json python3 clitrace.py certify --function=exp ...
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    import quadcert.cli

    from qcbench.spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = quadcert.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["QCBENCH_SPANS"], "w") as out:
            json.dump(tracer.export(), out)
    return code


if __name__ == "__main__":
    sys.exit(main())
