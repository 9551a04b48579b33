"""Run one `mldeg` CLI request with spans around every layer call.

usage: python perfbench/traced_cli.py SPANS_OUT REQUEST_ID CLI_ARG...

Installs the wrappers from `tracer.py`, calls `mldeg.cli.main(CLI_ARG...)`
in this fresh interpreter, writes the spans to SPANS_OUT and exits with the
CLI's exit code.  `mldeg` must be importable (PYTHONPATH=src).
"""

import sys

from tracer import Tracer, install


def main() -> int:
    spans_out, request = sys.argv[1], int(sys.argv[2])
    tracer = Tracer()
    install(tracer)
    import mldeg.cli

    try:
        return tracer.run(request, mldeg.cli.main, sys.argv[3:])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
