"""Run one ``ppgeo`` command with the benchmark's spans installed.

    python perfbench/cli_traced.py SPANS_OUT -- <ppgeo arguments>

The process records a ``cli.import`` span from its first line until
``ppgeo.cli`` is imported, installs the same wrappers as the in-process
traced run, calls ``ppgeo.cli.main`` and writes its spans to SPANS_OUT.
It exits with the command's own exit code.
"""
import time

START = time.perf_counter()

import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_OUT -- <ppgeo arguments>")
    tracer = spans.Tracer()
    import ppgeo.cli

    tracer.record(spans.CLI_IMPORT, START, time.perf_counter())
    spans.install(tracer, spans.OP_TARGETS)
    try:
        return ppgeo.cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
