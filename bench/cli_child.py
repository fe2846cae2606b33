"""Run one tailbayes CLI command with tracing wrappers installed.

Usage: python cli_child.py SPANS_JSON CLI_ARG...

Times the import of ``tailbayes.cli`` as the "import" span, installs the
wrappers of ``tracing.Tracer``, calls ``tailbayes.cli.main`` with the
remaining arguments under a "cli.main" span, writes the spans to
SPANS_JSON and exits with the command's exit code.  Span times come from
``time.perf_counter``, which on Linux reads the system-wide monotonic
clock, so the parent can place them on its own time line.
"""

import sys
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = perf_counter()
    import tailbayes.cli as cli
    imported = perf_counter()

    import tracing

    tracer = tracing.Tracer()
    tracer.install_cli(cli)
    run = tracer.wrap("cli.main", cli.main)
    tracer.active = True
    try:
        code = run(argv)
    finally:
        tracer.active = False
        spans, counts = tracer.take()
        spans.insert(0, ("import", started, imported, -1, 0))
        # parents shift by one with the import span in front
        spans = [spans[0]] + [(layer, t0, t1, parent + 1 if parent >= 0 else -1,
                               points)
                              for layer, t0, t1, parent, points in spans[1:]]
        tracing.dump_spans(spans_path, spans, counts)
    return code


if __name__ == "__main__":
    sys.exit(main())
