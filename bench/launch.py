"""Start the macdo command line the way its ``macdo`` entry point does.

    python3 bench/launch.py [--trace-out FILE SPAWNED_AT] -- <macdo arguments>

With ``--trace-out`` the span wrappers of ``spans.py`` are installed before
``macdo.cli.main`` runs, and the spans, the layer totals and ``cli.start_s``
(seconds from the parent's ``SPAWNED_AT`` wall-clock stamp to the call of
``main``) are written to FILE when the command ends.
"""

import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, spawned_at = argv[1], float(argv[2])
        argv = argv[3:]
    if argv[:1] != ["--"]:
        print("usage: launch.py [--trace-out FILE SPAWNED_AT] -- ARGS...", file=sys.stderr)
        return 2
    argv = argv[1:]
    tracer = None
    if trace_out:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    from macdo import cli
    if tracer is None:
        return cli.main(argv)
    tracer.add("cli.start_s", time.time() - spawned_at)
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        spans.write(trace_out, tracer.dump())


if __name__ == "__main__":
    sys.exit(main())
