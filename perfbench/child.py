"""One timed ``dpsk`` command, in a fresh process started by run.py.

    python3 -I perfbench/child.py ROOT RESULT_JSON [--spans SPANS_CSV] -- DPSK_ARGS...

Imports ``dpsk`` from ROOT/src, builds the command-line parser and notes
the monotonic time at that point (the end of set-up). Then it runs
``cli.main(DPSK_ARGS)`` with its output flushed and writes the set-up
stamp, the wall time of the command and its exit code to RESULT_JSON. With
``--spans`` the dpsk modules are traced during the command and the spans
written to SPANS_CSV. The command's stdout is left for the parent to check.
"""

import json
import os
import sys
import time


def main():
    root, result_path, *rest = sys.argv[1:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: child.py ROOT RESULT_JSON [--spans PATH] -- DPSK_ARGS...")
    argv = rest[1:]

    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from dpsk import cli

    cli.build_parser()
    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"dpsk was imported from {cli.__file__}, not from {src}")

    tracer = None
    if spans_path is not None:
        import dpsk

        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.install(dpsk)

    start = time.perf_counter()
    code = cli.main(argv)
    sys.stdout.flush()
    run_s = time.perf_counter() - start

    if tracer is not None:
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fp:
        json.dump({"ready": ready, "run_s": run_s, "code": code}, fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
