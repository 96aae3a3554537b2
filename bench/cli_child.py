"""Traced stand-in for ``python -m qprops.cli`` used by the cli_batch workload.

Usage: cli_child.py SPANS_JSON EXPECTED_EXCEPTIONS -- QPROPS_CLI_ARGS...

Times ``import qprops.cli``, wraps the traced callables, runs ``main`` with
the remaining arguments, writes the spans to SPANS_JSON and exits with
``main``'s status.  EXPECTED_EXCEPTIONS is a comma-separated list of
exception class names that count as verdicts rather than errors.
"""

import json
import sys
import time

import tracer as tracing


def run(argv: list[str]) -> int:
    spans_path, expected, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_JSON EXPECTED -- ARGS...")
    started = time.perf_counter()
    import qprops.cli

    imported = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.count("cli.import_s", imported - started)
    tracing.install(tracer)
    tracer.begin_op(0, [name for name in expected.split(",") if name])
    code = qprops.cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
