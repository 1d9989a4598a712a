"""Run one ``maniflow`` CLI command with its library calls traced.

Usage: python perfbench/cli_child.py SPANS_FILE CLI_ARG...

Behaves like ``python -m maniflow.cli CLI_ARG...`` (same output, same exit
status) and writes the spans as JSON lines to SPANS_FILE.  The package is
not changed: the CLI's references to ``experiments``, ``infophase`` and
``planner`` are swapped for traced stand-ins, and ``experiments.toy3_run``,
which the table emitters call internally, is wrapped in place.  The caller
sets PYTHONPATH and the thread variables.
"""

import sys

from tracing import Tracer, TracedModule


def _field_counts(field) -> dict:
    return {
        "infophase.binned_steps": int(field.count.sum()),
        "infophase.occupied_cells": int(field.occupied.sum()),
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from maniflow import cli, experiments, infophase, planner
    experiments.toy3_run = tracer.wrap("experiments.toy3_run", experiments.toy3_run)
    cli.experiments = TracedModule(experiments, tracer, "experiments")
    cli.infophase = TracedModule(infophase, tracer, "infophase", {"empirical_field": _field_counts})
    cli.planner = TracedModule(planner, tracer, "planner")
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
