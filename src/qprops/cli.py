"""Batch front end: validate descriptions, run checks, emit reports.

Subcommands read one system description file, run a validation, check, or
search, and print a report (text or JSON) to standard output; diagnostics go
to the error stream.  Exit status 0 means every check passed, 1 means a
check failed, 2 means the input could not be used, and 141 (128 + SIGPIPE,
as the shell reports a process that SIGPIPE ended) means standard output was
closed before the report was written out.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .contexts import build_generalized_context, composite_probability
from .errors import (
    ContextViolation,
    IncompatibleContexts,
    InvariantViolation,
    ParseError,
    QpropsError,
    ValidationError,
)
from .histories import (
    HistoryFamily,
    gmh_check,
    griffiths_check,
    history_probability,
)
from .lattice import (
    TimedProperty,
    class_implies,
    class_join,
    class_meet,
    class_negate,
    class_of,
)
from .linop import evolution_operator
from .spin import (
    antipodal_pairs,
    compatible_directions,
    gmh_directions,
    griffiths_directions,
    sphere_points,
)
from .specio import (
    SystemSpec,
    load_system_spec,
    matrix_to_pairs,
    realize_context,
    realize_system,
)

PASS, FAIL, INPUT_ERROR, OUTPUT_CLOSED = 0, 1, 2, 141

# Largest ``spin-search --grid-count``: the searches hold a few (N, 16)
# arrays at once, a few MiB at this size.
MAX_GRID_COUNT = 10_000


@dataclass
class Report:
    """One subcommand outcome: verdict, payload, and the tolerances used."""

    command: str
    verdict: bool | None
    tolerances: dict[str, float]
    results: dict[str, Any]

    def to_mapping(self) -> dict[str, Any]:
        out: dict[str, Any] = {"command": self.command}
        if self.verdict is not None:
            out["verdict"] = "pass" if self.verdict else "fail"
        out["results"] = self.results
        out["tolerances"] = self.tolerances
        return out


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.12g}"
    # a control character (U+0000 to U+001F, U+007F to U+009F) as its Python
    # escape, a line break as \n, so that one field stays on one text line
    return "".join(
        repr(ch)[1:-1] if ch < " " or "\x7f" <= ch <= "\x9f" else ch for ch in str(value)
    )


def _render_lines(node: Any, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{_format_value(key)}:")
                _render_lines(value, indent + 1, lines)
            else:
                flat = value if not isinstance(value, (dict, list)) else "(none)"
                lines.append(f"{pad}{_format_value(key)}: {_format_value(flat)}")
    elif isinstance(node, list):
        for value in node:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                _render_lines(value, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_format_value(value)}")
    else:
        lines.append(f"{pad}{_format_value(node)}")


def render_text(report: Report) -> str:
    mapping = report.to_mapping()
    lines: list[str] = [f"command: {mapping['command']}"]
    if "verdict" in mapping:
        lines.append(f"verdict: {mapping['verdict'].upper()}")
    lines.append("results:")
    _render_lines(mapping["results"], 1, lines)
    lines.append("tolerances:")
    _render_lines(mapping["tolerances"], 1, lines)
    return "\n".join(lines)


def emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_mapping(), indent=2))
    else:
        print(render_text(report))


def _probability_table(pairs) -> dict[str, float]:
    return {",".join(labels): float(value) for labels, value in pairs}


def _state_at_reference(system):
    if system.reference_time == system.initial_time:
        return system.initial_state
    u = evolution_operator(
        system.hamiltonian, system.initial_time, system.reference_time, system.hbar
    )
    return system.initial_state.evolved(u)


def cmd_validate_context(spec: SystemSpec, args, tols: Tolerances):
    entries = []
    all_ok = True
    for k, ctx_spec in enumerate(spec.contexts):
        entry: dict[str, Any] = {"index": k, "time": ctx_spec.time}
        try:
            ctx = realize_context(ctx_spec, tols=tols)
        except QpropsError as err:
            all_ok = False
            entry["status"] = type(err).__name__
            entry["detail"] = str(err)
            if isinstance(err, ContextViolation):
                # (i, j, residual) per pair, or one (residual,) for completeness
                entry["violations"] = [
                    list(v) if isinstance(v, tuple) else v for v in err.violations
                ]
        else:
            entry["status"] = "ok"
            entry["labels"] = list(ctx.labels)
            entry["ranks"] = [atom.rank for atom in ctx.atoms]
        entries.append(entry)
    report = Report(
        "validate-context", all_ok, tols.as_dict(), {"contexts": entries}
    )
    return report, PASS if all_ok else FAIL


def cmd_gc_check(spec: SystemSpec, args, tols: Tolerances):
    system = realize_system(spec, tols=tols)
    results: dict[str, Any] = {
        "reference_time": system.reference_time,
        "context_times": [ctx.time for ctx in system.contexts],
    }
    try:
        gc = build_generalized_context(
            system.contexts,
            system.reference_time,
            system.hamiltonian,
            system.hbar,
            tols=tols,
        )
    except IncompatibleContexts as err:
        results["violations"] = [
            {
                "context_a": a_idx,
                "label_a": a_label,
                "context_b": b_idx,
                "label_b": b_label,
                "commutator": residual,
            }
            for (a_idx, a_label), (b_idx, b_label), residual in err.pairs
        ]
        results["max_commutator"] = max((v[2] for v in err.pairs), default=0.0)
        if err.gap is not None:
            results["gap"] = err.gap
        return Report("gc-check", False, tols.as_dict(), results), FAIL

    rho = _state_at_reference(system)
    table = [
        (labels, composite_probability(gc, gc.property([labels]), rho, tols=tols))
        for labels in gc.label_tuples
    ]
    results["composed_atoms"] = len(gc.label_tuples)
    results["probabilities"] = _probability_table(table)
    return Report("gc-check", True, tols.as_dict(), results), PASS


def _history_family(system) -> HistoryFamily:
    return HistoryFamily(
        system.contexts,
        system.hamiltonian,
        system.initial_time,
        system.initial_state,
        system.hbar,
    )


def cmd_history_prob(spec: SystemSpec, args, tols: Tolerances):
    system = realize_system(spec, tols=tols)
    family = _history_family(system)
    choices = args.choices.split(",") if args.choices is not None else None
    try:
        table = history_probability(family, choices, tols=tols)
    except InvariantViolation as err:
        raise ValidationError(str(err)) from err
    results = {
        "initial_time": system.initial_time,
        "times": list(family.times),
        "probabilities": _probability_table(table.items()),
    }
    return Report("history-prob", None, tols.as_dict(), results), PASS


def cmd_consistency(spec: SystemSpec, args, tols: Tolerances):
    system = realize_system(spec, tols=tols)
    family = _history_family(system)
    if args.criterion == "gmh":
        report = gmh_check(family, tols=tols)
    else:
        report = griffiths_check(family, tols=tols)
    results: dict[str, Any] = {
        "criterion": report.criterion,
        "times": list(family.times),
        "probabilities": _probability_table(report.probabilities.items()),
    }
    if report.violations:
        results["violations"] = [
            {
                "history_a": ",".join(a),
                "history_b": ",".join(b),
                "residual": residual,
            }
            for a, b, residual in report.violations
        ]
        results["max_residual"] = report.max_residual()
    code = PASS if report.verdict else FAIL
    return Report("consistency", report.verdict, tols.as_dict(), results), code


def _parse_atom_ref(text: str, system) -> tuple[int, int]:
    try:
        ctx_str, atom_str = text.split(":")
        ctx_idx, atom_idx = int(ctx_str), int(atom_str)
    except ValueError as err:
        raise ValidationError(
            f"atom reference {text!r} must look like CONTEXT:ATOM, e.g. 0:1"
        ) from err
    if not 0 <= ctx_idx < len(system.contexts):
        raise ValidationError(f"context index {ctx_idx} out of range")
    if not 0 <= atom_idx < len(system.contexts[ctx_idx]):
        raise ValidationError(f"atom index {atom_idx} out of range")
    return ctx_idx, atom_idx


def _timed_property(system, ref: tuple[int, int]) -> tuple[TimedProperty, dict]:
    ctx = system.contexts[ref[0]]
    prop = TimedProperty(ctx.atoms[ref[1]], ctx.time)
    info = {
        "context": ref[0],
        "atom": ref[1],
        "label": ctx.labels[ref[1]],
        "time": ctx.time,
    }
    return prop, info


def cmd_lattice(spec: SystemSpec, args, tols: Tolerances):
    system = realize_system(spec, tols=tols)
    left_ref = _parse_atom_ref(args.left, system)
    left, left_info = _timed_property(system, left_ref)
    results: dict[str, Any] = {
        "op": args.op,
        "reference_time": system.reference_time,
        "left": left_info,
    }
    def to_class(prop):
        return class_of(prop, system.reference_time, system.hamiltonian, system.hbar)

    if args.op == "neg":
        outcome = class_negate(to_class(left))
    else:
        right_ref = _parse_atom_ref(args.right, system)
        right, right_info = _timed_property(system, right_ref)
        results["right"] = right_info
        c_left, c_right = to_class(left), to_class(right)
        if args.op == "meet":
            outcome = class_meet(c_left, c_right, tols=tols)
        elif args.op == "join":
            outcome = class_join(c_left, c_right, tols=tols)
        else:
            implied = class_implies(c_left, c_right, tols=tols)
            results["implies"] = implied
            return Report("lattice", None, tols.as_dict(), results), PASS
    results["representative"] = matrix_to_pairs(outcome.representative.matrix)
    results["rank"] = outcome.representative.rank
    return Report("lattice", None, tols.as_dict(), results), PASS


def cmd_spin_search(spec: SystemSpec, args, tols: Tolerances):
    if spec.dimension != 2:
        raise ValidationError("spin-search requires a dimension-2 system")
    system = realize_system(spec, tols=tols)
    fixed_spec = spec.contexts[-1]
    if fixed_spec.direction is None:
        raise ValidationError(
            "spin-search uses the final context as the fixed direction; "
            "give it in 'direction' form"
        )
    n2 = fixed_spec.direction
    t0, t2 = system.initial_time, fixed_spec.time
    t1 = args.t1 if args.t1 is not None else 0.5 * (t0 + t2)
    if not t0 < t1 < t2:
        raise ValidationError(
            f"intermediate time {t1!r} must lie inside ({t0!r}, {t2!r})"
        )
    if not 0 <= args.grid_count <= MAX_GRID_COUNT:
        raise ValidationError(
            f"--grid-count must lie in [0, {MAX_GRID_COUNT}], got {args.grid_count}"
        )
    grid = sphere_points(args.grid_count)
    if args.mode == "commute":
        kept = compatible_directions(
            n2, grid, system.hamiltonian, system.hbar, t1, t2, t0, tols=tols
        )
    else:
        search = gmh_directions if args.mode == "gmh" else griffiths_directions
        kept = search(
            None,
            n2,
            grid,
            system.initial_state,
            system.hamiltonian,
            system.hbar,
            t0,
            t1,
            t2,
            tols=tols,
        )
    results = {
        "mode": args.mode,
        "fixed_direction": [n2.x, n2.y, n2.z],
        "times": {"t0": t0, "t1": t1, "t2": t2},
        "grid_points": len(grid),
        "accepted_count": len(kept),
        "accepted": [[d.x, d.y, d.z] for d in kept],
        "antipodal_pairs": [list(p) for p in antipodal_pairs(kept)],
    }
    return Report("spin-search", None, tols.as_dict(), results), PASS


HANDLERS = {
    "validate-context": cmd_validate_context,
    "gc-check": cmd_gc_check,
    "history-prob": cmd_history_prob,
    "consistency": cmd_consistency,
    "lattice": cmd_lattice,
    "spin-search": cmd_spin_search,
}


def _tolerance_overrides(pairs: list[str] | None) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs or []:
        name, _, raw = pair.partition("=")
        if name not in Tolerances.field_names():
            raise ValidationError(
                f"unknown tolerance {name!r}; known: {', '.join(Tolerances.field_names())}"
            )
        try:
            overrides[name] = float(raw)
        except ValueError as err:
            raise ValidationError(f"tolerance {name!r} needs a numeric value") from err
        # a NaN threshold would let every `residual > tol` check pass
        if not np.isfinite(overrides[name]):
            raise ValidationError(f"tolerance {name!r} must be finite, got {raw!r}")
    return overrides


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` (subcommand parsers included) whose errors get
    the one-line diagnostic of every exit 2, not the usage block, and that
    takes a negative number with an exponent (``--t1 -1e-05``) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged and returns a fresh namespace on every call."""
    parser = _Parser(
        prog="qprops",
        description="Validate multi-time quantum property descriptions.",
    )
    common = _Parser(add_help=False)
    common.add_argument("spec", help="system description file (YAML)")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    common.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="override a tolerance (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "validate-context",
        parents=[common],
        help="check exclusivity and completeness of every context",
    )
    sub.add_parser(
        "gc-check",
        parents=[common],
        help="check multi-time compatibility and print the probability table",
    )
    p = sub.add_parser(
        "history-prob", parents=[common], help="history probability table"
    )
    p.add_argument(
        "--choices",
        help="comma-separated atom labels, one per time (default: all histories)",
    )
    p = sub.add_parser(
        "consistency", parents=[common], help="run a history consistency check"
    )
    p.add_argument("--criterion", choices=("gmh", "griffiths"), default="gmh")
    p = sub.add_parser(
        "lattice", parents=[common], help="lattice operation on two timed properties"
    )
    p.add_argument("--op", choices=("meet", "join", "neg", "implies"), required=True)
    p.add_argument("--left", default="0:0", metavar="CTX:ATOM")
    p.add_argument("--right", default="1:0", metavar="CTX:ATOM")
    p = sub.add_parser(
        "spin-search", parents=[common], help="scan directions for a compatible middle context"
    )
    p.add_argument("--mode", choices=("commute", "gmh", "griffiths"), required=True)
    p.add_argument(
        "--grid-count",
        type=int,
        default=2000,
        help=f"spiral points besides the 6 axes, 0 to {MAX_GRID_COUNT}",
    )
    p.add_argument("--t1", type=float, default=None, help="intermediate time")
    return parser


def _one_line(message) -> str:
    return " ".join(line.strip() for line in str(message).splitlines())


def main(argv=None) -> int:
    # warnings are held until the report is out, so that an exit 2 prints
    # its one-line diagnostic alone
    with warnings.catch_warnings(record=True) as held:
        try:
            args = build_parser().parse_args(argv)
            tols = DEFAULT_TOLERANCES.updated(**_tolerance_overrides(args.tol))
            spec = load_system_spec(args.spec)
            report, code = HANDLERS[args.command](spec, args, tols)
            emit(report, args.format)
            # a closed reader shows here, not in the flush at exit
            sys.stdout.flush()
        except (ParseError, ValidationError) as err:
            print(f"error: {_one_line(err)}", file=sys.stderr)
            return INPUT_ERROR
        except BrokenPipeError:
            # what is still buffered goes nowhere, so the flush at exit succeeds
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return OUTPUT_CLOSED
        except Exception as err:
            # exit 1 is reserved for a check that ran and failed
            # an exception without a message (MemoryError()) names its class alone
            detail = ": ".join(filter(None, [type(err).__name__, _one_line(err)]))
            print(f"error: {detail}", file=sys.stderr)
            return INPUT_ERROR
    for warning in held:
        print(f"warning: {_one_line(warning.message)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
