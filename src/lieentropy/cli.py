"""Command-line front end.

Subcommands: validate, entropy and analyze (one report handler), estimate,
catalog.  Exit codes distinguish what went wrong: 0 success, 1 input,
validation, parameter or usage error, 2 pipeline abort (input outside the
supported class, a violated internal invariant, any other error raised
inside a stage, such as a `DomainError`, `estimate` on a valid group whose
central torus has dimension 0 or above 3, or a failing `catalog --run-all`,
which reads no input: it aborts at stage 'catalog' after its summary).

`main` lifts Python's int <-> str digit limit (`set_int_max_str_digits`), so
no valid document is refused for the length of its numbers, and restores the
process-wide setting on return: the benchmark and the tests call it in process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from . import catalog as catalog_mod
from .errors import InputError, ParameterError, PipelineError, ValidationError
from .estimator import _auto_resolution, spanning_entropy_estimate
from .formats import (
    build_group,
    estimate_to_csv,
    estimate_to_dict,
    parse_input,
    report_to_dict,
    validation_to_dict,
)
from .groups import analyze, topological_entropy, validate_endomorphism, validate_presentation
from .mahler import DEFAULT_TOL

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ABORT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are input problems: report them on exit code 1
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # one parser per process; parse_args keeps no state in it
def _build_parser() -> _Parser:
    parser = _Parser(prog="lieentropy",
                     description="topological entropy of Lie group endomorphisms")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--input", metavar="PATH", help="input JSON document")
        p.add_argument("--catalog", metavar="NAME", help="built-in catalog entry name")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="entropy error tolerance (default 1e-9)")

    p = sub.add_parser("validate", help="validate a presentation and endomorphism")
    add_source(p)

    p = sub.add_parser("entropy", help="run the entropy pipeline, emit the report")
    add_source(p)

    p = sub.add_parser("analyze", help="entropy report plus Li-Yorke chain and "
                                       "induced toral order when applicable")
    add_source(p)

    p = sub.add_parser("estimate", help="spanning-set estimate of the central torus action")
    add_source(p)
    p.add_argument("--n-max", type=int, default=10, help="longest orbit segment (default 10)")
    p.add_argument("--epsilon", type=float, default=0.05, help="ball radius (default 0.05)")
    p.add_argument("--resolution", type=int, default=None,
                   help="grid points per axis (default: chosen from the exact entropy)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")

    p = sub.add_parser("catalog", help="list catalog entries or run them all")
    p.add_argument("--run-all", action="store_true", help="run every entry against its record")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    return parser


def _load_document(args):
    if getattr(args, "input", None) and getattr(args, "catalog", None):
        raise InputError("pass either --input or --catalog, not both")
    if getattr(args, "input", None):
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}")
        return parse_input(text)
    if getattr(args, "catalog", None):
        try:
            entry = catalog_mod.get_entry(args.catalog)
        except KeyError as exc:
            raise InputError(str(exc.args[0]))
        return entry.input_document()
    raise InputError("one of --input or --catalog is required")


def _emit(payload, args=None):
    text = json.dumps(payload, indent=2) if not isinstance(payload, str) else payload
    text = text if text.endswith("\n") else text + "\n"
    output = getattr(args, "output", None)
    with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)


def _cmd_validate(args) -> int:
    document = _load_document(args)
    group, derivative = build_group(document)
    presentation = validate_presentation(group)
    endo_error = None
    if presentation.valid:
        try:
            validate_endomorphism(group, derivative)
        except (ValidationError, InputError) as exc:
            endo_error = str(exc)
    _emit(validation_to_dict(presentation, endo_error), args)
    return EXIT_OK if presentation.valid and endo_error is None else EXIT_INVALID


def _validated(args):
    """The document, its validated endomorphism, and the entropy tolerance:
    the document's `options.tol`, else `--tol`."""
    document = _load_document(args)
    group, derivative = build_group(document)
    presentation = validate_presentation(group)
    if not presentation.valid:
        raise ValidationError("invalid presentation: " + presentation.describe())
    endo = validate_endomorphism(group, derivative)
    return document, endo, document.options.get("tol", args.tol)


def _cmd_report(stage, args) -> int:
    document, endo, tol = _validated(args)
    _emit(report_to_dict(stage(endo, tol), document), args)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    _, endo, tol = _validated(args)
    report = topological_entropy(endo, tol)
    action = report.torus.action
    resolution = args.resolution
    if resolution is None:
        resolution = _auto_resolution(action, args.n_max, args.epsilon, report.entropy.value)
    estimate = spanning_entropy_estimate(action, args.n_max, args.epsilon, resolution)
    if args.format == "csv":
        _emit(estimate_to_csv(estimate), args)
    else:
        payload = estimate_to_dict(estimate, matrix=action.matrix)
        payload["exact_entropy"] = report.entropy.value
        _emit(payload, args)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if not args.run_all:
        rows = [{"name": e.name, "note": e.note} for e in catalog_mod.builtin_catalog()]
        _emit(rows)
        return EXIT_OK
    results = catalog_mod.run_all(args.tol)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.ok else "FAIL"
        line = f"{r.name:<{width}}  {status}"
        if not r.ok:
            line += "  (" + "; ".join(r.failures) + ")"
        print(line)
    failed = sum(not r.ok for r in results)
    print(f"{len(results) - failed}/{len(results)} catalog entries passed")
    if failed:
        raise PipelineError("catalog", f"{failed} of {len(results)} entries disagree "
                                       "with their records")
    return EXIT_OK


def main(argv=None) -> int:
    # Python 3.11, and 3.10.7 or later, limit the digits; on older ones,
    # which have no limit, `int` stands in for the getter and the setter
    limit = getattr(sys, "get_int_max_str_digits", int)()
    getattr(sys, "set_int_max_str_digits", int)(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0 < args.tol < math.inf:
            parser.error(f"argument --tol: must be finite and positive, got {args.tol!r}")
        handler = {
            "validate": _cmd_validate,
            "entropy": functools.partial(_cmd_report, topological_entropy),
            "analyze": functools.partial(_cmd_report, analyze),
            "estimate": _cmd_estimate,
            "catalog": _cmd_catalog,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InputError, ValidationError, ParameterError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PipelineError, ArithmeticError, ValueError) as exc:  # any other ValueError is internal
        print(f"pipeline abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    finally:
        getattr(sys, "set_int_max_str_digits", int)(limit)


if __name__ == "__main__":
    sys.exit(main())
