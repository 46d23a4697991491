"""JSON input documents and report serialization.

One input format covers every subcommand: structure constants as sparse
bracket triples, lattice log-generators, a derivative matrix, and options.
Rationals travel as strings "p/q" (or "p" when the denominator is 1); the
parser is strict, rejecting unknown fields and locating errors by field
path.  Reports embed the document they were computed from so a report is
reproducible from itself.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError
from .estimator import SpanningEstimate
from .groups import (
    AnalysisReport,
    CentralTorus,
    LiYorkeChain,
    PresentedGroup,
    ToralOrderCheck,
)
from .liealgebra import LieAlgebra
from .exactlinalg import Lattice, Subspace, exact
from .mahler import EntropyValue
from .torus import TorusEndo

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(value, where: str) -> Fraction | int:
    if isinstance(value, bool):
        raise InputError("expected a rational, got a boolean", where)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value.strip()):
            raise InputError(f"malformed rational {value!r}", where)
        num, _, den = value.strip().partition("/")
        if den and int(den) == 0:
            raise InputError("rational with denominator zero", where)
        return exact(int(num), int(den or 1))
    raise InputError(f"expected a rational string or integer, got {type(value).__name__}", where)


class InputDocument(NamedTuple):
    name: str
    dim: int
    basis_names: tuple[str, ...] | None
    brackets: tuple[tuple[int, int, int, Fraction], ...]
    lattice: tuple[tuple[Fraction, ...], ...]
    endomorphism: tuple[tuple[Fraction, ...], ...]
    options: dict
    raw: dict


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown fields {sorted(unknown)}", where)
    missing = required - set(obj)
    if missing:
        raise InputError(f"missing fields {sorted(missing)}", where)


def parse_input(text: str) -> InputDocument:
    """Strict parse of an input document from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}")
    return document_from_dict(raw)


def document_from_dict(raw) -> InputDocument:
    if not isinstance(raw, dict):
        raise InputError("document must be a JSON object", "$")
    _require_keys(raw, {"name", "algebra", "lattice", "endomorphism", "options"},
                  {"algebra", "lattice", "endomorphism"}, "$")
    name = raw.get("name", "G")
    if not isinstance(name, str):
        raise InputError("name must be a string", "name")

    algebra = raw["algebra"]
    if not isinstance(algebra, dict):
        raise InputError("algebra must be an object", "algebra")
    _require_keys(algebra, {"dim", "basis", "brackets"}, {"dim", "brackets"}, "algebra")
    dim = algebra["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError("dim must be a nonnegative integer", "algebra.dim")
    basis = algebra.get("basis")  # None when omitted: from_brackets names e0, e1, ...
    if "basis" in algebra and (not isinstance(basis, list) or len(basis) != dim
                               or not all(isinstance(b, str) for b in basis)):
        raise InputError(f"basis must be a list of {dim} names", "algebra.basis")
    if not isinstance(algebra["brackets"], list):
        raise InputError("brackets must be a list of [i, j, k, rational] triples",
                         "algebra.brackets")
    brackets = []
    for idx, entry in enumerate(algebra["brackets"]):
        where = f"algebra.brackets[{idx}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise InputError("bracket entry must be [i, j, k, rational]", where)
        i, j, k, value = entry
        for pos, label in ((i, "i"), (j, "j"), (k, "k")):
            if not isinstance(pos, int) or isinstance(pos, bool) or not 0 <= pos < dim:
                raise InputError(f"index {label}={pos!r} out of range [0, {dim})", where)
        brackets.append((i, j, k, parse_rational(value, where)))

    lattice_raw = raw["lattice"]
    if not isinstance(lattice_raw, list):
        raise InputError("lattice must be a list of rational vectors", "lattice")
    lattice = []
    for idx, vec in enumerate(lattice_raw):
        where = f"lattice[{idx}]"
        if not isinstance(vec, list) or len(vec) != dim:
            raise InputError(f"lattice vector must have length {dim}", where)
        lattice.append(tuple(parse_rational(x, f"{where}[{pos}]") for pos, x in enumerate(vec)))

    endo_raw = raw["endomorphism"]
    if not isinstance(endo_raw, list) or len(endo_raw) != dim:
        raise InputError(f"endomorphism must be a {dim}x{dim} row-major matrix", "endomorphism")
    endomorphism = []
    for idx, row in enumerate(endo_raw):
        where = f"endomorphism[{idx}]"
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"endomorphism row must have length {dim} (square matrix)", where)
        endomorphism.append(tuple(parse_rational(x, f"{where}[{pos}]") for pos, x in enumerate(row)))

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise InputError("options must be an object", "options")
    _require_keys(options, {"tol"}, set(), "options")
    if "tol" in options:
        tol = options["tol"]
        if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not 0 < tol < math.inf:
            raise InputError("tol must be a finite positive number", "options.tol")

    return InputDocument(
        name=name,
        dim=dim,
        basis_names=None if basis is None else tuple(basis),
        brackets=tuple(brackets),
        lattice=tuple(lattice),
        endomorphism=tuple(endomorphism),
        options=dict(options),
        raw=raw,
    )


def build_group(document: InputDocument) -> tuple[PresentedGroup, list[list[Fraction]]]:
    algebra = LieAlgebra.from_brackets(document.dim, document.brackets, document.basis_names)
    group = PresentedGroup.build(algebra, document.lattice, document.name)
    derivative = [list(row) for row in document.endomorphism]
    return group, derivative


# ---------------------------------------------------------------------------
# report serialization

def _vectors(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def entropy_value_to_dict(value: EntropyValue) -> dict:
    return {
        "value": value.value,
        "certificate": list(value.certificate),
        "expanding_count": value.expanding_count,
        "error_bound": value.error_bound,
        "exact_zero": value.exact_zero,
        "exact_positive": value.exact_positive,
    }


def span_to_dict(span: Subspace | Lattice) -> dict:
    return {"ambient_dim": span.ambient_dim, "basis": _vectors(span.basis)}


def action_to_dict(endo: TorusEndo) -> dict:
    return {"dim": endo.dim, "matrix": [list(r) for r in endo.matrix]}


def central_torus_to_dict(torus: CentralTorus) -> dict:
    out = {
        "lattice": span_to_dict(torus.lattice),
        "subspace": span_to_dict(torus.subspace),
    }
    if torus.action is not None:
        out["action"] = action_to_dict(torus.action)
    return out


def li_yorke_to_dict(chain: LiYorkeChain) -> dict:
    return {
        "verdict": chain.verdict,
        "entropy_positive": chain.entropy_positive,
        "chain": [{"result": tag, "statement": statement} for tag, statement in chain.links],
    }


def toral_order_to_dict(check: ToralOrderCheck) -> dict:
    return {
        "order": check.order,
        "torus_dim": check.torus_dim,
        "action": action_to_dict(check.action),
    }


def report_to_dict(report: AnalysisReport, document: InputDocument | None = None) -> dict:
    out = {
        "group": report.group_name,
        "tol": report.tol,
        "entropy": entropy_value_to_dict(report.entropy),
        "bowen_upper_bound": entropy_value_to_dict(report.bowen_upper_bound),
        "stages": {
            "eventual_image": span_to_dict(report.eventual_image),
            "lattice_in_image": span_to_dict(report.lattice_in_image),
            "center_of_image": span_to_dict(report.center_of_image),
            "central_torus": central_torus_to_dict(report.torus),
        },
        "validations": list(report.validations),
        "citations": list(report.citations),
    }
    if report.li_yorke is not None:
        out["li_yorke"] = li_yorke_to_dict(report.li_yorke)
    if report.toral_order is not None:
        out["toral_order"] = toral_order_to_dict(report.toral_order)
    if document is not None:
        out["input"] = document.raw
    return out


def validation_to_dict(group_report, endo_error: str | None) -> dict:
    out = {
        "presentation_valid": group_report.valid,
        "presentation_issues": list(group_report.issues),
        "endomorphism_valid": endo_error is None,
    }
    if endo_error is not None:
        out["endomorphism_error"] = endo_error
    return out


# ---------------------------------------------------------------------------
# estimate serialization

def estimate_to_csv(estimate: SpanningEstimate) -> str:
    lines = ["n,spanning_count,separated_count"]
    for n, up, low in zip(estimate.n_values, estimate.spanning_counts,
                          estimate.separated_counts):
        lines.append(f"{n},{up},{low}")
    return "\n".join(lines) + "\n"


def estimate_to_dict(estimate: SpanningEstimate, matrix=None) -> dict:
    out = {
        "epsilon": estimate.epsilon,
        "resolution": estimate.resolution,
        "n_values": list(estimate.n_values),
        "spanning_counts": list(estimate.spanning_counts),
        "separated_counts": list(estimate.separated_counts),
        "slope": estimate.slope,
        "slope_stderr": estimate.slope_stderr,
        "slope_band": list(estimate.slope_band),
    }
    if matrix is not None:
        out["matrix"] = [list(r) for r in matrix]
    return out
