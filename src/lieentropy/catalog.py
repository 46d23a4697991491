"""Built-in catalog of worked examples with their expected analysis results.

Each entry is a complete input document plus the expected record; running
the pipeline on the document must reproduce the record within tolerance.
`run_all` is the executable acceptance suite for the exact pipeline.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .formats import InputDocument, build_group, document_from_dict
from .groups import (
    ENTROPY_ON_CENTRAL_TORUS,
    POSITIVE_TORUS_ENTROPY_LI_YORKE,
    TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE,
    ZERO_ENTROPY_TORUS_SOME_POWER_FREE,
    analyze,
    validate_endomorphism,
    validate_presentation,
)
from .mahler import DEFAULT_TOL
from .torus import LI_YORKE_ALL_POWERS, SOME_POWER_LI_YORKE_FREE


class CatalogEntry(NamedTuple):
    name: str
    document: dict
    expected: dict
    note: str

    def input_document(self) -> InputDocument:
        return document_from_dict(self.document)


class CatalogResult(NamedTuple):
    name: str
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _abelian_doc(name, dim, lattice, endo):
    return {
        "name": name,
        "algebra": {"dim": dim, "basis": [f"e{i+1}" for i in range(dim)], "brackets": []},
        "lattice": lattice,
        "endomorphism": endo,
    }


_E2_BRACKETS = [[0, 1, 2, "1"], [0, 2, 1, "-1"]]  # [H,X]=Y, [H,Y]=-X


def _e2_doc(name, h_sign, a, b, shift=(0, 0)):
    """Isometry-group-of-the-plane family: H rotates span{X,Y}; the
    derivative sends H to sign*H + shift and the plane part to the
    similitude (direct for sign +1, reflected for sign -1)."""
    a, b = Fraction(a), Fraction(b)
    plane = [[a, -b], [b, a]] if h_sign == 1 else [[a, b], [b, -a]]
    rows = [[h_sign, 0, 0], [shift[0], *plane[0]], [shift[1], *plane[1]]]
    return {
        "name": name,
        "algebra": {"dim": 3, "basis": ["H", "X", "Y"], "brackets": _E2_BRACKETS},
        "lattice": [["1", "0", "0"]],
        "endomorphism": [[str(Fraction(x)) for x in row] for row in rows],
    }


def builtin_catalog() -> tuple[CatalogEntry, ...]:
    log2 = math.log(2.0)
    log3 = math.log(3.0)
    golden = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    entries = [
        CatalogEntry(
            name="torus2-squaring",
            document=_abelian_doc("torus2-squaring", 2, [["1", "0"], ["0", "1"]],
                                  [["2", "0"], ["0", "2"]]),
            expected={
                "entropy": 2 * log2,
                "entropy_exact_zero": False,
                "li_yorke": LI_YORKE_ALL_POWERS,
                "citations": [ENTROPY_ON_CENTRAL_TORUS, POSITIVE_TORUS_ENTROPY_LI_YORKE],
                "torus_dim": 2,
                "bowen_upper": 2 * log2,
            },
            note="squaring endomorphism of the 2-torus; entropy 2 log 2",
        ),
        CatalogEntry(
            name="plane-doubling",
            document=_abelian_doc("plane-doubling", 2, [], [["2", "0"], ["0", "2"]]),
            expected={
                "entropy": 0.0,
                "entropy_exact_zero": True,
                "li_yorke": SOME_POWER_LI_YORKE_FREE,
                "citations": [TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE],
                "torus_dim": 0,
                "bowen_upper": 2 * log2,
            },
            note="doubling of the plane: trivial central torus, entropy exactly 0, "
                 "eigenvalue sum 2 log 2 is only an upper bound",
        ),
        CatalogEntry(
            name="cstar-squaring",
            document=_abelian_doc("cstar-squaring", 2, [["0", "1"]], [["2", "0"], ["0", "2"]]),
            expected={
                "entropy": log2,
                "entropy_exact_zero": False,
                "li_yorke": LI_YORKE_ALL_POWERS,
                "citations": [ENTROPY_ON_CENTRAL_TORUS, POSITIVE_TORUS_ENTROPY_LI_YORKE],
                "torus_dim": 1,
                "bowen_upper": 2 * log2,
            },
            note="squaring of the punctured complex plane: entropy log 2 on the circle "
                 "factor, strictly below the eigenvalue sum 2 log 2",
        ),
        CatalogEntry(
            name="euclidean-e2",
            document=_e2_doc("euclidean-e2", 1, 1, 1),
            expected={
                "entropy": 0.0,
                "entropy_exact_zero": True,
                "li_yorke": SOME_POWER_LI_YORKE_FREE,
                "citations": [TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE],
                "torus_dim": 0,
                "toral_order": 1,
            },
            note="orientation-preserving plane isometry group: trivial center, "
                 "every surjective endomorphism has zero entropy",
        ),
        CatalogEntry(
            name="euclidean-e2-flip",
            document=_e2_doc("euclidean-e2-flip", -1, 1, 0),
            expected={
                "entropy": 0.0,
                "entropy_exact_zero": True,
                "li_yorke": SOME_POWER_LI_YORKE_FREE,
                "citations": [TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE],
                "torus_dim": 0,
                "toral_order": 2,
            },
            note="same group with the rotation generator inverted: induced map on the "
                 "circle quotient has order 2",
        ),
        CatalogEntry(
            name="heisenberg-central-circle",
            document={
                "name": "heisenberg-central-circle",
                "algebra": {"dim": 3, "basis": ["X", "Y", "Z"],
                            "brackets": [[0, 1, 2, "1"]]},
                "lattice": [["0", "0", "1"]],
                "endomorphism": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
            },
            expected={
                "entropy": log2,
                "entropy_exact_zero": False,
                "li_yorke": LI_YORKE_ALL_POWERS,
                "citations": [ENTROPY_ON_CENTRAL_TORUS, POSITIVE_TORUS_ENTROPY_LI_YORKE],
                "torus_dim": 1,
            },
            note="Heisenberg group with compact center: doubling the central circle",
        ),
        CatalogEntry(
            name="cat-map",
            document=_abelian_doc("cat-map", 2, [["1", "0"], ["0", "1"]],
                                  [["2", "1"], ["1", "1"]]),
            expected={
                "entropy": golden,
                "entropy_exact_zero": False,
                "li_yorke": LI_YORKE_ALL_POWERS,
                "citations": [ENTROPY_ON_CENTRAL_TORUS, POSITIVE_TORUS_ENTROPY_LI_YORKE],
                "torus_dim": 2,
            },
            note="hyperbolic toral automorphism; entropy log((3+sqrt 5)/2)",
        ),
        CatalogEntry(
            name="shear",
            document=_abelian_doc("shear", 2, [["1", "0"], ["0", "1"]],
                                  [["1", "1"], ["0", "1"]]),
            expected={
                "entropy": 0.0,
                "entropy_exact_zero": True,
                "li_yorke": SOME_POWER_LI_YORKE_FREE,
                "citations": [ZERO_ENTROPY_TORUS_SOME_POWER_FREE],
                "torus_dim": 2,
            },
            note="unipotent shear of the 2-torus: unit eigenvalues, entropy exactly 0",
        ),
        CatalogEntry(
            name="sl2-radical-demo",
            document={
                "name": "sl2-radical-demo",
                "algebra": {
                    "dim": 4,
                    "basis": ["H", "E", "F", "W"],
                    "brackets": [[0, 1, 1, "2"], [0, 2, 2, "-2"], [1, 2, 0, "1"]],
                },
                "lattice": [["0", "0", "0", "1"]],
                "endomorphism": [
                    ["1", "0", "0", "0"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "1", "0"],
                    ["0", "0", "0", "3"],
                ],
            },
            expected={
                "entropy": log3,
                "entropy_exact_zero": False,
                "li_yorke": LI_YORKE_ALL_POWERS,
                "citations": [ENTROPY_ON_CENTRAL_TORUS, POSITIVE_TORUS_ENTROPY_LI_YORKE],
                "torus_dim": 1,
            },
            note="sl2 plus a central circle: the radical is the center line and "
                 "carries all the entropy",
        ),
    ]
    return tuple(entries)


def get_entry(name: str) -> CatalogEntry:
    for entry in builtin_catalog():
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in builtin_catalog())
    raise KeyError(f"unknown catalog entry {name!r}; known entries: {known}")


def run_entry(entry: CatalogEntry, tol: float = DEFAULT_TOL) -> CatalogResult:
    document = entry.input_document()
    group, derivative = build_group(document)
    presentation = validate_presentation(group)
    failures = []
    if not presentation.valid:
        return CatalogResult(entry.name, tuple(f"presentation: {i}" for i in presentation.issues))
    endo = validate_endomorphism(group, derivative)
    report = analyze(endo, tol)
    expected = entry.expected

    if abs(report.entropy.value - expected["entropy"]) > tol:
        failures.append(
            f"entropy {report.entropy.value!r} != expected {expected['entropy']!r}")
    if report.entropy.exact_zero != expected["entropy_exact_zero"]:
        failures.append("exact-zero flag mismatch")
    if report.li_yorke is None or report.li_yorke.verdict != expected["li_yorke"]:
        failures.append("li-yorke verdict mismatch")
    for tag in expected.get("citations", []):
        if tag not in report.citations:
            failures.append(f"missing citation {tag}")
    if report.torus.dim != expected["torus_dim"]:
        failures.append(f"torus dimension {report.torus.dim} != {expected['torus_dim']}")
    if "toral_order" in expected:
        if report.toral_order is None or report.toral_order.order != expected["toral_order"]:
            failures.append("induced toral order mismatch")
    if "bowen_upper" in expected:
        if abs(report.bowen_upper_bound.value - expected["bowen_upper"]) > tol:
            failures.append("eigenvalue-sum upper bound mismatch")
    return CatalogResult(entry.name, tuple(failures))


def run_all(tol: float = DEFAULT_TOL) -> list[CatalogResult]:
    return [run_entry(entry, tol) for entry in builtin_catalog()]
