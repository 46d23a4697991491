"""Spans around calls into the layers of `lieentropy`, from outside.

Only the traced run installs the wrappers.  Each wrapped public function is
rebound in every `lieentropy` module that holds it (under any alias) and,
for methods, on its class.  A span records its name, start, end, parent
span and op id; spans stay in memory until the run ends.  A span's self
time is its duration minus its children's, so the self times of all spans
of one op, the op's root span included, add up to the op's time.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# Layer -> public functions wrapped.  These are the functions the per-layer
# metrics name, plus the entry points and the few public helpers that do a
# layer's work on behalf of another layer (det, solve, kernel_basis,
# cyclotomic_factors, center, quotient_algebra), so that their time is
# booked to their own layer.  Tiny converters such as to_fraction_vector
# are left unwrapped; their time counts in the caller's span.
WRAPPED = {
    "exactlinalg": ("mat_mul", "rref", "char_poly", "mat_pow", "min_poly", "det", "solve",
                    "kernel_basis", "lattice_intersect_subspace", "Lattice.from_generators"),
    "mahler": ("log_mahler", "cyclotomic_part", "cyclotomic_factors",
               "squarefree_decomposition"),
    "liealgebra": ("LieAlgebra.bracket", "validate_algebra", "killing_form",
                   "solvable_radical", "nilradical", "is_ad_nilpotent", "is_solvable",
                   "centralizer_in", "center", "quotient_algebra"),
    "torus": ("entropy", "entropy_is_positive", "finite_order", "restrict_matrix_to_lattice"),
    "groups": ("analyze", "validate_presentation", "validate_endomorphism", "eventual_image",
               "topological_entropy", "li_yorke_report", "check_toral_induced_finite_order"),
    "estimator": ("spanning_entropy_estimate", "li_yorke_search"),
    "formats": ("parse_input", "build_group", "report_to_dict", "estimate_to_dict"),
    "cli": ("main",),
}
LAYERS = tuple(WRAPPED) + ("bench",)
ROOT = "bench.op"


def _summary(name, result):
    """What a span keeps of its return value: the log-Mahler decision and
    the estimator's center count."""
    if name == "mahler.log_mahler":
        return "zero" if result.exact_zero else "value"
    if name == "estimator.spanning_entropy_estimate":
        return sum(result.spanning_counts) + sum(result.separated_counts)
    return None


class Tracer:
    def __init__(self):
        self.spans = []       # (span id, parent id, name, start, end, op id, summary)
        self.stack = [None]
        self.op = None
        self._next = 0
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep = name in ("mahler.log_mahler", "estimator.spanning_entropy_estimate")

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            summary = "raised"
            start = clock()
            try:
                result = fn(*args, **kwargs)
                summary = _summary(name, result) if keep else None
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op, summary))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "lieentropy" or n.startswith("lieentropy."))]
        for layer, names in WRAPPED.items():
            module = sys.modules[f"lieentropy.{layer}"]
            for entry in names:
                owner_name, _, attr = entry.rpartition(".")
                span_name = f"{layer}.{entry}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(span_name, raw.__func__))
                    else:
                        new = self._wrap(span_name, raw)
                    setattr(owner, attr, new)
                    self._undo.append((owner, attr, raw))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span_name, original)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, alias, wrapper)
                            self._undo.append((mod, alias, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def root(self, op_id, fn):
        """Run fn() as op `op_id`, under the root span."""
        self.op = op_id
        return self._wrap(ROOT, fn)()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for sid, parent, name, start, end, op, _ in self.spans:
                fh.write(f"{op}\t{sid}\t{'' if parent is None else parent}\t{name}\t"
                         f"{start:.9f}\t{end:.9f}\n")


def _layer(name):
    return name.split(".", 1)[0]


class OpProfile:
    """Per-op totals by span name and by layer."""

    def __init__(self):
        self.inclusive = defaultdict(float)   # outermost spans of each name
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.op_s = 0.0
        self.centers = 0


def profiles(spans):
    """OpProfile per op id, plus log_mahler outcome counts over all ops."""
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for sid, parent, name, start, end, op, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(OpProfile)
    mahler = defaultdict(int)
    for sid, parent, name, start, end, op, summary in spans:
        prof = out[op]
        duration = end - start
        own = duration - child[sid]
        prof.self_s[name] += own
        prof.layer_self[_layer(name)] += own
        prof.calls[name] += 1
        ancestor = parent
        while ancestor is not None and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            prof.inclusive[name] += duration
        if name == ROOT:
            prof.op_s = duration
        elif name == "mahler.log_mahler":
            mahler[summary] += 1
        elif name == "estimator.spanning_entropy_estimate" and summary != "raised":
            prof.centers += summary
    return dict(out), dict(mahler)


def _median(values):
    return statistics.median(values) if values else 0.0


# Per-layer metric -> (span name, quantity).  Quantities are medians over
# ops of: "s" inclusive seconds, "self_s" self seconds, "calls" call count,
# "layer" the layer's summed self seconds.
LAYER_METRICS = {
    "exactlinalg.self_s": ("exactlinalg", "layer"),
    "exactlinalg.mat_mul.self_s": ("exactlinalg.mat_mul", "self_s"),
    "exactlinalg.mat_mul.calls": ("exactlinalg.mat_mul", "calls"),
    "exactlinalg.rref.self_s": ("exactlinalg.rref", "self_s"),
    "exactlinalg.rref.calls": ("exactlinalg.rref", "calls"),
    "exactlinalg.char_poly.s": ("exactlinalg.char_poly", "s"),
    "exactlinalg.char_poly.calls": ("exactlinalg.char_poly", "calls"),
    "exactlinalg.mat_pow.s": ("exactlinalg.mat_pow", "s"),
    "exactlinalg.min_poly.s": ("exactlinalg.min_poly", "s"),
    "exactlinalg.min_poly.calls": ("exactlinalg.min_poly", "calls"),
    "exactlinalg.lattice_intersect_subspace.s": ("exactlinalg.lattice_intersect_subspace", "s"),
    "exactlinalg.Lattice.from_generators.s": ("exactlinalg.Lattice.from_generators", "s"),
    "mahler.self_s": ("mahler", "layer"),
    "mahler.log_mahler.self_s": ("mahler.log_mahler", "self_s"),
    "mahler.log_mahler.calls": ("mahler.log_mahler", "calls"),
    "mahler.cyclotomic_part.s": ("mahler.cyclotomic_part", "s"),
    "mahler.squarefree_decomposition.s": ("mahler.squarefree_decomposition", "s"),
    "liealgebra.self_s": ("liealgebra", "layer"),
    "liealgebra.killing_form.s": ("liealgebra.killing_form", "s"),
    "liealgebra.killing_form.calls": ("liealgebra.killing_form", "calls"),
    "liealgebra.solvable_radical.s": ("liealgebra.solvable_radical", "s"),
    "liealgebra.nilradical.s": ("liealgebra.nilradical", "s"),
    "liealgebra.nilradical.calls": ("liealgebra.nilradical", "calls"),
    "liealgebra.is_ad_nilpotent.s": ("liealgebra.is_ad_nilpotent", "s"),
    "liealgebra.is_solvable.calls": ("liealgebra.is_solvable", "calls"),
    "liealgebra.centralizer_in.s": ("liealgebra.centralizer_in", "s"),
    "liealgebra.bracket.calls": ("liealgebra.LieAlgebra.bracket", "calls"),
    "liealgebra.validate_algebra.s": ("liealgebra.validate_algebra", "s"),
    "torus.self_s": ("torus", "layer"),
    "torus.entropy.s": ("torus.entropy", "s"),
    "torus.entropy_is_positive.s": ("torus.entropy_is_positive", "s"),
    "torus.finite_order.s": ("torus.finite_order", "s"),
    "torus.restrict_matrix_to_lattice.s": ("torus.restrict_matrix_to_lattice", "s"),
    "groups.self_s": ("groups", "layer"),
    "groups.validate_presentation.s": ("groups.validate_presentation", "s"),
    "groups.validate_endomorphism.s": ("groups.validate_endomorphism", "s"),
    "groups.eventual_image.s": ("groups.eventual_image", "s"),
    "groups.eventual_image.calls": ("groups.eventual_image", "calls"),
    "groups.topological_entropy.s": ("groups.topological_entropy", "s"),
    "groups.li_yorke_report.s": ("groups.li_yorke_report", "s"),
    "groups.check_toral_induced_finite_order.s":
        ("groups.check_toral_induced_finite_order", "s"),
    "estimator.self_s": ("estimator", "layer"),
    "estimator.spanning_entropy_estimate.s": ("estimator.spanning_entropy_estimate", "s"),
    "estimator.li_yorke_search.s": ("estimator.li_yorke_search", "s"),
    "formats.self_s": ("formats", "layer"),
    "formats.parse_input.s": ("formats.parse_input", "s"),
    "formats.report_to_dict.s": ("formats.report_to_dict", "s"),
    "cli.self_s": ("cli", "layer"),
    "bench.self_s": ("bench", "layer"),
    "trace.op_s": (ROOT, "s"),
}


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metric values, and the layer self-time totals over all ops
    with the total traced op time (for the add-up check)."""
    profs, mahler = profiles(spans)
    ops = list(profs.values())
    values = {}
    for metric, (name, kind) in LAYER_METRICS.items():
        if kind == "layer":
            values[metric] = _median([p.layer_self[name] for p in ops])
        elif kind == "s":
            values[metric] = _median([p.inclusive[name] for p in ops])
        elif kind == "self_s":
            values[metric] = _median([p.self_s[name] for p in ops])
        else:
            values[metric] = _median([p.calls[name] for p in ops])
    calls = sum(mahler.values())
    values["mahler.certified_share"] = (calls - mahler.get("raised", 0)) / calls if calls else 0.0
    values["mahler.exact_zero_share"] = mahler.get("zero", 0) / calls if calls else 0.0
    values["estimator.centers"] = _median([p.centers for p in ops])
    totals = {layer: sum(p.layer_self[layer] for p in ops) for layer in LAYERS}
    totals["op"] = sum(p.op_s for p in ops)
    return values, totals
