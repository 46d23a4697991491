"""The main analysis pipeline for presented Lie groups.

A connected Lie group enters as G = G~/Gamma~: exact structure constants for
the Lie algebra of the simply connected cover, plus log-coordinates W_i of
central lattice generators, with the convention that Gamma~ is free abelian
on exp(2*pi*W_i).  Centrality of the generators is certified rather than
decided: the W_i must commute, and each ad(W_i) must be semisimple with
spectrum in iZ (minimal polynomial dividing t * prod(t^2 + m^2)), which
places them in a compactly embedded abelian subalgebra and hence their
exponentials in the center of the cover.  Presentations without such a
certificate are rejected even if mathematically central.

Gamma~ is one canonical `Lattice` per presentation, `PresentedGroup.lattice`:
the W_i are independent when its rank is their number, d preserves it when
each d(W_i) is a member or conjugates to one, and every cut starts from it.

The entropy of an endomorphism is computed by restricting its derivative to
the maximal central torus of the eventual image:

    eventual image  ->  lattice inside it  ->  center of the image
    ->  central sublattice  ->  integer action  ->  log-Mahler sum

Each stage takes the validated endomorphism alone (its presentation is
`endo.group`), is exact, and aborts with its name rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import (
    DimensionError,
    InvariantViolationError,
    PipelineError,
    TheoremViolationError,
    ValidationError,
)
from .exactlinalg import (
    Lattice,
    Subspace,
    char_poly,
    exact,
    lattice_intersect_subspace,
    mat_mul,
    mat_pow,
    mat_vec,
    min_poly,
    solve,
    transpose,
)
from .liealgebra import (
    LieAlgebra,
    center,
    centralizer_in,
    is_solvable,
    is_subalgebra,
    nilradical,
    nonzero_brackets,
    quotient_algebra,
    validate_algebra,
)
from .mahler import (
    DEFAULT_TOL,
    EntropyValue,
    log_mahler,
    poly_divmod,
    poly_eval,
    poly_primitive_int,
    poly_trim,
)
from .torus import (
    LI_YORKE_ALL_POWERS,
    SOME_POWER_LI_YORKE_FREE,
    TorusEndo,
    entropy as torus_entropy,
    finite_order,
    restrict_matrix_to_lattice,
)

# Result tags used in verdict chains, reports, and error messages.  Each tag
# names a mathematical fact the pipeline relied on.
ENTROPY_ON_CENTRAL_TORUS = "entropy-carried-by-central-torus-of-eventual-image"
BOWEN_UPPER_BOUND = "eigenvalue-sum-is-an-upper-bound"
POSITIVE_TORUS_ENTROPY_LI_YORKE = "positive-entropy-torus-has-li-yorke-pairs-for-all-powers"
TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE = "trivial-central-torus-excludes-li-yorke-pairs"
ZERO_ENTROPY_TORUS_SOME_POWER_FREE = "zero-entropy-torus-factor-some-power-li-yorke-free"
QUOTIENT_TORUS_TRIVIAL = "torus-quotient-has-trivial-central-torus"
TORAL_COMPONENTS_COINCIDE = "central-torus-agrees-with-radical-and-nilradical-tori"
INDUCED_TORAL_MAP_FINITE_ORDER = "induced-toral-map-has-finite-order"


# ---------------------------------------------------------------------------
# presented groups

@dataclass(frozen=True)
class PresentedGroup:
    """G = G~/Gamma~ via structure constants and central log-generators;
    Gamma~ is their lattice, `lattice`, formed on first use."""

    algebra: LieAlgebra
    lattice_logs: tuple[tuple[Fraction, ...], ...]
    name: str = "G"

    @staticmethod
    def build(algebra: LieAlgebra, lattice_logs, name: str = "G") -> "PresentedGroup":
        logs = tuple(tuple(exact(x) for x in v) for v in lattice_logs)
        for v in logs:
            if len(v) != algebra.dim:
                raise DimensionError("lattice log-generator has wrong length")
        return PresentedGroup(algebra, logs, name)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def lattice(self) -> Lattice:
        """Gamma in canonical HNF, formed once per presentation: independence,
        invariance and every cut of the pipeline read this one lattice."""
        return Lattice.from_generators(self.algebra.dim, self.lattice_logs)

    @cached_property
    def nilradical(self):
        """Nilradical of the algebra, computed once per presentation; the
        conjugation certificate and the toral-order check both need it."""
        return nilradical(self.algebra)

    @cached_property
    def center(self) -> Subspace:
        """Center of the algebra, computed once per presentation: the toral
        lattice and a whole-algebra eventual image both need it."""
        return center(self.algebra).space

    @cached_property
    def central_lattice(self) -> Lattice:
        """Gamma cut by the center, once per presentation: the toral lattice,
        and the central sublattice when d is surjective, both read it."""
        return lattice_intersect_subspace(self.lattice, self.center)


@dataclass(frozen=True)
class PresentationReport:
    issues: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.issues

    def describe(self) -> str:
        return "valid presentation" if self.valid else "; ".join(self.issues)


def _compact_spectrum_certificate(minimal) -> str | None:
    """None when the minimal polynomial divides t * prod_m (t^2 + m^2),
    otherwise a human-readable reason.

    Such a minimal polynomial certifies that the adjoint is semisimple with
    spectrum in iZ, so the corresponding one-parameter group is bounded.
    With s = t^2 the roots of q(r) = nu(-r) must be distinct squares m^2,
    peeled off largest first by Newton on q from the Cauchy bound B.  Above
    the largest root of a real-rooted q of degree k, q/q' lies in [e/k, e],
    e the distance to that root, so a step floored and kept >= 1 never passes
    an integer root; it shrinks e by a factor 1 - 1/(2k) while e >= 2k, then
    by >= 1, so 2 deg(nu)^2 (bits(B) + 1) steps in all is a cap no valid
    input reaches.  isqrt confirms each root and an exact division removes
    it; acceptance rests on those divisions alone.
    """
    p = poly_trim(minimal)
    if not p:
        return "zero minimal polynomial"
    if p[0] == 0:
        p = p[1:]
        if not p or p[0] == 0:
            return "minimal polynomial divisible by t^2 (adjoint not semisimple)"
    if any(c != 0 for c in p[1::2]):
        return "minimal polynomial has odd-degree terms (spectrum not purely imaginary)"
    other = "minimal polynomial has a factor other than t^2 + m^2"
    nu = p[::2]  # polynomial in s = t^2, roots must be -m^2
    r = 1 + max((-(-abs(c) // abs(nu[-1])) for c in nu[:-1]), default=0)  # Cauchy
    steps = 2 * (len(nu) - 1) ** 2 * (r.bit_length() + 1)
    while len(nu) > 1:
        if r < 1 or steps == 0:
            return other
        value = slope = 0  # nu(-r) and nu'(-r); q(r) = value, q'(r) = -slope
        for c in reversed(nu):
            slope = slope * -r + value
            value = value * -r + c
        if value == 0:
            nu, _ = poly_divmod(nu, [r, 1])
            if isqrt(r) ** 2 != r or poly_eval(nu, -r) == 0:
                return other  # not a square, or a repeated root
        elif value * slope >= 0:
            return other
        else:
            r, steps = r - max(1, -value // slope), steps - 1
    if nu and nu[0] != 1:
        return "minimal polynomial is not monic after factoring"
    return None


def validate_presentation(group: PresentedGroup) -> PresentationReport:
    """Certify that the declared lattice generators are central.

    Checks, in order: the structure constants form a Lie algebra; the W_i
    commute pairwise; each ad(W_i) carries the compact-spectrum certificate;
    and the W_i are Z-linearly independent.
    """
    issues: list[str] = []
    algebra_report = validate_algebra(group.algebra)
    if not algebra_report.valid:
        issues.append(f"algebra: {algebra_report.describe()}")
    logs = group.lattice_logs
    issues += [f"lattice generators {i} and {j} do not commute"
               for i, j in sorted(nonzero_brackets(group.algebra, logs, logs)) if i < j]
    for i, w in enumerate(logs):
        reason = _compact_spectrum_certificate(min_poly(group.algebra.adjoint_matrix(w)))
        if reason is not None:
            issues.append(f"lattice generator {i}: {reason}")
    if group.lattice.rank != len(logs):
        issues.append("lattice generators are linearly dependent")
    return PresentationReport(tuple(issues))


# ---------------------------------------------------------------------------
# endomorphisms

@dataclass(frozen=True)
class GroupEndomorphism:
    """Derivative matrix on the algebra, validated against its presentation.
    Surjectivity, the eventual image and the eigenvalue-sum bound all read
    char(d), formed on first use, so validation alone never forms it."""

    group: PresentedGroup
    d_phi: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def characteristic_polynomial(self) -> list:
        """char(d) = det(tI - d), ascending, computed once per endomorphism."""
        return char_poly(self.d_phi)

    @property
    def surjective_on_identity_component(self) -> bool:  # char(d)(0) = +-det d
        return self.characteristic_polynomial[0] != 0

    def power(self, k: int) -> "GroupEndomorphism":
        return validate_endomorphism(self.group, mat_pow(self.d_phi, k))


def _exp_ad(algebra, u, v):
    """Finite exponential sum exp(ad u)(v) for ad-nilpotent u, exact."""
    result = list(v)
    term = list(v)
    factorial = 1
    for k in range(1, algebra.dim + 1):
        term = list(algebra.bracket(u, term))
        factorial *= k
        if all(x == 0 for x in term):
            break
        result = [r + exact(t, factorial) for r, t in zip(result, term)]
    return tuple(result)


def _conjugate_correction(algebra, nil_space, v, target):
    """u in the nilradical with exp(ad u)(v) = target, or None.

    Successive linear corrections [du, v] = residual walk the residual down
    the nilpotent filtration; the returned u is certified by an exact final
    check, so incompleteness of the iteration only causes rejection.
    """
    if all(x == 0 for x in v):
        return None
    dim = algebra.dim
    if not nil_space.basis:
        return None
    matrix = transpose([algebra.bracket(b, v) for b in nil_space.basis])
    nil_columns = transpose(nil_space.basis)
    u = [0] * dim
    for _ in range(dim + 1):
        current = _exp_ad(algebra, u, v)
        residual = [t - c for t, c in zip(target, current)]
        if all(x == 0 for x in residual):
            return tuple(u)
        coeffs = solve(matrix, residual)
        if coeffs is None:
            return None
        du = mat_vec(nil_columns, coeffs)
        if all(x == 0 for x in du):
            return None
        u = [a + b for a, b in zip(u, du)]
    return None


def validate_endomorphism(group: PresentedGroup, derivative) -> GroupEndomorphism:
    """Check bracket compatibility and invariance of the lattice.

    The derivative must be an algebra endomorphism (exactly).  Each image
    d(W_i) must be a point of the lattice `group.lattice`, either on the
    nose or up to a certified inner conjugation: when d(W_i) = v_i + r_i
    with v_i a lattice point and r_i in the nilradical, a conjugator u with
    exp(ad u)(v_i) = d(W_i) is solved for and verified exactly, which makes
    exp of the image an inner conjugate of the central element exp(2 pi v_i)
    and hence again a lattice element.
    """
    d = tuple(tuple(exact(x) for x in row) for row in derivative)
    algebra, n = group.algebra, group.algebra.dim
    if len(d) != n or any(len(row) != n for row in d):
        raise DimensionError(f"derivative must be {n}x{n}")
    columns = transpose(d)  # column i is d(e_i)
    # [d e_i, d e_j] - d[e_i, e_j] by pair, both read off the nonzero
    # constants: d[e_i, e_j] = sum_k c_ij^k d(e_k)
    diff = nonzero_brackets(algebra, columns, columns)
    for i, j, k, c in algebra.constants:
        if i < j:
            v = diff.setdefault((i, j), [0] * n)
            for m, x in enumerate(columns[k]):
                v[m] -= c * x
    failing = [(i, j) for (i, j), v in diff.items() if i < j and any(v)]
    if failing:
        i, j = min(failing)
        raise ValidationError("not a Lie algebra endomorphism: bracket compatibility fails at "
                              f"({algebra.basis_names[i]}, {algebra.basis_names[j]})")
    for i, w in enumerate(group.lattice_logs):
        image = mat_vec(d, w)
        if not (group.lattice.contains(image) or _conjugates_into_lattice(group, image)):
            raise ValidationError(
                f"lattice not preserved: image of generator {i} is not a lattice point "
                "and admits no certified conjugation back into the lattice")
    return GroupEndomorphism(group, d)


def _conjugates_into_lattice(group: PresentedGroup, image) -> bool:
    """Whether a generator image is a lattice point modulo a certified inner
    conjugation through the nilradical."""
    try:
        nil = group.nilradical
    except (InvariantViolationError, ValueError):
        return False
    n = group.dim
    # rows (W_i, W_i) and (r_j, 0): the image splits uniquely as v + r, v in
    # span(W) and r in the nilradical, when the W_i and r_j are independent,
    # i.e. when every one of the rows has its echelon pivot in the first n
    # columns; then eliminating (image, 0) leaves (0, -v)
    rows = [(*w, *w) for w in group.lattice_logs]
    rows += [(*r, *(0,) * n) for r in nil.space.basis]
    tagged = Subspace.from_vectors(2 * n, rows)
    residue = tagged.reduce((*image, *(0,) * n))
    if sum(p < n for p in tagged.pivots) != len(rows) or any(residue[:n]):
        return False
    v = tuple(-x for x in residue[n:])
    return (group.lattice.contains(v)
            and _conjugate_correction(group.algebra, nil.space, v, tuple(image)) is not None)


# ---------------------------------------------------------------------------
# pipeline stages

def eventual_image(endo: GroupEndomorphism) -> Subspace:
    """Stabilized image of the derivative: the algebra of the maximal
    connected subgroup mapped onto itself.

    By Fitting's lemma g = ker d^a + im d^a, a the multiplicity of the root
    0 of char(d), so the images d^k(g) stop falling by k = a: the stabilized
    image is the column span of d^a, g itself when a = 0 (d surjective).
    Post-checked to be closed under the bracket.
    """
    a = next(k for k, c in enumerate(endo.characteristic_polynomial) if c)
    if not a:
        return Subspace.full(endo.group.dim)
    image = Subspace.from_vectors(endo.group.dim, transpose(mat_pow(endo.d_phi, a)))
    if not is_subalgebra(endo.group.algebra, image):
        raise InvariantViolationError(
            "eventual_image", "stabilized image is not closed under the bracket")
    return image


@dataclass(frozen=True)
class CentralTorus:
    """Maximal central torus data: its lattice, span, and attached action."""

    lattice: Lattice
    action: TorusEndo | None = None

    @property
    def dim(self) -> int:
        return self.lattice.rank

    @cached_property
    def subspace(self) -> Subspace:
        return self.lattice.span()


def toral_lattice(group: PresentedGroup) -> CentralTorus:
    """Lattice of the maximal torus in the center: the lattice generators
    that a central exponential forces into the center of the algebra.

    A generator with nilpotent adjoint inside the nilradical must have
    adjoint zero (semisimple + nilpotent = 0), and the central torus of the
    group agrees with the one of its nilradical, so the torus directions are
    exactly the lattice points lying in the center.
    """
    return CentralTorus(group.central_lattice)


@dataclass(frozen=True)
class LiYorkeChain:
    """Verdict plus the reduction chain justifying it; each link is a
    (result-tag, statement) pair."""

    verdict: str
    links: tuple[tuple[str, str], ...]

    @property
    def entropy_positive(self) -> bool:
        return self.verdict == LI_YORKE_ALL_POWERS

    @property
    def citations(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.links)


@dataclass(frozen=True)
class ToralOrderCheck:
    order: int
    action: TorusEndo

    @property
    def torus_dim(self) -> int:
        return self.action.dim


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the entropy pipeline produced, stage by stage."""

    group_name: str
    tol: float
    entropy: EntropyValue
    bowen_upper_bound: EntropyValue
    eventual_image: Subspace
    lattice_in_image: Lattice
    center_of_image: Subspace
    torus: CentralTorus
    validations: tuple[str, ...]
    citations: tuple[str, ...]
    li_yorke: LiYorkeChain | None = None
    toral_order: ToralOrderCheck | None = None


def topological_entropy(endo: GroupEndomorphism, tol: float = DEFAULT_TOL) -> AnalysisReport:
    """Entropy of the endomorphism through stages 1-5 (eventual image, its
    lattice, its center, the central sublattice, the integer action on it).
    The report also carries the eigenvalue-sum upper bound, the log-Mahler
    sum of char(d), strict whenever expansion happens outside the central
    torus of the eventual image; when that torus is the whole group its
    action has char(d) too, so the entropy is the bound, computed once.  A
    numeric failure of either value aborts with the name of its stage.
    """
    group = endo.group
    g_phi = eventual_image(endo)
    if g_phi.dim == group.dim:
        l_phi, z_phi, lam_phi = group.lattice, group.center, group.central_lattice
    else:
        l_phi = lattice_intersect_subspace(group.lattice, g_phi)
        z_phi = centralizer_in(group.algebra, g_phi)
        lam_phi = lattice_intersect_subspace(l_phi, z_phi)
    try:
        torus = CentralTorus(lam_phi, restrict_matrix_to_lattice(endo.d_phi, lam_phi))
    except ValidationError as exc:
        raise PipelineError("restrict_action", str(exc)) from exc
    whole = torus.dim == group.dim
    try:
        ent = None if whole else torus_entropy(torus.action, tol)
    except ArithmeticError as exc:
        raise PipelineError("torus_entropy", str(exc)) from exc
    try:
        bowen = log_mahler(poly_primitive_int(endo.characteristic_polynomial), tol)
    except ArithmeticError as exc:
        stage = "torus_entropy" if whole else "eigenvalue_sum_bound"
        raise PipelineError(stage, str(exc)) from exc
    validations = (
        "presentation invariants assumed validated",
        "eventual image verified invariant and bracket-closed",
        "central sublattice verified invariant under the derivative",
    )
    return AnalysisReport(
        group_name=group.name,
        tol=tol,
        entropy=bowen if whole else ent,
        bowen_upper_bound=bowen,
        eventual_image=g_phi,
        lattice_in_image=l_phi,
        center_of_image=z_phi,
        torus=torus,
        validations=validations,
        citations=(ENTROPY_ON_CENTRAL_TORUS, TORAL_COMPONENTS_COINCIDE, BOWEN_UPPER_BOUND),
    )


def li_yorke_report(endo: GroupEndomorphism, report: AnalysisReport) -> LiYorkeChain:
    """Existence/nonexistence chain for Li-Yorke pairs of the endomorphism,
    read off its entropy report.

    Requires surjectivity on the identity component.  Positive entropy on
    the central torus of the eventual image (`report.entropy`, decided
    exactly by its `exact_zero` flag) yields pairs for every power;
    otherwise the reduction through the torus quotient shows some power has
    none, and each link of that reduction is recorded.
    """
    if not endo.surjective_on_identity_component:
        raise ValidationError(
            "hypothesis not met: endomorphism is not surjective on the identity component")
    torus = report.torus
    if not report.entropy.exact_zero:
        links = (
            (ENTROPY_ON_CENTRAL_TORUS,
             "the entropy of the endomorphism equals the entropy of its action on the "
             "maximal central torus of the eventual image"),
            (POSITIVE_TORUS_ENTROPY_LI_YORKE,
             "that torus action has positive entropy, so every power of the "
             "endomorphism has a Li-Yorke pair"),
        )
        return LiYorkeChain(LI_YORKE_ALL_POWERS, links)
    if torus.lattice.is_empty():
        links = (
            (TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE,
             "the maximal central torus is trivial, so some power of the endomorphism "
             "has no Li-Yorke pair"),
        )
        return LiYorkeChain(SOME_POWER_LI_YORKE_FREE, links)
    links = (
        (ZERO_ENTROPY_TORUS_SOME_POWER_FREE,
         "the central torus action has zero entropy, so some power of the torus factor "
         "has no Li-Yorke pair"),
        (QUOTIENT_TORUS_TRIVIAL,
         "the quotient by the central torus has trivial central torus"),
        (TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE,
         "hence some power of the induced quotient endomorphism has no Li-Yorke pair, "
         "and the two reductions combine"),
    )
    return LiYorkeChain(SOME_POWER_LI_YORKE_FREE, links)


def check_toral_induced_finite_order(endo: GroupEndomorphism) -> ToralOrderCheck:
    """Order of the endomorphism induced on the maximal torus of R/N.

    Preconditions: solvable algebra, surjective endomorphism, and a
    simply-connected nilradical, certified by a trivial central torus T(G)
    and checked before the nilradical is computed.  The lattice meets the
    nilradical N = ker kappa exactly when T(G) is nontrivial: the center
    lies in N (ad z = 0 gives kappa(z, .) = 0), and a lattice point in N
    has a semisimple, nilpotent adjoint, hence is central.
    Under these preconditions the induced toral map must have finite order;
    an infinite answer is a theorem violation, not a result.
    """
    group = endo.group
    if not is_solvable(group.algebra):
        raise ValidationError("precondition failed: the algebra is not solvable")
    if not endo.surjective_on_identity_component:
        raise ValidationError("precondition failed: the endomorphism is not surjective")
    if not toral_lattice(group).lattice.is_empty():
        raise ValidationError(
            "precondition failed: nilradical is not simply-connected "
            "(the lattice meets the nilradical)")
    nil = group.nilradical
    d = endo.d_phi
    for v in nil.space.basis:
        if not nil.space.contains(mat_vec(d, v)):
            raise InvariantViolationError(
                "toral_order", "derivative does not preserve the nilradical")
    quotient, projection = _quotient_presentation(group, nil, f"{group.name}/N")
    if quotient.algebra.constants:
        raise InvariantViolationError("toral_order", "quotient by the nilradical is not abelian")
    induced = mat_mul(projection, [[row[c] for c in nil.space.complement] for row in d])
    try:
        action = restrict_matrix_to_lattice(induced, quotient.lattice)
    except ValidationError as exc:
        raise InvariantViolationError("toral_order", str(exc)) from exc
    order = finite_order(action)
    if order is None:
        raise TheoremViolationError(
            "toral_order",
            "induced toral map has infinite order; "
            f"expected {INDUCED_TORAL_MAP_FINITE_ORDER}")
    return ToralOrderCheck(order, action)


def _quotient_presentation(group: PresentedGroup, ideal, name: str):
    """(G/ideal, projection), the lattice generators projected and re-canonicalized."""
    quotient, projection = quotient_algebra(group.algebra, ideal)
    projected = [mat_vec(projection, w) for w in group.lattice_logs]
    lattice = Lattice.from_generators(quotient.dim, projected)
    return PresentedGroup(quotient, lattice.basis, name), projection


def quotient_by_torus(group: PresentedGroup) -> PresentedGroup:
    """Presentation of G/T(G): quotient algebra by the torus span, with the
    lattice generators projected and re-canonicalized.

    Post-checked: the result has empty toral lattice.
    """
    torus = toral_lattice(group)
    if torus.lattice.is_empty():
        result = group
    else:
        result, _ = _quotient_presentation(group, torus.subspace, f"{group.name}/T")
    post = toral_lattice(result)
    if not post.lattice.is_empty():
        raise InvariantViolationError(
            "quotient_by_torus",
            f"quotient still has a nontrivial central torus; expected {QUOTIENT_TORUS_TRIVIAL}")
    return result


def analyze(endo: GroupEndomorphism, tol: float = DEFAULT_TOL) -> AnalysisReport:
    """Entropy report extended, for an endomorphism surjective on the
    identity component, with the Li-Yorke chain read off that report and,
    when the group is solvable with trivial central torus, the induced
    toral order check."""
    report = topological_entropy(endo, tol)
    li = toral = None
    if endo.surjective_on_identity_component:
        li = li_yorke_report(endo, report)
        try:
            toral = check_toral_induced_finite_order(endo)
        except ValidationError:
            pass  # preconditions not met; the check simply does not apply
    citations = report.citations
    if li is not None:
        citations = citations + tuple(t for t in li.citations if t not in citations)
    if toral is not None:
        citations = citations + (INDUCED_TORAL_MAP_FINITE_ORDER,)
    return replace(report, li_yorke=li, toral_order=toral, citations=citations)
