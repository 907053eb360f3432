"""Lower bounds for the Stanley depth of S/I from a decomposition pivot.

Fix an irredundant irreducible decomposition Q_1, ..., Q_s of I and a pivot
component.  The pivot's support splits the variables into a pivot block S'
and a free block S''.  Monomials of S then split, according to which
components their S'-part avoids, into a direct sum of modules indexed by a
subset of components together with a bounded multiplier monomial.  Each
summand contributes a Stanley depth term computed over smaller rings, and
the minimum over all contributions bounds sdepth(S/I) from below.

The same decomposition data drives a sufficient condition on the ideal: if
whenever the support of one component is covered by the supports of some of
the others the component is already contained in their sum, then the lower
bound is at least size(I), hence so is sdepth(S/I).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (Monomial, MonomialIdeal, RingCtx, monomials_up_to_degree,
                   mul, restrict_exponents, total_degree)
from .decomposition import Decomposition, decompose
from .errors import DomainError, ResourceLimitError
from .sdepth import DEFAULT_POINT_CAP, sdepth_ideal, sdepth_quotient
from .size import SizeReport, size

# subset enumeration is exponential in the component count
SUBSET_CAP = 14


@dataclass(frozen=True)
class PivotSplit:
    """Variable split induced by one component of a decomposition."""

    decomposition: Decomposition
    pivot: int
    pivot_vars: frozenset   # support of the pivot component
    free_vars: frozenset    # the remaining variables

    @property
    def r(self) -> int:
        return len(self.pivot_vars)


@dataclass(frozen=True)
class SummandFamily:
    """Summands shared by one subset of components.

    touched_vars are the pivot variables hit by the subset's supports,
    untouched_vars the remaining pivot variables.  multipliers are the
    finitely many monomials indexing the subset's summands: supported on
    touched_vars, each exponent below the least matching component
    exponent, hence lying in no component of the subset.
    """

    subset: tuple
    touched_vars: frozenset
    untouched_vars: frozenset
    multipliers: tuple


@dataclass(frozen=True)
class MonomialClass:
    """Which summand a monomial belongs to.

    kind "free" carries the pivot-block part spart with spart avoiding
    every component; kind "family" carries the subset of components whose
    sum spart avoids and the multiplier, the touched part of spart.
    in_ideal tells whether the monomial lies in the decomposed ideal,
    derived from the summand structure rather than a direct test.
    """

    kind: str
    spart: tuple
    subset: tuple | None
    multiplier: tuple | None
    in_ideal: bool


def build_split(D: Decomposition, pivot: int) -> PivotSplit:
    if not 0 <= pivot < D.s:
        raise DomainError(f"pivot {pivot} outside 0..{D.s - 1}")
    pivot_vars = D.components[pivot].support
    free_vars = D.ring.all_vars() - pivot_vars
    return PivotSplit(D, pivot, pivot_vars, free_vars)


def _touched(split: PivotSplit, subset: tuple) -> frozenset:
    """The pivot variables hit by the supports of the subset's components."""
    comps = split.decomposition.components
    return split.pivot_vars & frozenset().union(*(comps[j].support for j in subset))


def _family(split: PivotSplit, subset: tuple) -> SummandFamily:
    comps = split.decomposition.components
    touched = _touched(split, subset)
    order = sorted(touched)
    bounds = [min(comps[j].exponent_of(i) for j in subset
                  if i in comps[j].support) for i in order]
    n = split.decomposition.ring.n
    # product walks the box in lexicographic order, the order of the tuples
    mults = []
    for combo in itertools.product(*(range(b) for b in bounds)):
        w = [0] * n
        for i, e in zip(order, combo):
            w[i] = e
        mults.append(tuple(w))
    return SummandFamily(subset, touched, split.pivot_vars - touched, tuple(mults))


def enumerate_families(split: PivotSplit) -> tuple:
    """All summand families for nonempty proper subsets, smallest first."""
    s = split.decomposition.s
    if s > SUBSET_CAP:
        raise ResourceLimitError(
            f"{s} components exceed the subset enumeration cap of {SUBSET_CAP}")
    out = []
    for t in range(1, s):
        for subset in itertools.combinations(range(s), t):
            out.append(_family(split, subset))
    return tuple(out)


def classify_monomial(split: PivotSplit, m: Monomial) -> MonomialClass:
    """Assign a monomial to its summand under the pivot split."""
    D = split.decomposition
    if len(m) != D.ring.n:
        raise DomainError("monomial does not fit the decomposition ring")
    comps = D.components
    u = restrict_exponents(m, split.pivot_vars)
    subset = tuple(j for j, Q in enumerate(comps) if not Q.contains(u))
    if len(subset) == D.s:
        return MonomialClass("free", u, None, None, False)
    w = restrict_exponents(u, _touched(split, subset))
    if not subset:
        return MonomialClass("family", u, subset, w, True)
    v = restrict_exponents(m, split.free_vars)
    z = mul(w, v)
    in_ideal = all(comps[j].contains(z) for j in subset)
    return MonomialClass("family", u, subset, w, in_ideal)


@dataclass(frozen=True)
class DirectSumReport:
    ok: bool
    checked: int
    degree_cap: int
    cap_warning: bool
    violations: tuple  # (monomial, reason) pairs


def verify_direct_sum(split: PivotSplit, degree_cap: int = 6) -> DirectSumReport:
    """Check the summand decomposition on all monomials up to a degree.

    For every monomial: exactly one summand contains it, the classifier
    names that summand, and the classifier's ideal flag agrees with direct
    membership.  Summand membership is tested from the definitions; for a
    subset family it reduces to the pivot-block part lying in every
    component outside the subset while its touched part avoids every
    component inside.
    """
    D = split.decomposition
    comps = D.components
    if D.s > SUBSET_CAP:
        raise ResourceLimitError(
            f"{D.s} components exceed the subset enumeration cap of {SUBSET_CAP}")
    I = D.intersection()
    subsets = [(subset, _touched(split, subset)) for t in range(D.s)
               for subset in itertools.combinations(range(D.s), t)]
    cap_warning = degree_cap < max(total_degree(g) for g in I.gens)
    violations = []
    checked = 0
    for m in monomials_up_to_degree(D.ring.n, degree_cap):
        checked += 1
        tag = classify_monomial(split, m)
        u = restrict_exponents(m, split.pivot_vars)
        found = []
        # u lies in the sum of the components iff some component holds it
        if not any(Q.contains(u) for Q in comps):
            found.append(("free", u, None, None))
        for subset, touched in subsets:
            w = restrict_exponents(u, touched)
            if any(comps[j].contains(w) for j in subset):
                continue
            if all(comps[j].contains(u) for j in range(D.s) if j not in subset):
                found.append(("family", u, subset, w))
        tag_key = (tag.kind, tag.spart, tag.subset, tag.multiplier)
        if len(found) != 1:
            violations.append((m, f"contained in {len(found)} summands"))
        elif found[0] != tag_key:
            violations.append((m, "classifier names a different summand"))
        if tag.in_ideal != I.contains(m):
            violations.append((m, "ideal membership flag disagrees"))
    return DirectSumReport(ok=not violations, checked=checked,
                           degree_cap=degree_cap, cap_warning=cap_warning,
                           violations=tuple(violations))


# ---------------------------------------------------------------------------
# the lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundTerm:
    subset: tuple
    multiplier: tuple
    ideal_part: int
    quotient_part: int
    # the subset's supports cover the whole pivot block, so the ideal part
    # lives over the constants-only ring and contributes 0
    degenerate: bool = False

    @property
    def total(self) -> int:
        return self.ideal_part + self.quotient_part


@dataclass(frozen=True)
class PivotBound:
    pivot: int
    r: int
    base: int        # the n - r candidate
    value: int
    terms: tuple
    skipped: tuple   # (subset, multiplier, reason)


@dataclass(frozen=True)
class BoundReport:
    value: int
    best_pivot: int
    per_pivot: tuple

    def best(self) -> PivotBound:
        return self.per_pivot[self.best_pivot]


def _meet(order: list, factors) -> MonomialIdeal:
    """Intersection over the dense ring K[order] of pure-power ideals.

    Each factor lists (variable, exponent) pairs in ambient indices and
    stands for the ideal of S those powers generate.  Its intersection with
    K[order] keeps the pairs on order, so a factor without such a pair makes
    the result zero.  No factors at all give the unit ideal.
    """
    pos = {v: k for k, v in enumerate(order)}
    ring = RingCtx(len(order))
    out = None
    for pairs in factors:
        Q = MonomialIdeal(ring, [ring.variable(pos[i], e)
                                 for i, e in pairs if i in pos])
        if Q.is_zero:
            return Q
        out = Q if out is None else out.intersect(Q)
    return MonomialIdeal.unit(ring) if out is None else out


def _pivot_bound(D: Decomposition, pivot: int, cap_points: int,
                 deadline: float | None) -> PivotBound:
    split = build_split(D, pivot)
    comps = D.components
    base = D.ring.n - split.r
    free = sorted(split.free_vars)
    candidates = [base]
    terms = []
    skipped = []
    for fam in enumerate_families(split):
        # the subset's components meet K[free]: proper, so never the unit ideal
        quot = _meet(free, (comps[j].powers for j in fam.subset))
        quotient_part = sdepth_quotient(quot, cap_points=cap_points,
                                        deadline=deadline)
        untouched = sorted(fam.untouched_vars)
        for w in fam.multipliers:
            # (Q_j : w) over j outside the subset, meet K[untouched].  w lives
            # on the touched variables, so on the untouched ones Q_j : w keeps
            # the powers of Q_j, or is the unit ideal when Q_j holds w
            outside = (Q.powers for j, Q in enumerate(comps)
                       if j not in fam.subset and not Q.contains(w))
            slice_ideal = _meet(untouched, outside)
            if slice_ideal.is_zero:
                skipped.append((fam.subset, w, "slice ideal is zero"))
                continue
            ideal_part = sdepth_ideal(slice_ideal, cap_points=cap_points,
                                      deadline=deadline)
            term = BoundTerm(fam.subset, w, ideal_part, quotient_part,
                             degenerate=not fam.untouched_vars)
            terms.append(term)
            candidates.append(term.total)
    return PivotBound(pivot=pivot, r=split.r, base=base,
                      value=min(candidates), terms=tuple(terms),
                      skipped=tuple(skipped))


def sdepth_lower_bound(I: MonomialIdeal, pivot: int | None = None,
                       decomposition: Decomposition | None = None, *,
                       cap_points: int = DEFAULT_POINT_CAP,
                       deadline: float | None = None) -> BoundReport:
    """Recursive lower bound for sdepth(S/I), per pivot and overall.

    With pivot None every component is tried and the best (largest) pivot
    bound is reported; ties resolve to the lowest pivot index.  cap_points
    and deadline, a time.monotonic() reading, limit every depth search.
    """
    D = decomposition if decomposition is not None else decompose(I)
    pivots = range(D.s) if pivot is None else [pivot]
    per = []
    for p in pivots:
        if not 0 <= p < D.s:
            raise DomainError(f"pivot {p} outside 0..{D.s - 1}")
        per.append(_pivot_bound(D, p, cap_points, deadline))
    best = max(range(len(per)), key=lambda k: per[k].value)
    return BoundReport(value=per[best].value, best_pivot=best, per_pivot=tuple(per))


# ---------------------------------------------------------------------------
# the containment hypothesis and the size inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisReport:
    satisfied: bool
    violations: tuple  # (component index, subset) pairs


def hypothesis_check(D: Decomposition, cap: int = SUBSET_CAP) -> HypothesisReport:
    """Radical cover forces containment, for every component and subset.

    Checks: whenever the support of component i is covered by the union of
    supports over a subset not containing i, component i lies in the sum of
    that subset's components.  Squarefree decompositions satisfy this.
    """
    s = D.s
    if s > cap:
        raise ResourceLimitError(
            f"{s} components exceed the subset enumeration cap of {cap}")
    comps = D.components
    violations = []
    for i in range(s):
        others = [j for j in range(s) if j != i]
        for t in range(1, s):
            for subset in itertools.combinations(others, t):
                union = frozenset().union(*(comps[j].support for j in subset))
                if not comps[i].support <= union:
                    continue
                ok = True
                for k, a in comps[i].powers:
                    least = min(comps[j].exponent_of(k) for j in subset
                                if k in comps[j].support)
                    if a < least:
                        ok = False
                        break
                if not ok:
                    violations.append((i, subset))
    return HypothesisReport(satisfied=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class CheckReport:
    ideal: MonomialIdeal
    decomposition: Decomposition
    size: SizeReport
    hypothesis: HypothesisReport
    bound: BoundReport
    sdepth_exact: int
    sdepth_ge_bound: bool
    bound_ge_size: bool
    inequality_holds: bool

    @property
    def ok(self) -> bool:
        """No invariant is violated.

        The exact value must dominate the bound for every ideal; under the
        containment hypothesis the bound and the exact value must also
        dominate the size.
        """
        if not self.sdepth_ge_bound:
            return False
        if self.hypothesis.satisfied:
            return self.bound_ge_size and self.inequality_holds
        return True


def check_size_inequality(I: MonomialIdeal, *,
                          cap_points: int = DEFAULT_POINT_CAP,
                          deadline: float | None = None) -> CheckReport:
    """Compare size, the recursive bound, and exact Stanley depth for I."""
    D = decompose(I)
    size_rep = size(I, decomposition=D)
    hyp = hypothesis_check(D)
    bound_rep = sdepth_lower_bound(I, decomposition=D,
                                   cap_points=cap_points, deadline=deadline)
    sd = sdepth_quotient(I, cap_points=cap_points, deadline=deadline)
    return CheckReport(
        ideal=I,
        decomposition=D,
        size=size_rep,
        hypothesis=hyp,
        bound=bound_rep,
        sdepth_exact=sd,
        sdepth_ge_bound=sd >= bound_rep.value,
        bound_ge_size=bound_rep.value >= size_rep.size,
        inequality_holds=sd >= size_rep.size,
    )
