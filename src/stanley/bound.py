"""Lower bounds for the Stanley depth of S/I from a decomposition pivot.

Fix an irredundant irreducible decomposition Q_1, ..., Q_s of I and a pivot
component.  The pivot's support splits the variables into a pivot block S'
and a free block S''.  Monomials of S then split, according to which
components their S'-part avoids, into a direct sum of modules indexed by a
subset of components together with a bounded multiplier monomial.  Each
summand contributes a Stanley depth term computed over smaller rings, and
the minimum over all contributions bounds sdepth(S/I) from below.

Components stay pure powers, lists of (variable, exponent) pairs, and an
ideal is built only for a depth search.  Every quotient part and slice ideal
part is an intersection of components cut to a subring K[target], so it is
memoized on a key computed from the pairs alone: each factor's pairs on
target (an empty factor is the zero ideal), with the variables no factor
uses stripped and the rest renumbered in increasing order; the key is the
kind of part, the number of variables kept and the frozenset of renumbered
factors.  Stripping is exact: sdepth(M (x) K[x]) = sdepth(M) + 1 for a
module M over the other variables (Herzog, Vladoiu and Zheng, "How to
compute the Stanley depth of a monomial ideal", Lemma 3.6).

Component membership is one table per split, built once: bit j of
held[i][x] is set iff component j has a power x_i^e with e <= x.  The
components holding a monomial through its exponents on some variables are
then the OR of one entry per variable, a bitmask over the component indices,
and the last entry of each row is the mask of the components using x_i.  A
monomial's summand depends only on its pivot-block part u, so the classifier
derives the subset, the multiplier and the components its free part must
hold once per distinct u, keeps them on the split, and reads only the ideal
flag from the free part of each monomial.  The direct-sum verifier tests
every subset mask against the table once per distinct u, from the
definitions and apart from the classifier's memo; and the bound reads each
multiplier's outside holders from the table and looks up the slice depth
per mask.

The same decomposition data drives a sufficient condition on the ideal: if
whenever the support of one component is covered by the supports of some of
the others the component is already contained in their sum, then the lower
bound is at least size(I), hence so is sdepth(S/I).
"""

from __future__ import annotations

import itertools
import time
from operator import mul
from typing import NamedTuple

from .core import (Monomial, MonomialIdeal, Record, RingCtx,
                   monomials_up_to_degree, restrict_exponents, total_degree)
from .decomposition import Decomposition, decompose
from .errors import DomainError, ResourceLimitError
from .sdepth import (_PART_CACHE, DEFAULT_POINT_CAP, sdepth_ideal,
                     sdepth_quotient)
from .size import SizeReport, size

# subset enumeration is exponential in the component count
SUBSET_CAP = 14


class PivotSplit(Record):
    """Variable split induced by one component of a decomposition."""

    __slots__ = (
        "decomposition", "pivot",
        "pivot_vars",   # support of the pivot component
        "free_vars",    # the remaining variables
        # bit j of held[i][x]: component j has a power x_i^e with e <= x; every
        # row runs to top, the largest exponent of any component, so
        # held[i][top] stands for every larger exponent and holds the
        # components using x_i
        "held", "top",
        "pivot_ind",    # 1 on the pivot variables, 0 on the free ones
        # pivot-block part -> what classify_monomial derives from it alone;
        # left out of ==, hash() and repr()
        "parts")
    _compared = __slots__[:-1]

    def __init__(self, decomposition: Decomposition, pivot: int,
                 pivot_vars: frozenset, free_vars: frozenset, held: tuple,
                 top: int, pivot_ind: tuple, parts: dict | None = None):
        object.__setattr__(self, "decomposition", decomposition)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "pivot_vars", pivot_vars)
        object.__setattr__(self, "free_vars", free_vars)
        object.__setattr__(self, "held", held)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "pivot_ind", pivot_ind)
        object.__setattr__(self, "parts", {} if parts is None else parts)

    @property
    def r(self) -> int:
        return len(self.pivot_vars)


class SummandFamily(NamedTuple):
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


class MonomialClass(NamedTuple):
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
    n = D.ring.n
    pivot_vars = D.components[pivot].support
    top = max((e for Q in D.components for _, e in Q.powers), default=0)
    held = [[0] * (top + 1) for _ in range(n)]
    for j, Q in enumerate(D.components):
        for i, e in Q.powers:
            for x in range(e, top + 1):
                held[i][x] |= 1 << j
    return PivotSplit(D, pivot, pivot_vars, D.ring.all_vars() - pivot_vars,
                      tuple(map(tuple, held)), top,
                      tuple(int(i in pivot_vars) for i in range(n)))


def _holders(split: PivotSplit, m: Monomial, vars) -> int:
    """Bitmask of the components with a power on vars dividing m."""
    held, top = split.held, split.top
    mask = 0
    for i in vars:
        x = m[i]
        mask |= held[i][x if x < top else top]
    return mask


def _touched(split: PivotSplit, subset_mask: int) -> frozenset:
    """The pivot variables hit by the supports of the subset's components."""
    held, top = split.held, split.top
    return frozenset(i for i in split.pivot_vars if held[i][top] & subset_mask)


def _family(split: PivotSplit, subset: tuple) -> SummandFamily:
    comps = split.decomposition.components
    # the least exponent of each touched variable among the subset's components
    least = {}
    for j in subset:
        for i, e in comps[j].powers:
            if i in split.pivot_vars and e < least.get(i, e + 1):
                least[i] = e
    touched = frozenset(least)
    n = split.decomposition.ring.n
    # product walks the box in lexicographic order, the order of the tuples
    mults = tuple(itertools.product(*(range(least.get(i, 1)) for i in range(n))))
    return SummandFamily(subset, touched, split.pivot_vars - touched, mults)


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


def _classify_part(split: PivotSplit, u: Monomial) -> tuple:
    """What every monomial with pivot-block part u shares.

    Returns (need, tag outside I, tag inside I): need is the bitmask of the
    components that the monomial's free part must hold for the monomial to
    lie in I, and 0 when the answer does not depend on it.
    """
    s = split.decomposition.s
    # the components whose sum u avoids are those not holding u
    avoided = ((1 << s) - 1) & ~_holders(split, u, split.pivot_vars)
    subset = tuple(j for j in range(s) if (avoided >> j) & 1)
    if len(subset) == s:
        tag = MonomialClass("free", u, None, None, False)
        return 0, tag, tag
    touched = _touched(split, avoided)
    w = restrict_exponents(u, touched)
    # m lies in I iff every component of the subset holds w times m's free
    # part: w agrees with m on the touched variables, 0 elsewhere
    need = avoided & ~_holders(split, w, touched)
    return (need, MonomialClass("family", u, subset, w, False),
            MonomialClass("family", u, subset, w, True))


def classify_monomial(split: PivotSplit, m: Monomial) -> MonomialClass:
    """Assign a monomial to its summand under the pivot split.

    The summand depends on the pivot-block part u alone, so it is derived
    once per distinct u and kept on the split; only the ideal flag reads
    the monomial's free part.
    """
    if len(m) != split.decomposition.ring.n:
        raise DomainError("monomial does not fit the decomposition ring")
    u = tuple(map(mul, m, split.pivot_ind))
    part = split.parts.get(u)
    if part is None:
        part = split.parts[u] = _classify_part(split, u)
    need, outside, inside = part
    if need and need & ~_holders(split, m, split.free_vars):
        return outside
    return inside


class DirectSumReport(NamedTuple):
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
    component inside.  It depends on the pivot-block part u alone, so the
    summands holding u are found once per distinct u, each subset a bitmask
    tested against the components holding u.
    """
    D = split.decomposition
    if D.s > SUBSET_CAP:
        raise ResourceLimitError(
            f"{D.s} components exceed the subset enumeration cap of {SUBSET_CAP}")
    if degree_cap < 0:
        raise DomainError(f"degree cap {degree_cap} is negative")
    I = D.intersection()
    full = (1 << D.s) - 1
    subsets = []
    for t in range(D.s):
        for subset in itertools.combinations(range(D.s), t):
            T = sum(1 << j for j in subset)
            subsets.append((subset, T, _touched(split, T)))
    cap_warning = degree_cap < max(total_degree(g) for g in I.gens)
    summands = {}   # pivot-block part -> the summands holding it
    violations = []
    checked = 0
    for m in monomials_up_to_degree(D.ring.n, degree_cap):
        checked += 1
        tag = classify_monomial(split, m)
        u = tuple(map(mul, m, split.pivot_ind))
        found = summands.get(u)
        if found is None:
            inside = _holders(split, u, split.pivot_vars)
            found = []
            # u lies in the sum of the components iff some component holds it
            if not inside:
                found.append(("free", u, None, None))
            for subset, T, touched in subsets:
                if _holders(split, u, touched) & T or inside | T != full:
                    continue
                found.append(("family", u, subset,
                              restrict_exponents(u, touched)))
            summands[u] = found
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

class BoundTerm(NamedTuple):
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


class PivotBound(NamedTuple):
    pivot: int
    r: int
    base: int        # the n - r candidate
    value: int
    terms: tuple
    skipped: tuple   # (subset, multiplier, reason)


class BoundReport(NamedTuple):
    value: int
    best_pivot: int
    per_pivot: tuple

    def best(self) -> PivotBound:
        return self.per_pivot[self.best_pivot]


def _meet(n: int, factors) -> MonomialIdeal:
    """Intersection over K[x_0, ..., x_{n-1}] of pure-power ideals.

    Each factor lists (variable, exponent) pairs of the ring; an empty
    factor is the zero ideal.  No factors at all give the unit ideal.
    """
    ring = RingCtx(n)
    out = MonomialIdeal.unit(ring)
    for pairs in factors:
        out = out.intersect(MonomialIdeal(ring, [ring.variable(i, e)
                                                 for i, e in pairs]))
    return out


def _part(kind: str, target: frozenset, factors, cap_points: int,
          deadline: float | None) -> tuple:
    """Stanley depth of a pure-power part over K[target], memoized.

    The part is the intersection of the factors, each a component's
    (variable, exponent) pairs, cut to K[target]: the quotient module
    K[target]/(meet) for kind "quotient", the ideal for kind "ideal".
    Returns (depth over the used variables, number of stripped variables);
    their sum is the depth over K[target].
    """
    restricted = [tuple(p for p in pairs if p[0] in target) for pairs in factors]
    if not all(restricted):
        restricted = [()]   # the zero ideal uses no variable
    used = sorted({i for pairs in restricted for i, _ in pairs})
    pos = {v: k for k, v in enumerate(used)}
    key = (kind, len(used), frozenset(tuple((pos[i], e) for i, e in pairs)
                                      for pairs in restricted))
    value = _PART_CACHE.get(key)
    if value is None:
        depth = sdepth_quotient if kind == "quotient" else sdepth_ideal
        value = depth(_meet(len(used), key[2]), cap_points=cap_points,
                      deadline=deadline)
        _PART_CACHE[key] = value
    return value, len(target) - len(used)


def _pivot_bound(D: Decomposition, pivot: int, cap_points: int,
                 deadline: float | None) -> PivotBound:
    split = build_split(D, pivot)
    comps = D.components
    full = (1 << D.s) - 1
    base = D.ring.n - split.r
    candidates = [base]
    terms = []
    skipped = []
    for fam in enumerate_families(split):
        # the memo can answer a whole family, so read the deadline here too
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimitError("recursive bound timed out")
        # the subset's components meet K[free]: proper, so never the unit ideal
        quotient_part = sum(_part("quotient", split.free_vars,
                                  (comps[j].powers for j in fam.subset),
                                  cap_points, deadline))
        # (Q_j : w) over j outside the subset, meet K[untouched].  w lives on
        # the touched variables, so on the untouched ones Q_j : w keeps the
        # powers of Q_j, or is the unit ideal when Q_j holds w
        outside = full & ~sum(1 << j for j in fam.subset)
        vanish = 0   # outside components with no power on the untouched variables
        for j, Q in enumerate(comps):
            if (outside >> j) & 1 and not Q.support & fam.untouched_vars:
                vanish |= 1 << j
        slices = {}
        for w in fam.multipliers:
            mask = _holders(split, w, fam.touched_vars) & outside
            if mask not in slices:
                keep = outside & ~mask   # the outside components not holding w
                slices[mask] = None if vanish & keep else sum(_part(
                    "ideal", fam.untouched_vars,
                    (Q.powers for j, Q in enumerate(comps) if (keep >> j) & 1),
                    cap_points, deadline))
            ideal_part = slices[mask]
            if ideal_part is None:
                skipped.append((fam.subset, w, "slice ideal is zero"))
                continue
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

class HypothesisReport(NamedTuple):
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


class CheckReport(NamedTuple):
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
