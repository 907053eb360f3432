"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive and independent of the package
internals: membership is tested generator by generator, ideals are compared
through explicit monomial enumeration, and the depth search enumerates
interval partitions outright.  The exceptions use only public pieces of
the package: slow_pivot_bound its ideal arithmetic and depth search, with
no memo; slow_classify and slow_verify_direct_sum the components'
generator-by-generator membership test and exponent restriction.  Slow on
purpose; keep the inputs small.
"""

import itertools
import math


def member(m, gens):
    """m lies in the ideal generated by gens (componentwise divisibility)."""
    return any(all(x <= y for x, y in zip(g, m)) for g in gens)


def box(caps):
    return itertools.product(*[range(c + 1) for c in caps])


def members_within(gens, caps):
    """All ideal members inside the exponent box given by caps."""
    return {m for m in box(caps) if member(m, gens)}


def same_members(gens_a, gens_b, caps):
    return members_within(gens_a, caps) == members_within(gens_b, caps)


def scale(m, k):
    return tuple(k * e for e in m)


def radical_members_within(gens, caps):
    """Members of the radical: some power of the monomial enters the ideal."""
    if not gens:
        return set()
    k = 1 + max(max(g) for g in gens)
    return {m for m in box(caps) if member(scale(m, k), gens)}


def naive_min_cover(supports, universe):
    """Smallest subset of supports covering universe, by direct enumeration."""
    for t in range(1, len(supports) + 1):
        for combo in itertools.combinations(range(len(supports)), t):
            if frozenset().union(*(supports[j] for j in combo)) >= universe:
                return t, combo
    raise AssertionError("supports do not cover the universe")


# ---------------------------------------------------------------------------
# interval partitions, the slow way
# ---------------------------------------------------------------------------

def valid_intervals(points, g):
    """Every interval [a, b] inside the point set, with its box and dim."""
    pts = set(points)
    out = []
    for a in points:
        for b in points:
            if not all(x <= y for x, y in zip(a, b)):
                continue
            bx = frozenset(
                itertools.product(*[range(x, y + 1) for x, y in zip(a, b)]))
            if bx <= pts:
                dim = sum(1 for x, cap in zip(b, g) if x == cap)
                out.append((a, b, bx, dim))
    return out


def partition_exists(points, g, d):
    """Exhaustively search for a partition into intervals of dim >= d."""
    ivs = [iv for iv in valid_intervals(points, g) if iv[3] >= d]

    def walk(uncovered):
        if not uncovered:
            return True
        target = min(uncovered)
        for a, b, bx, dim in ivs:
            if target in bx and bx <= uncovered:
                if walk(uncovered - bx):
                    return True
        return False

    return walk(frozenset(points))


def naive_sdepth(points, g):
    """Largest d admitting an interval partition of dim >= d everywhere."""
    best = -1
    for d in range(len(g) + 1):
        if partition_exists(points, g, d):
            best = d
    return best


def counting_bound(points, n):
    """Keller-Young bound for a squarefree poset: the largest d <= n such
    that beta_k^d = sum_j (-1)^(k-j) C(d-j, k-j) alpha_j >= 0 for all k <= d,
    alpha_j counting the points of degree j."""
    alpha = [sum(1 for p in points if sum(p) == j) for j in range(n + 1)]
    for d in range(n, 0, -1):
        if all(sum((-1) ** (k - j) * math.comb(d - j, k - j) * alpha[j]
                   for j in range(k + 1)) >= 0 for k in range(d + 1)):
            return d
    return 0


def pure_power_gens(powers, n):
    """Generators of the ideal (x_i^e for (i, e) in powers) in n variables."""
    return [tuple(e if j == i else 0 for j in range(n)) for i, e in powers]


def meet_gens(gen_lists):
    """Generators of an intersection: the lcms of one generator from each."""
    return sorted({tuple(max(col) for col in zip(*pick))
                   for pick in itertools.product(*gen_lists)})


# ---------------------------------------------------------------------------
# the recursive bound, the slow way
# ---------------------------------------------------------------------------

def slow_pivot_bound(D, pivot):
    """(value, [(subset, w, ideal part, quotient part)], skipped) for a pivot.

    Every summand ideal is built in the ambient ring with intersect, colon
    and restrict, and every depth is searched from an empty cache.
    """
    from stanley import clear_cache, sdepth_ideal, sdepth_quotient

    n, s = D.ring.n, D.s
    powers = [c.powers for c in D.components]
    ideals = [c.as_ideal(D.ring) for c in D.components]
    pivot_vars = {i for i, _ in powers[pivot]}
    free = set(range(n)) - pivot_vars
    terms, skipped = [], []
    for t in range(1, s):
        for subset in itertools.combinations(range(s), t):
            least = {}
            for j in subset:
                for i, e in powers[j]:
                    if i in pivot_vars:
                        least[i] = min(least.get(i, e), e)
            untouched = pivot_vars - set(least)
            quot = ideals[subset[0]]
            for j in subset[1:]:
                quot = quot.intersect(ideals[j])
            clear_cache()
            quotient_part = sdepth_quotient(quot.restrict(free))
            for w in itertools.product(*(range(least.get(i, 1)) for i in range(n))):
                outside = [ideals[j].colon(w) for j in range(s) if j not in subset]
                J = outside[0]
                for Q in outside[1:]:
                    J = J.intersect(Q)
                J = J.restrict(untouched)
                if J.is_zero:
                    skipped.append((subset, w, "slice ideal is zero"))
                    continue
                clear_cache()
                terms.append((subset, w, sdepth_ideal(J), quotient_part))
    value = min([n - len(pivot_vars)] + [a + b for _, _, a, b in terms])
    return value, terms, skipped


# ---------------------------------------------------------------------------
# the pivot split's summands, the slow way
# ---------------------------------------------------------------------------

def _touched(split, subset):
    comps = split.decomposition.components
    return split.pivot_vars & frozenset().union(*(comps[j].support for j in subset))


def slow_classify(split, m):
    """(kind, spart, subset, multiplier, in_ideal) of a monomial's summand.

    Each component is tested on its generators, one at a time.
    """
    from stanley import restrict_exponents

    comps = split.decomposition.components
    u = restrict_exponents(m, split.pivot_vars)
    subset = tuple(j for j, Q in enumerate(comps) if not Q.contains(u))
    if len(subset) == len(comps):
        return ("free", u, None, None, False)
    w = restrict_exponents(u, _touched(split, subset))
    if not subset:
        return ("family", u, subset, w, True)
    v = restrict_exponents(m, split.free_vars)
    z = tuple(a + b for a, b in zip(w, v))
    return ("family", u, subset, w, all(comps[j].contains(z) for j in subset))


def slow_verify_direct_sum(split, degree_cap):
    """(ok, checked, cap_warning, violations) of the direct-sum check.

    Every subset is tested on every monomial, from the definitions.  The
    classifier is looked up in stanley.bound on each call, as the library
    does, so a classifier patched in there is checked by both.
    """
    import stanley.bound
    from stanley import monomials_up_to_degree, restrict_exponents, total_degree

    D = split.decomposition
    comps = D.components
    I = D.intersection()
    subsets = [(subset, _touched(split, subset)) for t in range(D.s)
               for subset in itertools.combinations(range(D.s), t)]
    cap_warning = degree_cap < max(total_degree(g) for g in I.gens)
    violations = []
    checked = 0
    for m in monomials_up_to_degree(D.ring.n, degree_cap):
        checked += 1
        tag = stanley.bound.classify_monomial(split, m)
        u = restrict_exponents(m, split.pivot_vars)
        found = []
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
    return not violations, checked, cap_warning, tuple(violations)
