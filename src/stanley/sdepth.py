"""Exact Stanley depth via interval partitions of a finite poset.

For monomial ideals I strictly inside J over the same ring, the exponent
vectors of monomials of J outside I, bounded componentwise by a cap vector
g, form a finite poset.  Stanley decompositions of J/I correspond to
partitions of that poset into intervals [a, b]; an interval contributes
dimension |{i : b_i = g_i}|, and the Stanley depth of J/I is the largest d
such that some partition uses only intervals of dimension at least d.  The
reduction is exact once g dominates every generator exponent of I and J;
coordinates missing from all generators are capped at 1 so they keep
counting as free directions.

The feasibility search walks points in lexicographic order.  In any interval
partition the lexicographically least uncovered point must be the lower
endpoint of the interval covering it, so the search only branches on upper
endpoints, tried in decreasing dimension.  Residual states that failed are
memoized as bitmasks.  Witnesses are deterministic.

The walk over d starts at an upper bound and goes down; the first feasible d
is the answer.  For a squarefree pair (g all ones) the bound is the interval
counting condition of Keller and Young, "Stanley depth of squarefree monomial
ideals": given a partition with every dimension >= d, the points of degree at
most d split into intervals ending in degree d, and the number of those
starting in degree k, a signed sum of the counts per degree, cannot be
negative.  Otherwise the walk starts at n.  The bound only skips searches
that must fail; every reported d is found by the search itself.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb, prod

from .core import Monomial, MonomialIdeal
from .errors import DomainError, ResourceLimitError, RingMismatchError

DEFAULT_POINT_CAP = 20000

# successful searches keyed by (n, gens of I, gens of J)
_CACHE: dict = {}


def clear_cache() -> None:
    _CACHE.clear()


@dataclass(frozen=True)
class Interval:
    lower: tuple
    upper: tuple
    dim: int


@dataclass(frozen=True)
class StanleyDecomposition:
    """Witness interval partition together with its minimum dimension."""

    g: tuple
    value: int
    intervals: tuple

    def validate(self, points) -> None:
        """Assert this is a partition of points with the claimed value."""
        covered = set()
        pointset = set(points)
        for iv in self.intervals:
            box = list(_box_points(iv.lower, iv.upper))
            if _dimension(iv.upper, self.g) != iv.dim:
                raise AssertionError("interval dimension mislabeled")
            for c in box:
                if c not in pointset:
                    raise AssertionError("interval leaves the poset")
                if c in covered:
                    raise AssertionError("intervals overlap")
                covered.add(c)
        if covered != pointset:
            raise AssertionError("intervals do not cover the poset")
        if self.intervals and min(iv.dim for iv in self.intervals) != self.value:
            raise AssertionError("minimum dimension disagrees with value")


def _dimension(upper: tuple, g: tuple) -> int:
    return sum(1 for b, cap in zip(upper, g) if b == cap)


def _box_points(lower: tuple, upper: tuple):
    return itertools.product(*[range(a, b + 1) for a, b in zip(lower, upper)])


def cap_vector(I: MonomialIdeal, J: MonomialIdeal) -> tuple:
    """Componentwise max of generator exponents, at least 1 everywhere."""
    n = I.ring.n
    caps = [1] * n
    for g in I.gens + J.gens:
        for i, e in enumerate(g):
            caps[i] = max(caps[i], e)
    return tuple(caps)


def characteristic_points(I: MonomialIdeal, J: MonomialIdeal, g: tuple) -> tuple:
    """Exponent vectors a <= g with x^a in J but not in I, in lex order."""
    if I.ring != J.ring:
        raise RingMismatchError("module pair needs one ring")
    if not J.includes(I):
        raise DomainError("module pair needs I contained in J")
    n = I.ring.n
    if len(g) != n:
        raise RingMismatchError("cap vector length does not match the ring")
    for h in I.gens + J.gens:
        if any(e > cap for e, cap in zip(h, g)):
            raise DomainError("cap vector must dominate every generator")
    if any(cap < 1 for cap in g):
        raise DomainError("cap vector entries must be at least 1")
    out = []
    for a in itertools.product(*[range(cap + 1) for cap in g]):
        if J.contains(a) and not I.contains(a):
            out.append(a)
    return tuple(out)


def _candidates(p: tuple, g: tuple, d: int, idx: dict, unc: int) -> list:
    """Valid interval tops above p, every box point uncovered, dim >= d.

    Returned as (dim, top) sorted by decreasing dimension then lex order.
    """
    n = len(g)
    out = []
    b = list(p)

    def slice_ok(i: int, v: int) -> bool:
        tail = tuple(p[i + 1:])
        for prefix in itertools.product(*[range(p[j], b[j] + 1) for j in range(i)]):
            q = idx.get(prefix + (v,) + tail)
            if q is None or not (unc >> q) & 1:
                return False
        return True

    def rec(i: int, caps: int) -> None:
        if caps + (n - i) < d:
            return
        if i == n:
            out.append((caps, tuple(b)))
            return
        v = p[i]
        while True:
            b[i] = v
            rec(i + 1, caps + (1 if v == g[i] else 0))
            if v == g[i] or not slice_ok(i, v + 1):
                break
            v += 1
        b[i] = p[i]

    rec(0, 0)
    out.sort(key=lambda t: (-t[0], t[1]))
    return out


def _box_mask(p: tuple, b: tuple, idx: dict) -> int:
    mask = 0
    for c in _box_points(p, b):
        mask |= 1 << idx[c]
    return mask


def _search_partition(points: tuple, g: tuple, d: int, deadline) -> list | None:
    """Find an interval partition with all dimensions >= d, or None.

    Iterative backtracking; returns [(lower, upper, dim), ...] on success.
    """
    N = len(points)
    idx = {p: i for i, p in enumerate(points)}
    full = (1 << N) - 1
    # any point coverable by a dim >= d interval has one with itself as the
    # lower endpoint, so one pass over the full box rules most depths out
    for k, p in enumerate(points):
        if deadline is not None and k & 63 == 0 and time.monotonic() > deadline:
            raise ResourceLimitError("stanley depth search timed out")
        if not _candidates(p, g, d, idx, full):
            return None
    unc = full
    chosen = []
    failed = set()
    # frame: [candidates, next position, point index, applied mask]
    frames = []
    ticks = 0

    def least_uncovered(start: int) -> int:
        s = start
        while s < N and not (unc >> s) & 1:
            s += 1
        return s

    s0 = least_uncovered(0)
    if s0 == N:
        return []
    frames.append([_candidates(points[s0], g, d, idx, unc), 0, s0, 0])

    while frames:
        ticks += 1
        if deadline is not None and ticks & 255 == 0 and time.monotonic() > deadline:
            raise ResourceLimitError("stanley depth search timed out")
        frame = frames[-1]
        cands, pos, s, mask = frame
        if mask:
            unc |= mask
            chosen.pop()
            frame[3] = 0
        if pos == len(cands):
            failed.add(unc)
            frames.pop()
            continue
        dim, top = cands[pos]
        frame[1] = pos + 1
        p = points[s]
        boxmask = _box_mask(p, top, idx)
        unc &= ~boxmask
        frame[3] = boxmask
        chosen.append((p, top, dim))
        s2 = least_uncovered(s + 1)
        if s2 == N:
            return list(chosen)
        if unc not in failed:
            frames.append([_candidates(points[s2], g, d, idx, unc), 0, s2, 0])
    return None


def _counting_bound(points: tuple, g: tuple) -> int:
    """Largest d <= n with beta_k^d >= 0 for all k <= d; n unless g is all ones.

    alpha_j counts the points of degree j.  If a depth-d partition exists,
    beta_k^d = sum_j (-1)^(k-j) C(d-j, k-j) alpha_j counts the intervals
    starting in degree k when the points of degree <= d are split into
    intervals ending in degree d.
    """
    n = len(g)
    if any(cap != 1 for cap in g):
        return n
    alpha = [0] * (n + 1)
    for p in points:
        alpha[sum(p)] += 1
    for d in range(n, 0, -1):
        if all(sum((-1) ** (k - j) * comb(d - j, k - j) * alpha[j]
                   for j in range(k + 1)) >= 0 for k in range(d + 1)):
            return d
    return 0


def sdepth_module(I: MonomialIdeal, J: MonomialIdeal, *,
                  cap_points: int = DEFAULT_POINT_CAP,
                  deadline: float | None = None) -> StanleyDecomposition:
    """Exact Stanley depth of J/I with a witness partition.

    I must be strictly contained in J.  Raises ResourceLimitError when the
    poset exceeds cap_points or the search runs past deadline, a
    time.monotonic() reading; a cached result is returned as is, since the
    limits only guard fresh work.
    """
    if I.ring != J.ring:
        raise RingMismatchError("module pair needs one ring")
    if I == J:
        raise DomainError("the zero module has no Stanley depth")
    key = (I.ring.n, I.gens, J.gens)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    g = cap_vector(I, J)
    if prod(cap + 1 for cap in g) > max(50 * cap_points, 1 << 20):
        raise ResourceLimitError("exponent box too large to enumerate")
    points = characteristic_points(I, J, g)
    if len(points) > cap_points:
        raise ResourceLimitError(
            f"poset has {len(points)} points, over the cap of {cap_points}")

    witness = None
    for d in range(_counting_bound(points, g), 0, -1):
        witness = _search_partition(points, g, d, deadline)
        if witness is not None:
            break
    if witness is None:
        witness = _search_partition(points, g, 0, deadline)
    intervals = tuple(Interval(p, b, dim) for p, b, dim in witness)
    value = min(iv.dim for iv in intervals)
    result = StanleyDecomposition(g=g, value=value, intervals=intervals)
    result.validate(points)
    _CACHE[key] = result
    return result


def sdepth_quotient(I: MonomialIdeal, **kw) -> int:
    """Stanley depth of S/I for a non-unit ideal I."""
    return sdepth_module(I, MonomialIdeal.unit(I.ring), **kw).value


def sdepth_ideal(I: MonomialIdeal, **kw) -> int:
    """Stanley depth of a nonzero ideal I as a module."""
    return sdepth_module(MonomialIdeal.zero(I.ring), I, **kw).value
