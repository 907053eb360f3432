"""Exact Stanley depth via interval partitions of a finite poset.

For monomial ideals I strictly inside J over the same ring, the exponent
vectors of monomials of J outside I, bounded componentwise by a cap vector
g, form a finite poset.  Stanley decompositions of J/I correspond to
partitions of that poset into intervals [a, b]; an interval contributes
dimension rho(b) = |{i : b_i = g_i}|, and the Stanley depth of J/I is the
largest d such that some partition uses only intervals of dimension at least
d.  The reduction is exact once g dominates every generator exponent of I
and J; coordinates missing from all generators are capped at 1 so they keep
counting as free directions.

Depth d only needs intervals whose top has dimension exactly d, plus the
points of dimension above d, which form an up-set.  Given an interval with
rho(b) > d and some i with a_i < b_i = g_i, split it into the part with
x_i < g_i, of dimension rho(b) - 1, and the part with x_i = g_i, of
dimension rho(b).  Repeating leaves intervals of dimension d and intervals
whose lower endpoint already has every capped coordinate of its top, so all
their points have dimension above d.  So sdepth(J/I) >= d exactly when the
points of dimension at most d split into intervals with tops of dimension d;
no box of such an interval can reach the up-set.  For squarefree pairs this
is the "tops in degree d" reduction of Keller and Young, "Stanley depth of
squarefree monomial ideals".

The feasibility search walks the points of dimension at most d in
lexicographic order.  In any interval partition the lexicographically least
uncovered point must be the lower endpoint of the interval covering it, so
the search only branches on tops of dimension d, tried in lexicographic
order.  A set of points has the Hilbert series H(t) = sum_a t^|a|
(1-t)^-rho(a).  For the points of an interval [a, b] with rho(b) = d,
(1-t)^d H(t) is t^|a| times the product of 1 + t + ... + t^(b_i - a_i) over
the i with b_i < g_i, which has no negative coefficient.  So a state whose
uncovered points give (1-t)^d H(t) a negative coefficient cannot be finished
and is dropped.  Residual states that failed are memoized as bitmasks.  After a
success the up-set is covered greedily, without backtracking, and the
witness is sorted by lower endpoint; witnesses are deterministic.

The walk over d starts at the Hilbert depth of J/I and goes down; the first
feasible d is the answer.  With H(t) the Hilbert series of all the points,
which is that of J/I, the Hilbert depth is the largest r with no negative
coefficient in (1-t)^r H(t).  A partition of depth d makes
(1-t)^d H(t) a sum of terms t^|a| (1-t)^(d - dim) with d - dim <= 0, so
sdepth <= hdepth (Uliczka, "Remarks on Hilbert series of graded modules over
polynomial rings"); for squarefree pairs this is the interval counting
condition of Keller and Young.  The bound only skips searches that must
fail; every reported d is found by the search itself.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from math import comb, prod
from typing import NamedTuple

from .core import Monomial, MonomialIdeal
from .errors import DomainError, ResourceLimitError, RingMismatchError

DEFAULT_POINT_CAP = 20000

# successful searches keyed by (n, gens of I, gens of J)
_CACHE: dict = {}
# depths of the recursive bound's pure-power parts, keyed in bound._part
_PART_CACHE: dict = {}


def clear_cache() -> None:
    _CACHE.clear()
    _PART_CACHE.clear()


class Interval(NamedTuple):
    lower: tuple
    upper: tuple
    dim: int


class StanleyDecomposition(NamedTuple):
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
    # the box in lex order is mixed radix g + 1: lowering a_i by one moves
    # back strides[i] places, to a point the walk has already decided
    strides = [1] * n
    for i in range(n - 1, 0, -1):
        strides[i - 1] = strides[i] * (g[i] + 1)
    size = prod(cap + 1 for cap in g)
    inI, inJ = bytearray(size), bytearray(size)
    for flags, ideal in ((inI, I), (inJ, J)):
        for h in ideal.gens:
            flags[sum(e * s for e, s in zip(h, strides))] = 1
    steps = tuple(enumerate(strides))
    out = []
    for k, a in enumerate(itertools.product(*[range(cap + 1) for cap in g])):
        # a member of an ideal is a generator or lies over a member one below
        if not inI[k]:
            for i, s in steps:
                if a[i] and inI[k - s]:
                    inI[k] = 1
                    break
        if inI[k]:
            inJ[k] = 1      # I lies inside J
            continue
        if not inJ[k]:
            for i, s in steps:
                if a[i] and inJ[k - s]:
                    inJ[k] = 1
                    break
        if inJ[k]:
            out.append(a)
    return tuple(out)


def _candidates(p: tuple, g: tuple, d: int, idx: dict, unc: int):
    """Yield interval tops above p of dimension exactly d, every box point uncovered.

    Tops come in lex order, one at a time, so a caller that needs only the
    first pays only for that one.  A top of dimension d bounds every box
    point's dimension by d, and the split in the module docstring turns any
    wider interval of a partition into ones of dimension d and points of the
    up-set above d, so wider tops are never needed.
    """
    n = len(g)
    b = list(p)

    def slice_ok(i: int, v: int) -> bool:
        tail = tuple(p[i + 1:])
        for prefix in itertools.product(*[range(p[j], b[j] + 1) for j in range(i)]):
            q = idx.get(prefix + (v,) + tail)
            if q is None or not (unc >> q) & 1:
                return False
        return True

    def rec(i: int, caps: int):
        if caps > d or caps + (n - i) < d:
            return
        if i == n:
            yield tuple(b)
            return
        v = p[i]
        while True:
            b[i] = v
            yield from rec(i + 1, caps + (1 if v == g[i] else 0))
            if v == g[i] or not slice_ok(i, v + 1):
                break
            v += 1
        b[i] = p[i]

    return rec(0, 0)


def _box_mask(p: tuple, b: tuple, idx: dict) -> int:
    mask = 0
    for c in _box_points(p, b):
        mask |= 1 << idx[c]
    return mask


def _search_partition(points: tuple, g: tuple, d: int, deadline) -> list | None:
    """Find an interval partition with all dimensions >= d, or None.

    Returns [(lower, upper), ...] sorted by lower endpoint on success.
    """
    idx = {p: i for i, p in enumerate(points)}
    dims = [_dimension(p, g) for p in points]
    low = [k for k, r in enumerate(dims) if r <= d]
    # the points of dimension at most d split into intervals with tops of
    # dimension d, each adding a polynomial with no negative coefficient
    groups = Counter((sum(points[k]), dims[k]) for k in low)
    residual = _series(groups, d, max((s for s, _ in groups), default=0) + d + 1)
    if min(residual) < 0:
        return None
    # any point coverable by a depth-d partition has a top of dimension d
    # above it, so one pass over the full box rules most depths out
    full = (1 << len(points)) - 1
    for j, k in enumerate(low):
        if deadline is not None and j & 63 == 0 and time.monotonic() > deadline:
            raise ResourceLimitError("stanley depth search timed out")
        if next(_candidates(points[k], g, d, idx, full), None) is None:
            return None
    unc = sum(1 << k for k in low)
    chosen = _backtrack(points, g, d, idx, unc, residual, deadline)
    if chosen is None:
        return None
    upset = [p for p, r in zip(points, dims) if r > d]
    return sorted(chosen + _cover_upset(upset, g))


def _backtrack(points: tuple, g: tuple, d: int, idx: dict, unc: int,
               residual: list, deadline) -> list | None:
    """Split the points of the bitmask unc into intervals with tops of dimension d.

    Iterative backtracking; returns [(lower, upper), ...] or None.  residual
    holds (1-t)^d times the Hilbert series of the uncovered points.  Every
    interval left to choose adds a polynomial with no negative coefficient,
    so a choice that leaves one in residual is not followed.
    """
    N = len(points)
    chosen = []
    failed = set()
    # frame: [tops, point index, applied mask, box series]
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
    frames.append([_candidates(points[s0], g, d, idx, unc), s0, 0, ()])

    while frames:
        ticks += 1
        if deadline is not None and ticks & 255 == 0 and time.monotonic() > deadline:
            raise ResourceLimitError("stanley depth search timed out")
        frame = frames[-1]
        tops, s, mask, series = frame
        p = points[s]
        if mask:
            unc |= mask
            chosen.pop()
            for k, c in enumerate(series, sum(p)):
                residual[k] += c
            frame[2] = 0
        top = next(tops, None)
        if top is None:
            failed.add(unc)
            frames.pop()
            continue
        frame[2] = boxmask = _box_mask(p, top, idx)
        unc &= ~boxmask
        frame[3] = series = _box_series(p, top, g)
        for k, c in enumerate(series, sum(p)):
            residual[k] -= c
        chosen.append((p, top))
        s2 = least_uncovered(s + 1)
        if s2 == N:
            return chosen
        if min(residual) >= 0 and unc not in failed:
            frames.append([_candidates(points[s2], g, d, idx, unc), s2, 0, ()])
    return None


def _cover_upset(upset: list, g: tuple) -> list:
    """Cover an up-set of the poset greedily, in lex order.

    Each uncovered point starts an interval whose top is raised to the cap,
    one coordinate at a time, while the box stays among the uncovered points
    of the up-set.  The up-set holds every point above its members, so its
    dimension bound holds for every box point too.
    """
    left = set(upset)
    out = []
    for p in upset:
        if p not in left:
            continue
        top = list(p)
        for i, cap in enumerate(g):
            if top[i] == cap:
                continue
            ranges = [range(a, b + 1) for a, b in zip(p, top)]
            ranges[i] = range(top[i] + 1, cap + 1)
            if all(c in left for c in itertools.product(*ranges)):
                top[i] = cap
        top = tuple(top)
        left.difference_update(_box_points(p, top))
        out.append((p, top))
    return out


def _series(groups: Counter, r: int, length: int) -> list:
    """Coefficients of t^0 .. t^(length-1) in (1-t)^r H(t).

    H(t) = sum of t^|a| (1-t)^-rho(a) over points a, given as a count of
    points per (|a|, rho(a)).
    """
    coef = [0] * length
    for (s, rho), c in groups.items():
        k = r - rho
        for j in range(length - s):
            coef[s + j] += c * ((-1) ** j * comb(k, j) if k >= 0
                                else comb(j - k - 1, j))
    return coef


def _box_series(p: tuple, top: tuple, g: tuple) -> list:
    """(1-t)^d H(t) / t^|p| for the box [p, top] with top of dimension d.

    A capped coordinate of the top contributes t^p_i / (1-t) and any other
    t^p_i + ... + t^top_i, so this is the product of 1 + ... + t^(top_i - p_i)
    over the uncapped coordinates.
    """
    coef = [1]
    for a, b, cap in zip(p, top, g):
        if a < b < cap:
            w = b - a
            coef = [sum(coef[max(0, k - w):k + 1]) for k in range(len(coef) + w)]
    return coef


def _hilbert_bound(points: tuple, g: tuple) -> int:
    """Hilbert depth: the largest r <= n with (1-t)^r H(t) nonnegative.

    A point with rho(a) >= r adds a series with no negative coefficient, so
    only degrees up to max|a| + r need checking.
    """
    groups = Counter((sum(p), _dimension(p, g)) for p in points)
    top = max(s for s, _ in groups)
    for r in range(len(g), 0, -1):
        if min(_series(groups, r, top + r + 1)) >= 0:
            return r
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

    # d = 0 always succeeds: every point of dimension 0 is its own top
    for d in range(_hilbert_bound(points, g), -1, -1):
        witness = _search_partition(points, g, d, deadline)
        if witness is not None:
            break
    intervals = tuple(Interval(p, b, _dimension(b, g)) for p, b in witness)
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
