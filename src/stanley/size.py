"""The size invariant of a monomial ideal.

size(I) = v + (n - h) - 1, computed from the irredundant irreducible
decomposition: h is the number of variables in the union of the component
supports and v is the least number of components whose supports already
cover that union.  The cover search is exact.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import MonomialIdeal
from .decomposition import Decomposition, decompose
from .errors import DomainError, ResourceLimitError

# Exact set cover is enumerated over subsets; refuse absurd component counts.
COMPONENT_CAP = 20


class SizeReport(NamedTuple):
    n: int
    s: int
    h: int
    v: int
    size: int
    witness: tuple  # 0-based component indices, the lex-least minimum cover


def support_union(D: Decomposition, subset=None) -> frozenset:
    """Union of component supports, over all components or a subset."""
    indices = range(D.s) if subset is None else tuple(subset)
    out = set()
    for j in indices:
        out |= D.components[j].support
    return frozenset(out)


def min_cover(D: Decomposition, cap: int = COMPONENT_CAP) -> tuple:
    """Smallest set of components whose supports cover the full union.

    Returns (v, witness).  Subsets are tried in increasing cardinality and
    lexicographic order, so the witness is the lex-least one of minimum
    size.  A greedy cover bounds the search from above.
    """
    if D.s == 0:
        raise DomainError("decomposition has no components")
    if D.s > cap:
        raise ResourceLimitError(
            f"{D.s} components exceed the exact cover cap of {cap}")
    target = support_union(D)
    supports = [c.support for c in D.components]

    # greedy upper bound, ties broken toward the lower index
    remaining = set(target)
    upper = 0
    while remaining:
        best = max(range(D.s), key=lambda j: (len(supports[j] & remaining), -j))
        remaining -= supports[best]
        upper += 1

    for t in range(1, upper + 1):
        for combo in itertools.combinations(range(D.s), t):
            covered = set()
            for j in combo:
                covered |= supports[j]
            if covered >= target:
                return t, combo
    raise AssertionError("greedy cover bound was not met by enumeration")


def size(I: MonomialIdeal, decomposition: Decomposition | None = None,
         cap: int = COMPONENT_CAP) -> SizeReport:
    """Size of a proper nonzero monomial ideal."""
    D = decomposition if decomposition is not None else decompose(I)
    n = D.ring.n
    h = len(support_union(D))
    v, witness = min_cover(D, cap=cap)
    return SizeReport(n=n, s=D.s, h=h, v=v, size=v + n - h - 1, witness=witness)
