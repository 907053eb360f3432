"""Irredundant irreducible decomposition of monomial ideals.

An irreducible monomial ideal is generated by pure powers of distinct
variables.  Every proper nonzero monomial ideal is the intersection of a
unique irredundant finite set of irreducible ones.  The algorithm splits a
mixed generator g = g1 * g2 into coprime halves, using the identity
I + (g1 g2) = (I + (g1)) intersect (I + (g2)), until every branch is
generated by pure powers, then prunes redundant components.  Pruning needs
no ideal arithmetic: component Q_k = (x_i^a_i) is redundant iff some other
component misses its corner, the monomial with exponent a_i - 1 on each i in
the support of Q_k and the largest exponent plus one elsewhere.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (Monomial, MonomialIdeal, Record, RingCtx, support,
                   total_degree)
from .errors import DomainError


class IrreducibleComponent(Record):
    """Pure-power component, stored sparsely as ((var, exponent), ...)."""

    __slots__ = ("powers", "support")
    _compared = ("powers",)     # support is derived from powers

    def __init__(self, powers: tuple):
        powers = tuple(sorted(powers))
        support = frozenset(i for i, _ in powers)
        for _, e in powers:
            if e < 1:
                raise DomainError("component exponents must be positive")
        if len(support) != len(powers):
            raise DomainError("component repeats a variable")
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "support", support)

    def exponent_of(self, var: int) -> int:
        """Exponent of the pure power on var, 0 if var is absent."""
        for i, e in self.powers:
            if i == var:
                return e
        return 0

    def as_ideal(self, ring: RingCtx) -> MonomialIdeal:
        gens = [ring.variable(i, e) for i, e in self.powers]
        return MonomialIdeal(ring, gens)

    def contains(self, m: Monomial) -> bool:
        return any(m[i] >= e for i, e in self.powers)

    def sort_key(self) -> tuple:
        return (tuple(i for i, _ in self.powers), tuple(e for _, e in self.powers))

    def render(self, ring: RingCtx) -> str:
        parts = []
        for i, e in self.powers:
            name = ring.var_names[i]
            parts.append(name if e == 1 else f"{name}^{e}")
        return ", ".join(parts)


class Decomposition(NamedTuple):
    """Irredundant intersection of irreducible components, canonically ordered."""

    ring: RingCtx
    components: tuple

    @property
    def s(self) -> int:
        return len(self.components)

    def intersection(self) -> MonomialIdeal:
        if not self.components:
            raise DomainError("decomposition has no components")
        out = self.components[0].as_ideal(self.ring)
        for comp in self.components[1:]:
            out = out.intersect(comp.as_ideal(self.ring))
        return out


def is_irreducible(I: MonomialIdeal) -> bool:
    """True iff every minimal generator is a pure variable power.

    The zero and unit ideals are not irreducible by convention here.
    """
    if I.is_zero or I.is_unit:
        return False
    return all(len(support(g)) == 1 for g in I.gens)


def _component_from_pure(I: MonomialIdeal) -> IrreducibleComponent:
    powers = []
    for g in I.gens:
        (i,) = support(g)
        powers.append((i, g[i]))
    return IrreducibleComponent(tuple(powers))


def decompose(I: MonomialIdeal) -> Decomposition:
    """Irredundant irreducible decomposition of a proper nonzero ideal."""
    if I.is_zero or I.is_unit:
        raise DomainError("only proper nonzero ideals decompose")
    ring = I.ring
    seen = set()
    leaves = set()
    stack = [I]
    while stack:
        K = stack.pop()
        if K.gens in seen:
            continue
        seen.add(K.gens)
        mixed = next((g for g in K.gens if len(support(g)) >= 2), None)
        if mixed is None:
            leaves.add(_component_from_pure(K))
            continue
        # split the first mixed generator on its first variable
        i = min(support(mixed))
        head = ring.variable(i, mixed[i])
        tail = tuple(0 if j == i else e for j, e in enumerate(mixed))
        stack.append(MonomialIdeal(ring, K.gens + (head,)))
        stack.append(MonomialIdeal(ring, K.gens + (tail,)))
    return prune_irredundant(ring, leaves)


def prune_irredundant(ring: RingCtx, components) -> Decomposition:
    """Drop every component containing the intersection of the others.

    Q_k = (x_i^a_i) misses exactly the monomials with exponent below a_i on
    each i of its support.  No generator of the intersection of the others
    has an exponent above the largest one, so any such generator outside Q_k
    divides the corner c with c_i = a_i - 1 on the support and c_i = largest
    exponent + 1 elsewhere.  So Q_k contains the intersection of the others
    iff that intersection misses c, that is, iff some other component misses
    c.  An irreducible component containing an intersection contains one of
    its factors, so the kept components are the minimal ones, whatever the
    order of removal: the irredundant presentation is unique.
    """
    comps = sorted(set(components), key=lambda c: c.sort_key())
    if not comps:
        raise DomainError("no components to prune")
    top = 1 + max(e for c in comps for _, e in c.powers)
    kept = []
    for k, Q in enumerate(comps):
        corner = [top] * ring.n
        for i, a in Q.powers:
            corner[i] = a - 1
        if all(R.contains(corner) for j, R in enumerate(comps) if j != k):
            kept.append(Q)
    return Decomposition(ring, tuple(kept))
