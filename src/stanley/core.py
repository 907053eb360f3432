"""Exact arithmetic for monomial ideals in a polynomial ring.

Monomials are exponent tuples over a fixed ring context.  Ideals are stored
in canonical form: the unique minimal generating set (an antichain under
divisibility), sorted lexicographically.  The zero ideal has no generators,
the unit ideal is generated by the monomial 1.  All values are immutable.
"""

from __future__ import annotations

from operator import attrgetter, le
from typing import Iterable, Iterator

from .errors import DomainError, ExponentCapError, RingMismatchError

# Exponent vectors and variable subsets are plain immutable containers.
# Variable indices are 0-based internally; rendering is 1-based (x1, x2, ...).
Monomial = tuple
VarSet = frozenset

# Inputs whose generator exponents exceed this cap are rejected.
EXPONENT_CAP = 64
# Rings with more variables than this are rejected before any is built:
# monomials are dense tuples, as long as the ring's variable count.
VARIABLE_CAP = 4096


class Record:
    """Immutable value type over __slots__.

    A subclass sets its slots once, through object.__setattr__.  ==, hash()
    and repr() read the fields named in _compared, and hash() is that of
    their tuple.
    """

    __slots__ = ()
    _compared: tuple = ()

    def __init_subclass__(cls):
        # the compared fields in one C call; a lone field still gives a tuple
        get = attrgetter(*cls._compared)
        cls._values = property(get if len(cls._compared) > 1
                               else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return type(self), self._values


class RingCtx(Record):
    """A polynomial ring over a field, identified by its variables."""

    __slots__ = _compared = ("n", "var_names")

    def __init__(self, n: int, var_names: tuple = ()):
        if n < 0:
            raise DomainError("ring needs a non-negative variable count")
        if n > VARIABLE_CAP:
            raise DomainError(f"{n} variables exceed the cap of {VARIABLE_CAP}")
        if not var_names:
            var_names = default_names(n)
        elif len(var_names) != n:
            raise DomainError("var_names length does not match n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "var_names", var_names)

    def one(self) -> Monomial:
        return (0,) * self.n

    def variable(self, i: int, power: int = 1) -> Monomial:
        """Exponent vector of x_i^power (i is 0-based)."""
        if not 0 <= i < self.n:
            raise DomainError(f"variable index {i} outside ring of {self.n}")
        return tuple(power if j == i else 0 for j in range(self.n))

    def all_vars(self) -> VarSet:
        return frozenset(range(self.n))


def default_names(n: int) -> tuple:
    return tuple(f"x{i + 1}" for i in range(n))


# ---------------------------------------------------------------------------
# monomial helpers
# ---------------------------------------------------------------------------

def _check_len(a: Monomial, b: Monomial) -> None:
    if len(a) != len(b):
        raise RingMismatchError("monomials live in different rings")


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b componentwise."""
    _check_len(a, b)
    return all(x <= y for x, y in zip(a, b))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    _check_len(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


def mul(a: Monomial, b: Monomial) -> Monomial:
    _check_len(a, b)
    return tuple(x + y for x, y in zip(a, b))


def quotient(a: Monomial, b: Monomial) -> Monomial:
    """Exponents of a / gcd(a, b), the colon quotient of a by b."""
    _check_len(a, b)
    return tuple(max(0, x - y) for x, y in zip(a, b))


def support(a: Monomial) -> VarSet:
    return frozenset(i for i, e in enumerate(a) if e > 0)


def total_degree(a: Monomial) -> int:
    return sum(a)


def is_squarefree(a: Monomial) -> bool:
    return all(e <= 1 for e in a)


def squarefree_part(a: Monomial) -> Monomial:
    return tuple(1 if e > 0 else 0 for e in a)


def restrict_exponents(a: Monomial, vars: VarSet) -> Monomial:
    """Zero out every exponent outside vars."""
    return tuple(e if i in vars else 0 for i, e in enumerate(a))


def monomials_up_to_degree(n: int, d: int) -> Iterator[Monomial]:
    """Yield every exponent vector in n variables of total degree <= d.

    The vectors come in lexicographic order: for each head, the first n - 1
    exponents, every last exponent the degree leaves room for.
    """
    if n == 0:
        yield ()
        return
    head = [0] * (n - 1)
    total = 0   # the degree of head
    while True:
        prefix = tuple(head)
        for e in range(d - total + 1):
            yield prefix + (e,)
        # the next head: raise the last exponent that leaves the degree <= d,
        # zeroing those after it
        k = n - 2
        while k >= 0:
            if total < d:
                head[k] += 1
                total += 1
                break
            total -= head[k]
            head[k] = 0
            k -= 1
        else:
            return


def _minimalize(gens: Iterable) -> tuple:
    """Reduce to the divisibility antichain, sorted lexicographically."""
    unique = sorted(set(gens), key=lambda g: (total_degree(g), g))
    kept = []
    for g in unique:
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    kept.sort()
    return tuple(kept)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class MonomialIdeal(Record):
    """A monomial ideal in canonical minimal-generator form."""

    __slots__ = _compared = ("ring", "gens")

    def __init__(self, ring: RingCtx, gens: tuple = ()):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        self.__post_init__()

    # looked up on the class at each construction, so wrapping it there
    # sees every ideal built
    def __post_init__(self):
        canon = []
        for g in self.gens:
            g = tuple(g)
            if len(g) != self.ring.n:
                raise RingMismatchError(
                    f"generator {g} does not fit a ring of {self.ring.n} variables")
            for e in g:
                if e < 0:
                    raise DomainError(f"negative exponent in generator {g}")
                if e > EXPONENT_CAP:
                    raise ExponentCapError(
                        f"exponent {e} exceeds the cap of {EXPONENT_CAP}")
            canon.append(g)
        object.__setattr__(self, "gens", _minimalize(canon))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: RingCtx) -> "MonomialIdeal":
        return MonomialIdeal(ring, ())

    @staticmethod
    def unit(ring: RingCtx) -> "MonomialIdeal":
        return MonomialIdeal(ring, (ring.one(),))

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and total_degree(self.gens[0]) == 0

    @property
    def is_proper(self) -> bool:
        return not self.is_zero and not self.is_unit

    def contains(self, m: Monomial) -> bool:
        """Monomial membership: some generator divides m."""
        if len(m) != self.ring.n:
            raise RingMismatchError("monomial from a different ring")
        for g in self.gens:
            if all(map(le, g, m)):
                return True
        return False

    def includes(self, other: "MonomialIdeal") -> bool:
        """True iff other is contained in self."""
        self._check_ring(other)
        return all(self.contains(g) for g in other.gens)

    def _check_ring(self, other: "MonomialIdeal") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")

    # -- arithmetic ----------------------------------------------------------

    def sum(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal sum, generated by the union of the generators."""
        self._check_ring(other)
        return MonomialIdeal(self.ring, self.gens + other.gens)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal intersection via pairwise lcms of generators."""
        self._check_ring(other)
        pairs = [lcm(g, h) for g in self.gens for h in other.gens]
        return MonomialIdeal(self.ring, pairs)

    def colon(self, w: Monomial) -> "MonomialIdeal":
        """The colon ideal (self : w) for a monomial w."""
        if len(w) != self.ring.n:
            raise RingMismatchError("monomial from a different ring")
        return MonomialIdeal(self.ring, [quotient(g, w) for g in self.gens])

    def radical(self) -> "MonomialIdeal":
        """Generated by the squarefree parts of the generators."""
        return MonomialIdeal(self.ring, [squarefree_part(g) for g in self.gens])

    def restrict(self, vars: VarSet) -> "MonomialIdeal":
        """The intersection with K[vars], as an ideal of the dense ring K[vars].

        The subring's variables keep their names and increasing order.  Its
        generators are those of self supported inside vars, re-indexed, since
        a generator dividing a member of K[vars] is supported inside vars too.
        """
        order = sorted(vars)
        if any(not 0 <= i < self.ring.n for i in order):
            raise DomainError(f"variable index outside ring of {self.ring.n}")
        ring = RingCtx(len(order), tuple(self.ring.var_names[i] for i in order))
        allowed = frozenset(order)
        kept = [tuple(g[i] for i in order) for g in self.gens
                if support(g) <= allowed]
        return MonomialIdeal(ring, kept)

    def is_squarefree(self) -> bool:
        return all(is_squarefree(g) for g in self.gens)

    # -- polarization --------------------------------------------------------

    def polarize(self) -> tuple:
        """Replace powers by products of fresh variables.

        Each occurrence x_i^e in a generator becomes x_i times one fresh
        variable per extra power.  Fresh variables are appended after the
        original ones, grouped by parent variable then occurrence.  Returns
        (polarized ideal, number of added variables).
        """
        parents = polarization_parents(self)
        n, added = self.ring.n, len(parents)
        new_ring = RingCtx(n + added)
        slot = {}
        k = 0
        for i in range(n):
            cap = max((g[i] for g in self.gens), default=0)
            for j in range(2, cap + 1):
                slot[(i, j)] = n + k
                k += 1
        new_gens = []
        for g in self.gens:
            exps = [0] * (n + added)
            for i, e in enumerate(g):
                if e >= 1:
                    exps[i] = 1
                for j in range(2, e + 1):
                    exps[slot[(i, j)]] = 1
            new_gens.append(tuple(exps))
        return MonomialIdeal(new_ring, new_gens), added

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if self.is_zero:
            return "0"
        return ", ".join(render_monomial(g, self.ring) for g in self.gens)

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.render()})"


def polarization_parents(I: MonomialIdeal) -> tuple:
    """Parent variable index of each variable polarize() will append."""
    parents = []
    for i in range(I.ring.n):
        cap = max((g[i] for g in I.gens), default=0)
        parents.extend([i] * max(0, cap - 1))
    return tuple(parents)


def render_monomial(m: Monomial, ring: RingCtx) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(ring.var_names[i])
        elif e > 1:
            parts.append(f"{ring.var_names[i]}^{e}")
    return "*".join(parts) if parts else "1"
