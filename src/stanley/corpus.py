"""Seeded random ideal corpora.

Randomness comes from splitmix64, fully specified below, so a (spec, seed)
pair names the same corpus on any platform or implementation:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output z xor (z >> 31)

Uniform draws below k use rejection on the top multiple of k.  Families:
"general" draws exponents up to max_exponent, "squarefree" caps them at 1,
and "hypothesis-satisfying" keeps only non-squarefree ideals whose
decomposition passes the containment hypothesis.
"""

from __future__ import annotations

from .bound import hypothesis_check
from .core import MonomialIdeal, Record, RingCtx
from .decomposition import decompose
from .errors import DomainError, ResourceLimitError

_MASK = (1 << 64) - 1

FAMILIES = ("general", "squarefree", "hypothesis-satisfying")


class SplitMix64:
    """The splitmix64 generator; see the module docstring for the steps."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        """Uniform integer in [0, k)."""
        if k <= 0:
            raise DomainError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % k)
        while True:
            z = self.next64()
            if z < limit:
                return z % k

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        if hi < lo:
            raise DomainError("empty range")
        return lo + self.below(hi - lo + 1)


class CorpusSpec(Record):
    __slots__ = _compared = ("seed", "count", "family", "n_range",
                             "gens_range", "max_exponent")

    def __init__(self, seed: int, count: int, family: str = "general",
                 n_range: tuple = (2, 4), gens_range: tuple = (2, 4),
                 max_exponent: int = 3):
        if family not in FAMILIES:
            raise DomainError(f"unknown family {family!r}")
        if count < 1:
            raise DomainError("count must be positive")
        if max_exponent < 1:
            raise DomainError("max_exponent must be at least 1")
        for label, rng in (("n_range", n_range), ("gens_range", gens_range)):
            lo, hi = rng
            if not (1 <= lo <= hi):
                raise DomainError(f"{label} must satisfy 1 <= lo <= hi")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n_range", n_range)
        object.__setattr__(self, "gens_range", gens_range)
        object.__setattr__(self, "max_exponent", max_exponent)


def random_monomial(rng: SplitMix64, n: int, max_exponent: int) -> tuple:
    """A nonzero exponent vector with entries in [0, max_exponent]."""
    while True:
        m = tuple(rng.below(max_exponent + 1) for _ in range(n))
        if any(m):
            return m


def random_ideal(rng: SplitMix64, spec: CorpusSpec) -> MonomialIdeal:
    """One proper nonzero ideal drawn per the spec's shape parameters."""
    n = rng.randint(*spec.n_range)
    k = rng.randint(*spec.gens_range)
    cap = 1 if spec.family == "squarefree" else spec.max_exponent
    gens = [random_monomial(rng, n, cap) for _ in range(k)]
    return MonomialIdeal(RingCtx(n), gens)


def _family_accepts(spec: CorpusSpec, I: MonomialIdeal) -> bool:
    if spec.family != "hypothesis-satisfying":
        return True
    if I.is_squarefree():
        return False
    return hypothesis_check(decompose(I)).satisfied


def generate_corpus(spec: CorpusSpec, accept=None, attempt_cap: int | None = None):
    """Deterministic tuple of spec.count ideals.

    Draws are rejection-sampled through the family filter and the optional
    accept predicate; exceeding attempt_cap (default 1000 tries per item)
    raises ResourceLimitError.
    """
    rng = SplitMix64(spec.seed)
    cap = attempt_cap if attempt_cap is not None else 1000 * max(1, spec.count)
    out = []
    attempts = 0
    while len(out) < spec.count:
        attempts += 1
        if attempts > cap:
            raise ResourceLimitError(
                f"corpus rejection sampling exhausted after {cap} attempts")
        I = random_ideal(rng, spec)
        if not _family_accepts(spec, I):
            continue
        if accept is not None and not accept(I):
            continue
        out.append(I)
    return tuple(out)
