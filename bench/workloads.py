"""Seeded inputs of the three workloads, as argument lists of `stanley` verbs.

A workload is a sequence of rounds.  Round k of a run is fixed by the
benchmark seed and k alone, so every run of one seed attempts the same
operations in the same order.  Each round is a list of verb calls; an
item is one library call that a verb makes, and the verb's JSON report is
checked by the function that comes with the call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import checks

_MASK = (1 << 64) - 1


class SplitMix64:
    """The benchmark's own generator, apart from the program's corpus module."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]; the modulo bias is far below what matters here."""
        return lo + self.next64() % (hi - lo + 1)


def round_rng(seed: int, k: int) -> SplitMix64:
    return SplitMix64((seed << 24) + k)


@dataclass(frozen=True)
class Call:
    """One verb invocation and the check of its JSON report."""

    argv: tuple
    check: Callable[[dict], list]


def render(m: tuple) -> str:
    parts = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(m) if e]
    return "*".join(parts) if parts else "1"


def render_ideal(gens: list) -> str:
    return ", ".join(render(g) for g in gens)


# ---------------------------------------------------------------------------
# corpus-check: the `stanley corpus` verb over three families
# ---------------------------------------------------------------------------

# family, --n, --gens, --max-exponent, --count.  Two generators for the
# general and squarefree families and exponents up to 2 keep the slowest
# ideal of a family near 0.3 s; with the default shapes a single ideal of the
# general family takes up to 13 s, and the seed, not the program, decides a
# run's throughput.
CORPUS_FAMILIES = (
    ("general", "2..4", "2..2", 2, 60),
    ("squarefree", "2..5", "2..2", 1, 100),
    ("hypothesis-satisfying", "2..4", "2..3", 2, 100),
)


def corpus_round(seed: int, k: int) -> list:
    rng = round_rng(seed, k)
    calls = []
    for family, n, gens, max_exp, count in CORPUS_FAMILIES:
        corpus_seed = rng.next64() >> 32
        argv = ("corpus", "--seed", str(corpus_seed), "--count", str(count),
                "--family", family, "--n", n, "--gens", gens,
                "--max-exponent", str(max_exp))
        calls.append(Call(argv, lambda rep, count=count:
                          checks.check_corpus_report(rep, count)))
    return calls


# ---------------------------------------------------------------------------
# direct-sum: `stanley verify-sum --pivot all --degree-cap 6`
# ---------------------------------------------------------------------------

# (n, s, ideals per round).  An item is one pivot; its cost grows with the
# C(n+6, 6) monomials and the 2^s component subsets, so every ideal of a
# stratum has exactly s components.  In a general corpus s varies from 1 to
# 10 and a 25 s run's throughput moves by 7-27% from one seed to the next.
DIRECT_SUM_STRATA = ((3, 3, 12), (4, 3, 8), (4, 4, 10))
DIRECT_SUM_MAX_EXPONENT = 3
DEGREE_CAP = 6


def _contains(big: dict, small: dict) -> bool:
    """Irreducible ideal small lies inside big: each power of small is in big."""
    return all(i in big and big[i] <= e for i, e in small.items())


def ideal_from_components(comps: list, n: int) -> list:
    """Minimal generators of the intersection of irreducible components."""
    cands = set()
    for choice in itertools.product(*[sorted(c.items()) for c in comps]):
        m = [0] * n
        for i, e in choice:
            m[i] = max(m[i], e)
        cands.add(tuple(m))
    gens = [g for g in cands
            if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in cands)]
    return sorted(gens)


def random_components(rng: SplitMix64, n: int, s: int) -> list:
    """s irreducible components, none inside another, hence irredundant."""
    while True:
        comps = []
        for _ in range(s):
            support = [i for i in range(n) if rng.randint(0, 1)] or [rng.randint(0, n - 1)]
            comps.append({i: rng.randint(1, DIRECT_SUM_MAX_EXPONENT) for i in support})
        if not any(_contains(a, b) for a, b in itertools.permutations(comps, 2)):
            return comps


def _check_direct_sum(report: dict, s: int) -> list:
    problems = checks.check_verify_sum_report(report)
    if report["s"] != s:
        problems.append(f"{report['s']} components, built from {s}")
    return problems


def direct_sum_round(seed: int, k: int) -> list:
    rng = round_rng(seed, k)
    calls = []
    for n, s, count in DIRECT_SUM_STRATA:
        for _ in range(count):
            gens = ideal_from_components(random_components(rng, n, s), n)
            argv = ("verify-sum", render_ideal(gens), "--ring", str(n),
                    "--pivot", "all", "--degree-cap", str(DEGREE_CAP))
            calls.append(Call(argv, lambda rep, s=s: _check_direct_sum(rep, s)))
    return calls


# ---------------------------------------------------------------------------
# deep-sdepth: `stanley sdepth` on ideals with a closed-form Stanley depth
# ---------------------------------------------------------------------------

VERONESE_N = range(2, 7)
COMPLETE_INTERSECTIONS = 200
MODULES = ("ideal", "quotient")


def veronese(n: int, d: int) -> list:
    """Generators of I_{n,d}, all squarefree monomials of degree d."""
    return [tuple(1 if i in c else 0 for i in range(n))
            for c in itertools.combinations(range(n), d)]


def complete_intersection(rng: SplitMix64) -> tuple:
    """(n, m, gens): m monomials on pairwise disjoint sets of variables.

    Squares only for n <= 4, which keeps each poset under 50 points: the
    complete intersections are the many small items, the Veronese ideals of
    six variables the few large ones.
    """
    n = rng.randint(2, 5)
    m = rng.randint(1, n)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        order[i], order[j] = order[j], order[i]
    used = rng.randint(m, n)
    cuts = sorted(rng.randint(1, used - 1) for _ in range(m - 1)) if m > 1 else []
    # distinct cut points make nonempty blocks; redraw ties
    while len(set(cuts)) != len(cuts):
        cuts = sorted(rng.randint(1, used - 1) for _ in range(m - 1))
    max_exp = 2 if n <= 4 else 1
    gens = []
    for lo, hi in zip([0] + cuts, cuts + [used]):
        g = [0] * n
        for i in order[lo:hi]:
            g[i] = rng.randint(1, max_exp)
        gens.append(tuple(g))
    return n, m, sorted(gens)


def _sdepth_call(gens: list, n: int, module: str, expected: int) -> Call:
    argv = ("sdepth", render_ideal(gens), "--ring", str(n), "--module", module)
    return Call(argv, lambda rep: checks.check_sdepth_report(rep, gens, n, module, expected))


def deep_sdepth_round(seed: int, k: int) -> list:
    calls = [_sdepth_call(veronese(n, d), n, module, checks.veronese_sdepth(n, d, module))
             for n in VERONESE_N for d in range(1, n + 1) for module in MODULES]
    rng = round_rng(seed, k)
    # the sdepth cache would answer a repeated ideal for free: I_{n,1} and
    # I_{n,n} are complete intersections too
    seen = {(n, tuple(sorted(veronese(n, d)))) for n in VERONESE_N for d in range(1, n + 1)}
    wanted = len(seen) + COMPLETE_INTERSECTIONS
    while len(seen) < wanted:
        n, m, gens = complete_intersection(rng)
        if (n, tuple(gens)) in seen:
            continue
        seen.add((n, tuple(gens)))
        calls += [_sdepth_call(gens, n, module,
                               checks.complete_intersection_sdepth(n, m, module))
                  for module in MODULES]
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    item: str                       # the stanley.cli name whose calls are items
    make_round: Callable[[int, int], list]
    setups_per_round: int


WORKLOADS = {
    "corpus-check": Workload("corpus-check", "check_size_inequality", corpus_round, 1),
    "direct-sum": Workload("direct-sum", "verify_direct_sum", direct_sum_round, 2),
    "deep-sdepth": Workload("deep-sdepth", "sdepth_module", deep_sdepth_round, 3),
}
