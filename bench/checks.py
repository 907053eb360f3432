"""Independent checks of the `stanley` verbs' JSON reports.

Nothing here imports the package under test.  Ideals are lists of exponent
tuples, membership is plain divisibility, and every search is exhaustive,
so a fault in the program's arithmetic cannot hide in its own check.
Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import re
from math import comb

_POWER = re.compile(r"x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, n: int) -> tuple:
    """Exponent tuple of a rendered monomial such as 'x1^2*x3' or '1'."""
    exps = [0] * n
    if text.strip() == "1":
        return tuple(exps)
    for factor in text.split("*"):
        m = _POWER.match(factor.strip())
        if m is None:
            raise ValueError(f"not a power of a variable: {factor!r}")
        i = int(m.group(1)) - 1
        if not 0 <= i < n:
            raise ValueError(f"variable x{i + 1} outside a ring of {n}")
        exps[i] += int(m.group(2) or 1)
    return tuple(exps)


def parse_ideal(text: str, n: int) -> list:
    """Generators of a rendered ideal; '0' is the zero ideal."""
    if text.strip() == "0":
        return []
    return [parse_monomial(part, n) for part in text.split(",")]


def parse_component(powers: list, n: int) -> dict:
    """A component rendered as pure powers, as {variable: exponent}."""
    out = {}
    for text in powers:
        m = parse_monomial(text, n)
        (i,) = [k for k, e in enumerate(m) if e]
        out[i] = m[i]
    return out


def member(a: tuple, gens: list) -> bool:
    """a lies in the ideal generated by gens."""
    return any(all(g_i <= a_i for g_i, a_i in zip(g, a)) for g in gens)


def in_component(a: tuple, comp: dict) -> bool:
    return any(a[i] >= e for i, e in comp.items())


def box(caps) -> itertools.product:
    return itertools.product(*[range(c + 1) for c in caps])


def cap_vector(gens: list, n: int) -> tuple:
    """Largest exponent of each variable among gens, at least 1."""
    return tuple(max([1] + [g[i] for g in gens]) for i in range(n))


# ---------------------------------------------------------------------------
# decomposition, size and the containment hypothesis
# ---------------------------------------------------------------------------

def check_decomposition(gens: list, comps: list, n: int) -> list:
    """I equals the intersection of comps, and no component is redundant.

    Two monomial ideals whose generators all lie in a box agree everywhere
    once they agree on that box, so the box of largest exponents decides.
    """
    caps = [max([1] + [g[i] for g in gens] + [c.get(i, 0) for c in comps])
            for i in range(n)]
    problems = []
    redundant = [True] * len(comps)
    for a in box(caps):
        inside = [in_component(a, c) for c in comps]
        if member(a, gens) != all(inside):
            problems.append(f"components disagree with I at {a}")
            break
        if inside.count(False) == 1:
            redundant[inside.index(False)] = False
    if not problems and len(comps) > 1:
        problems += [f"component Q{j + 1} is redundant"
                     for j, r in enumerate(redundant) if r]
    return problems


def brute_force_size(comps: list, n: int) -> tuple:
    """(h, v, size) by trying every set of components as a cover."""
    supports = [frozenset(c) for c in comps]
    union = frozenset().union(*supports)
    for v in range(1, len(comps) + 1):
        for combo in itertools.combinations(supports, v):
            if frozenset().union(*combo) == union:
                return len(union), v, v + n - len(union) - 1
    raise ValueError("no components")


def hypothesis_holds(comps: list) -> bool:
    """Whenever supports of other components cover supp Q_i, Q_i lies in their sum."""
    for i, qi in enumerate(comps):
        others = [c for j, c in enumerate(comps) if j != i]
        for t in range(1, len(others) + 1):
            for subset in itertools.combinations(others, t):
                if not set(qi) <= set().union(*subset):
                    continue
                # Q_i is inside the sum iff each of its powers is a multiple of
                # a power of the same variable in the subset
                if not all(any(k in c and c[k] <= a for c in subset)
                           for k, a in qi.items()):
                    return False
    return True


# ---------------------------------------------------------------------------
# interval partitions
# ---------------------------------------------------------------------------

def poset(gens: list, n: int, module: str) -> tuple:
    """Cap vector and points of S/I ('quotient') or of I ('ideal')."""
    g = cap_vector(gens, n)
    if module == "quotient":
        points = [a for a in box(g) if not member(a, gens)]
    else:
        points = [a for a in box(g) if member(a, gens)]
    return g, points


def dimension(upper: tuple, g: tuple) -> int:
    return sum(1 for b, c in zip(upper, g) if b == c)


def interval_points(lower: tuple, upper: tuple) -> list:
    return list(itertools.product(*[range(a, b + 1) for a, b in zip(lower, upper)]))


def check_partition(points: list, g: tuple, intervals: list, value: int) -> list:
    """Disjoint intervals covering the poset exactly, each of dimension >= value."""
    pointset = set(points)
    covered = set()
    problems = []
    for lower, upper in intervals:
        lower, upper = tuple(lower), tuple(upper)
        if not all(a <= b for a, b in zip(lower, upper)):
            problems.append(f"[{lower}, {upper}] is empty")
            continue
        if dimension(upper, g) < value:
            problems.append(f"[{lower}, {upper}] has dimension below {value}")
        for c in interval_points(lower, upper):
            if c not in pointset:
                problems.append(f"[{lower}, {upper}] leaves the poset at {c}")
                break
            if c in covered:
                problems.append(f"[{lower}, {upper}] overlaps at {c}")
                break
            covered.add(c)
    if covered != pointset and not problems:
        problems.append(f"{len(pointset - covered)} points are not covered")
    return problems


def exhaustive_sdepth(points: list, g: tuple) -> int:
    """Largest d with a partition into intervals of dimension >= d.

    Tries every interval inside the poset that holds the least uncovered
    point; slow, meant for posets of a dozen points.
    """
    pointset = frozenset(points)
    intervals = []
    for a in points:
        for b in points:
            if all(x <= y for x, y in zip(a, b)):
                pts = frozenset(interval_points(a, b))
                if pts <= pointset:
                    intervals.append((pts, dimension(b, g)))

    def partition(uncovered: frozenset, d: int) -> bool:
        if not uncovered:
            return True
        least = min(uncovered)
        return any(partition(uncovered - pts, d) for pts, dim in intervals
                   if dim >= d and least in pts and pts <= uncovered)

    return max(d for d in range(len(g) + 1) if partition(pointset, d))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def veronese_sdepth(n: int, d: int, module: str) -> int:
    """Squarefree Veronese I_{n,d}: Keller, Shen, Streib and Young."""
    return (n - d) // (d + 1) + d if module == "ideal" else d - 1


def complete_intersection_sdepth(n: int, m: int, module: str) -> int:
    """m monomials with pairwise disjoint supports in n variables (Shen)."""
    return n - m // 2 if module == "ideal" else n - m


# ---------------------------------------------------------------------------
# one check per verb report
# ---------------------------------------------------------------------------

EXHAUSTIVE_POINTS = 12


def check_corpus_report(report: dict, count: int) -> list:
    """Every ideal of a `stanley corpus` report, as the benchmark requires."""
    results = report["results"]
    problems = []
    if len(results) != count:
        problems.append(f"{len(results)} results for {count} ideals")
    for k, r in enumerate(results):
        n = r["n"]
        gens = parse_ideal(r["ideal"], n)
        comps = [parse_component(c, n) for c in r["decomposition"]]
        where = f"[{k}] {r['ideal']}: "
        wrong = check_decomposition(gens, comps, n)
        if wrong:
            # size and the hypothesis are read off the components
            problems += [where + p for p in wrong]
            continue
        h, v, sz = brute_force_size(comps, n)
        if (r["size"]["h"], r["size"]["v"], r["size"]["size"]) != (h, v, sz):
            problems.append(where + f"size {r['size']} is not (h={h}, v={v}, size={sz})")
        sd = r["sdepth_exact"]
        if sd < r["bound"]["value"]:
            problems.append(where + f"sdepth {sd} below the bound {r['bound']['value']}")
        hyp = hypothesis_holds(comps)
        if hyp != r["hypothesis"]["satisfied"]:
            problems.append(where + f"hypothesis reported {not hyp}, is {hyp}")
        if hyp and sd < sz:
            problems.append(where + f"sdepth {sd} below size {sz} under the hypothesis")
        g, points = poset(gens, n, "quotient")
        if len(points) <= EXHAUSTIVE_POINTS and sd != exhaustive_sdepth(points, g):
            problems.append(where + f"sdepth {sd}, exhaustive search finds "
                            f"{exhaustive_sdepth(points, g)}")
    return problems


def check_verify_sum_report(report: dict) -> list:
    """Every pivot reports ok on all monomials up to the degree cap."""
    # every monomial of degree at most the cap
    want = comb(report["n"] + report["degree_cap"], report["degree_cap"])
    pivots = [r["pivot"] for r in report["results"]]
    problems = []
    if pivots != list(range(1, report["s"] + 1)):
        problems.append(f"pivots {pivots} for s = {report['s']}")
    for r in report["results"]:
        if not r["ok"] or r["violations"]:
            problems.append(f"pivot {r['pivot']}: {len(r['violations'])} violations")
        if r["checked"] != want:
            problems.append(f"pivot {r['pivot']}: checked {r['checked']}, not {want}")
    return problems


def check_sdepth_report(report: dict, gens: list, n: int, module: str,
                        expected: int) -> list:
    """Value equals its closed form and the witness partitions the poset."""
    g, points = poset(gens, n, module)
    problems = []
    if report["n"] != n or report["module"] != module:
        problems.append(f"report is for n={report['n']} {report['module']}")
    if report["sdepth"] != expected:
        problems.append(f"sdepth {report['sdepth']}, closed form {expected}")
    if tuple(report["g"]) != g:
        problems.append(f"cap vector {report['g']}, not {list(g)}")
    intervals = [(iv["lower"], iv["upper"]) for iv in report["intervals"]]
    problems += check_partition(points, g, intervals, expected)
    return problems
