"""Acceptance gate: eight end-to-end checks with frozen time budgets.

Every check is exact-integer, no tolerances.  Each test prints one
PASS/FAIL line and feeds the terminal summary in conftest; a FAIL there
is a real failure, never to be patched around by loosening the check.
"""

import itertools
import time

from stanley import (CorpusSpec, MonomialIdeal, RingCtx, SplitMix64,
                     build_split, clear_cache, decompose, generate_corpus,
                     hypothesis_check, parse_ideal, sdepth_ideal,
                     sdepth_lower_bound, sdepth_module, sdepth_quotient, size,
                     verify_direct_sum)

import oracles
from conftest import record


def _verdict(number, description, t0, budget, violations):
    elapsed = time.monotonic() - t0
    in_budget = budget is None or elapsed < budget
    ok = not violations and in_budget
    record(number, description, ok, elapsed, budget)
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: "
          f"{description} ({elapsed:.2f}s)")
    assert ok, (f"{description}: {len(violations)} violations "
                f"{violations[:5]}, elapsed {elapsed:.2f}s, budget {budget}")


def _corpus(seed, count, family="general", n=(2, 4), gens=(2, 4),
            max_exponent=3, accept=None):
    spec = CorpusSpec(seed=seed, count=count, family=family, n_range=n,
                      gens_range=gens, max_exponent=max_exponent)
    return generate_corpus(spec, accept=accept)


def test_acceptance_1_worked_example():
    clear_cache()
    t0 = time.monotonic()
    bad = []
    R = RingCtx(3)
    I = parse_ideal("x1^2, x2*x3", R)
    if size(I).size != 1:
        bad.append(("size", size(I).size))
    if not hypothesis_check(decompose(I)).satisfied:
        bad.append(("hypothesis", False))
    if sdepth_lower_bound(I).value < 1:
        bad.append(("bound", sdepth_lower_bound(I).value))
    sd = sdepth_quotient(I)
    if sd < 1:
        bad.append(("sdepth", sd))
    P, added = I.polarize()
    want = MonomialIdeal(RingCtx(4), [(1, 0, 0, 1), (0, 1, 1, 0)])
    if P != want or added != 1:
        bad.append(("polarized", P.render(), added))
    if size(P).size != 1:
        bad.append(("polarized size", size(P).size))
    if sd != sdepth_quotient(P) - added:
        bad.append(("polarized sdepth", sdepth_quotient(P), added))
    _verdict(1, "worked example reproduction", t0, 1.0, bad)


def test_acceptance_2_pure_powers():
    clear_cache()
    t0 = time.monotonic()
    bad = []
    cases = 0
    # supports and exponent multisets are canonical: both the quotient and
    # its Stanley depth are invariant under permuting variables
    for n in range(1, 6):
        ring = RingCtx(n)
        for r in range(1, n + 1):
            for exps in itertools.combinations_with_replacement((1, 2, 3), r):
                I = MonomialIdeal(
                    ring, [ring.variable(i, e) for i, e in enumerate(exps)])
                cases += 1
                got = sdepth_quotient(I)
                if got != n - r:
                    bad.append((n, exps, got))
    if cases != 120:
        bad.append(("case count", cases))
    _verdict(2, "pure power quotient identity", t0, 30.0, bad)


def test_acceptance_3_bound_soundness():
    clear_cache()
    t0 = time.monotonic()
    bad = []
    ideals = _corpus(101, 200, accept=lambda I: decompose(I).s <= 4)
    for k, I in enumerate(ideals):
        sd = sdepth_quotient(I)
        for pb in sdepth_lower_bound(I).per_pivot:
            if sd < pb.value:
                bad.append((k, I.render(), pb.pivot, pb.value, sd))
    _verdict(3, "lower bound soundness on random ideals", t0, 600.0, bad)


def test_acceptance_4_size_inequality():
    clear_cache()
    t0 = time.monotonic()
    bad = []
    pool = (_corpus(202, 200, family="squarefree", n=(2, 5))
            + _corpus(303, 100, family="hypothesis-satisfying"))
    for k, I in enumerate(pool):
        sd = sdepth_quotient(I)
        sz = size(I).size
        if sd < sz:
            bad.append((k, I.render(), sz, sd))
    _verdict(4, "size inequality on covered families", t0, 600.0, bad)


def test_acceptance_5_direct_sum():
    t0 = time.monotonic()
    bad = []
    for k, I in enumerate(_corpus(404, 50)):
        D = decompose(I)
        for p in range(D.s):
            rep = verify_direct_sum(build_split(D, p), degree_cap=6)
            if not rep.ok:
                bad.append((k, I.render(), p, rep.violations[:3]))
    _verdict(5, "direct sum classification", t0, 300.0, bad)


def test_acceptance_6_two_block_inequality():
    clear_cache()
    t0 = time.monotonic()
    bad = []
    rng = SplitMix64(606)
    instances = 0
    attempts = 0

    def draw_ideal(ring, k_max=3, exp_max=2):
        k = rng.randint(1, k_max)
        gens = []
        for _ in range(k):
            m = tuple(rng.below(exp_max + 1) for _ in range(ring.n))
            gens.append(m if any(m) else ring.variable(rng.below(ring.n)))
        return MonomialIdeal(ring, gens)

    while instances < 50:
        attempts += 1
        assert attempts < 5000, "instance family too thin"
        n1, n2, t = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 1)
        ring = RingCtx(n1 + n2 + t)
        I = draw_ideal(ring)
        J = draw_ideal(ring)
        w = tuple(rng.below(3) for _ in range(ring.n))
        if J.contains(w):
            continue
        block1 = frozenset(range(n1))
        block2 = frozenset(range(n1, n1 + n2))
        A = I.colon(w).restrict(block1)
        if A.is_zero:
            continue
        B = J.colon(w).restrict(block2)
        inner = RingCtx(n1 + n2)
        A3 = MonomialIdeal(inner, [g + (0,) * n2 for g in A.gens])
        B3 = MonomialIdeal(inner, [(0,) * n1 + g for g in B.gens])
        sub = A3.intersect(B3)
        if sub == A3:
            continue
        lhs = sdepth_module(sub, A3).value
        rhs = sdepth_ideal(A) + sdepth_quotient(B)
        instances += 1
        if lhs < rhs:
            bad.append((I.render(), J.render(), w, lhs, rhs))
    _verdict(6, "two block module inequality", t0, 300.0, bad)


def test_acceptance_7_round_trip():
    t0 = time.monotonic()
    bad = []
    pool = (_corpus(101, 200, accept=lambda I: decompose(I).s <= 4)
            + _corpus(202, 200, family="squarefree", n=(2, 5))
            + _corpus(303, 100, family="hypothesis-satisfying")
            + _corpus(404, 50)
            + _corpus(505, 120, n=(2, 3), gens=(1, 3), max_exponent=2))
    for k, I in enumerate(pool):
        D = decompose(I)
        if D.intersection() != I:
            bad.append((k, I.render(), "round trip"))
        shuffled = MonomialIdeal(I.ring, list(reversed(I.gens)))
        if decompose(shuffled).components != D.components:
            bad.append((k, I.render(), "permutation"))
    _verdict(7, "decomposition round trip and permutation invariance",
             t0, None, bad)


def test_acceptance_8_oracle_agreement():
    clear_cache()
    t0 = time.monotonic()
    bad = []
    compared = 0
    from stanley import cap_vector, characteristic_points
    for I in _corpus(505, 120, n=(2, 3), gens=(1, 3), max_exponent=2):
        ring = I.ring
        for pair in ((I, MonomialIdeal.unit(ring)),
                     (MonomialIdeal.zero(ring), I)):
            g = cap_vector(*pair)
            points = characteristic_points(*pair, g)
            if not 0 < len(points) <= 12:
                continue
            compared += 1
            got = sdepth_module(*pair).value
            want = oracles.naive_sdepth(points, g)
            if got != want:
                bad.append((I.render(), len(points), got, want))
    if compared < 60:
        bad.append(("too few comparisons", compared))
    _verdict(8, "search agrees with naive enumeration", t0, 120.0, bad)
