"""The exact depth search against naive interval-partition enumeration."""

import itertools
import time

import pytest
from hypothesis import given, assume
import hypothesis.strategies as st

from stanley import (DomainError, MonomialIdeal, ResourceLimitError, RingCtx,
                     RingMismatchError, cap_vector, characteristic_points,
                     clear_cache, parse_ideal, sdepth_ideal, sdepth_module,
                     sdepth_quotient)
from stanley.sdepth import _counting_bound, _search_partition

import oracles
from conftest import ideal_pairs, ideals

R3 = RingCtx(3)


def quotient_points(I):
    U = MonomialIdeal.unit(I.ring)
    g = cap_vector(I, U)
    return characteristic_points(I, U, g), g


def test_worked_example():
    I = parse_ideal("x1^2, x2*x3", R3)
    pts, g = quotient_points(I)
    assert g == (2, 1, 1)
    assert pts == ((0, 0, 0), (0, 0, 1), (0, 1, 0),
                   (1, 0, 0), (1, 0, 1), (1, 1, 0))
    assert sdepth_quotient(I) == 1


def test_polarized_worked_example():
    I = parse_ideal("x1^2, x2*x3", R3)
    P, added = I.polarize()
    assert sdepth_quotient(P) == sdepth_quotient(I) + added == 2


def test_known_values():
    # the maximal ideal leaves only the origin
    M = MonomialIdeal(R3, [R3.variable(i) for i in range(3)])
    assert sdepth_quotient(M) == 0
    assert sdepth_ideal(MonomialIdeal(RingCtx(2), [(1, 0), (0, 1)])) == 1
    # a principal ideal is free of rank one
    assert sdepth_ideal(MonomialIdeal(RingCtx(2), [(2, 0)])) == 2
    assert sdepth_quotient(MonomialIdeal(RingCtx(1), [(3,)])) == 0
    assert sdepth_quotient(parse_ideal("x1*x2", RingCtx(2))) == 1


def test_pure_power_quotients():
    for n in range(1, 5):
        ring = RingCtx(n)
        for r in range(1, n + 1):
            I = MonomialIdeal(ring, [ring.variable(i, 1 + (i % 3)) for i in range(r)])
            assert sdepth_quotient(I) == n - r


def test_witness_structure():
    I = parse_ideal("x2^2, x1*x2, x1^3", R3)
    result = sdepth_module(I, MonomialIdeal.unit(R3))
    pts, g = quotient_points(I)
    covered = set()
    for iv in result.intervals:
        assert iv.dim >= result.value
        assert iv.dim == sum(1 for b, cap in zip(iv.upper, g) if b == cap)
        for off in oracles.box(tuple(u - l for l, u in zip(iv.lower, iv.upper))):
            q = tuple(l + e for l, e in zip(iv.lower, off))
            assert q not in covered
            covered.add(q)
    assert covered == set(pts)
    assert min(iv.dim for iv in result.intervals) == result.value


@given(ideals(n_max=3, gens_max=3, exp_max=2))
def test_quotient_agrees_with_enumeration(I):
    pts, g = quotient_points(I)
    assume(len(pts) <= 14)
    assert sdepth_quotient(I) == oracles.naive_sdepth(pts, g)


@given(ideals(n_max=3, gens_max=2, exp_max=2))
def test_ideal_agrees_with_enumeration(I):
    Z = MonomialIdeal.zero(I.ring)
    g = cap_vector(Z, I)
    pts = characteristic_points(Z, I, g)
    assume(len(pts) <= 14)
    assert sdepth_ideal(I) == oracles.naive_sdepth(pts, g)


@given(ideal_pairs(n_max=3, gens_max=2, exp_max=2))
def test_module_pairs_agree_with_enumeration(pair):
    I, J = pair
    I = I.intersect(J)
    assume(I != J)
    g = cap_vector(I, J)
    pts = characteristic_points(I, J, g)
    assume(0 < len(pts) <= 12)
    assert sdepth_module(I, J).value == oracles.naive_sdepth(pts, g)


@given(ideals(n_max=4, gens_max=3, exp_max=2))
def test_nonzero_ideal_depth_positive(I):
    assert sdepth_ideal(I) >= 1


def test_characteristic_points_validation():
    I = parse_ideal("x1^2, x2*x3", R3)
    U = MonomialIdeal.unit(R3)
    with pytest.raises(DomainError):
        characteristic_points(U, I, (2, 1, 1))   # not contained
    with pytest.raises(DomainError):
        characteristic_points(I, U, (1, 1, 1))   # cap below a generator
    with pytest.raises(DomainError):
        characteristic_points(I, U, (2, 1, 0))   # caps must be positive
    with pytest.raises(RingMismatchError):
        sdepth_module(MonomialIdeal.zero(RingCtx(2)), U)


def test_zero_module_rejected():
    I = parse_ideal("x1", R3)
    with pytest.raises(DomainError):
        sdepth_module(I, I)


def test_resource_contracts():
    # limits guard fresh work, so drop any cached results first
    clear_cache()
    I = parse_ideal("x1^2, x2*x3", R3)
    with pytest.raises(ResourceLimitError):
        sdepth_quotient(I, cap_points=3)
    with pytest.raises(ResourceLimitError):
        sdepth_quotient(I, deadline=time.monotonic() - 1)
    big = MonomialIdeal(RingCtx(4), [(60, 60, 60, 60)])
    with pytest.raises(ResourceLimitError):
        sdepth_quotient(big)


def test_cache_round_trip():
    clear_cache()
    I = parse_ideal("x1*x2, x2*x3", R3)
    first = sdepth_module(I, MonomialIdeal.unit(R3))
    again = sdepth_module(I, MonomialIdeal.unit(R3))
    assert first is again
    clear_cache()
    fresh = sdepth_module(I, MonomialIdeal.unit(R3))
    assert fresh is not first
    assert fresh.value == first.value


@st.composite
def squarefree_pairs(draw, n_max=5, gens_max=4):
    """(I, J) squarefree with I inside J: an ideal, a quotient or a general pair."""
    n = draw(st.integers(1, n_max))
    ring = RingCtx(n)
    gens = st.lists(st.tuples(*[st.integers(0, 1)] * n).filter(any),
                    min_size=1, max_size=gens_max)
    A = MonomialIdeal(ring, draw(gens))
    kind = draw(st.sampled_from(["ideal", "quotient", "general"]))
    if kind == "ideal":
        return MonomialIdeal.zero(ring), A
    if kind == "quotient":
        return A, MonomialIdeal.unit(ring)
    J = MonomialIdeal(ring, draw(gens))
    return A.intersect(J), J


@given(squarefree_pairs())
def test_counting_bound_is_sound(pair):
    I, J = pair
    assume(I != J)
    g = cap_vector(I, J)
    assert set(g) == {1}
    pts = characteristic_points(I, J, g)
    u = _counting_bound(pts, g)
    if len(pts) <= 12:
        assert u >= oracles.naive_sdepth(pts, g)
    if u < len(g):
        # the search confirms every depth the bound rules out
        assert _search_partition(pts, g, u + 1, None) is None


def squarefree_ideal(n, supports):
    return MonomialIdeal(RingCtx(n), [tuple(1 if i in c else 0 for i in range(n))
                                      for c in supports])


@pytest.mark.parametrize("n", range(2, 7))
def test_squarefree_veronese_closed_forms(n):
    # Keller, Shen, Streib and Young for the ideal; d = 1 is the maximal
    # ideal, of depth ceil(n/2) (Biro et al.)
    for d in range(1, n + 1):
        I = squarefree_ideal(n, itertools.combinations(range(n), d))
        assert sdepth_ideal(I) == (n - d) // (d + 1) + d
        assert sdepth_quotient(I) == d - 1


@pytest.mark.parametrize("n", range(2, 7))
def test_complete_intersection_closed_forms(n):
    # m monomials on disjoint supports (Shen): singletons x1..x_{m-1} and
    # one last block ending at x_used
    for m in range(1, n + 1):
        for used in sorted({m, n}):
            blocks = [[i] for i in range(m - 1)] + [list(range(m - 1, used))]
            I = squarefree_ideal(n, blocks)
            assert sdepth_ideal(I) == n - m // 2
            assert sdepth_quotient(I) == n - m
