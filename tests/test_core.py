"""Monomial and ideal arithmetic against brute-force enumeration."""

import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

from stanley import (EXPONENT_CAP, VARIABLE_CAP, DomainError, ExponentCapError,
                     MonomialIdeal, RingCtx, RingMismatchError, divides, lcm,
                     monomials_up_to_degree, mul, polarization_parents,
                     quotient, render_monomial, restrict_exponents,
                     squarefree_part, support, total_degree)

import oracles
from conftest import ideal_pairs, ideals, monomials

R3 = RingCtx(3)


def test_ring_basics():
    assert R3.var_names == ("x1", "x2", "x3")
    assert R3.one() == (0, 0, 0)
    assert R3.variable(1, 4) == (0, 4, 0)
    assert R3.all_vars() == frozenset({0, 1, 2})
    with pytest.raises(DomainError):
        R3.variable(3)
    with pytest.raises(DomainError):
        RingCtx(-1)
    with pytest.raises(DomainError):
        RingCtx(2, var_names=("a",))
    with pytest.raises(DomainError):
        RingCtx(VARIABLE_CAP + 1)
    assert RingCtx(VARIABLE_CAP).n == VARIABLE_CAP


def test_zero_variable_ring():
    R0 = RingCtx(0)
    assert MonomialIdeal.unit(R0).gens == ((),)
    assert MonomialIdeal.zero(R0).gens == ()


def test_monomial_helpers():
    a, b = (2, 0, 1), (1, 1, 0)
    assert not divides(a, b) and not divides(b, a)
    assert divides((1, 0, 0), a)
    assert lcm(a, b) == (2, 1, 1)
    assert mul(a, b) == (3, 1, 1)
    assert quotient(a, b) == (1, 0, 1)
    assert quotient(b, a) == (0, 1, 0)
    assert support(a) == frozenset({0, 2})
    assert total_degree(a) == 3
    assert squarefree_part(a) == (1, 0, 1)
    assert restrict_exponents(a, frozenset({0})) == (2, 0, 0)
    with pytest.raises(RingMismatchError):
        divides((1, 0), a)


def test_monomials_up_to_degree_count():
    # all monomials of degree <= d in n variables: C(n + d, n)
    assert len(list(monomials_up_to_degree(3, 6))) == 84
    assert len(list(monomials_up_to_degree(2, 3))) == 10
    assert list(monomials_up_to_degree(1, 2)) == [(0,), (1,), (2,)]


def test_monomials_up_to_degree_order():
    for n in range(6):
        for d in range(7):
            want = sorted(m for m in itertools.product(range(d + 1), repeat=n)
                          if sum(m) <= d)
            assert list(monomials_up_to_degree(n, d)) == want


def test_canonical_generators():
    I = MonomialIdeal(R3, [(1, 1, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0)])
    # divisible and duplicate generators drop, the rest sort lexicographically
    assert I.gens == ((1, 1, 0), (2, 0, 0))
    assert MonomialIdeal(R3, [(0, 0, 0), (1, 0, 0)]).is_unit
    assert MonomialIdeal(R3, []).is_zero
    assert not MonomialIdeal(R3, [(1, 0, 0)]).is_unit


def test_generator_validation():
    with pytest.raises(RingMismatchError):
        MonomialIdeal(R3, [(1, 0)])
    with pytest.raises(DomainError):
        MonomialIdeal(R3, [(-1, 0, 0)])
    with pytest.raises(ExponentCapError):
        MonomialIdeal(R3, [(EXPONENT_CAP + 1, 0, 0)])


def test_membership_and_inclusion():
    I = MonomialIdeal(R3, [(2, 0, 0), (0, 1, 1)])
    assert I.contains((2, 5, 0))
    assert not I.contains((1, 1, 0))
    assert I.includes(MonomialIdeal(R3, [(3, 0, 0)]))
    assert not I.includes(MonomialIdeal(R3, [(1, 0, 0)]))
    assert MonomialIdeal.unit(R3).includes(I)
    assert I.includes(MonomialIdeal.zero(R3))
    with pytest.raises(RingMismatchError):
        I.contains((2, 5))


@given(ideals(n_max=4, gens_max=4, exp_max=3))
def test_membership_matches_oracle(I):
    for m in oracles.box((4,) * I.ring.n):
        assert I.contains(m) == oracles.member(m, I.gens)


@given(ideal_pairs())
def test_sum_matches_union_of_members(pair):
    I, J = pair
    caps = (4,) * I.ring.n
    want = oracles.members_within(I.gens, caps) | oracles.members_within(J.gens, caps)
    assert oracles.members_within(I.sum(J).gens, caps) == want


@given(ideal_pairs())
def test_intersect_matches_common_members(pair):
    I, J = pair
    caps = (4,) * I.ring.n
    want = oracles.members_within(I.gens, caps) & oracles.members_within(J.gens, caps)
    assert oracles.members_within(I.intersect(J).gens, caps) == want


@given(ideals(), monomials(3, exp_max=2))
def test_colon_matches_shifted_membership(I, w):
    w = w[:I.ring.n]
    caps = (4,) * I.ring.n
    got = oracles.members_within(I.colon(w).gens, caps)
    want = {m for m in oracles.box(caps) if oracles.member(mul(m, w), I.gens)}
    assert got == want


@given(ideals())
def test_radical_matches_power_membership(I):
    caps = (3,) * I.ring.n
    got = oracles.members_within(I.radical().gens, caps)
    assert got == oracles.radical_members_within(I.gens, caps)


@given(ideals())
def test_radical_idempotent(I):
    r = I.radical()
    assert r.radical() == r
    assert r.is_squarefree()


@given(ideals(), st.data())
def test_restrict_is_subring_intersection(I, data):
    # I.restrict(V) is I meet K[V] over the dense ring K[V]: put back into
    # S, its members are exactly the members of I supported in V.
    n = I.ring.n
    V = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    order = sorted(V)
    R = I.restrict(V)
    assert R.ring.var_names == tuple(I.ring.var_names[i] for i in order)
    got = set()
    for m in oracles.members_within(R.gens, (4,) * len(order)):
        full = [0] * n
        for i, e in zip(order, m):
            full[i] = e
        got.add(tuple(full))
    want = {m for m in oracles.members_within(I.gens, (4,) * n)
            if support(m) <= V}
    assert got == want


def test_restrict_known_case():
    # I = (x1) in K[x1, x2], V = {x1}: the restriction is (x1) in K[x1]; the
    # multiple x1*x2 of I lies outside K[V] and has no counterpart there.
    R = MonomialIdeal(RingCtx(2), [(1, 0)]).restrict(frozenset({0}))
    assert R.ring == RingCtx(1)
    assert R.gens == ((1,),)
    # dense re-index onto the kept variables, which keep their names
    I = MonomialIdeal(R3, [(0, 2, 0), (0, 1, 1)])
    small = I.restrict(frozenset({1, 2}))
    assert small.ring.var_names == ("x2", "x3")
    assert small.gens == ((1, 1), (2, 0))
    assert small.render() == "x2*x3, x2^2"
    assert I.restrict(frozenset({0})).is_zero
    assert I.restrict(frozenset()).ring.n == 0
    with pytest.raises(DomainError):
        I.restrict(frozenset({3}))


def test_render():
    assert render_monomial((0, 0, 0), R3) == "1"
    assert render_monomial((1, 0, 3), R3) == "x1*x3^3"
    assert MonomialIdeal.zero(R3).render() == "0"
    assert MonomialIdeal.unit(R3).render() == "1"


def test_polarize_known_case():
    I = MonomialIdeal(RingCtx(2), [(3, 0), (1, 2)])
    P, added = I.polarize()
    assert added == 3
    assert P.ring.n == 5
    # x1^3 -> x1*x3*x4, x1*x2^2 -> x1*x2*x5
    assert P.gens == ((1, 0, 1, 1, 0), (1, 1, 0, 0, 1))
    assert P.is_squarefree()
    assert polarization_parents(I) == (0, 0, 1)


@given(ideals(exp_max=3))
def test_polarize_substitutes_back(I):
    P, added = I.polarize()
    assert P.is_squarefree()
    n = I.ring.n
    parents = polarization_parents(I)
    assert len(parents) == added
    back = []
    for gp in P.gens:
        m = list(gp[:n])
        for k, e in enumerate(gp[n:]):
            m[parents[k]] += e
        back.append(tuple(m))
    assert MonomialIdeal(I.ring, back) == I


def test_squarefree_polarize_is_identity_like():
    I = MonomialIdeal(R3, [(1, 1, 0), (0, 0, 1)])
    P, added = I.polarize()
    assert added == 0
    assert P.gens == I.gens
