"""Irredundant irreducible decompositions."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from stanley import (Decomposition, DomainError, IrreducibleComponent,
                     MonomialIdeal, RingCtx, decompose, is_irreducible,
                     parse_ideal, prune_irredundant)

import oracles
from conftest import ideals

R3 = RingCtx(3)


def test_worked_example():
    I = parse_ideal("x1^2, x2*x3", R3)
    D = decompose(I)
    assert D.s == 2
    assert [c.powers for c in D.components] == [((0, 2), (1, 1)), ((0, 2), (2, 1))]
    assert D.intersection() == I


def test_mixed_principal():
    D = decompose(parse_ideal("x1*x2", RingCtx(2)))
    assert [c.powers for c in D.components] == [((0, 1),), ((1, 1),)]


def test_embedded_component_case():
    D = decompose(parse_ideal("x1^2, x1*x2", RingCtx(2)))
    assert [c.powers for c in D.components] == [((0, 1),), ((0, 2), (1, 1))]


def test_irreducible_stays_put():
    I = parse_ideal("x1^2, x2^3", R3)
    D = decompose(I)
    assert D.s == 1
    assert D.components[0].powers == ((0, 2), (1, 3))


def test_is_irreducible():
    assert is_irreducible(parse_ideal("x1^2, x3", R3))
    assert not is_irreducible(parse_ideal("x1*x2", R3))
    assert not is_irreducible(MonomialIdeal.zero(R3))
    assert not is_irreducible(MonomialIdeal.unit(R3))


def test_rejects_trivial_ideals():
    with pytest.raises(DomainError):
        decompose(MonomialIdeal.zero(R3))
    with pytest.raises(DomainError):
        decompose(MonomialIdeal.unit(R3))


def test_component_shape():
    comp = IrreducibleComponent(((1, 2), (0, 1)))
    assert comp.powers == ((0, 1), (1, 2))   # sorted by variable
    assert comp.support == frozenset({0, 1})
    assert comp.exponent_of(1) == 2
    assert comp.contains((0, 2, 5))
    assert not comp.contains((0, 1, 5))
    with pytest.raises(DomainError):
        IrreducibleComponent(((0, 0),))
    with pytest.raises(DomainError):
        IrreducibleComponent(((0, 1), (0, 2)))


@given(ideals(n_max=4, gens_max=4, exp_max=3))
def test_round_trip(I):
    D = decompose(I)
    assert D.intersection() == I
    for comp in D.components:
        Q = comp.as_ideal(I.ring)
        assert is_irreducible(Q)
        assert Q.includes(I)


@given(ideals(n_max=4, gens_max=4, exp_max=3))
def test_irredundant(I):
    D = decompose(I)
    if D.s == 1:
        return
    for k in range(D.s):
        rest = None
        for j, Q in enumerate(c.as_ideal(D.ring) for c in D.components):
            if j == k:
                continue
            rest = Q if rest is None else rest.intersect(Q)
        assert rest != I


@given(ideals(n_max=4, gens_max=4, exp_max=3), st.randoms())
def test_generator_permutation_invariance(I, rng):
    gens = list(I.gens)
    rng.shuffle(gens)
    assert decompose(MonomialIdeal(I.ring, gens)) == decompose(I)


@given(ideals(n_max=4, gens_max=3, exp_max=2), st.randoms())
def test_variable_relabel_equivariance(I, rng):
    n = I.ring.n
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = MonomialIdeal(
        I.ring, [tuple(g[perm[i]] for i in range(n)) for g in I.gens])
    got = {tuple(sorted((perm[v], e) for v, e in c.powers))
           for c in decompose(relabeled).components}
    want = {c.powers for c in decompose(I).components}
    assert got == want


@given(ideals(n_max=4, gens_max=4, exp_max=3))
def test_components_sorted_unique(I):
    D = decompose(I)
    keys = [c.sort_key() for c in D.components]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_prune_drops_redundant():
    comps = [IrreducibleComponent(((0, 1),)),
             IrreducibleComponent(((0, 2), (1, 1))),
             IrreducibleComponent(((0, 2), (1, 1), (2, 1)))]
    pruned = prune_irredundant(R3, comps)
    assert [c.powers for c in pruned.components] == [((0, 1),), ((0, 2), (1, 1))]


@st.composite
def component_lists(draw, n_max=4, exp_max=3):
    """(n, components) with redundant components added on purpose.

    A redundant copy of a drawn component Q lowers some of Q's exponents or
    adds further variables, so it contains Q.
    """
    n = draw(st.integers(1, n_max))
    power = st.tuples(st.integers(0, n - 1), st.integers(1, exp_max))
    comps = [IrreducibleComponent(tuple(dict(draw(st.lists(power, min_size=1))).items()))
             for _ in range(draw(st.integers(1, 4)))]
    for Q in draw(st.lists(st.sampled_from(comps), max_size=3)):
        wider = dict(Q.powers)
        for i, e in draw(st.lists(power, max_size=2)):
            wider[i] = min(wider.get(i, e), e)
        comps.append(IrreducibleComponent(tuple(wider.items())))
    return n, draw(st.permutations(comps))


@given(component_lists())
def test_prune_matches_box_membership(case):
    # Q_k is redundant iff meeting it into the others changes no monomial of
    # the box that holds every generator of the intersections
    n, comps = case
    unique = sorted(set(comps), key=lambda c: c.sort_key())
    caps = (1 + max(e for c in unique for _, e in c.powers),) * n
    gens = [oracles.pure_power_gens(c.powers, n) for c in unique]
    want = []
    for k, Q in enumerate(unique):
        others = gens[:k] + gens[k + 1:]
        if not others or not oracles.same_members(
                oracles.meet_gens(others), oracles.meet_gens(gens), caps):
            want.append(Q)
    assert prune_irredundant(RingCtx(n), comps).components == tuple(want)
