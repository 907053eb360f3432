"""The pivot-split lower bound, the classifier, and the size inequality."""

import math

import pytest
from hypothesis import given

from stanley import (CorpusSpec, Decomposition, IrreducibleComponent,
                     MonomialIdeal, ResourceLimitError, RingCtx, SUBSET_CAP,
                     build_split, check_size_inequality, classify_monomial,
                     decompose, enumerate_families, generate_corpus,
                     hypothesis_check, parse_ideal, sdepth_lower_bound,
                     sdepth_quotient, verify_direct_sum)

from conftest import ideals

R3 = RingCtx(3)
EXAMPLE = "x1^2, x2*x3"


def test_worked_example_bound():
    rep = sdepth_lower_bound(parse_ideal(EXAMPLE, R3))
    assert rep.value == 1
    assert rep.best_pivot == 0
    assert len(rep.per_pivot) == 2
    for pb in rep.per_pivot:
        assert pb.base == 1
        assert pb.value == 1
        got = {(t.subset, t.multiplier, t.ideal_part, t.quotient_part)
               for t in pb.terms}
        other = 1 - pb.pivot
        assert got == {((other,), (0, 0, 0), 1, 0),
                       ((other,), (1, 0, 0), 1, 0)}


def test_single_pivot_selection():
    rep = sdepth_lower_bound(parse_ideal(EXAMPLE, R3), pivot=1)
    assert len(rep.per_pivot) == 1
    assert rep.per_pivot[0].pivot == 1
    assert rep.value == 1


def test_irreducible_bound_is_corank():
    rep = sdepth_lower_bound(parse_ideal("x1^3, x2", R3))
    assert rep.value == 1   # n - r = 3 - 2
    assert rep.per_pivot[0].terms == ()


def test_degenerate_family_terms_count():
    # pivot (x3): every family covers the whole pivot block, and dropping
    # those terms would report an unsound 2
    I = parse_ideal("x3^2, x1*x3", R3)
    rep = sdepth_lower_bound(I)
    assert sdepth_quotient(I) == 1
    for pb in rep.per_pivot:
        assert pb.value <= 1
    flagged = [t for pb in rep.per_pivot for t in pb.terms if t.degenerate]
    assert flagged
    assert all(t.ideal_part == 0 for t in flagged)
    assert rep.value == 1


def test_family_enumeration():
    D = decompose(parse_ideal(EXAMPLE, R3))
    split = build_split(D, 0)
    fams = enumerate_families(split)
    assert len(fams) == 2   # nonempty proper subsets of two components
    by_subset = {f.subset: f for f in fams}
    assert by_subset[(1,)].touched_vars == frozenset({0})
    assert by_subset[(1,)].untouched_vars == frozenset({1})
    assert by_subset[(1,)].multipliers == ((0, 0, 0), (1, 0, 0))
    # the pivot component itself touches its whole block
    assert by_subset[(0,)].touched_vars == frozenset({0, 1})
    assert by_subset[(0,)].untouched_vars == frozenset()
    assert by_subset[(0,)].multipliers == ((0, 0, 0), (1, 0, 0))


@given(ideals(n_max=4, gens_max=4, exp_max=3))
def test_multipliers_avoid_their_subset(I):
    # a family's multipliers fill the box below the least matching exponents,
    # in lexicographic order, and each avoids every component of its subset
    D = decompose(I)
    for pivot in range(D.s):
        for fam in enumerate_families(build_split(D, pivot)):
            comps = [D.components[j] for j in fam.subset]
            bounds = [min(Q.exponent_of(i) for Q in comps if i in Q.support)
                      for i in fam.touched_vars]
            assert len(fam.multipliers) == math.prod(bounds)
            assert list(fam.multipliers) == sorted(set(fam.multipliers))
            for w in fam.multipliers:
                assert not any(Q.as_ideal(D.ring).contains(w) for Q in comps)


def test_subset_cap():
    n = SUBSET_CAP + 1
    ring = RingCtx(n)
    comps = tuple(IrreducibleComponent(((i, 1),)) for i in range(n))
    D = Decomposition(ring, comps)
    with pytest.raises(ResourceLimitError):
        enumerate_families(build_split(D, 0))
    with pytest.raises(ResourceLimitError):
        hypothesis_check(D)


def test_classifier_known_tags():
    D = decompose(parse_ideal(EXAMPLE, R3))
    split = build_split(D, 0)
    tag = classify_monomial(split, (0, 0, 5))
    assert (tag.kind, tag.spart) == ("free", (0, 0, 0))
    tag = classify_monomial(split, (1, 0, 1))
    assert (tag.kind, tag.spart) == ("free", (1, 0, 0))
    tag = classify_monomial(split, (2, 1, 0))
    assert (tag.kind, tag.subset, tag.multiplier) == ("family", (), (0, 0, 0))
    assert tag.in_ideal


def test_direct_sum_worked_example():
    D = decompose(parse_ideal(EXAMPLE, R3))
    for pivot in range(D.s):
        rep = verify_direct_sum(build_split(D, pivot), degree_cap=6)
        assert rep.ok
        assert rep.checked == 84
        assert not rep.cap_warning
        assert rep.violations == ()


def test_direct_sum_cap_warning():
    D = decompose(parse_ideal(EXAMPLE, R3))
    rep = verify_direct_sum(build_split(D, 0), degree_cap=1)
    assert rep.cap_warning


@given(ideals(n_max=3, gens_max=3, exp_max=2))
def test_direct_sum_on_random_ideals(I):
    D = decompose(I)
    for pivot in range(D.s):
        assert verify_direct_sum(build_split(D, pivot), degree_cap=5).ok


@given(ideals(n_max=3, gens_max=3, exp_max=2))
def test_bound_sound_on_random_ideals(I):
    rep = sdepth_lower_bound(I)
    sd = sdepth_quotient(I)
    for pb in rep.per_pivot:
        assert sd >= pb.value


def test_hypothesis_worked_example():
    assert hypothesis_check(decompose(parse_ideal(EXAMPLE, R3))).satisfied


def test_hypothesis_violation_case():
    ring = RingCtx(4)
    I = parse_ideal("x1^2, x2^2", ring) \
        .intersect(parse_ideal("x1^3, x3", ring)) \
        .intersect(parse_ideal("x2^3, x4", ring))
    D = decompose(I)
    assert D.s == 3
    rep = hypothesis_check(D)
    assert not rep.satisfied
    assert (0, (1, 2)) in rep.violations


@given(ideals(n_max=4, gens_max=4, exp_max=1))
def test_squarefree_always_satisfies(I):
    assert hypothesis_check(decompose(I)).satisfied


def test_check_report_worked_example():
    rep = check_size_inequality(parse_ideal(EXAMPLE, R3))
    assert rep.ok
    assert rep.size.size == 1
    assert rep.bound.value == 1
    assert rep.sdepth_exact == 1
    assert rep.hypothesis.satisfied
    assert rep.sdepth_ge_bound and rep.bound_ge_size and rep.inequality_holds


@given(ideals(n_max=3, gens_max=3, exp_max=2))
def test_check_report_coherent(I):
    rep = check_size_inequality(I)
    assert rep.sdepth_ge_bound == (rep.sdepth_exact >= rep.bound.value)
    assert rep.inequality_holds == (rep.sdepth_exact >= rep.size.size)
    assert rep.sdepth_ge_bound   # soundness, regardless of the hypothesis
    if rep.hypothesis.satisfied:
        assert rep.bound_ge_size and rep.inequality_holds


def test_corpus_size_inequality_spot():
    spec = CorpusSpec(seed=3, count=25, family="squarefree",
                      n_range=(2, 4), gens_range=(2, 4), max_exponent=1)
    for I in generate_corpus(spec):
        assert check_size_inequality(I).ok
