"""The ideal text grammar."""

import contextlib
import io

import hypothesis.strategies as st
import pytest
from hypothesis import given

from stanley import (COMPONENT_CAP, VARIABLE_CAP, DomainError,
                     ExponentCapError, MonomialIdeal, ParseError, RingCtx, cli,
                     decompose, parse_ideal, parse_monomial)

import oracles
from conftest import ideals

R3 = RingCtx(3)


def test_basic_forms():
    assert parse_ideal("x1^2, x2*x3", R3).gens == ((0, 1, 1), (2, 0, 0))
    assert parse_ideal(" x1 ^ 2 ,x2 * x3 ", R3).gens == ((0, 1, 1), (2, 0, 0))
    assert parse_ideal("x2*x2*x2", R3).gens == ((0, 3, 0),)
    assert parse_ideal("x1^2*x1", R3).gens == ((3, 0, 0),)


def test_ring_inference():
    I = parse_ideal("x2*x4, x1")
    assert I.ring.n == 4
    assert parse_ideal("x1").ring.n == 1


def test_ring_header():
    I = parse_ideal("ring 5 x2*x4, x1")
    assert I.ring.n == 5
    with pytest.raises(ParseError):
        parse_ideal("ring 2 x3")
    with pytest.raises(ParseError):
        # header and explicit ring must not disagree
        parse_ideal("ring 4 x1", RingCtx(3))
    assert parse_ideal("ring 3 x1", R3).ring.n == 3


def test_zero_and_unit_bodies():
    assert parse_ideal("0", R3).is_zero
    assert parse_ideal("1", R3).is_unit
    assert parse_ideal("ring 2 0").is_zero
    with pytest.raises(ParseError):
        parse_ideal("0")   # no ring to infer
    with pytest.raises(ParseError):
        parse_ideal("1")


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_ideal("x1^^2", R3)
    assert e.value.position == 3
    with pytest.raises(ParseError) as e:
        parse_ideal("x0", R3)
    assert e.value.position == 0
    with pytest.raises(ParseError):
        parse_ideal("", R3)
    with pytest.raises(ParseError):
        parse_ideal("x1,,x2", R3)
    with pytest.raises(ParseError):
        parse_ideal("y1", R3)
    with pytest.raises(ParseError):
        parse_ideal("x1^0", R3)
    with pytest.raises(ParseError):
        parse_ideal("x1 x2", R3)
    with pytest.raises(ParseError):
        parse_ideal("x4", R3)


def test_unit_term_among_others():
    assert parse_ideal("1, x2", R3).is_unit


def test_parse_monomial():
    assert parse_monomial("x1^2*x3", R3) == (2, 0, 1)
    assert parse_monomial("1", R3) == (0, 0, 0)
    with pytest.raises(ParseError):
        parse_monomial("x1, x2", R3)


@given(ideals(n_max=4, exp_max=3))
def test_render_parse_round_trip(I):
    assert parse_ideal(I.render(), I.ring) == I


@given(ideals())
def test_parsed_members_match(I):
    J = parse_ideal(I.render(), I.ring)
    caps = (4,) * I.ring.n
    assert oracles.same_members(I.gens, J.gens, caps)


def test_variable_cap():
    assert parse_ideal(f"x{VARIABLE_CAP}").ring.n == VARIABLE_CAP
    with pytest.raises(ParseError):
        parse_ideal(f"x{VARIABLE_CAP + 1}")
    with pytest.raises(ParseError):
        parse_ideal(f"ring {VARIABLE_CAP + 1} x1")


def test_long_exponent_is_over_the_cap():
    # int() refuses digit runs past a few thousand digits
    with pytest.raises(ExponentCapError):
        parse_ideal("x1^" + "9" * 5000)
    assert parse_ideal("x1^" + "0" * 5000 + "2").gens == ((2,),)


# the grammar's characters and keyword, and characters it does not use
# (a Unicode digit among them, which the digit patterns accept)
FUZZ_TOKENS = (list("0123456789x^*, ") + ["ring", "\t", "\n"]
               + list("y-+().é²\u0663"))


@given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=24).map("".join))
def test_parser_fuzz(text):
    # the digit runs can name huge rings: fail first if nothing refuses them
    with pytest.raises(ParseError):
        parse_ideal(f"x{VARIABLE_CAP + 1}")
    try:
        I = parse_ideal(text)
    except (ParseError, ExponentCapError):
        I = None
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["size", "--", text])
    if I is None:
        assert code == cli.PARSE_EXIT
    elif not I.is_proper:
        assert code == cli.USAGE_EXIT   # the zero and unit ideals
    else:
        capped = decompose(I).s > COMPONENT_CAP
        assert code == (cli.RESOURCE_EXIT if capped else 0)
