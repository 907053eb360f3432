"""Text format for monomial ideals.

Grammar, whitespace insignificant:

    ideal   := [ "ring" INT ] body
    body    := "0" | term ("," term)*
    term    := "1" | factor ("*" factor)*
    factor  := "x" INT [ "^" INT ]

Variable indices are 1-based in text.  Without a ring header or an explicit
ring the variable count is inferred from the largest index used.  An index
or ring header above VARIABLE_CAP is rejected before any ring is built.  The
bodies "0" and "1" denote the zero and unit ideal and need an explicit ring.
"""

from __future__ import annotations

import re

from .core import EXPONENT_CAP, VARIABLE_CAP, MonomialIdeal, RingCtx
from .errors import ExponentCapError, ParseError

_WS = re.compile(r"[ \t\r\n]*")
_RING = re.compile(r"ring[ \t]+(\d+)")
_VAR = re.compile(r"x(\d+)")
_INT = re.compile(r"\d+")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        self.pos = _WS.match(self.text, self.pos).end()

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, regex):
        self.skip_ws()
        m = regex.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def take_char(self, ch: str) -> bool:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def fail(self, message: str):
        raise ParseError(message, self.pos)


def _number(digits: str) -> int | None:
    """The value of a digit run, or None for a run too long for int()."""
    try:
        return int(digits.lstrip("0") or "0")
    except ValueError:
        return None


def _ring_size(digits: str, pos: int) -> int:
    """A variable count or 1-based index, checked against VARIABLE_CAP."""
    n = _number(digits)
    if n is None or n > VARIABLE_CAP:
        raise ParseError(
            f"variable count exceeds the cap of {VARIABLE_CAP}", pos)
    return n


def _parse_factor(c: _Cursor) -> tuple:
    pos = c.pos
    m = c.take(_VAR)
    if not m:
        c.fail("expected a factor like x2 or x2^3")
    index = _ring_size(m.group(1), pos)
    if index < 1:
        raise ParseError("variable indices start at 1", pos)
    exp = 1
    if c.take_char("^"):
        e = c.take(_INT)
        if not e:
            c.fail("expected an exponent after '^'")
        exp = _number(e.group(0))
        if exp is None:
            raise ExponentCapError(
                f"exponent of {len(e.group(0))} digits exceeds the cap of "
                f"{EXPONENT_CAP}")
        if exp < 1:
            raise ParseError("exponents must be at least 1", pos)
    return index - 1, exp


def _parse_term(c: _Cursor) -> dict:
    c.skip_ws()
    if c.take_char("1"):
        return {}
    exps: dict = {}
    while True:
        index, exp = _parse_factor(c)
        exps[index] = exps.get(index, 0) + exp
        if not c.take_char("*"):
            return exps


def parse_ideal(text: str, ring: RingCtx | None = None) -> MonomialIdeal:
    """Parse ideal text into canonical form.

    An explicit ring must agree with a ring header when both are present.
    """
    c = _Cursor(text)
    header = c.take(_RING)
    n_header = _ring_size(header.group(1), header.start(1)) if header else None
    if n_header is not None and ring is not None and ring.n != n_header:
        raise ParseError(
            f"ring header says {n_header} variables, caller says {ring.n}")
    n_fixed = ring.n if ring is not None else n_header

    if c.eof():
        c.fail("empty ideal text")

    c.skip_ws()
    if c.take_char("0"):
        if not c.eof():
            c.fail("the zero ideal cannot carry further terms")
        if n_fixed is None:
            raise ParseError("the body '0' needs an explicit ring")
        return MonomialIdeal.zero(ring or RingCtx(n_fixed))

    terms = []
    while True:
        terms.append(_parse_term(c))
        if c.eof():
            break
        if not c.take_char(","):
            c.fail("expected ',' between generators")

    max_index = max((i for t in terms for i in t), default=-1)
    if n_fixed is None:
        if max_index < 0:
            raise ParseError("the body '1' needs an explicit ring")
        n_fixed = max_index + 1
    elif max_index >= n_fixed:
        raise ParseError(
            f"generator uses x{max_index + 1} but the ring has {n_fixed} variables")

    the_ring = ring or RingCtx(n_fixed)
    gens = [tuple(t.get(i, 0) for i in range(n_fixed)) for t in terms]
    return MonomialIdeal(the_ring, gens)


def parse_monomial(text: str, ring: RingCtx) -> tuple:
    """Parse a single term into an exponent vector over ring."""
    c = _Cursor(text)
    if c.eof():
        c.fail("empty monomial text")
    exps = _parse_term(c)
    if not c.eof():
        c.fail("trailing input after the monomial")
    bad = [i for i in exps if i >= ring.n]
    if bad:
        raise ParseError(
            f"monomial uses x{bad[0] + 1} but the ring has {ring.n} variables")
    return tuple(exps.get(i, 0) for i in range(ring.n))
