"""Text formats: series grammar, matrix and polynomial files, config files.

One number is a sum of ``c*t^(p/q)`` terms, whitespace-insensitive::

    100 + 1*t^1 + 2*t^2
    1.5*t^(1/2) - 2i*t^3
    (0.5-0.25i)*t^(-2)

Coefficients are decimal reals, imaginaries (``2i``, ``i``) or
parenthesized complex numbers ``(re+imi)``; exponents are decimal
integers or parenthesized fractions.  ``#`` starts a comment.  A matrix
file holds one row per line, entries separated by ``;``.  A polynomial
file reads ``poly: a0; a1; ...`` (monic leading coefficient implied).
Serialization uses shortest round-trip float formatting, so
``parse(serialize(x))`` reproduces every coefficient bit for bit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

from .core import INF, LCNumber, as_exponent, from_terms
from .errors import ParseError
from .linalg import LCMatrix, LCVector, Polynomial

__all__ = [
    "parse_series",
    "parse_matrix",
    "parse_polynomial",
    "parse_vector",
    "parse_config",
    "serialize_series",
    "serialize_matrix",
]

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_DIGITS = re.compile(r"\d+")


def _strip_comments(text: str) -> str:
    # Replace comment spans with spaces so source positions survive.
    out = []
    for line in text.split("\n"):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut] + " " * (len(line) - cut)
        out.append(line)
    return "\n".join(out)


class _Scanner:
    """Character scanner over a slice of the full source text; all error
    positions are computed against the full text."""

    def __init__(self, text: str, start: int = 0, end: int | None = None):
        self.text = text
        self.pos = start
        self.end = len(text) if end is None else end

    def error(self, msg: str):
        before = self.text[:self.pos]
        line = before.count("\n") + 1
        col = self.pos - before.rfind("\n")
        raise ParseError(msg, line, col)

    def skip_ws(self):
        while self.pos < self.end and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < self.end else ""

    def eat(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.eat(ch):
            self.error(f"expected {ch!r}")

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= self.end

    def real_number(self) -> float:
        m = _NUMBER.match(self.text, self.pos, self.end)
        if not m:
            self.error("expected a number")
        self.pos = m.end()
        return float(m.group())

    def integer(self) -> int:
        sign = -1 if self.eat("-") else 1
        if not sign == -1:
            self.eat("+")
        m = _DIGITS.match(self.text, self.pos, self.end)
        if not m:
            self.error("expected an integer")
        self.pos = m.end()
        return sign * int(m.group())

    # -- grammar ---------------------------------------------------------

    def exponent(self) -> Fraction:
        if self.eat("("):
            num = self.integer()
            den = 1
            if self.eat("/"):
                self.skip_ws()
                start = self.pos
                den = self.integer()
                if den <= 0:
                    self.pos = start
                    self.error("exponent denominator must be positive")
            self.expect(")")
            return Fraction(num, den)
        return Fraction(self.integer())

    def complex_paren(self) -> complex:
        self.expect("(")
        re_sign = -1.0 if self.eat("-") else 1.0
        re_val = re_sign * self.real_number()
        if self.eat(")"):
            return complex(re_val, 0.0)
        if self.eat("+"):
            im_sign = 1.0
        elif self.eat("-"):
            im_sign = -1.0
        else:
            self.error("expected '+', '-' or ')' in complex coefficient")
        im_val = 1.0 if self.peek() == "i" else self.real_number()
        self.expect("i")
        self.expect(")")
        return complex(re_val, im_sign * im_val)

    def coefficient(self) -> complex:
        ch = self.peek()
        if ch == "(":
            return self.complex_paren()
        if ch == "i":
            self.pos += 1
            return 1j
        val = self.real_number()
        if self.pos < self.end and self.text[self.pos] == "i":
            self.pos += 1
            return complex(0.0, val)
        return complex(val, 0.0)

    def term(self) -> Tuple[Fraction, complex]:
        if self.peek() == "t":
            self.pos += 1
            coeff = 1.0 + 0j
        else:
            coeff = self.coefficient()
            has_star = self.eat("*")
            if self.peek() == "t":
                if not has_star:
                    self.error("expected '*' between coefficient and t")
                self.pos += 1
            else:
                if has_star:
                    self.error("expected 't' after '*'")
                return Fraction(0), coeff
        if self.eat("^"):
            return self.exponent(), coeff
        return Fraction(1), coeff

    def series_terms(self) -> List[Tuple[Fraction, complex]]:
        terms = []
        if self.at_end():
            self.error("empty series")
        negate = self.eat("-")
        if not negate:
            self.eat("+")
        while True:
            q, c = self.term()
            terms.append((q, -c if negate else c))
            if self.at_end():
                return terms
            if self.eat("+"):
                negate = False
            elif self.eat("-"):
                negate = True
            else:
                self.error("expected '+' or '-' between terms")


def _parse_series_at(text: str, start: int, end: int) -> LCNumber:
    sc = _Scanner(text, start, end)
    terms = sc.series_terms()
    return from_terms(terms, INF)


def parse_series(text: str) -> LCNumber:
    """Parse one number in the series grammar."""
    return _parse_series_at(_strip_comments(text), 0, len(text))


def _line_spans(text: str):
    pos = 0
    for line in text.split("\n"):
        yield pos, pos + len(line)
        pos += len(line) + 1


def _split_spans(text: str, start: int, end: int, sep: str):
    seg_start = start
    for i in range(start, end):
        if text[i] == sep:
            yield seg_start, i
            seg_start = i + 1
    yield seg_start, end


def parse_matrix(text: str) -> LCMatrix:
    """Parse a square matrix: one row per line, entries separated by ';'."""
    padded = _strip_comments(text)
    rows = []
    for start, end in _line_spans(padded):
        if padded[start:end].strip() == "":
            continue
        row = [_parse_series_at(padded, s, e)
               for s, e in _split_spans(padded, start, end, ";")]
        rows.append(row)
    if not rows:
        raise ParseError("no matrix rows found")
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"matrix is not square: row {i + 1} has {len(row)} "
                             f"entries, expected {n}", i + 1)
    return LCMatrix(rows)


def parse_vector(text: str) -> LCVector:
    """Parse a vector: one series per line."""
    padded = _strip_comments(text)
    entries = [_parse_series_at(padded, s, e)
               for s, e in _line_spans(padded) if padded[s:e].strip()]
    if not entries:
        raise ParseError("no vector entries found")
    return LCVector(entries)


def parse_polynomial(text: str) -> Polynomial:
    """Parse ``poly: a0; a1; ...`` (coefficients of a monic polynomial)."""
    padded = _strip_comments(text)
    sc = _Scanner(padded)
    sc.skip_ws()
    if not padded[sc.pos:sc.pos + 5] == "poly:":
        sc.error("expected 'poly:' header")
    start = sc.pos + 5
    spans = [(s, e) for s, e in _split_spans(padded, start, len(padded), ";")]
    # a trailing ';' leaves one empty segment; drop it
    if len(spans) > 1 and padded[spans[-1][0]:spans[-1][1]].strip() == "":
        spans = spans[:-1]
    coeffs = [_parse_series_at(padded, s, e) for s, e in spans]
    return Polynomial(tuple(coeffs))


def _exponent(value) -> Fraction:
    return as_exponent(str(value))


def _start(value: str):
    return parse_vector(Path(value[5:]).read_text()) if value.startswith("file:") else value


#: The solver settings of a config file, which the CLI flags of the same
#: names override: (config key, ``SolverConfig`` field, converter of the
#: text or flag value).
CONFIG_KEYS = (("truncation", "truncation", _exponent),
               ("max_iters", "max_iters", int),
               ("tol", "tol", float),
               ("check_window", "check_window", lambda v: _exponent(v) if v else None),
               ("norm", "norm_kind", str),
               ("start", "start", _start),
               ("complex_pi_iters", "complex_pi_iters", int),
               ("complex_pi_tol", "complex_pi_tol", float))


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines into a string dictionary; the keys are
    those of :data:`CONFIG_KEYS`."""
    known = {key for key, _, _ in CONFIG_KEYS}
    out = {}
    for lineno, line in enumerate(_strip_comments(text).split("\n"), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ParseError(f"unknown config key {key!r}", lineno)
        out[key] = value
    return out


# -- serialization -----------------------------------------------------------


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_exponent(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"({q.numerator}/{q.denominator})"


def _term_text(q: Fraction, c: complex) -> Tuple[str, str]:
    if c.imag == 0.0:
        sign = "-" if c.real < 0 else "+"
        coeff = _fmt_float(abs(c.real))
    elif c.real == 0.0:
        sign = "-" if c.imag < 0 else "+"
        coeff = _fmt_float(abs(c.imag)) + "i"
    else:
        sign = "+"
        im_sign = "+" if c.imag >= 0 else "-"
        coeff = f"({_fmt_float(c.real)}{im_sign}{_fmt_float(abs(c.imag))}i)"
    if q == 0:
        return sign, coeff
    return sign, f"{coeff}*t^{_fmt_exponent(q)}"


def serialize_series(a: LCNumber) -> str:
    """Render a number in the series grammar (terms only; the validity
    bound is configuration, not data, and is not part of the text form)."""
    if not a.terms:
        return "0"
    pieces = []
    for i, (q, c) in enumerate(a.terms):
        sign, body = _term_text(q, c)
        if i == 0:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def serialize_matrix(A: LCMatrix) -> str:
    return "\n".join("; ".join(serialize_series(e) for e in row) for row in A.rows)
