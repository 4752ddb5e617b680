"""Text formats: series grammar, matrix and polynomial files, config files.

One number is a sum of ``c*t^(p/q)`` terms::

    100 + 1*t^1 + 2*t^2
    1.5*t^(1/2) - 2i*t^3
    (0.5-0.25i)*t^(-2)

Coefficients are decimal reals, imaginaries (``2i``, ``i``) or
parenthesized complex numbers ``(re+imi)``; exponents are decimal
integers or parenthesized fractions.  Whitespace (what ``str.isspace``
accepts) may stand between any two tokens, except that outside
parentheses an imaginary's ``i`` touches its digits (``2i``, while
``(1 + 2 i)`` is fine), and a sign inside a complex coefficient's real
part or inside an exponent touches its digits (``t^-1``, ``t^(1/+2)``,
``(-1)``; not ``t^- 1`` or ``(- 1)``).  That real part takes ``-`` only.
Digits are any Unicode decimal digits.  ``#`` starts a comment.
A matrix file holds one row per line, entries separated by ``;``.  A
polynomial file reads ``poly: a0; a1; ...`` (monic leading coefficient
implied).  A :class:`ParseError` carries a line and a column; an error
inside a complex coefficient or an exponent names that construct and
points at its first character (past the ``^`` and any whitespace).
Serialization uses shortest round-trip float formatting, so
``parse(serialize(x))`` reproduces every coefficient bit for bit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Tuple

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

# The series grammar, one pattern per piece; ``\s`` and ``\d`` match what
# ``str.isspace`` and ``str.isdecimal`` accept.
_REAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# Outside parentheses: a real, an imaginary with its ``i`` adjacent, or ``i``.
_COEFFICIENT = re.compile(rf"({_REAL})?(i)?")
# ``(re)``, ``(re+im i)`` or ``(re+i)``; the real part may carry an
# adjacent ``-``, never a ``+``.
_COMPLEX = re.compile(rf"\(\s*(-?{_REAL})\s*(?:([+-])\s*(?:({_REAL})\s*)?i\s*)?\)")
_TIMES_T = re.compile(r"\s*(\*?)\s*(t?)")
_CARET = re.compile(r"\s*\^\s*")
# ``k``, ``(p)`` or ``(p/q)``, each integer with an adjacent sign or none.
# The ``)`` is optional here so that a bad denominator is reported first.
_EXPONENT = re.compile(r"([+-]?\d+)|\(\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?(\)?)")
# The optional sign before a term, with the whitespace around it.
_SIGN = re.compile(r"\s*([+-]?)\s*")
_COMMENT = re.compile(r"#[^\n]*")
_HEADER = re.compile(r"\s*(poly:)?")


def _strip_comments(text: str) -> str:
    # Blank comment spans with spaces so source positions survive.
    return _COMMENT.sub(lambda m: " " * len(m[0]), text)


def _error(msg: str, text: str, pos: int) -> ParseError:
    before = text[:pos]
    return ParseError(msg, before.count("\n") + 1, pos - before.rfind("\n"))


def _term(text: str, pos: int, end: int) -> Tuple[int, Fraction, complex]:
    """Read the unsigned term at ``pos`` (not whitespace); return where it
    ends, its exponent and its coefficient."""
    if text.startswith("t", pos, end):
        coeff, pos = 1 + 0j, pos + 1
    else:
        if text.startswith("(", pos, end):
            m = _COMPLEX.match(text, pos, end)
            if not m:
                raise _error("malformed complex coefficient", text, pos)
            re_part, sign, im_part = m.groups()
            coeff = complex(float(re_part), float(sign + (im_part or "1")) if sign else 0.0)
        else:
            m = _COEFFICIENT.match(text, pos, end)
            if m.end() == pos:
                raise _error("expected a number", text, pos)
            value = float(m[1] or 1)
            coeff = complex(0.0, value) if m[2] else complex(value, 0.0)
        m = _TIMES_T.match(text, m.end(), end)
        star, t = m.groups()
        if not t:
            if star:
                raise _error("expected 't' after '*'", text, m.end())
            return m.end(), Fraction(0), coeff
        if not star:
            raise _error("expected '*' between coefficient and t", text, m.start(2))
        pos = m.end()
    m = _CARET.match(text, pos, end)
    if not m:
        return pos, Fraction(1), coeff
    pos = m.end()
    m = _EXPONENT.match(text, pos, end)
    if m and m[3] and int(m[3]) <= 0:
        raise _error("exponent denominator must be positive", text, m.start(3))
    if not m or m[2] and not m[4]:
        raise _error("malformed exponent", text, pos)
    return m.end(), Fraction(int(m[1] or m[2]), int(m[3] or 1)), coeff


def _parse_series_at(text: str, start: int, end: int) -> LCNumber:
    m = _SIGN.match(text, start, end)
    if m.end() == end and not m[1]:
        raise _error("empty series", text, end)
    terms = []
    while True:
        pos, q, c = _term(text, m.end(), end)
        terms.append((q, -c if m[1] == "-" else c))
        m = _SIGN.match(text, pos, end)
        if not m[1]:
            if m.end() == end:
                return from_terms(terms, INF)
            raise _error("expected '+' or '-' between terms", text, m.end())


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
    rows, lines = [], []
    for line, (start, end) in enumerate(_line_spans(padded), 1):
        if padded[start:end].strip() == "":
            continue
        rows.append([_parse_series_at(padded, s, e)
                     for s, e in _split_spans(padded, start, end, ";")])
        lines.append(line)
    if not rows:
        raise ParseError("no matrix rows found")
    n = len(rows)
    for i, (row, line) in enumerate(zip(rows, lines)):
        if len(row) != n:
            raise ParseError(f"matrix is not square: row {i + 1} has {len(row)} "
                             f"entries, expected {n}", line)
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
    m = _HEADER.match(padded)
    if not m[1]:
        raise _error("expected 'poly:' header", padded, m.end())
    spans = list(_split_spans(padded, m.end(), len(padded), ";"))
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
