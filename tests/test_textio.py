"""Parsing and serialization: grammar cases, round trips, error positions."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcpower.core import constant, from_terms
from lcpower.errors import ParseError
from lcpower.textio import (parse_config, parse_matrix, parse_polynomial,
                            parse_series, parse_vector, serialize_matrix,
                            serialize_series)


class TestParseSeries:
    def test_reference_root_prefix(self):
        a = parse_series("100 + 1*t^1 + 2*t^2")
        assert a.terms == ((F(0), 100 + 0j), (F(1), 1 + 0j), (F(2), 2 + 0j))

    def test_zero(self):
        assert parse_series("0").is_zero

    def test_fractional_and_imaginary(self):
        a = parse_series("1.5*t^(1/2) - 2i*t^3")
        assert a.terms == ((F(1, 2), 1.5 + 0j), (F(3), -2j))

    def test_whitespace_insensitive(self):
        assert parse_series("1+2*t^2").terms == parse_series(" 1 + 2 * t ^ 2 ").terms

    def test_bare_t_and_powers(self):
        assert parse_series("t").terms == ((F(1), 1 + 0j),)
        assert parse_series("t^2 - t").terms == ((F(1), -1 + 0j), (F(2), 1 + 0j))

    def test_negative_exponents(self):
        assert parse_series("2*t^-1").terms == ((F(-1), 2 + 0j),)
        assert parse_series("2*t^(-3/2)").terms == ((F(-3, 2), 2 + 0j),)

    def test_complex_coefficient(self):
        a = parse_series("(1.5-0.25i)*t^2 + (1+i)")
        assert a.terms == ((F(0), 1 + 1j), (F(2), 1.5 - 0.25j))

    def test_scientific_notation(self):
        assert parse_series("1e-3 + 2.5E2*t").terms == ((F(0), 1e-3 + 0j), (F(1), 250 + 0j))

    def test_leading_sign(self):
        assert parse_series("-2 + t").terms == ((F(0), -2 + 0j), (F(1), 1 + 0j))

    def test_comments(self):
        assert parse_series("1 + t # trailing note").terms == parse_series("1 + t").terms

    def test_duplicate_exponents_merge(self):
        assert parse_series("1 + 2 + t + t").terms == ((F(0), 3 + 0j), (F(1), 2 + 0j))

    def test_sign_and_whitespace_rules(self):
        # a sign touches the digits it signs; inside parentheses the i may
        # stand apart; Unicode spaces and digits count
        assert parse_series("(1 + 2 i)").terms == ((F(0), 1 + 2j),)
        assert parse_series("t^+2 + t^(1/+2)").terms == ((F(1, 2), 1 + 0j), (F(2), 1 + 0j))
        assert parse_series("( -1)*t^ -1").terms == ((F(-1), -1 + 0j),)
        assert parse_series("\u0663 +\u2003t").terms == ((F(0), 3 + 0j), (F(1), 1 + 0j))


_SPACE = st.text(" \t\xa0\u2003", max_size=2)
_REALS = st.floats(min_value=0.0, max_value=1e300)


@st.composite
def spelled_series(draw):
    """A series text with its terms: each term in one of the grammar's
    spellings, with whitespace wherever the grammar allows it."""
    def w():
        return draw(_SPACE)

    def integer(k):
        return str(k) if k < 0 else draw(st.sampled_from(["", "+"])) + str(k)

    def coefficient():
        kind = draw(st.sampled_from(["real", "imag", "i", "complex", "complex_i"]))
        x = draw(_REALS)
        if kind == "real":
            return complex(x, 0.0), repr(x)
        if kind == "imag":
            return complex(0.0, x), repr(x) + "i"
        if kind == "i":
            return 1j, "i"
        re = -draw(_REALS) if draw(st.booleans()) else draw(_REALS)
        sign = draw(st.sampled_from("+-"))
        im, im_text = (x, f"{repr(x)}{w()}") if kind == "complex" else (1.0, "")
        text = f"({w()}{repr(re)}{w()}{sign}{w()}{im_text}i{w()})"
        return complex(re, im if sign == "+" else -im), text

    drawn, pieces = [], []
    for n in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "+", "-"] if n == 0 else ["+", "-"]))
        form = draw(st.sampled_from(["t", "power", "fraction", "constant"]))
        if form == "t":
            q, c, body = F(1), 1 + 0j, "t"
        else:
            c, body = coefficient()
            q = F(0)
            if form == "power":
                q = F(draw(st.integers(-9, 9)))
                body += f"{w()}*{w()}t{w()}^{w()}{integer(q.numerator)}"
            elif form == "fraction":
                p, d = draw(st.integers(-9, 9)), draw(st.integers(1, 6))
                q = F(p, d)
                body += f"{w()}*{w()}t{w()}^{w()}({w()}{integer(p)}{w()}/{w()}{integer(d)}{w()})"
        drawn.append((q, -c if sign == "-" else c))
        pieces.append(f"{w()}{sign}{w()}{body}")
    return "".join(pieces) + w(), drawn


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spelled_series())
def test_every_spelling_parses_to_its_terms(case):
    text, drawn = case
    got = [(q, repr(c)) for q, c in parse_series(text).terms]
    assert got == [(q, repr(c)) for q, c in from_terms(drawn).terms]


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse_series("   ")

    def test_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_series("1 + *t")
        assert exc.value.line == 1 and exc.value.col == 5

    def test_line_reported_in_matrix(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("1; 2\n3; oops")
        assert exc.value.line == 2

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_series("t^(1/0)")

    def test_missing_star(self):
        with pytest.raises(ParseError):
            parse_series("2t")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_series("1 +")


# Every message the parsers raise, with its (line, column).
_ERRORS = [
    (parse_series, "   ", "empty series", 1, 4),
    (parse_series, "1 + *t", "expected a number", 1, 5),
    (parse_series, "1 +", "expected a number", 1, 4),
    (parse_series, "2t", "expected '*' between coefficient and t", 1, 2),
    (parse_series, "2 * x", "expected 't' after '*'", 1, 5),
    (parse_series, "1 2i", "expected '+' or '-' between terms", 1, 3),
    (parse_series, "2 i", "expected '+' or '-' between terms", 1, 3),
    (parse_series, "t^(1/0)", "exponent denominator must be positive", 1, 6),
    (parse_series, "t^( 1 / -2", "exponent denominator must be positive", 1, 9),
    (parse_series, "1 + (1 - 2)", "malformed complex coefficient", 1, 5),
    (parse_series, "(- 1)", "malformed complex coefficient", 1, 1),
    (parse_series, "(+1)", "malformed complex coefficient", 1, 1),
    (parse_series, "t^ x", "malformed exponent", 1, 4),
    (parse_series, "t^- 1", "malformed exponent", 1, 3),
    (parse_series, "t^(1/2", "malformed exponent", 1, 3),
    (parse_matrix, "# header\n1; 2t\n3; 4", "expected '*' between coefficient and t", 2, 5),
    (parse_matrix, "# only a comment\n\n", "no matrix rows found", 1, 1),
    (parse_matrix, "1; 2\n3", "matrix is not square: row 2 has 1 entries, expected 2", 2, 1),
    (parse_matrix, "# header\n1; 2\n3", "matrix is not square: row 2 has 1 entries, expected 2",
     3, 1),
    (parse_vector, "# note\n1 +\n", "expected a number", 2, 4),
    (parse_vector, " \n", "no vector entries found", 1, 1),
    (parse_polynomial, "# coefficients\npoly: 1; (2 + i", "malformed complex coefficient", 2, 10),
    (parse_polynomial, "\n  1; 2", "expected 'poly:' header", 2, 3),
    (parse_config, "truncation 9", "expected 'key = value'", 1, 1),
    (parse_config, "# note\ntruncatoin = 9", "unknown config key 'truncatoin'", 2, 1),
]


@pytest.mark.parametrize("parse, text, message, line, col", _ERRORS,
                         ids=[repr(text) for _, text, *_ in _ERRORS])
def test_error_message_and_position(parse, text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"{message} (line {line}, column {col})"


class TestRoundTrip:
    def test_grammar_examples(self):
        for text in ("100 + 1*t^1 + 2*t^2", "1.5*t^(1/2) - 2i*t^3", "0",
                     "-2.5 + (1+2i)*t^(-1/2)"):
            a = parse_series(text)
            assert parse_series(serialize_series(a)).terms == a.terms

    def test_thousand_random_numbers(self):
        rng = np.random.default_rng(20240814)
        for _ in range(1000):
            terms = []
            for _ in range(int(rng.integers(0, 6))):
                q = F(int(rng.integers(-40, 40)), int(rng.integers(1, 12)))
                kind = rng.integers(0, 3)
                re = float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-12, 12))
                im = float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-12, 12))
                c = complex(re, 0) if kind == 0 else complex(0, im) if kind == 1 \
                    else complex(re, im)
                terms.append((q, c))
            a = from_terms(terms)
            b = parse_series(serialize_series(a))
            assert b.terms == a.terms  # exact exponents, coefficients to 0 ulp


class TestMatrixPolyVector:
    def test_matrix_roundtrip(self):
        A = parse_matrix("2; t\nt; 1")
        assert A.n == 2
        B = parse_matrix(serialize_matrix(A))
        for r1, r2 in zip(A.rows, B.rows):
            for a, b in zip(r1, r2):
                assert a.terms == b.terms

    def test_matrix_with_comments_and_blanks(self):
        A = parse_matrix("# header\n2; t\n\nt; 1\n")
        assert A.n == 2

    def test_non_square(self):
        with pytest.raises(ParseError):
            parse_matrix("1; 2\n3")

    def test_polynomial(self):
        P = parse_polynomial("poly: 2; -3")
        assert P.degree == 2
        assert P.coeffs[0].terms == constant(2).terms
        assert P.coeffs[1].terms == constant(-3).terms

    def test_polynomial_trailing_separator(self):
        assert parse_polynomial("poly: 1; 2;").degree == 2

    def test_polynomial_missing_header(self):
        with pytest.raises(ParseError):
            parse_polynomial("1; 2")

    def test_vector(self):
        v = parse_vector("1 + t\n2\n")
        assert len(v) == 2


class TestConfig:
    def test_parse(self):
        cfg = parse_config("truncation = 9\nmax_iters = 100\n# note\ntol = 1e-12\n"
                           "norm = l2\nstart = random:7\n")
        assert cfg == {"truncation": "9", "max_iters": "100", "tol": "1e-12",
                       "norm": "l2", "start": "random:7"}

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_config("truncatoin = 9")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_config("truncation 9")
