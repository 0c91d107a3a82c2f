import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hibarrier import expr as ex


def test_parse_eval_bouncing_barrier():
    # hand arithmetic: 2*1*1 + (2-1)*(2+1) = 2 + 3 = 5
    ast = ex.parse("2*g*x1 + (x2-1)*(x2+1)", 2, 0, {"g": 1.0})
    assert ex.compile_ast(ast)([1.0, 2.0], ()) == pytest.approx(5.0, abs=0)


def test_parse_malformed_reports_position():
    with pytest.raises(ex.ExprError) as err:
        ex.parse("2*+x1", 2)
    diag = err.value.diagnostic
    assert diag.offset == 2
    assert diag.line == 1 and diag.column == 3
    assert diag.expected


def test_min_call():
    ast = ex.parse("min(x1, 0)", 2)
    assert ex.compile_ast(ast)([-3.0, 7.0], ()) == -3.0


def test_literal_and_power():
    assert ex.compile_ast(ex.parse("7", 1))([0.0], ()) == 7.0
    assert ex.compile_ast(ex.parse("x1^2", 1))([3.0], ()) == 9.0


def test_sqrt_abs():
    # the flow field of the nonunique-solutions example
    ast = ex.parse("sqrt(abs(x2))", 2)
    assert ex.compile_ast(ast)([0.0, -4.0], ()) == 2.0


def test_eval_ieee_semantics():
    assert math.isnan(ex.compile_ast(ex.parse("sqrt(x1)", 1))([-1.0], ()))
    assert ex.compile_ast(ex.parse("log(x1)", 1))([0.0], ()) == -math.inf
    assert math.isnan(ex.compile_ast(ex.parse("log(x1)", 1))([-2.0], ()))
    assert ex.compile_ast(ex.parse("1/x1", 1))([0.0], ()) == math.inf
    assert ex.compile_ast(ex.parse("sgn(x1)", 1))([0.0], ()) == 0.0


def test_unknown_identifier_diagnostic():
    with pytest.raises(ex.ExprError) as err:
        ex.parse("x1 + bogus", 2)
    assert "bogus" in str(err.value)


def test_out_of_range_variable():
    with pytest.raises(ex.ExprError):
        ex.parse("x3", 2)
    with pytest.raises(ex.ExprError):
        ex.parse("p1", 2, 0)


def test_power_requires_literal_exponent():
    with pytest.raises(ex.ExprError):
        ex.parse("x1^x2", 2)
    # parenthesized constant-foldable exponents are fine
    assert ex.compile_ast(ex.parse("x1^(1 + 1)", 1))([3.0], ()) == 9.0


def test_precedence_and_associativity():
    assert ex.compile_ast(ex.parse("-x1^2", 1))([2.0], ()) == -4.0  # ^ binds tighter
    assert ex.compile_ast(ex.parse("2 + 3 * 4", 1))([0.0], ()) == 14.0
    assert ex.compile_ast(ex.parse("2 - 3 - 4", 1))([0.0], ()) == -5.0


def test_diff_power():
    d = ex.differentiate(ex.parse("x1^2", 1), 0)
    assert ex.to_text(d) == "2*x1"
    assert ex.compile_ast(d)([3.0], ()) == 6.0


def test_diff_product():
    d = ex.differentiate(ex.parse("x1*x2", 2), 1)
    assert ex.to_text(d) == "x1"


def test_diff_abs_nonsmooth():
    assert isinstance(ex.differentiate(ex.parse("abs(x1)", 1), 0), ex.NonSmoothMarker)
    # abs off the derivative path differentiates fine
    d = ex.differentiate(ex.parse("abs(x2) + x1", 2), 0)
    assert ex.compile_ast(d)([0.0, -5.0], ()) == 1.0


def test_diff_max_nonsmooth():
    assert isinstance(ex.differentiate(ex.parse("max(x1, 0)", 1), 0), ex.NonSmoothMarker)


_CORPUS = [
    "x1", "p1", "7", "1.5e-3", "-x1", "x1 + x2", "x1 - x2", "x1*x2", "x1/x2",
    "x1^2", "x1^3", "2*g*x1 + (x2-1)*(x2+1)", "sqrt(abs(x2))", "min(x1, 0)",
    "max(x1, x2)", "abs(x1)", "exp(x1)", "log(x1)", "sgn(x1)",
    "x1^2 + x2^2 - 1", "-(x2 + 1)", "x2*(x1^2 + x2^2 - 1)",
    "x1*x2 - x2*((2 + 2*p1) - (x1^2 + x2^2))", "1 - x1", "x1 - sqrt(3)",
    "x2 + (2/3)*max(x1, 0)^3", "(p1/2)*x1", "x1/sqrt(3)",
    "-((x1+1)^2 + (x2+1)^2)", "exp(-x1) - 1", "log(x1 + 2)",
    "x1^2*x2", "x1 - 2*(x2 + 1)", "sqrt(x1^2 + x2^2)", "min(x1 + 1, x2 - 1)",
    "max(abs(x1), abs(x2))", "x1 + x2 + p1", "-p1*x2", "0.5*(x1 + x2)",
    "x1^2 - abs(x2)", "2 - (x1^2 + x2^2)", "x2 - z_max", "z_min - x2",
    "-x2 + z_o + z_delta*x1", "(x2 - 1)*(x2 + 1)", "x1^4 - x2^4",
    "exp(x1*x2)", "sqrt(abs(x1 - x2))", "sgn(x1 - x2)", "x1 - 1e-2",
]

_CONSTS = {"g": 1.0, "z_max": 1.5, "z_min": 0.5, "z_o": 0.0, "z_delta": 2.0}


def test_round_trip_corpus():
    assert len(_CORPUS) >= 50
    for text in _CORPUS:
        ast = ex.parse(text, 2, 1, _CONSTS)
        printed = ex.to_text(ast)
        again = ex.parse(printed, 2, 1, _CONSTS)
        assert again == ast, f"{text!r} -> {printed!r} reparsed differently"


def test_diff_matches_finite_differences():
    rng = np.random.default_rng(7)
    smooth = [t for t in _CORPUS
              if not any(f in t for f in ("abs", "min", "max", "sgn"))]
    checked = 0
    for text in smooth:
        ast = ex.parse(text, 2, 1, _CONSTS)
        f = ex.compile_ast(ast)
        for var in (0, 1):
            d = ex.differentiate(ast, var)
            assert not isinstance(d, ex.NonSmoothMarker)
            df = ex.compile_ast(d)
            for _ in range(100 // len(smooth) + 2):
                x = rng.uniform(0.2, 1.5, size=2)  # keep log/sqrt in-domain
                p = rng.uniform(0.0, 1.0, size=1)
                h = 1e-6
                xp, xm = x.copy(), x.copy()
                xp[var] += h
                xm[var] -= h
                fd = (f(xp, p) - f(xm, p)) / (2 * h)
                sym = df(x, p)
                if math.isfinite(fd) and math.isfinite(sym):
                    assert sym == pytest.approx(fd, rel=1e-6, abs=1e-6)
                    checked += 1
    assert checked >= 100


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="x12p+-*/^()., abcdefg", max_size=30))
def test_parse_totality(text):
    # every input yields an Ast or a Diagnostic-carrying ExprError, never
    # another exception
    try:
        ast = ex.parse(text, 2, 1, {"a": 1.0})
    except ex.ExprError as e:
        assert e.diagnostic.offset <= len(text) + 1
    else:
        assert ast is not None


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_literal_eval_identity(v):
    ast = ex.parse(repr(float(v)), 1)
    assert ex.compile_ast(ast)([0.0], ()) == pytest.approx(float(v), rel=1e-15, abs=1e-300)


def test_power_right_associative_literals():
    # x^2^3 groups as x^(2^3) = x^8
    ast = ex.parse("x1^2^3", 1)
    assert ex.compile_ast(ast)([2.0], ()) == 256.0
