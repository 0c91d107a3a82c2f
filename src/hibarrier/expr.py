"""Small expression language for declaring systems and barriers in config files.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' exponent)?    # exponent must fold to a numeric literal
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers are state variables x1..xn, parameters p1..pk, declared constants,
or one of the functions min, max, abs, sqrt, exp, log, sgn.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Diagnostic",
    "ExprError",
    "NonSmoothMarker",
    "NONSMOOTH",
    "parse",
    "compile_ast",
    "compile_vector",
    "differentiate",
    "depends_on",
    "to_text",
]


@dataclass(frozen=True)
class Diagnostic:
    """A parse failure: where it happened and what would have been accepted."""

    offset: int
    line: int
    column: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        loc = f"{self.line}:{self.column}"
        if self.expected:
            return f"{loc}: {self.message} (expected {', '.join(self.expected)})"
        return f"{loc}: {self.message}"


class ExprError(ValueError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class NonSmoothMarker:
    """Returned by differentiate() when abs/min/max/sgn sit on the derivative path."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NonSmoothMarker"


NONSMOOTH = NonSmoothMarker()


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based; surface syntax is 1-based (x1, x2, ...)


@dataclass(frozen=True)
class Param:
    index: int  # 0-based; surface syntax is p1, p2, ...


@dataclass(frozen=True)
class Const:
    name: str
    value: float


@dataclass(frozen=True)
class Un:
    op: str  # neg | abs | sqrt | exp | log | sgn
    arg: "Ast"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^ min max
    left: "Ast"
    right: "Ast"


Ast = Lit | Var | Param | Const | Un | Bin

_FUNCTIONS = {"min": 2, "max": 2, "abs": 1, "sqrt": 1, "exp": 1, "log": 1, "sgn": 1}


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP EOF
    text: str
    offset: int
    line: int
    column: int


def _tokenize(text: str) -> list[_Token] | Diagnostic:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            if c == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue
        start, sline, scol = i, line, col
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("NUMBER", text[start:j], start, sline, scol))
            col += j - i
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[start:j], start, sline, scol))
            col += j - i
            i = j
        elif c in "+-*/^(),":
            tokens.append(_Token("OP", c, start, sline, scol))
            i += 1
            col += 1
        else:
            return Diagnostic(start, sline, scol, f"unexpected character {c!r}",
                              ("number", "identifier", "operator"))
    tokens.append(_Token("EOF", "", n, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token], n_vars: int, n_params: int,
                 constants: dict[str, float]):
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars
        self.n_params = n_params
        self.constants = constants

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str, expected: tuple[str, ...] = ()) -> ExprError:
        return ExprError(Diagnostic(tok.offset, tok.line, tok.column, message, expected))

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == text:
            return self.advance()
        raise self.fail(tok, f"got {tok.text or 'end of input'!r}", (repr(text),))

    def parse_expr(self) -> Ast:
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> Ast:
        node = self.parse_factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Ast:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Un("neg", self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Ast:
        base = self.parse_atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            exp_tok = self.peek()
            exponent = self.parse_factor()
            folded = _fold_literal(exponent)
            if folded is None:
                raise self.fail(exp_tok, "exponent must be a numeric literal",
                                ("number",))
            return Bin("^", base, Lit(folded))
        return base

    def parse_atom(self) -> Ast:
        tok = self.advance()
        if tok.kind == "NUMBER":
            return Lit(float(tok.text))
        if tok.kind == "IDENT":
            name = tok.text
            if self.peek().kind == "OP" and self.peek().text == "(":
                if name not in _FUNCTIONS:
                    raise self.fail(tok, f"unknown function {name!r}",
                                    tuple(sorted(_FUNCTIONS)))
                self.advance()
                args = [self.parse_expr()]
                while self.peek().kind == "OP" and self.peek().text == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                arity = _FUNCTIONS[name]
                if len(args) != arity:
                    raise self.fail(tok, f"{name} takes {arity} argument(s), got {len(args)}")
                if arity == 1:
                    return Un(name, args[0])
                return Bin(name, args[0], args[1])
            return self.resolve_ident(tok)
        if tok.kind == "OP" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise self.fail(tok, f"got {tok.text or 'end of input'!r}",
                        ("number", "identifier", "'('", "'-'"))

    def resolve_ident(self, tok: _Token) -> Ast:
        name = tok.text
        for prefix, limit, node in (("x", self.n_vars, Var), ("p", self.n_params, Param)):
            if name.startswith(prefix) and name[len(prefix):].isdigit():
                idx = int(name[len(prefix):])
                if idx < 1 or idx > limit:
                    raise self.fail(tok, f"{name!r} out of range (declared {prefix}1..{prefix}{limit})")
                return node(idx - 1)
        if name in self.constants:
            return Const(name, float(self.constants[name]))
        raise self.fail(tok, f"unknown identifier {name!r}",
                        ("x<i>", "p<j>", "constant name"))


def _fold_literal(ast: Ast) -> float | None:
    """Fold an AST to a float when it contains no variables or parameters."""
    if isinstance(ast, Lit):
        return ast.value
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Un):
        v = _fold_literal(ast.arg)
        if v is None:
            return None
        return _UNARY_FNS[ast.op](v)
    if isinstance(ast, Bin):
        a = _fold_literal(ast.left)
        b = _fold_literal(ast.right)
        if a is None or b is None:
            return None
        return _BINARY_FNS[ast.op](a, b)
    return None


def parse(text: str, n_vars: int, n_params: int = 0,
          constants: dict[str, float] | None = None) -> Ast:
    """Parse `text`; raises ExprError carrying a Diagnostic on malformed input."""
    tokens = _tokenize(text)
    if isinstance(tokens, Diagnostic):
        raise ExprError(tokens)
    parser = _Parser(tokens, n_vars, n_params, constants or {})
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise parser.fail(tail, f"trailing input {tail.text!r}", ("end of input",))
    return node


# ---------------------------------------------------------------------------
# Evaluation (IEEE double semantics; log/sqrt of invalid input yield nan/inf,
# callers treat non-finite values as evaluation errors)


def _safe_sqrt(v: float) -> float:
    return math.sqrt(v) if v >= 0.0 else math.nan


def _safe_log(v: float) -> float:
    if v > 0.0:
        return math.log(v)
    return -math.inf if v == 0.0 else math.nan


def _safe_div(a: float, b: float) -> float:
    if b != 0.0:
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _safe_pow(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except OverflowError:
        return math.inf
    except ValueError:
        if a == 0.0 and b < 0.0:
            return math.inf
        return math.nan


def _sgn(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _safe_exp(v: float) -> float:
    return math.exp(v) if v < 709.0 else math.inf


_UNARY_FNS: dict[str, Callable[[float], float]] = {
    "neg": lambda v: -v,
    "abs": abs,
    "sqrt": _safe_sqrt,
    "exp": _safe_exp,
    "log": _safe_log,
    "sgn": _sgn,
}

_BINARY_FNS: dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _safe_div,
    "^": _safe_pow,
    "min": min,
    "max": max,
}

# Code templates for the generated evaluators; each names the helper it calls.
_UNARY_CODE = {"neg": "-{}", "abs": "abs({})", "sqrt": "_safe_sqrt({})",
               "exp": "_safe_exp({})", "log": "_safe_log({})", "sgn": "_sgn({})"}
_BINARY_CODE = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}",
                "/": "_safe_div({}, {})", "^": "_safe_pow({}, {})",
                "min": "min({}, {})", "max": "max({}, {})"}


class _Emitter:
    """Straight-line SSA code for ASTs: one `tN = ...` per distinct node,
    children first, left before right. Literals are bound in the namespace by
    their exact bits (so 0.0 and -0.0 stay apart), and a node that recurs in
    the same function is computed once."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict[str, object] = {
            "_safe_sqrt": _safe_sqrt, "_safe_exp": _safe_exp, "_safe_log": _safe_log,
            "_sgn": _sgn, "_safe_div": _safe_div, "_safe_pow": _safe_pow,
            "_array": np.array}
        self.names: dict[tuple, str] = {}

    def _assign(self, key: tuple, code: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"    {name} = {code}")
        self.names[key] = name
        return name

    def emit(self, ast: Ast) -> str:
        """The name holding `ast`'s value once the emitted lines have run."""
        if isinstance(ast, (Lit, Const)):
            key = ("c", struct.pack("<d", ast.value))
            if key not in self.names:
                name = f"c{len(self.names)}"
                self.namespace[name] = float(ast.value)
                self.names[key] = name
            return self.names[key]
        if isinstance(ast, Var):
            key = ("x", ast.index)
            return self.names.get(key) or self._assign(key, f"float(x[{ast.index}])")
        if isinstance(ast, Param):
            key = ("p", ast.index)
            return self.names.get(key) or self._assign(key, f"float(p[{ast.index}])")
        if isinstance(ast, Un):
            arg = self.emit(ast.arg)
            key = (ast.op, arg)
            return self.names.get(key) or self._assign(key, _UNARY_CODE[ast.op].format(arg))
        if isinstance(ast, Bin):
            left = self.emit(ast.left)
            right = self.emit(ast.right)
            key = (ast.op, left, right)
            return self.names.get(key) or self._assign(
                key, _BINARY_CODE[ast.op].format(left, right))
        raise TypeError(f"not an Ast node: {ast!r}")

    def function(self, params: str, result: str) -> Callable:
        source = "\n".join([f"def f({params}):", *self.lines, f"    return {result}", ""])
        exec(compile(source, "<hibarrier.expr>", "exec"), self.namespace)
        return self.namespace["f"]


def compile_ast(ast: Ast) -> Callable[[Sequence[float], Sequence[float]], float]:
    """Compile to one generated function f(x, p) -> float."""
    em = _Emitter()
    return em.function("x, p", em.emit(ast))


def compile_vector(asts: Sequence[Ast]) -> Callable[[Sequence[float], Sequence[float]],
                                                     np.ndarray]:
    """Compile several ASTs (a gradient's partials, a map's components) into
    one generated function f(x, p=()) -> np.array of their values, in order.
    Each component equals compile_ast(component)(x, p)."""
    em = _Emitter()
    results = [em.emit(a) for a in asts]
    return em.function("x, p=()", f"_array([{', '.join(results)}])")


# ---------------------------------------------------------------------------
# Symbolic differentiation


def depends_on(ast: Ast, var_index: int) -> bool:
    if isinstance(ast, Var):
        return ast.index == var_index
    if isinstance(ast, Un):
        return depends_on(ast.arg, var_index)
    if isinstance(ast, Bin):
        return depends_on(ast.left, var_index) or depends_on(ast.right, var_index)
    return False


def _is_zero(ast: Ast) -> bool:
    return isinstance(ast, Lit) and ast.value == 0.0


def _is_one(ast: Ast) -> bool:
    return isinstance(ast, Lit) and ast.value == 1.0


def _add(a: Ast, b: Ast) -> Ast:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Bin("+", a, b)


def _sub(a: Ast, b: Ast) -> Ast:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Un("neg", b)
    return Bin("-", a, b)


def _mul(a: Ast, b: Ast) -> Ast:
    if _is_zero(a) or _is_zero(b):
        return Lit(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Bin("*", a, b)


def _pow(a: Ast, c: float) -> Ast:
    if c == 0.0:
        return Lit(1.0)
    if c == 1.0:
        return a
    return Bin("^", a, Lit(c))


def differentiate(ast: Ast, var_index: int) -> Ast | NonSmoothMarker:
    """d(ast)/d x_{var_index}; NONSMOOTH if abs/min/max/sgn sit on the path."""
    if isinstance(ast, (Lit, Const, Param)):
        return Lit(0.0)
    if isinstance(ast, Var):
        return Lit(1.0 if ast.index == var_index else 0.0)
    if isinstance(ast, Un):
        if ast.op in ("abs", "sgn"):
            if depends_on(ast.arg, var_index):
                return NONSMOOTH
            return Lit(0.0)
        da = differentiate(ast.arg, var_index)
        if isinstance(da, NonSmoothMarker):
            return NONSMOOTH
        if ast.op == "neg":
            return Lit(0.0) if _is_zero(da) else Un("neg", da)
        if ast.op == "sqrt":
            if _is_zero(da):
                return Lit(0.0)
            return Bin("/", da, _mul(Lit(2.0), Un("sqrt", ast.arg)))
        if ast.op == "exp":
            return _mul(da, Un("exp", ast.arg))
        if ast.op == "log":
            if _is_zero(da):
                return Lit(0.0)
            return Bin("/", da, ast.arg)
        raise ValueError(f"unknown unary op {ast.op!r}")
    if isinstance(ast, Bin):
        if ast.op in ("min", "max"):
            if depends_on(ast, var_index):
                return NONSMOOTH
            return Lit(0.0)
        da = differentiate(ast.left, var_index)
        db = differentiate(ast.right, var_index)
        if isinstance(da, NonSmoothMarker) or isinstance(db, NonSmoothMarker):
            return NONSMOOTH
        if ast.op == "+":
            return _add(da, db)
        if ast.op == "-":
            return _sub(da, db)
        if ast.op == "*":
            return _add(_mul(da, ast.right), _mul(ast.left, db))
        if ast.op == "/":
            num = _sub(_mul(da, ast.right), _mul(ast.left, db))
            if _is_zero(num):
                return Lit(0.0)
            return Bin("/", num, _pow(ast.right, 2.0))
        if ast.op == "^":
            # exponent is a literal by construction
            c = ast.right.value  # type: ignore[union-attr]
            if _is_zero(da):
                return Lit(0.0)
            return _mul(_mul(Lit(c), _pow(ast.left, c - 1.0)), da)
    raise TypeError(f"not an Ast node: {ast!r}")


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through parse to a structurally identical Ast)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(ast: Ast) -> str:
    return _print(ast, 0)


def _print(ast: Ast, parent_prec: int) -> str:
    if isinstance(ast, Lit):
        v = ast.value
        if v == int(v) and abs(v) < 1e15:
            text = str(int(v))
        else:
            text = repr(v)
        if v < 0:
            return f"({text})" if parent_prec > 0 else text
        return text
    if isinstance(ast, Var):
        return f"x{ast.index + 1}"
    if isinstance(ast, Param):
        return f"p{ast.index + 1}"
    if isinstance(ast, Const):
        return ast.name
    if isinstance(ast, Un):
        if ast.op == "neg":
            inner = _print(ast.arg, _PREC["neg"])
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PREC["neg"] else text
        return f"{ast.op}({_print(ast.arg, 0)})"
    if isinstance(ast, Bin):
        if ast.op in ("min", "max"):
            return f"{ast.op}({_print(ast.left, 0)}, {_print(ast.right, 0)})"
        prec = _PREC[ast.op]
        left = _print(ast.left, prec)
        # left-associative ops need parens on an equal-precedence right child
        right = _print(ast.right, prec + (0 if ast.op == "^" else 1))
        text = f"{left} {ast.op} {right}" if ast.op in "+-" else f"{left}{ast.op}{right}"
        if parent_prec > prec:
            return f"({text})"
        return text
    raise TypeError(f"not an Ast node: {ast!r}")
