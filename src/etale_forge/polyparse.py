"""Parser and pretty-printer for polynomial expressions.

Grammar (LL(1), whitespace-insensitive, byte offsets in errors):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | atom ('^' INT)?
    atom    := NUMBER | SYMBOL | '(' expr ')'
    NUMBER  := INT ('/' INT)?

Implicit multiplication ("2x") is rejected; rationals are written "p/q";
exponents are nonnegative integer literals.  Symbols are either declared
variables or the generator of the coefficient field ("theta", "zeta", ...).
A power whose degree would exceed MAX_DEGREE, or whose dense term count
would exceed MAX_TERMS, is rejected before it is expanded; a constant counts
as degree one there, so its exponent is bounded too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numfield import QQ, NumberField, format_terms, join, power_terms
from .polyalg import Poly

# Above every degree this project parses (at most 30 in the fixtures, the
# report and the benchmark inputs) and low enough that the largest allowed
# power of a dense univariate binomial expands in seconds.
MAX_DEGREE = 1000
# Bounds the dense term count C(n + deg, n) of a power of degree deg in n
# variables: above every count this project parses (at most 3060, the
# report's printed family formulas) and low enough that the largest allowed
# power expands in seconds ((1+x+y)^87, 3916 terms: 7.9 s on a 2-vCPU Xeon).
MAX_TERMS = 4000


class PolyParseError(ValueError):
    """Malformed polynomial text; position is a byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownSymbol(PolyParseError):
    pass


class NonIntegerExponent(PolyParseError):
    pass


@dataclass(frozen=True)
class ExprAST:
    """Expression tree node: number | symbol | add | mul | pow | neg | paren."""
    kind: str
    children: tuple = ()
    value: object = None
    position: int = 0


# -- tokenizer -------------------------------------------------------------

_OPS = set("+-*^()/")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("SYM", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> ExprAST:
        ast = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise PolyParseError(
                f"unexpected {tok[1]!r} (implicit multiplication is not allowed)",
                tok[2])
        return ast

    def expr(self) -> ExprAST:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            rhs = self.term()
            if op == "-":
                rhs = ExprAST("neg", (rhs,), position=pos)
            node = ExprAST("add", (node, rhs), position=pos)
        return node

    def term(self) -> ExprAST:
        node = self.factor()
        while self.peek()[0] == "*":
            _, _, pos = self.advance()
            node = ExprAST("mul", (node, self.factor()), position=pos)
        return node

    def factor(self) -> ExprAST:
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return ExprAST("neg", (self.factor(),), position=tok[2])
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            etok = self.peek()
            if etok[0] == "-":
                raise NonIntegerExponent("exponent must be nonnegative", etok[2])
            if etok[0] != "INT":
                raise PolyParseError(f"expected integer exponent, found {etok[1]!r}",
                                     etok[2])
            self.advance()
            if self.peek()[0] == "/":
                raise NonIntegerExponent("exponent must be an integer", self.peek()[2])
            node = ExprAST("pow", (node,), value=etok[1], position=etok[2])
        return node

    def atom(self) -> ExprAST:
        tok = self.advance()
        if tok[0] == "INT":
            value = Fraction(tok[1])
            if self.peek()[0] == "/":
                self.advance()
                den = self.expect("INT")
                if den[1] == 0:
                    raise PolyParseError("zero denominator", den[2])
                value = Fraction(tok[1], den[1])
            return ExprAST("number", value=value, position=tok[2])
        if tok[0] == "SYM":
            return ExprAST("symbol", value=tok[1], position=tok[2])
        if tok[0] == "(":
            inner = self.expr()
            self.expect(")")
            return ExprAST("paren", (inner,), position=tok[2])
        raise PolyParseError(f"unexpected {tok[1]!r}", tok[2])


def parse_expr(text: str) -> ExprAST:
    return _Parser(_tokenize(text)).parse()


def _ast_to_poly(ast: ExprAST, vars: tuple[str, ...], field: NumberField) -> Poly:
    kind = ast.kind
    if kind == "number":
        return Poly.constant(field.elem(ast.value), field, vars)
    if kind == "symbol":
        name = ast.value
        if name in vars:
            return Poly.variable(name, field, vars)
        if not field.is_rational and name == field.gen_name:
            return Poly.constant(field.gen(), field, vars)
        raise UnknownSymbol(f"unknown symbol {name!r}", ast.position)
    if kind == "neg":
        return -_ast_to_poly(ast.children[0], vars, field)
    if kind == "paren":
        return _ast_to_poly(ast.children[0], vars, field)
    if kind == "add":
        return (_ast_to_poly(ast.children[0], vars, field)
                + _ast_to_poly(ast.children[1], vars, field))
    if kind == "mul":
        return (_ast_to_poly(ast.children[0], vars, field)
                * _ast_to_poly(ast.children[1], vars, field))
    if kind == "pow":
        base = _ast_to_poly(ast.children[0], vars, field)
        degree = max(base.total_degree(), 1) * ast.value
        if degree > MAX_DEGREE:
            raise PolyParseError(
                f"power of degree {degree} exceeds the bound {MAX_DEGREE}",
                ast.position)
        terms = math.comb(len(base.support_variables()) + degree, degree)
        if terms > MAX_TERMS:
            raise PolyParseError(
                f"power of up to {terms} terms exceeds the bound {MAX_TERMS}",
                ast.position)
        return base ** ast.value
    raise PolyParseError(f"unknown node kind {kind!r}", ast.position)


def parse_poly(text: str, vars, field: NumberField = QQ) -> Poly:
    """Parse text into an exact Poly over the given field and variables."""
    return _ast_to_poly(parse_expr(text), tuple(vars), field)


# -- printing ----------------------------------------------------------------


def _format_monomial(variables: tuple[str, ...], exps: tuple[int, ...]) -> str:
    pieces = []
    for v, e in zip(variables, exps):
        if e == 0:
            continue
        pieces.append(v if e == 1 else f"{v}^{e}")
    return "*".join(pieces)


def print_poly(p: Poly) -> str:
    """Canonical text form; parse_poly(print_poly(p)) == p.

    Terms in descending lexicographic order of the exponent vectors;
    rational coefficients contribute their sign to the term separator,
    proper field coefficients are parenthesized in ascending powers of the
    generator and printed as a positive unit term.
    """
    terms = []
    for exps in sorted(p.terms, reverse=True):
        c = join(p.terms[exps], p.den)
        mono = _format_monomial(p.variables, exps)
        if not any(c[1:]):
            terms.append((mono, c[0]))
        else:
            coeff = "(" + format_terms(power_terms(c, p.field.gen_name)) + ")"
            terms.append((f"{coeff}*{mono}" if mono else coeff, 1))
    return format_terms(terms)
