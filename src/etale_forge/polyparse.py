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

A field is written "QQ" or as its monic minimal polynomial in one generator
symbol, under the same grammar and bounds (field_from_string, field_name);
its degree is bounded by MAX_FIELD_DEGREE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numfield import QQ, FieldElement, NumberField, format_terms, power_terms
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
# Bounds the degree of a field read from text or a candidates file.  It
# admits Q(zeta_17), so the documents `construct cyclic-galois` writes for
# k <= 17 read back, and keeps one NumberField.inv (n + 1 Bareiss
# determinants of size n) of a small element near 5 ms; at degree 100 one
# inverse takes seconds.
MAX_FIELD_DEGREE = 16


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


def _shown(tok) -> str:
    """A token as error messages name it."""
    return "end of input" if tok[0] == "EOF" else repr(tok[1])


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
            raise PolyParseError(f"expected {kind!r}, found {_shown(tok)}", tok[2])
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
                raise PolyParseError(f"expected integer exponent, found {_shown(etok)}",
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
        raise PolyParseError(f"unexpected {_shown(tok)}", tok[2])


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


def field_from_string(text: str) -> NumberField:
    """The field that text names: "QQ", or a monic minimal polynomial in
    one generator symbol of degree at most MAX_FIELD_DEGREE."""
    if text.strip() == "QQ":
        return QQ
    names = {value for kind, value, _ in _tokenize(text) if kind == "SYM"}
    if len(names) != 1:
        raise ValueError("field text needs exactly one generator symbol, "
                         f"found {len(names)}")
    (gen,) = names
    m = parse_poly(text, (gen,), QQ)
    if m.total_degree() > MAX_FIELD_DEGREE:
        raise ValueError(f"field of degree {m.total_degree()} exceeds the "
                         f"bound {MAX_FIELD_DEGREE}")
    return NumberField([c.as_fraction() for c in m.univariate_coeffs()], gen=gen)


def field_name(field: NumberField) -> str:
    """The text form field_from_string reads back: "QQ" for every
    degree-one field, else the minimal polynomial."""
    return "QQ" if field == QQ else field.minpoly_str()


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
        c = FieldElement(p.field, p.terms[exps], p.den)
        mono = _format_monomial(p.variables, exps)
        if c.is_rational():
            terms.append((mono, c.as_fraction()))
        else:
            coeff = "(" + format_terms(power_terms(c.coords, p.field.gen_name)) + ")"
            terms.append((f"{coeff}*{mono}" if mono else coeff, 1))
    return format_terms(terms)
