"""Parser and pretty-printer for polynomial expressions.

Grammar (LL(1), whitespace-insensitive, byte offsets in errors):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-'* atom ('^' INT)?
    atom    := NUMBER | SYMBOL | '(' expr ')'
    NUMBER  := INT ('/' INT)?

Implicit multiplication ("2x") is rejected; rationals are written "p/q";
exponents are nonnegative integer literals.  Symbols are either declared
variables or the generator of the coefficient field ("theta", "zeta", ...),
which may not be named like a variable.
The parser evaluates as it reads.  A product or power is rejected before it
is expanded when its degree would exceed MAX_DEGREE or its possible term
count would exceed MAX_TERMS.  That count is the dense C(n + deg, n) in the
n variables its operands use; for a product it is capped by the product of
the operands' term counts.  In a power a constant counts as degree one, so
its exponent is bounded too, and a power of a constant is rejected as soon
as a partial power has more than MAX_CONSTANT_BITS bits.  Parentheses and
unary minus signs nest at most MAX_NESTING deep; a run of minus signs is
read in a loop, so only parentheses recurse.

A field is written "QQ" or as its monic minimal polynomial in one generator
symbol, under the same grammar and bounds (field_from_string, field_name);
its degree is bounded by MAX_FIELD_DEGREE.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .numfield import QQ, FieldElement, NumberField, format_terms, power_terms
from .polyalg import Poly

# Above every degree this project parses (at most 30 in the fixtures, the
# report and the benchmark inputs) and low enough that the largest allowed
# power of a dense univariate binomial expands in seconds.
MAX_DEGREE = 1000
# Bounds the possible term count of a product or power of degree deg in n
# variables: the dense C(n + deg, n), for a product capped by the product of
# its operands' term counts.  Above every count this project parses (at most
# 3060, the report's printed family formulas) and low enough that the
# largest allowed power expands in seconds ((1+x+y)^87, 3916 terms: 7.9 s on
# a 2-vCPU Xeon).
MAX_TERMS = 4000
# Bounds the degree of a field read from text or a candidates file.  It
# admits Q(zeta_17), so the documents `construct cyclic-galois` writes for
# k <= 17 read back, and keeps one NumberField.inv (n + 1 Bareiss
# determinants of size n) of a small element near 5 ms; at degree 100 one
# inverse takes seconds.
MAX_FIELD_DEGREE = 16
# Bounds the bit length of the numerators and denominator of a power of a
# constant, which the degree bound alone lets grow to ((10^10)^1000)^1000.
# Far above every constant power this project parses (10^40, 133 bits, in
# field text) and below the 4300-digit (about 14,000-bit) limit CPython puts
# on int-to-text conversion, so each such constant prints back.
MAX_CONSTANT_BITS = 10_000
# Bounds how deep parentheses and unary minus signs nest.  Each level of
# parentheses takes four Python frames (expr, term, factor, atom), so the
# deepest allowed text stays well inside the default recursion limit of 1000.
MAX_NESTING = 100


class PolyParseError(ValueError):
    """Malformed polynomial text; position is a byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownSymbol(PolyParseError):
    pass


class NonIntegerExponent(PolyParseError):
    pass


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


def _check_size(what: str, degree: int, operands: tuple[Poly, ...], position: int,
                sparse_terms: float = math.inf) -> None:
    """Reject a product or power before it is expanded when its degree
    exceeds MAX_DEGREE or its possible term count exceeds MAX_TERMS; that
    count is the dense C(n + degree, n) in the n variables the operands
    use, capped by sparse_terms, so n is only counted when sparse_terms
    exceeds MAX_TERMS."""
    if degree > MAX_DEGREE:
        raise PolyParseError(
            f"{what} of degree {degree} exceeds the bound {MAX_DEGREE}", position)
    if sparse_terms <= MAX_TERMS:
        return
    n = len(set().union(*(p.support_variables() for p in operands)))
    terms = min(math.comb(n + degree, n), sparse_terms)
    if terms > MAX_TERMS:
        raise PolyParseError(
            f"{what} of up to {terms} terms exceeds the bound {MAX_TERMS}", position)


def _constant_power(c: FieldElement, exponent: int, position: int) -> FieldElement:
    """c**exponent by square-and-multiply, rejected as soon as a partial
    power has a numerator or denominator of more than MAX_CONSTANT_BITS
    bits."""
    result = c.field.one()
    for bit in bin(exponent)[2:]:
        result = result * result
        if bit == "1":
            result = result * c
        if max(result.den, *map(abs, result.nums)).bit_length() > MAX_CONSTANT_BITS:
            raise PolyParseError("power of a constant exceeds the bound "
                                 f"{MAX_CONSTANT_BITS} on its bit length", position)
    return result


class _Parser:
    """Recursive descent that evaluates as it parses: each rule returns the
    Poly its text denotes over vars and field."""

    def __init__(self, text: str, vars: tuple[str, ...], field: NumberField):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = vars
        self.field = field
        self.depth = 0

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

    def nest(self, position: int) -> None:
        """Enter one level of parentheses or unary minus."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PolyParseError("parentheses and unary minus signs nest deeper "
                                 f"than the bound {MAX_NESTING}", position)

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise PolyParseError(
                f"unexpected {tok[1]!r} (implicit multiplication is not allowed)",
                tok[2])
        return value

    def expr(self) -> Poly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            rhs = self.factor()
            _check_size("product", max(value.total_degree() + rhs.total_degree(), 0),
                        (value, rhs), pos, len(value.terms) * len(rhs.terms))
            value = value * rhs
        return value

    def factor(self) -> Poly:
        outer = self.depth
        while self.peek()[0] == "-":
            self.nest(self.advance()[2])
        negate = (self.depth - outer) % 2 == 1
        value = self.atom()
        if self.peek()[0] == "^":
            value = self.power(value)
        self.depth = outer
        return -value if negate else value

    def power(self, base: Poly) -> Poly:
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
        exponent, degree = etok[1], base.total_degree()
        # a constant counts as degree one, so its exponent is bounded too
        _check_size("power", max(degree, 1) * exponent, (base,), etok[2])
        if degree == 0:
            c = _constant_power(base.constant_coeff(), exponent, etok[2])
            return Poly.constant(c, self.field, self.vars)
        return base ** exponent

    def atom(self) -> Poly:
        tok = kind, value, pos = self.advance()
        field, vars = self.field, self.vars
        if kind == "INT":
            if self.peek()[0] == "/":
                self.advance()
                den = self.expect("INT")
                if den[1] == 0:
                    raise PolyParseError("zero denominator", den[2])
                value = Fraction(value, den[1])
            return Poly.constant(field.elem(value), field, vars)
        if kind == "SYM":
            if value in vars:
                return Poly.variable(value, field, vars)
            if not field.is_rational and value == field.gen_name:
                return Poly.constant(field.gen(), field, vars)
            raise UnknownSymbol(f"unknown symbol {value!r}", pos)
        if kind == "(":
            self.nest(pos)
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise PolyParseError(f"unexpected {_shown(tok)}", pos)


def parse_poly(text: str, vars, field: NumberField = QQ) -> Poly:
    """Parse text into an exact Poly over the given field and variables.
    The generator of an extension field may not share a name with a
    variable, or print_poly would print text that reads back otherwise."""
    vars = tuple(vars)
    if not field.is_rational and field.gen_name in vars:
        raise PolyParseError(f"field generator {field.gen_name!r} is also a "
                             "variable", 0)
    return _Parser(text, vars, field).parse()


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
