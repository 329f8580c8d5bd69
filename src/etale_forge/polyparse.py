"""Parser and pretty-printer for polynomial expressions.

Grammar (LL(1), whitespace-insensitive; an error names its offset, a
character index into the text):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-'* atom ('^' INT)?
    atom    := NUMBER | SYMBOL | '(' expr ')'
    NUMBER  := INT ('/' INT)?
    INT     := ASCII digits 0-9

Implicit multiplication ("2x") is rejected; rationals are written "p/q";
exponents are nonnegative integer literals.  Symbols are either declared
variables or the generator of the coefficient field ("theta", "zeta", ...),
which may not be named like a variable.

The text is split into string tokens by one compiled regular expression:
a run of ASCII digits, a run of word characters (a symbol when it starts
with a letter or '_'), or any other single character; white space only
separates tokens.  An ASCII text of accepted characters needs one more
match to be known clean; any other text is checked token by token, so that
a bad character anywhere is the error reported, before anything is
evaluated.  The parser walks the token list by index.  A term reads its
factors in one loop, each factor's minus signs, atom and exponent, and only
parentheses recurse.  An error names a token index, and its character
offset is found, by matching the text again, only when the error is
raised.

Each rule returns a Poly, and the size bounds are checked in product and
power.  A product or power is rejected before it is expanded when its
degree would exceed MAX_DEGREE or its possible term count would exceed
MAX_TERMS.  That count is the dense C(n + deg, n) in the n variables its
operands use, for a power of one term too; for a product it is capped by
the product of the operands' term counts.  In a power a constant counts as
degree one, so its exponent is bounded too, and a power of a constant is
rejected as soon as a partial power has more than MAX_CONSTANT_BITS bits.
Parentheses and unary minus signs nest at most MAX_NESTING deep.

Text in one declared variable that print_poly could have written is read
without the parser: terms [-]c[*v[^e]] or v[^e] joined by " + " and " - ",
c being INT[/INT] or, over an extension field, a parenthesized sum of such
terms in the generator.  One regular expression matches each term, the text
is in this language when the matches cover it, and their digits go straight
into integer numerators over one common denominator.  The reader never
raises: it declines, and _Parser reads the text, for other white space or
symbols, the generator outside parentheses or to a power of at least the
field degree, parentheses over QQ, an exponent above MAX_DEGREE, a zero
denominator, and non-ASCII text or text longer than int() converts.  So
every error, message and offset is _Parser's, the reference it is tested
against.

A field is written "QQ" or as its monic minimal polynomial in one generator
symbol, under the same grammar and bounds (field_from_string, field_name);
its degree is bounded by MAX_FIELD_DEGREE.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from operator import add

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
# k <= 17 read back, and keeps one NumberField.inv (one fraction-free
# elimination of size n) of a small element near 1 ms; at degree 100 one
# takes about 0.35 s (2-vCPU Xeon).
MAX_FIELD_DEGREE = 16
# Bounds the bit length of the numerators and denominator of a power of a
# constant, which the degree bound alone lets grow to ((10^10)^1000)^1000.
# Far above every constant power this project parses (10^40, 133 bits, in
# field text) and below the 4300-digit (about 14,000-bit) limit CPython puts
# on int-to-text conversion, so each such constant prints back.
MAX_CONSTANT_BITS = 10_000
# Bounds how deep parentheses and unary minus signs nest.  Each level of
# parentheses takes two Python frames (expr, term), so the deepest allowed
# text stays well inside the default recursion limit of 1000.
MAX_NESTING = 100


class PolyParseError(ValueError):
    """Malformed polynomial text; position is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownSymbol(PolyParseError):
    pass


class NonIntegerExponent(PolyParseError):
    pass


# -- tokenizer -------------------------------------------------------------

# One token per match (see the module docstring); \s and \w match exactly
# the characters that str.isspace and str.isalnum (or '_') accept
_TOKEN = re.compile(r"[0-9]+|\w+|\S")
# an ASCII text made only of characters the grammar accepts
_PLAIN = re.compile(r"[\w\s+\-*^()/]*")
_OPS = frozenset("+-*^()/")
_END = ""   # the token after the last: end of input


def _is_symbol(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _tokenize(text: str) -> list[str]:
    """The tokens of text as strings, then _END.  A token is an operator,
    ASCII digits or a symbol (a letter or '_', then word characters); the
    first token in the text that is none of these raises at its first
    character, and so does a run of more digits than int() converts.  An
    ASCII text of accepted characters needs no check token by token."""
    tokens = _TOKEN.findall(text)
    limit = sys.get_int_max_str_digits()
    if not (text.isascii() and _PLAIN.fullmatch(text)) or 0 < limit < len(text):
        for i, tok in enumerate(tokens):
            if tok[0] in "0123456789":
                if 0 < limit < len(tok):
                    int(tok)   # raises int()'s ValueError
            elif tok not in _OPS and not _is_symbol(tok):
                raise PolyParseError(f"unexpected character {tok[0]!r}", _offset(text, i))
    tokens.append(_END)
    return tokens


def _offset(text: str, index: int) -> int:
    """The character offset of token index of text, len(text) for _END;
    computed only for an error."""
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == index:
            return match.start()
    return len(text)


def _shown(tok: str) -> str:
    """A token as error messages name it."""
    if tok == _END:
        return "end of input"
    return repr(int(tok)) if tok.isdigit() else repr(tok)


class _Parser:
    """Recursive descent that evaluates as it parses, over vars and field.

    Every rule returns a Poly, the zero Poly for zero.  expr reads a sum,
    whose terms go into one term map, and term a product, whose factors it
    reads in one loop; only parentheses recurse, through expr.  Products go
    through product() and powers through power(), which check every bound."""

    def __init__(self, text: str, vars: tuple[str, ...], field: NumberField):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.vars = vars
        self.field = field
        self.depth = 0
        # the value of the generator and of each declared variable
        self.symbols = {} if field.is_rational else {
            field.gen_name: Poly.constant(field.gen(), field, vars)}
        self.symbols.update((v, Poly.variable(v, field, vars)) for v in vars)

    def error(self, message: str, index: int, kind=PolyParseError) -> PolyParseError:
        return kind(message, _offset(self.text, index))

    def nest(self, index: int) -> None:
        """Enter one level of parentheses or unary minus."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("parentheses and unary minus signs nest deeper "
                             f"than the bound {MAX_NESTING}", index)

    def check_size(self, what: str, degree: int, operands: tuple[Poly, ...], index: int,
                   sparse_terms: float = math.inf) -> None:
        """Reject a product or power before it is expanded when its degree
        exceeds MAX_DEGREE or its possible term count exceeds MAX_TERMS; that
        count is the dense C(n + degree, n) in the n variables the operands
        use, capped by sparse_terms.  C(n + degree, n) grows with n, so n is
        only counted when neither sparse_terms nor the count in all of vars
        is within MAX_TERMS."""
        if degree > MAX_DEGREE:
            raise self.error(f"{what} of degree {degree} exceeds the bound {MAX_DEGREE}",
                             index)
        vars = self.vars
        if sparse_terms <= MAX_TERMS or math.comb(len(vars) + degree, len(vars)) <= MAX_TERMS:
            return
        n = len(set().union(*(p.support_variables() for p in operands)))
        terms = min(math.comb(n + degree, n), sparse_terms)
        if terms > MAX_TERMS:
            raise self.error(f"{what} of up to {terms} terms exceeds the bound {MAX_TERMS}",
                             index)

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.tokens[self.i]
        if tok != _END:
            raise self.error(f"unexpected {_shown(tok)} (implicit multiplication is not "
                             "allowed)", self.i)
        return value

    def expr(self) -> Poly:
        """A sum.  Its terms go into one term map, so that a term that
        cancels keeps its place, and one Poly is built from the nonzero
        coefficients over the lcm of their denominators."""
        field, tokens = self.field, self.tokens
        acc: dict[tuple[int, ...], FieldElement] = {}
        sign = "+"
        while True:
            value = self.term()
            if sign == "-":
                value = -value
            for k, c in value.terms.items():
                c = FieldElement(field, c, value.den)
                s = acc.get(k)
                acc[k] = c if s is None else s + c
            sign = tokens[self.i]
            if sign != "+" and sign != "-":
                break
            self.i += 1
        acc = {k: c for k, c in acc.items() if any(c.nums)}
        # the distinct denominators, not a generator: star-arguments from an
        # iterator build a 10-slot tuple and resize it, and a dropped tuple
        # of a resized length, or of length 20, stays in CPython 3.11's tuple
        # free lists until a full collection
        den = math.lcm(*{c.den for c in acc.values()})
        return Poly(field, self.vars,
                    {k: c.nums if c.den == den else tuple([x * (den // c.den) for x in c.nums])
                     for k, c in acc.items()}, den)

    def term(self) -> Poly:
        """A product, whose factors are read in one loop: each factor's
        minus signs, atom and exponent."""
        tokens, i = self.tokens, self.i
        star = None   # the index of the '*' before the factor, None for the first
        while True:
            tok = tokens[i]
            outer = self.depth
            while tok == "-":
                self.nest(i)
                i += 1
                tok = tokens[i]
            negate = (self.depth - outer) % 2
            factor, i = self.atom(tok, i)
            self.depth = outer
            if tokens[i] == "^":
                i += 1
                if tokens[i] == "-":
                    raise self.error("exponent must be nonnegative", i, NonIntegerExponent)
                if not tokens[i].isdigit():
                    raise self.error(f"expected integer exponent, found {_shown(tokens[i])}",
                                     i)
                if tokens[i + 1] == "/":
                    raise self.error("exponent must be an integer", i + 1, NonIntegerExponent)
                factor = self.power(factor, int(tokens[i]), i)
                i += 1
            if negate:
                factor = -factor
            value = factor if star is None else self.product(value, factor, star)
            if tokens[i] != "*":
                self.i = i
                return value
            star = i
            i += 1

    def atom(self, tok: str, i: int) -> tuple[Poly, int]:
        """The value of the number, symbol or parenthesized expr at token i,
        and the index after it; any other token there is an error."""
        value = self.symbols.get(tok)
        if value is not None:
            return value, i + 1
        tokens = self.tokens
        if tok.isdigit():
            num, den = int(tok), 1
            i += 1
            if tokens[i] == "/":
                i += 1
                if not tokens[i].isdigit():
                    raise self.error(f"expected 'INT', found {_shown(tokens[i])}", i)
                den = int(tokens[i])
                if den == 0:
                    raise self.error("zero denominator", i)
                i += 1
            return Poly.constant(Fraction(num, den), self.field, self.vars), i
        if tok == "(":
            self.nest(i)
            self.i = i + 1
            value = self.expr()
            i = self.i
            if tokens[i] != ")":
                raise self.error(f"expected ')', found {_shown(tokens[i])}", i)
            self.depth -= 1
            return value, i + 1
        if _is_symbol(tok):
            raise self.error(f"unknown symbol {tok!r}", i, UnknownSymbol)
        raise self.error(f"unexpected {_shown(tok)}", i)

    def product(self, value: Poly, factor: Poly, star: int) -> Poly:
        """value * factor, checked at the '*' with index star."""
        self.check_size("product", max(value.total_degree() + factor.total_degree(), 0),
                        (value, factor), star, len(value.terms) * len(factor.terms))
        return value * factor

    def power(self, base: Poly, exponent: int, index: int) -> Poly:
        """base**exponent, checked at the exponent, token index.  A constant
        counts as degree one, so its exponent is bounded too, and a nonzero
        one is raised by constant_power; every power is held to the dense
        count C(n + deg, n), a power of one term too."""
        degree = base.total_degree()
        self.check_size("power", max(degree, 1) * exponent, (base,), index)
        if degree == 0 and exponent:
            c = self.constant_power(base.constant_coeff(), exponent, index)
            return Poly.constant(c, self.field, self.vars)
        return base ** exponent

    def constant_power(self, c: FieldElement, exponent: int, index: int) -> FieldElement:
        """c**exponent for exponent >= 1 by square-and-multiply, rejected as
        soon as a partial power, c itself included, has a numerator or
        denominator of more than MAX_CONSTANT_BITS bits."""
        def checked(x: FieldElement) -> FieldElement:
            if max(x.den, max(map(abs, x.nums))).bit_length() > MAX_CONSTANT_BITS:
                raise self.error("power of a constant exceeds the bound "
                                 f"{MAX_CONSTANT_BITS} on its bit length", index)
            return x

        result = checked(c)
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * c
            checked(result)
        return result


# One match per term of the language print_poly writes for a one-variable
# Poly (see the module docstring), in groups: the term, its sign, its
# coefficient (a number, or a parenthesized sum of numbers times generator
# powers), numerator, denominator, parenthesized sum, symbol and exponent.
# After a coefficient the symbol needs a '*'; without one it makes the term.
_PART = r"(?:[0-9]+(?:/[0-9]+)?(?:\*[A-Za-z_]\w*(?:\^[0-9]+)?)?|[A-Za-z_]\w*(?:\^[0-9]+)?)"
_PRINTED_TERM = re.compile(rf"((^-?| [+-] )(([0-9]+)(?:/([0-9]+))?|\((-?{_PART}"
                           rf"(?: [+-] {_PART})*)\))?(?:(?(3)\*)([A-Za-z_]\w*)(?:\^([0-9]+))?)?)")


def _read_printed(text: str, var: str, field: NumberField) -> Poly | None:
    """The Poly of text in var over field when the matches of its terms
    cover text and it is inside every bound, else None."""
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(text) or not text.isascii():
        return None
    terms = _PRINTED_TERM.findall(text)
    if sum([len(m[0]) for m in terms]) != len(text):
        return None
    n, gen = field.degree, field.gen_name
    read = []   # (exponent, [(coordinate, signed numerator, denominator)]) per term
    for _, sign, coeff, a, b, inner, sym, e in terms:
        if not (coeff or sym) or sym and sym != var or e and int(e) > MAX_DEGREE \
                or b and not int(b) or inner and n == 1:
            return None
        sign = -1 if "-" in sign else 1
        if not inner:
            parts = [(0, sign * int(a or 1), int(b or 1))]
        else:
            parts = []
            for _, s, _, c, d, _, g, j in _PRINTED_TERM.findall(inner):
                power = int(j) if j else 1 if g else 0
                if g and g != gen or power >= n or d and not int(d):
                    return None
                parts.append((power, (-sign if "-" in s else sign) * int(c or 1), int(d or 1)))
        read.append((int(e) if e else 1 if sym else 0, parts))
    den = math.lcm(*{d for _, parts in read for _, _, d in parts})
    # a zero term adds no key, so the terms keep the order _Parser gives them
    acc: dict[int, list[int]] = {}
    for k, parts in read:
        row = [0] * n
        for j, x, d in parts:
            row[j] += x * (den // d)
        if any(row):
            old = acc.get(k)
            acc[k] = row if old is None else [*map(add, old, row)]
    return Poly(field, (var,), {(k,): tuple(row) for k, row in acc.items() if any(row)}, den)


def parse_poly(text: str, vars, field: NumberField = QQ) -> Poly:
    """Parse text into an exact Poly over the given field and variables.
    The generator of an extension field may not share a name with a
    variable, or print_poly would print text that reads back otherwise.
    Text in one variable that print_poly could have written is read by
    _read_printed; every other text, and every error, is _Parser's."""
    vars = tuple(vars)
    if not field.is_rational and field.gen_name in vars:
        raise PolyParseError(f"field generator {field.gen_name!r} is also a "
                             "variable", 0)
    p = _read_printed(text, vars[0], field) if len(vars) == 1 else None
    return _Parser(text, vars, field).parse() if p is None else p


@lru_cache(maxsize=256)
def field_from_string(text: str) -> NumberField:
    """The field that text names: "QQ", or a monic minimal polynomial in
    one generator symbol of degree at most MAX_FIELD_DEGREE.  Cached per
    text, since a NumberField is never mutated (an error is not cached)."""
    if text.strip() == "QQ":
        return QQ
    names = {tok for tok in _tokenize(text) if _is_symbol(tok)}
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
