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
factors in one loop, each factor's minus signs, number or variable and
exponent inline (the generator and parentheses through atom), and only
parentheses recurse.  An error names a token index, and its character
offset is found, by matching the text again, only when the error is
raised.

The parser evaluates term by term as it reads.  A term whose factors are
numbers and declared variables, each perhaps with an exponent, is read into
a running monomial of ints, a rational coefficient num/den and a list of
exponents, with the minus sign of its sum folded into num; one FieldElement
is built when the term ends, and no power or check_size call is made, since
a power of a number or a variable and a product of monomials are bounded by
their degree alone, checked inline at the same token.  A value of at most
one term is a monomial, a coefficient with an exponent tuple: monomials
multiply and raise to powers directly, the terms of one sum are added into
one term map, and one Poly is built per sum of two or more terms.  Only
operands of two or more terms, such as (1 + x*y)^3, go through the Poly
ring operations.
A product or power is rejected before it is expanded when its degree would
exceed MAX_DEGREE or its possible term count would exceed MAX_TERMS.  That
count is the dense C(n + deg, n) in the n variables its operands use, for a
power of one term too; for a product it is capped by the product of the
operands' term counts.  In a power a constant counts as degree one, so
its exponent is bounded too, and a power of a constant is rejected as soon
as a partial power has more than MAX_CONSTANT_BITS bits.  Parentheses and
unary minus signs nest at most MAX_NESTING deep.

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


def _degree(value) -> int:
    """Total degree of a parsed value (see _Parser); -1 for zero."""
    if value is None:
        return -1
    return value.total_degree() if isinstance(value, Poly) else sum(value[1])


def _term_count(value) -> int:
    if value is None:
        return 0
    return len(value.terms) if isinstance(value, Poly) else 1


def _support(value, vars: tuple[str, ...]) -> set[str]:
    """The variables a parsed value uses."""
    if value is None:
        return set()
    if isinstance(value, Poly):
        return set(value.support_variables())
    return {v for v, e in zip(vars, value[1]) if e}


class _Parser:
    """Recursive descent that evaluates as it parses, over vars and field.

    Each rule returns its value term by term: None for zero, a monomial
    (c, exps) with a nonzero FieldElement c and an exponent tuple for one
    term, and a Poly for two or more terms.  Monomials multiply and raise
    to powers directly, and the terms of one sum go into one term map, which
    becomes one Poly only when two or more terms are left; so only operands
    of two or more terms reach the Poly ring operations.  Over a field, a
    product or power of nonzero values is nonzero, and it has two or more
    terms when an operand has, so only a sum can collapse its value.

    expr reads a sum and term a product, whose factors it reads in one
    loop, into a running monomial of ints while they are numbers and
    declared variables; only parentheses recurse, through expr."""

    def __init__(self, text: str, vars: tuple[str, ...], field: NumberField):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.vars = vars
        self.field = field
        self.depth = 0
        self.pad = (0,) * (field.degree - 1)
        origin = (0,) * len(vars)
        one = FieldElement(field, (1,) + self.pad)
        self.one = one, origin   # the monomial 1
        # the position of each declared variable, and the monomial the
        # generator denotes
        self.index = {v: i for i, v in enumerate(vars)}
        self.symbols = {} if field.is_rational else {field.gen_name: (field.gen(), origin)}

    def error(self, message: str, index: int, kind=PolyParseError) -> PolyParseError:
        return kind(message, _offset(self.text, index))

    def nest(self, index: int) -> None:
        """Enter one level of parentheses or unary minus."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("parentheses and unary minus signs nest deeper "
                             f"than the bound {MAX_NESTING}", index)

    def check_size(self, what: str, degree: int, operands: tuple, index: int,
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
        n = len(set().union(*(_support(p, vars) for p in operands)))
        terms = min(math.comb(n + degree, n), sparse_terms)
        if terms > MAX_TERMS:
            raise self.error(f"{what} of up to {terms} terms exceeds the bound {MAX_TERMS}",
                             index)

    def as_poly(self, value) -> Poly:
        if value is None:
            return Poly(self.field, self.vars, {})
        if isinstance(value, Poly):
            return value
        c, exps = value
        return Poly(self.field, self.vars, {exps: c.nums}, c.den)

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.tokens[self.i]
        if tok != _END:
            raise self.error(f"unexpected {_shown(tok)} (implicit multiplication is not "
                             "allowed)", self.i)
        return self.as_poly(value)

    def expr(self):
        value = self.term()
        tokens = self.tokens
        sign = tokens[self.i]
        if sign != "+" and sign != "-":
            return value
        acc: dict[tuple[int, ...], FieldElement] = {}
        self.add_to(acc, value)
        while sign == "+" or sign == "-":
            self.i += 1
            self.add_to(acc, self.term(-1 if sign == "-" else 1))
            sign = tokens[self.i]
        return self.collect(acc)

    def add_to(self, acc: dict, value) -> None:
        """Add the terms of value into the term map acc."""
        if value is None:
            return
        if isinstance(value, Poly):
            field, den = self.field, value.den
            items = [(k, FieldElement(field, c, den)) for k, c in value.terms.items()]
        else:
            c, k = value
            items = ((k, c),)
        for k, c in items:
            s = acc.get(k)
            acc[k] = c if s is None else s + c

    def collect(self, acc: dict):
        """The value of a term map; a Poly over the lcm of the coefficient
        denominators for two or more nonzero terms."""
        acc = {k: c for k, c in acc.items() if any(c.nums)}
        if not acc:
            return None
        if len(acc) == 1:
            ((k, c),) = acc.items()
            return c, k
        # the distinct denominators, not a generator: star-arguments from an
        # iterator build a 10-slot tuple and resize it, and a dropped tuple
        # of a resized length, or of length 20, stays in CPython 3.11's tuple
        # free lists until a full collection
        den = math.lcm(*{c.den for c in acc.values()})
        return Poly(self.field, self.vars,
                    {k: c.nums if c.den == den else tuple([x * (den // c.den) for x in c.nums])
                     for k, c in acc.items()}, den)

    @staticmethod
    def negated(value):
        if value is None:
            return None
        if isinstance(value, Poly):
            return -value
        return -value[0], value[1]

    def monomial(self, num: int, den: int, exps: list[int]):
        """The value num/den * vars^exps: None for num = 0, and the shared
        coefficient one for num = den = 1."""
        if num == den == 1:
            return self.one[0], tuple(exps)
        return (FieldElement(self.field, (num,) + self.pad, den), tuple(exps)) if num else None

    def term(self, sign: int = 1):
        """sign times a product, whose factors are read in one loop.  While
        they are numbers and declared variables, the product is a running
        monomial num/den * vars^exps of ints, of degree deg (-1 once it is
        zero), and one FieldElement is built when the term ends; from the
        first other factor (the generator or parentheses) on, the product is
        a value, which product() multiplies.  Each bound is checked at the
        same token either way."""
        tokens, index, i = self.tokens, self.index, self.i
        num, den, exps, deg = sign, 1, [0] * len(self.vars), 0
        value = None
        running = True
        star = None   # the index of the '*' before the factor, None for the first
        while True:
            tok = tokens[i]
            outer = self.depth
            while tok == "-":
                self.nest(i)
                i += 1
                tok = tokens[i]
            negate = (self.depth - outer) % 2
            # a number or declared variable is fn/fd * vars[pos]^fe; fn is None
            # for another factor, whose value is factor
            pos = index.get(tok)
            if pos is not None:
                fn, fd, fe = 1, 1, 1
                i += 1
            elif tok.isdigit():
                fn, fd, fe = int(tok), 1, 0
                i += 1
                if tokens[i] == "/":
                    i += 1
                    if not tokens[i].isdigit():
                        raise self.error(f"expected 'INT', found {_shown(tokens[i])}", i)
                    fd = int(tokens[i])
                    if fd == 0:
                        raise self.error("zero denominator", i)
                    i += 1
            else:
                fn = None
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
                e = int(tokens[i])
                if fn is None:
                    factor = self.power(factor, e, i)
                elif e > MAX_DEGREE:
                    # power() of a number or a variable checks only this
                    raise self.error(f"power of degree {e} exceeds the bound {MAX_DEGREE}", i)
                elif pos is not None:
                    fe = e
                elif e == 0:
                    fn = fd = 1
                elif fn:
                    c = self.constant_power(FieldElement(self.field, (fn,) + self.pad, fd), e, i)
                    fn, fd = c.nums[0], c.den
                i += 1
            if fn is None:
                if negate:
                    factor = self.negated(factor)
                if running:
                    # nothing read before but the sign, or a running monomial
                    value = (factor if num == 1 else self.negated(factor)) if star is None \
                        else self.product(self.monomial(num, den, exps), factor, star)
                    running = False
                else:
                    value = self.product(value, factor, star)
            elif running:
                d = deg + (fe if fn else -1)
                if d > MAX_DEGREE:   # never for the first factor: fe <= MAX_DEGREE
                    raise self.error(f"product of degree {d} exceeds the bound {MAX_DEGREE}",
                                     star)
                num, den = -num * fn if negate else num * fn, den * fd
                if fe:
                    exps[pos] += fe
                deg = d if num else -1
            else:
                unit = [0] * len(exps)
                if fe:
                    unit[pos] = fe
                value = self.product(value, self.monomial(-fn if negate else fn, fd, unit), star)
            if tokens[i] != "*":
                self.i = i
                return self.monomial(num, den, exps) if running else value
            star = i
            i += 1

    def atom(self, tok: str, i: int):
        """The value of the generator or a parenthesized expr at token i, and
        the index after it; any other token there is an error."""
        if tok in self.symbols:
            return self.symbols[tok], i + 1
        if tok == "(":
            self.nest(i)
            self.i = i + 1
            value = self.expr()
            i = self.i
            if self.tokens[i] != ")":
                raise self.error(f"expected ')', found {_shown(self.tokens[i])}", i)
            self.depth -= 1
            return value, i + 1
        if _is_symbol(tok):
            raise self.error(f"unknown symbol {tok!r}", i, UnknownSymbol)
        raise self.error(f"unexpected {_shown(tok)}", i)

    def product(self, value, factor, star: int):
        """value * factor, checked at the '*' with index star."""
        if type(value) is tuple and type(factor) is tuple:
            # two monomials make one term
            (c, e), (d, f) = value, factor
            exps = tuple([*map(add, e, f)])
            self.check_size("product", sum(exps), (), star, 1)
            one = self.one[0]
            return (c if d is one else d if c is one else c * d), exps
        self.check_size("product", max(_degree(value) + _degree(factor), 0),
                        (value, factor), star, _term_count(value) * _term_count(factor))
        if value is None or factor is None:
            return None
        return self.as_poly(value) * self.as_poly(factor)

    def power(self, base, exponent: int, index: int):
        degree = _degree(base)
        # a constant counts as degree one, so its exponent is bounded too; a
        # monomial is held to the dense count C(n + deg, n) like any power
        self.check_size("power", max(degree, 1) * exponent, (base,), index)
        if exponent == 0:
            return self.one
        if base is None:
            return None
        if isinstance(base, Poly):
            return base ** exponent
        c, exps = base
        if degree == 0:
            return self.constant_power(c, exponent, index), exps
        return c ** exponent, tuple([exponent * e for e in exps])

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
