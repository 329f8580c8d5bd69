"""Parser and printer: grammar, errors with positions, round trips, fuzz."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from etale_forge.chebyshab import chebyshev_T
from etale_forge.numfield import QQ, NumberField, cyclotomic_field
from etale_forge.polyalg import Poly
from etale_forge.polyparse import (MAX_CONSTANT_BITS, MAX_DEGREE, MAX_NESTING,
                                   MAX_TERMS, NonIntegerExponent,
                                   PolyParseError, UnknownSymbol, _Parser,
                                   _read_printed, field_from_string, field_name,
                                   parse_poly, print_poly)

F_SQRT_M2 = NumberField([2, 0, 1])
CORPUS = Path(__file__).parent / "golden" / "parse_corpus.json"


def test_parse_examples():
    assert parse_poly("2*x^2 - 1", ["x"]) == chebyshev_T(2)
    assert parse_poly("0", ["x"]).is_zero()
    r1 = parse_poly("(1/3)*(-7 + theta)*t + 1", ["t"], F_SQRT_M2)
    t = Poly.variable("t", F_SQRT_M2)
    a1 = F_SQRT_M2.from_coords([Fraction(-7, 3), Fraction(1, 3)])
    assert r1 == Poly.constant(a1, F_SQRT_M2, ("t",)) * t + 1


def test_print_examples():
    assert print_poly(chebyshev_T(2)) == "2*x^2 - 1"
    assert print_poly(Poly.zero(QQ, ("x",))) == "0"
    x = Poly.variable("x", QQ)
    assert print_poly(x ** 2 - 1) == "x^2 - 1"


def test_whitespace_insensitive():
    assert parse_poly("2 * x ^ 2-1", ["x"]) == chebyshev_T(2)
    assert parse_poly("  1 / 3 * x", ["x"]) == \
        Poly.constant(Fraction(1, 3), QQ, ("x",)) * Poly.variable("x", QQ)


def test_implicit_multiplication_rejected_with_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("2x", ["x"])
    assert err.value.position == 1


def test_field_generator_may_not_be_a_variable():
    # print_poly would write theta*t over this field as "(t)*t", read back as t^2
    field = field_from_string("t^2 + 2")
    for vars in (["t"], ["x", "t"]):
        with pytest.raises(PolyParseError, match="generator 't' is also a variable"):
            parse_poly("1", vars, field)
    # a degree-one field has no generator symbol; a distinct one reads as before
    assert parse_poly("t", ["t"], NumberField([2, 1], gen="t")) == Poly.variable("t")
    x = Poly.variable("x", field)
    assert parse_poly(print_poly(field.gen() * x), ["x"], field) == field.gen() * x


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        parse_poly("x + q", ["x"])
    with pytest.raises(UnknownSymbol):
        parse_poly("theta*x", ["x"])   # no field generator over Q
    # text is evaluated as it is read, so an unknown symbol before a syntax
    # error is the error reported
    with pytest.raises(UnknownSymbol) as err:
        parse_poly("q + (", ["x"])
    assert err.value.position == 0


def test_non_integer_exponents():
    with pytest.raises(NonIntegerExponent):
        parse_poly("x^-2", ["x"])
    with pytest.raises(NonIntegerExponent):
        parse_poly("x^1/2", ["x"])
    with pytest.raises(PolyParseError):
        parse_poly("x^(2)", ["x"])


def test_end_of_input_is_named():
    cases = (("t^2 +", "unexpected end of input (offset 5)"),
             ("(t", "expected ')', found end of input (offset 2)"),
             ("t^", "expected integer exponent, found end of input (offset 2)"))
    for text, message in cases:
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, ["t"])
        assert str(err.value) == message
    # field text is read by the same grammar
    with pytest.raises(PolyParseError) as err:
        field_from_string("theta^2 +")
    assert str(err.value) == "unexpected end of input (offset 9)"


def test_error_positions_are_character_offsets():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + ", ["x"])
    assert err.value.position == 4
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + $", ["x"])
    assert err.value.position == 4
    # 'é' is one character and two bytes in UTF-8: '$' is character 8, byte 9
    with pytest.raises(PolyParseError) as err:
        parse_poly("x*(1 + é$)", ["x"])
    assert err.value.position == 8 == "x*(1 + é$)".index("$")
    # only ASCII digits are digits; '²' is an unexpected character
    with pytest.raises(PolyParseError, match=r"unexpected character '²' \(offset 2\)"):
        parse_poly("t^²", ["t"])
    with pytest.raises(PolyParseError, match=r"unexpected character '²' \(offset 1\)"):
        parse_poly("1²", ["t"])
    # a bad character anywhere is reported before an unknown symbol
    with pytest.raises(PolyParseError) as err:
        parse_poly("q + $", ["x"])
    assert type(err.value) is PolyParseError
    assert str(err.value) == "unexpected character '$' (offset 4)"


def _poly(field, vars, terms):
    p = Poly.zero(field, vars)
    for coords, exps in terms:
        term = Poly.constant(field.from_coords(coords), field, vars)
        for v, e in zip(vars, exps):
            term = term * Poly.variable(v, field, vars) ** e
        p = p + term
    return p


@pytest.mark.parametrize("field", [QQ, F_SQRT_M2, cyclotomic_field(3)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_round_trip_random(field, data):
    vars = ("x", "y")
    height_30 = st.fractions(min_value=-30, max_value=30, max_denominator=30)
    term = st.tuples(st.lists(height_30, min_size=field.degree, max_size=field.degree),
                     st.tuples(st.integers(0, 4), st.integers(0, 4)))
    p = _poly(field, vars, data.draw(st.lists(term, max_size=6)))
    assert parse_poly(print_poly(p), vars, field) == p


@st.composite
def _expr(draw, depth, gen):
    """(text, sympy value, degree bound) of a random expr in x, y (and the
    generator gen, when not None), built rule by rule of the grammar.  Each
    power and product stays within degree 8, so sympy expands it quickly."""
    space = st.sampled_from(["", " "])
    terms = []
    for i in range(draw(st.integers(1, 3))):
        factors, degree = [], 0
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["number", "symbol", "paren"][:2 + (depth < 3)]))
            if kind == "number":
                p, q = draw(st.integers(0, 40)), draw(st.integers(1, 12))
                text, value, d = ((f"{p}/{q}", sympy.Rational(p, q), 0) if draw(st.booleans())
                                  else (str(p), sympy.Integer(p), 0))
            elif kind == "symbol":
                text = draw(st.sampled_from(["x", "y"] + ([gen] if gen else [])))
                value, d = sympy.Symbol(text), 1
            else:
                inner, value, d = draw(_expr(depth + 1, gen))
                text = f"({inner})"
            if draw(st.booleans()):
                n = draw(st.integers(0, 8 // max(d, 1)))
                text, value, d = f"{text}{draw(space)}^{draw(space)}{n}", value ** n, d * n
            if factors and degree + d > 8:
                break
            minus = draw(st.integers(0, 3))
            factors.append(("-" * minus + text, (-1) ** minus * value))
            degree += d
        text = f"{draw(space)}*{draw(space)}".join(t for t, _ in factors)
        sign = "+" if i == 0 else draw(st.sampled_from(["+", "-"]))
        terms.append((sign, text, sympy.Mul(*(v for _, v in factors)), degree))
    text = terms[0][1] + "".join(f" {s} {t}" for s, t, _, _ in terms[1:])
    value = sympy.Add(*(v if s == "+" else -v for s, _, v, _ in terms))
    return text, value, max(d for _, _, _, d in terms)


@pytest.mark.parametrize("field", [QQ, F_SQRT_M2], ids=["QQ", "theta^2 + 2"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_parse_matches_sympy(field, data):
    # the parser against sympy's expansion of the same expression; over
    # Q(theta), sympy's value is reduced by the minimal polynomial first
    gen = None if field.is_rational else field.gen_name
    text, value, _ = data.draw(_expr(0, gen))
    p = parse_poly(text, ("x", "y"), field)
    x, y = sympy.symbols("x y")
    g = sympy.Symbol(gen or "theta")
    expected = sympy.expand(value)
    if gen:
        minpoly = sum(c * g ** i for i, c in enumerate(field.minpoly))
        expected = sympy.rem(expected, minpoly, g)
    got = sum((sympy.Rational(n, p.den) * g ** i * x ** k[0] * y ** k[1]
               for k, nums in p.terms.items() for i, n in enumerate(nums)),
              sympy.Integer(0))
    assert sympy.expand(got - expected) == 0, text


def test_fuzz_never_crashes():
    rnd = random.Random(42)
    alphabet = "xyt az01239+-*/^()_. \t\\#&theta"
    for _ in range(10_000):
        text = "".join(rnd.choices(alphabet, k=rnd.randint(0, 24)))
        try:
            parse_poly(text, ("x", "y", "t"), F_SQRT_M2)
        except PolyParseError:
            pass


# The alphabet of test_fuzz_never_crashes, plus non-ASCII letters, digits and
# spaces: 'é' is a letter, '²' a digit that int() rejects, '٣' a decimal digit
# outside ASCII, and the no-break space a space.
_CORPUS_PIECES = list("xyt az01239+-*/^()_. \t\\#&theta") + ["é", "²", "٣", "\u00a0",
                                                            "1²", "x²"]
_CORPUS_TOKENS = ["x", "y", "t", "theta", "0", "1", "2", "7", "13", "1/2", "3/0", "+", "-",
                  "*", "^", "^2", "^3", "^-2", "^1/2", "(", ")", "/"] * 3 + [
                  "q", "é", "²", "٣", "\u00a0", "1²", "x²", "$", "."]


def _corpus_texts() -> list[str]:
    """Seeded fuzz texts: random characters, random tokens, and grammatical
    expressions with and without one random edit."""
    rnd = random.Random(2024)

    def expr(depth):
        return "".join(rnd.choice((" + ", "-", " - ")) + term(depth)
                       for _ in range(rnd.randint(1, 3)))[rnd.choice((1, 3)):]

    def term(depth):
        return "*".join(factor(depth) for _ in range(rnd.randint(1, 3)))

    def factor(depth):
        return "-" * rnd.choice((0, 0, 0, 1, 2)) + atom(depth) + rnd.choice(
            ("", "", "", "^2", "^3", "^0", " ^ 2"))

    def atom(depth):
        if depth and rnd.random() < 0.3:
            return "(" + expr(depth - 1) + ")"
        return rnd.choice(("x", "y", "t", "theta", "2", "13", "1/3", "0", "7/2"))

    texts = ["".join(rnd.choices(_CORPUS_PIECES, k=rnd.randint(0, 24))) for _ in range(1000)]
    texts += ["".join(rnd.choice(("", " ")) + tok
                      for tok in rnd.choices(_CORPUS_TOKENS, k=rnd.randint(1, 14)))
              for _ in range(1500)]
    for _ in range(1250):
        text = expr(2)
        i = rnd.randrange(len(text) + 1)
        piece = rnd.choice(_CORPUS_TOKENS)
        texts += [text, rnd.choice((text[:i] + piece + text[i:], text[:i] + text[i + 1:],
                                    text[:i] + piece + text[i + 1:]))]
    return texts


def _field_texts() -> list[str]:
    """Seeded field texts: minimal polynomials in one generator, with and
    without one random edit, and "QQ"."""
    rnd = random.Random(2025)
    texts = []
    for _ in range(250):
        gen, n = rnd.choice(("theta", "zeta", "x")), rnd.randint(1, 5)
        text = f"{gen}^{n}" + "".join(
            f" {rnd.choice('+-')} {rnd.choice(('1', '2', '3/2', '7'))}*{gen}^{i}"
            for i in range(n) if rnd.random() < 0.5)
        i = rnd.randrange(len(text) + 1)
        texts += [text, text[:i] + rnd.choice(_CORPUS_TOKENS + ["QQ", "zeta"]) + text[i:]]
    return texts + ["QQ", " QQ ", "QQ + 1", "\u00a0QQ"]


def _parse_result(text: str) -> str:
    try:
        return print_poly(parse_poly(text, ("x", "y", "t"), F_SQRT_M2))
    except PolyParseError as e:
        return f"{type(e).__name__}: {e}"


# The fields of the one-variable corpus: QQ, a quadratic field whose
# generator squares to a non-unit, and a quartic one named zeta.
_ONE_VARIABLE_FIELDS = (QQ, NumberField([7, 0, 1]), cyclotomic_field(5))
# Edits taken two times in five, else one of _CORPUS_TOKENS: a degree and a
# denominator out of bounds, a digit run longer than int() converts, a tab, a
# doubled space, a doubled minus, a generator power at the degree of a
# quadratic field, a variable meant for inside parentheses and a decimal
# digit outside ASCII.
_ONE_VARIABLE_EDITS = ["^1001", "/0", "9" * 4301, "\t", "  ", "- -", "theta^2", "(t)", "٣"]


def _one_variable_texts() -> list[str]:
    """Seeded texts in t: print_poly of random one-variable polys over each
    field of _ONE_VARIABLE_FIELDS, each with and without one random edit
    (after an opening parenthesis in a third of the texts that have one),
    and a 701-term print longer than int() converts, with and without one."""
    rnd = random.Random(2026)

    def rational():
        if rnd.random() < 0.3:
            return Fraction(0)
        if rnd.random() < 0.05:
            return Fraction(rnd.randint(-10 ** 30, 10 ** 30), rnd.choice((1, 7)))
        return Fraction(rnd.randint(-40, 40), rnd.choice((1, 1, 1, 2, 3, 12)))

    def poly(field):
        n = rnd.choice((0, 1, 2, 3, 4, 5, 6, 40))
        terms = []
        for j in range(n + 1):
            if rnd.random() < 0.7:
                rational_only = rnd.random() < 0.4
                coords = [rational() if i == 0 or not rational_only else Fraction(0)
                          for i in range(field.degree)]
                terms.append((coords, (j,)))
        return _poly(field, ("t",), terms)

    def edit(text):
        piece = rnd.choice(_ONE_VARIABLE_EDITS if rnd.random() < 0.4 else _CORPUS_TOKENS)
        opens = [i + 1 for i, c in enumerate(text) if c == "("]
        i = rnd.choice(opens) if opens and rnd.random() < 1 / 3 else rnd.randrange(len(text) + 1)
        return rnd.choice((text[:i] + piece + text[i:], text[:i] + text[i + 1:],
                           text[:i] + piece + text[i + 1:]))

    texts = []
    for field in _ONE_VARIABLE_FIELDS:
        for _ in range(120):
            text = print_poly(poly(field))
            texts += [text, edit(text)]
    long = print_poly(_poly(QQ, ("t",), [([Fraction(rnd.randint(1, 99))], (j,))
                                          for j in range(701)]))
    return texts + [long, edit(long)]


def _one_variable_results(text: str) -> list[str]:
    """The value of text in t over each field of _ONE_VARIABLE_FIELDS, or
    its error; a digit run longer than int() converts raises int()'s own
    ValueError."""
    out = []
    for field in _ONE_VARIABLE_FIELDS:
        try:
            out.append(print_poly(parse_poly(text, ("t",), field)))
        except ValueError as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


# Exponents at the degree bound, and below it for sums, which stay cheap
_BOUND_POWERS = ("", "", "", "^0", "^1", "^2", "^999", "^1000", "^1001", "^500", "^600")
_SUM_POWERS = ("", "^0", "^1", "^2", "^3", "^7")


def _bounds_texts() -> list[str]:
    """Seeded texts in x, y, t at the edges of the bounds: numbers,
    variables and theta to the powers 0, 1, 999, 1000 and 1001, zero
    factors among high powers, constant powers around 2^9999, zero
    denominators, and runs of 1-3 and 99-101 minus signs before a factor.
    A power of a sum is at most ^7, and each term's constant stays far
    below the digits print_poly can write."""
    rnd = random.Random(2027)
    texts = ["x^1000*0*x^1000", "0*x^600*x^600", "x^600*x^600*0", "x^600*0*x^600",
             "x^1000*x^0*y^0", "x^999*y", "x^1000*y", "x*y^1000", "t^1000*0^1001",
             "(2^99)^101", "(2^100)^100", "(3^60)^100", "(2^99)^101*t", "-(1/2^99)^101",
             "2^9999", "2^10000", "theta^1000", "theta^1001", "theta^999*x",
             "(theta^1000)^1000", "1/0", "x/0", "0/0", "3/0*x^1000", "0^0", "-0^0*t",
             "(x^500 + y^500)^2", "(x^500 + 1)^2", "x*" + "-" * 100 + "y^1000",
             "(" + "-" * 99 + "x)", "(" + "-" * 100 + "x)"]
    texts += ["-" * n + "x" for n in (1, 2, 3, 99, 100, 101)]
    for _ in range(60):
        c = rnd.choice(("2", "3", "1/2", "2/3", "0"))
        a, b = rnd.choice((60, 99, 100, 101)), rnd.choice((60, 99, 100, 101))
        texts.append(f"{rnd.choice(('', '-'))}({c}^{a})^{b}"
                     f"{rnd.choice(('', '*t', '*x^1000', '*0', '*x^1001'))}")

    def minus():
        return "-" * rnd.choice((0,) * 12 + (1, 2, 3, 99, 100, 101))

    def small_sum():
        return " + ".join(rnd.choice(("1", "2", "x", "y", "t", "theta")) +
                          rnd.choice(("", "^2", "^3", "^500", "^999"))
                          for _ in range(rnd.randint(1, 3)))

    def factor():
        kind = rnd.random()
        atom = rnd.choice(("0", "1", "2", "3", "1/2", "2/3", "3/0", "x", "y", "t", "theta"))
        if kind < 0.15:
            return minus() + f"({small_sum()}){rnd.choice(_SUM_POWERS)}"
        if kind < 0.3:
            inner = atom + rnd.choice(_BOUND_POWERS)
            return minus() + f"({inner}){rnd.choice(('', '^0', '^1', '^2', '^1000', '^1001'))}"
        return minus() + atom + rnd.choice(_BOUND_POWERS)

    for _ in range(340):
        terms = ["*".join(factor() for _ in range(rnd.randint(1, 3)))
                 for _ in range(rnd.randint(1, 3))]
        texts.append(terms[0] + "".join(f" {rnd.choice('+-')} {t}" for t in terms[1:]))
    return texts


def _bounds_results(text: str) -> list[str]:
    """The value of text in x, y, t over QQ and over theta^2 + 2, or its error."""
    out = []
    for field in (QQ, F_SQRT_M2):
        try:
            out.append(print_poly(parse_poly(text, ("x", "y", "t"), field)))
        except ValueError as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


def _field_result(text: str) -> str:
    try:
        return field_name(field_from_string(text))
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def test_parse_corpus_matches_golden():
    # values and error messages, offsets included, pinned on seeded fuzz
    golden = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [text for text, _ in golden["poly"]] == _corpus_texts()
    assert [text for text, _ in golden["field"]] == _field_texts()
    assert [[text, _parse_result(text)] for text, _ in golden["poly"]] == golden["poly"]
    assert [[text, _field_result(text)] for text, _ in golden["field"]] == golden["field"]
    # the one-variable language that print_poly writes, in t over three fields
    assert [text for text, _ in golden["one_variable"]] == _one_variable_texts()
    assert [[text, _one_variable_results(text)]
            for text, _ in golden["one_variable"]] == golden["one_variable"]
    # the degree, constant and nesting bounds, in x, y, t over two fields
    assert [text for text, _ in golden["bounds"]] == _bounds_texts()
    assert [[text, _bounds_results(text)] for text, _ in golden["bounds"]] == golden["bounds"]


def test_field_coefficient_printing_round_trip():
    z3 = cyclotomic_field(3)
    x = Poly.variable("x", z3)
    zeta = Poly.constant(z3.gen(), z3, ("x",))
    p = (2 * zeta - 1) * x ** 3 - zeta * x + 5
    assert parse_poly(print_poly(p), ("x",), z3) == p


@pytest.mark.parametrize("field", [F_SQRT_M2, cyclotomic_field(3)])
def test_print_field_coefficients_exact(field):
    # proper field coefficients print in ascending powers of the generator,
    # in parentheses, as a positive unit term; rational ones carry the sign
    g = field.gen_name
    vars = ("x", "y")
    x, y = (Poly.variable(v, field, vars) for v in vars)

    def c(*coords):
        return Poly.constant(field.from_coords([Fraction(q) for q in coords]),
                             field, vars)

    p = (c(-1, 1) * x ** 2 * y + c(0, -1) * x * y + c("3/2", -2) * y ** 2
         - x + c(0, 1) + c(-7, "1/3"))
    assert print_poly(p) == (f"(-1 + {g})*x^2*y + (-{g})*x*y - x"
                             f" + (3/2 - 2*{g})*y^2 + (-7 + 4/3*{g})")
    assert print_poly(c(0, 1) * x - 3 * y + 2) == f"({g})*x - 3*y + 2"
    assert print_poly(c(1, -1)) == f"(1 - {g})"
    assert print_poly(c(-1, 0) * x) == "-x"


def test_power_degree_bound_rejects_before_expanding(monkeypatch):
    assert parse_poly(f"x^{MAX_DEGREE}", ["x"]).total_degree() == MAX_DEGREE
    powers = []
    pow_ = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__",
                        lambda self, n: powers.append(n) or pow_(self, n))
    for text in (f"x^{MAX_DEGREE + 1}", f"(1 + x*y)^{MAX_DEGREE // 2 + 1}",
                 f"2 + 3^{MAX_DEGREE + 1}"):
        with pytest.raises(PolyParseError, match=f"bound {MAX_DEGREE}"):
            parse_poly(text, ["x", "y"])
    assert powers == []


def test_power_term_count_bound_rejects_before_expanding(monkeypatch):
    # C(3 + 40, 3) = 12341 dense terms; expanding them takes many seconds
    powers = []
    monkeypatch.setattr(Poly, "__pow__", lambda self, n: powers.append(n))
    with pytest.raises(PolyParseError, match=f"12341 terms exceeds the bound {MAX_TERMS}"):
        parse_poly("(1+x+y+z)^40", ("x", "y", "z"))
    assert powers == []


@pytest.mark.parametrize("text,vars,bound,limit", [
    ("(1+t)^1000*(1+t)^1000*(1+t)^1000*(1+t)^1000", ("t",), f"bound {MAX_DEGREE}",
     MAX_DEGREE),
    ("(1+x+y+z)^20*(1+x+y+z)^20", ("x", "y", "z"),
     f"12341 terms exceeds the bound {MAX_TERMS}", 20),
])
def test_product_bounds_reject_before_expanding(monkeypatch, text, vars, bound, limit):
    # each factor is an allowed power; their product is not, and is rejected
    # before Poly.__mul__ sees it
    degrees = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: degrees.append(
        a.total_degree() + b.total_degree()) or mul(a, b))
    with pytest.raises(PolyParseError, match=bound):
        parse_poly(text, vars)
    assert degrees and max(degrees) <= limit


def test_one_term_power_keeps_the_dense_size_rule():
    # a power of one term is one term, but it is held to the dense count
    # C(n + deg, n) in the n variables it uses, like any power
    vars = ("x", "y", "z")
    for text, terms in (("(x*y*z)^30", 129766), ("(x*y)^60", 7381), ("(2*x*y)^60", 7381),
                        ("(x*y*z)^9", 4060)):
        with pytest.raises(PolyParseError,
                           match=rf"power of up to {terms} terms exceeds the bound {MAX_TERMS}"):
            parse_poly(text, vars)
    x = Poly.variable("x", QQ, vars)
    assert parse_poly(f"x^{MAX_DEGREE}", vars) == x ** MAX_DEGREE
    # C(3 + 24, 3) = 2925 is within the bound
    assert parse_poly("(x*y*z)^8", vars).total_degree() == 24


def test_cancelling_sums_collapse():
    # a sum that cancels is the zero Poly, and one that leaves one term is a
    # one-term Poly, whose power is one term
    assert parse_poly("t - t + 0*t^5", ["t"]) == Poly.zero(QQ, ("t",))
    assert parse_poly("t - t + 0*t^5", ["t"]).is_zero()
    t = Poly.variable("t", QQ)
    assert parse_poly("(t + 1 - 1)^3 - (0)^0", ["t"]) == t ** 3 - 1
    assert parse_poly("(1 + t - t)^1000*(2 - 2)", ["t"]).is_zero()


def test_product_term_count_is_capped_by_the_operands():
    # the report's printed family formula: the dense count C(4 + 16, 4) =
    # 4845 of this product exceeds MAX_TERMS, its 1 x 10 operand terms do not
    vars = ("w", "a1", "a2", "a3")
    p = parse_poly("w^2*(1 + w^2*(a1 + a2*w^2 + a3*w^4))^2", vars)
    assert p.total_degree() == 16 and len(p.terms) == 10
    q = parse_poly("(1 + w^2*(a1 + a2*w^2 + a3*w^4))^2", vars)
    assert p == parse_poly("w^2", vars) * q


def test_nesting_bound_names_the_offset():
    t = Poly.variable("t", QQ)
    assert parse_poly("(" * MAX_NESTING + "t" + ")" * MAX_NESTING, ["t"]) == t
    # a run of minus signs is read in a loop; an odd run negates
    assert parse_poly("-" * MAX_NESTING + "t", ["t"]) == t
    assert parse_poly("-" * (MAX_NESTING - 1) + "t^2", ["t"]) == -t ** 2
    assert parse_poly("-(-t)^2", ["t"]) == -t ** 2
    # parentheses and minus signs count alike; the first level too deep is
    # named, whatever the recursion limit
    half = MAX_NESTING // 2
    for text in ("(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1),
                 "-" * 3000 + "t", "-(" * half + "-t" + ")" * half):
        with pytest.raises(PolyParseError, match=f"bound {MAX_NESTING}") as err:
            parse_poly(text, ["t"])
        assert err.value.position == MAX_NESTING


def test_constant_power_bit_bound():
    # the project's largest constant power, in field text
    assert field_from_string("theta^2 - 10^40 + 1").degree == 2
    # 2^9999 has exactly MAX_CONSTANT_BITS = 10000 bits, 2^10000 one more
    assert MAX_CONSTANT_BITS == 10_000
    t = Poly.variable("t", QQ)
    assert parse_poly("(2^99)^101*t", ["t"]) == 2 ** 9999 * t
    for text, field in (("(2^100)^100*t", QQ), ("((1/10^10)^1000)^1000*t", QQ),
                        # the degree bound alone admitted a 10^7-digit integer
                        ("((10^10)^1000)^1000*t", QQ),
                        ("theta^1000*t", NumberField([10 ** 21, 0, 1]))):
        with pytest.raises(PolyParseError, match=f"bound {MAX_CONSTANT_BITS}"):
            parse_poly(text, ["t"], field)


def test_term_bounds_and_signs_are_pinned():
    # a term's factors are multiplied one by one in product(), whose checks
    # name the '*' before the factor that breaks a bound, and power()'s name
    # the exponent; a minus sign binds looser than '^'
    errors = (("x^600*x^600", "product of degree 1200 exceeds the bound 1000 (offset 5)"),
              ("2*y*x^600*x^600", "product of degree 1201 exceeds the bound 1000 (offset 9)"),
              ("x^1000*x*0", "product of degree 1001 exceeds the bound 1000 (offset 6)"),
              ("3*t^1001*t", "power of degree 1001 exceeds the bound 1000 (offset 4)"),
              ("t - 2*t^1001", "power of degree 1001 exceeds the bound 1000 (offset 8)"),
              ("1/0*t", "zero denominator (offset 2)"),
              ("t - 2*t/3", "unexpected '/' (implicit multiplication is not allowed) "
                            "(offset 7)"))
    for text, message in errors:
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, ("x", "y", "t"))
        assert type(err.value) is PolyParseError and str(err.value) == message, text
    values = (("-2^2*t", "-4*t"), ("t - -2^2*t^3", "4*t^3 + t"), ("-2^0*t", "-t"),
              ("- - 2*t", "2*t"), ("0^0*t", "t"), ("-0^0*t", "-t"), ("3*t^0", "3"),
              ("0*x^600*x^600", "0"), ("0^5*t^1000*t", "0"), ("1/2*4/6*t", "1/3*t"),
              ("2 - 3*t*x - 4/6", "-3*x*t + 4/3"), ("-(1 + t)^2", "-t^2 - 2*t - 1"),
              ("t*theta*t^2 - 3/4*theta^2*t^3", "(3/2 + theta)*t^3"),
              ("-theta*2*t", "(-2*theta)*t"), ("t^2*(1 + t)*3 - t^3", "2*t^3 + 3*t^2"))
    for text, printed in values:
        assert print_poly(parse_poly(text, ("x", "y", "t"), F_SQRT_M2)) == printed, text


def test_minus_signs_nest_only_inside_their_factor():
    # an even run of minus signs nests as deeply as an odd one, and each
    # factor's run ends with the factor
    t = Poly.variable("t", QQ)
    for run in ("-", "--"):
        text = "*".join([run + "t"] * MAX_NESTING) + " - " + " - ".join([run + "(t)"] * 60)
        sign = -1 if run == "-" else 1
        assert parse_poly(text, ["t"]) == sign ** MAX_NESTING * t ** MAX_NESTING - 60 * sign * t


def _same_poly(p: Poly, q: Poly) -> bool:
    """Equal terms in the same order, den and variables, and the same field object."""
    return (list(p.terms.items()) == list(q.terms.items()) and p.den == q.den
            and p.field is q.field and p.variables == q.variables)


@pytest.mark.parametrize("field", _ONE_VARIABLE_FIELDS, ids=["QQ", "theta^2 + 7", "zeta_5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_printed_reader_matches_the_parser(field, data):
    # print_poly's one-variable texts take the reader with the reference
    # parser's result; an edit of one either keeps that or is declined
    small = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    coord = st.one_of(st.just(Fraction(0)), small, st.integers(-10 ** 30, 10 ** 30).map(Fraction))
    term = st.tuples(st.lists(coord, min_size=field.degree, max_size=field.degree),
                     st.tuples(st.integers(0, 8)))
    p = _poly(field, ("t",), data.draw(st.lists(term, max_size=5)))
    text = print_poly(p)
    got = _read_printed(text, "t", field)
    assert got is not None and _same_poly(got, _Parser(text, ("t",), field).parse()), text
    i = data.draw(st.integers(0, len(text)))
    piece = data.draw(st.sampled_from(_CORPUS_TOKENS + _ONE_VARIABLE_EDITS
                                      + [" + t", " - 1/2", " + 0*t^3", "zeta", "(1 + zeta)*"]))
    edited = data.draw(st.sampled_from([text[:i] + piece + text[i:], text[:i] + text[i + 1:],
                                        text[:i] + piece + text[i + 1:]]))
    got = _read_printed(edited, "t", field)
    if got is not None:
        assert _same_poly(got, _Parser(edited, ("t",), field).parse()), edited


def test_printed_reader_declines_outside_the_plain_case():
    f7, z5 = _ONE_VARIABLE_FIELDS[1:]
    # texts print_poly never writes that are still read: repeated and
    # cancelling terms keep the parser's term order, and zero terms add none
    for text, field in (("t - t + 1 + t", QQ), ("0*t + t^2 + 3*t", QQ), ("-0", QQ),
                        ("(theta - theta)*t + t^2 + (1)*t", f7), ("007/003*t^0", QQ),
                        ("-(1 - theta^0)*t + (-1/2*theta)", f7), ("(zeta^3)*t^1000", z5)):
        got = _read_printed(text, "t", field)
        assert got is not None and _same_poly(got, _Parser(text, ("t",), field).parse()), text
    # every bound, error and unusual spelling is left to the parser
    for text, field in (("t^1001", QQ), ("1/0*t", QQ), ("(1/0 + theta)", f7),
                        ("t + 1 ", QQ), ("t\t+ 1", QQ), ("t  + 1", QQ), ("t+1", QQ),
                        ("t - -1", QQ), ("--t", QQ), ("(theta^2)*t", f7), ("(t)*t", f7),
                        ("((theta))", f7), ("(1)*t", QQ), ("theta*t", f7), ("x", QQ),
                        ("2^3*t", QQ), ("(1 + t)^2", QQ), ("3*t*t", QQ), ("٣*t", QQ),
                        ("té", QQ), ("9" * 4301, QQ), (" + ".join(["t"] * 1500), QQ),
                        ("", QQ), ("(zeta^4)", z5), ("(theta)", z5)):
        assert _read_printed(text, "t", field) is None, text
