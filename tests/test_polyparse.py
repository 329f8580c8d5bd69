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
                                   PolyParseError, UnknownSymbol,
                                   field_from_string, field_name, parse_poly,
                                   print_poly)

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
    # a sum that cancels is the zero Poly; one that leaves one term is a
    # monomial, and so is its power
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
