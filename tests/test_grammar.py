"""Round-trip and canonical-text behavior of the expression grammar."""

import random
import re
import string

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from branelab import fields, grammar, scene
from branelab.cli import bundled_scene_dir, resolve_scene
from branelab.fields import COS, SIN, ScalarField, partial
from branelab.forms import DifferentialForm
from branelab.grammar import (ParseError, field_to_text, form_to_text,
                              parse_field, parse_form, parse_vector,
                              vector_to_text)
from branelab.model import CIRCLE, LINE, model_from_names

M = model_from_names([("x1", CIRCLE), ("y1", LINE), ("x2", LINE), ("y2", LINE)])
T2 = model_from_names([("a", CIRCLE), ("b", CIRCLE)])

FIELD_CASES = [
    ("1", "1.0"),
    ("0.5 - 2*x1", "0.5 - 2.0*x1"),
    ("cos(2*pi*(x1 + x1))", "cos(2*pi*2*x1)"),
    ("sin(2*pi*x1)*y2^2", "y2^2*sin(2*pi*x1)"),
    ("cos(2*pi*x1)^2", "0.5 + 0.5*cos(2*pi*2*x1)"),
    ("2 - cos(2*pi*x1)*cos(2*pi*x1)", "1.5 - 0.5*cos(2*pi*2*x1)"),
    ("0.41421356237309515*y2", "0.41421356237309515*y2"),
]

FORM_CASES = [
    ("dx1^dy1 + dx2^dy2", "dx1^dy1 + dx2^dy2"),
    ("-dx1^dy2", "-dx1^dy2"),
    ("(1 + cos(2*pi*x1))*dx1^dy1", "(1.0 + cos(2*pi*x1))*dx1^dy1"),
    ("y2*dx1 - dx2", "y2*dx1 - dx2"),
    ("0@2", "0@2"),
    ("2.5*dx1^dx2^dy2", "2.5*dx1^dx2^dy2"),
]

VECTOR_CASES = [
    ("d_x1", "d_x1"),
    ("d_x1 - 0.41421356237309515*d_y2", "d_x1 - 0.41421356237309515*d_y2"),
    ("cos(2*pi*x1)*d_y1 + y2*d_x2", "cos(2*pi*x1)*d_y1 + y2*d_x2"),
]


@pytest.mark.parametrize("text,canon", FIELD_CASES)
def test_field_canonical_text(text, canon):
    assert field_to_text(parse_field(text, M)) == canon


@pytest.mark.parametrize("text,canon", FIELD_CASES)
def test_field_roundtrip_is_identity(text, canon):
    f = parse_field(text, M)
    assert parse_field(field_to_text(f), M) == f
    assert field_to_text(parse_field(canon, M)) == canon


@pytest.mark.parametrize("text,canon", FORM_CASES)
def test_form_canonical_text(text, canon):
    a = parse_form(text, M)
    assert form_to_text(a) == canon
    assert parse_form(form_to_text(a), M) == a


@pytest.mark.parametrize("text,canon", VECTOR_CASES)
def test_vector_canonical_text(text, canon):
    v = parse_vector(text, M)
    assert vector_to_text(v) == canon
    assert parse_vector(vector_to_text(v), M) == v


def test_pi_requires_explicit_two_pi():
    with pytest.raises(ParseError):
        parse_field("cos(pi*x1)", M)


def test_unknown_coordinate_rejected():
    with pytest.raises(ParseError):
        parse_field("z + 1", M)


def test_trig_needs_circle_argument():
    with pytest.raises((ParseError, ValueError)):
        parse_field("cos(2*pi*y1)", M)


def test_bad_character_rejected():
    with pytest.raises(ParseError):
        parse_field("x1 $ 2", M)


def test_vector_requires_direction_tokens():
    with pytest.raises(ParseError):
        parse_vector("x1 + 2", M)


def test_form_degree_mismatch_in_sum():
    with pytest.raises(ParseError):
        parse_form("dx1 + dx1^dy1", M)


def test_zero_form_needs_degree_marker():
    z = parse_form("0@2", M)
    assert z.degree == 2 and z.is_zero()
    with pytest.raises(ParseError):
        parse_form("0", M)


def test_env_lets_scenes_reference_named_fields():
    f = parse_field("0.5*y2", M)
    g = parse_field("2*speed + x2", M, env={"speed": f})
    assert g == parse_field("y2 + x2", M)


def test_fractional_frequency_rejected():
    with pytest.raises(ParseError):
        parse_field("cos(2*pi*0.5*x1)", M)


def field_strategy():
    power = st.integers(min_value=0, max_value=2)
    freq = st.integers(min_value=-2, max_value=2)
    coeff = st.floats(min_value=-8, max_value=8, allow_nan=False,
                      allow_infinity=False).filter(lambda c: abs(c) > 1e-6)

    @st.composite
    def one(draw):
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            powers = (0, 0)
            freqs = (draw(freq), draw(freq))
            phase = draw(st.sampled_from([COS, SIN]))
            terms[(powers, freqs, phase)] = draw(coeff)
        return ScalarField.build(T2, terms)

    return one()


@settings(max_examples=60, deadline=None)
@given(field_strategy())
def test_serialize_parse_roundtrip_exact(f):
    """repr-float serialization reparses to the identical canonical field."""
    assert parse_field(field_to_text(f), T2) == f


# two circles and a line, so keys carry powers, frequencies and both phases
P = model_from_names([("x1", CIRCLE), ("y1", LINE), ("q", CIRCLE)])


def raw_terms(max_terms):
    """Raw (key, coeff) dicts on P; ScalarField.build makes them canonical."""
    power = st.integers(min_value=0, max_value=3)
    freq = st.integers(min_value=-3, max_value=3)
    key = st.tuples(st.tuples(power, power, power),
                    st.tuples(freq, st.just(0), freq),
                    st.sampled_from([COS, SIN]))
    coeff = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                      allow_infinity=False).filter(lambda c: abs(c) > 1e-9)
    return st.dictionaries(key, coeff, max_size=max_terms)


@settings(max_examples=40, deadline=None)
@given(raw_terms(60))
def test_long_field_roundtrip_exact(raw):
    f = ScalarField.build(P, raw)
    assert parse_field(field_to_text(f), P) == f


def form_strategy(max_terms):
    """2-forms on P with up to max_terms terms in each coefficient."""
    return st.dictionaries(
        st.sampled_from([(0, 1), (0, 2), (1, 2)]), raw_terms(max_terms),
        min_size=1).map(lambda raw: DifferentialForm.build(
            P, 2, {idx: ScalarField.build(P, r) for idx, r in raw.items()}))


@settings(max_examples=25, deadline=None)
@given(form_strategy(20))
def test_long_form_roundtrip_exact(a):
    assert parse_form(form_to_text(a), P) == a


def test_sum_is_left_to_right_sum_of_parsed_terms_pruned_once():
    terms = ["y1", "- 0.9999999999995*y1", "+ 0.9999999999995*y1",
             "+ cos(2*pi*x1)", "+ 0.25*y1*q^2", "- cos(2*pi*x1)",
             "+ cos(2*pi*x1)*cos(2*pi*q)", "- (y1 - 2*q)",
             "+ 0.1*cos(2*pi*(x1 + q))", "- 0.1*cos(2*pi*(x1 + q))"]
    acc = {}
    for t in terms:
        for key, c in parse_field(t, P).terms:
            acc[key] = acc.get(key, 0.0) + c
    assert parse_field(" ".join(terms), P) == ScalarField.build(P, acc)
    # 1 - 0.9999999999995 is 5e-13, below the pruning threshold; pruning
    # that partial sum would leave 0.9999999999995*y1 instead of y1
    assert parse_field(" ".join(terms[:3]), P) == parse_field("y1", P)
    assert parse_vector("y1*d_x1 + d_q - y1*d_x1 + 0.5*d_q", P) == \
        parse_vector("1.5*d_q", P)
    assert parse_form("dx1^dy1 - dy1^dx1 + dq^dq", P) == \
        parse_form("2*dx1^dy1", P)


def _canonicalized(parse, text):
    """(calls, raw items) of the canonical passes of parsing text: every
    one ends in fields._summed, which the parsed sums call directly."""
    sizes = []
    real = fields._summed

    def counted(raw):
        raw = list(raw)
        sizes.append(len(raw))
        return real(raw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_summed", counted)
        parse(text, P)
    return len(sizes), sum(sizes)


@pytest.mark.parametrize("parse,suffix", [
    (parse_field, ""), (parse_vector, "*d_y1"), (parse_form, "*dx1^dy1")])
def test_parsing_canonicalizes_linearly_many_terms(parse, suffix):
    def text(n):
        return " + ".join(f"{k}.5*cos(2*pi*{k}*x1){suffix}"
                          for k in range(1, n + 1))

    calls, items = _canonicalized(parse, text(40))
    calls2, items2 = _canonicalized(parse, text(80))
    assert calls2 <= 2 * calls + 4
    assert items2 <= 2 * items + 4


def test_numpy_scalar_coefficients_print_as_plain_floats():
    f = parse_field("0.2*cos(2*pi*x1)*y2^2", M) * np.float64(1.5)
    text = field_to_text(f)
    assert text == "0.30000000000000004*y2^2*cos(2*pi*x1)"
    assert parse_field(text, M) == f
    d = partial(f, 0)
    assert parse_field(field_to_text(d), M) == d


@pytest.mark.parametrize("text,parse,at", [
    ("1e999*dx1^dy1 - 1e999*dx1^dy1", parse_form, 0),
    ("x1 + 1e999*y1", parse_field, 5),
    ("1e400*d_x1", parse_vector, 0)])
def test_overflowing_literal_is_a_parse_error(text, parse, at):
    with pytest.raises(ParseError, match="overflows") as err:
        parse(text, M)
    assert err.value.pos == at


@pytest.mark.parametrize("text,parse", [
    ("1e200*1e200*x1", parse_field),
    ("1e200*1e200*dx1^dy1 - 1e200*1e200*dx1^dy1", parse_form),
    ("1e308*x1 + 1e308*x1", parse_field)])
def test_non_finite_coefficient_is_a_named_error(text, parse):
    with pytest.raises(fields.NonFiniteCoefficientError, match="not finite"):
        parse(text, M)


def test_nan_coefficient_is_not_pruned():
    z = (0,) * M.dim
    with pytest.raises(fields.NonFiniteCoefficientError, match="nan"):
        ScalarField.build(M, {(z, z, COS): float("nan")})


def test_finite_coefficients_with_an_overflowing_sum_are_kept():
    f = parse_field("1e308*x1 + 1e308*y2", M)
    assert [c for _, c in f.terms] == [1e308, 1e308]


# One case per way a vector or form text can be malformed, with the exact
# message and offset: two symbols in one term, a term with no symbol,
# mixed degrees (the offset is the end of the offending term), a
# non-covector after ^, trailing input, a malformed trig frequency sum,
# a bad character after whitespace, an unknown coordinate, a frequency on
# a line coordinate (the offset is the coordinate's first token in the
# argument).
@pytest.mark.parametrize("text,parse,message,at", [
    ("d_x1*d_y1", parse_vector, "two basis symbols in one term", 5),
    ("y2*d_x1 + x1*d_x2*d_y1", parse_vector, "two basis symbols in one term", 18),
    ("dx1*dx2", parse_form, "two wedge chains in one term", 4),
    ("x1*dy1*dx2^dy2", parse_form, "two wedge chains in one term", 7),
    ("2*x1 + d_y1*3", parse_vector, "vector term lacks a d_<coord> symbol", 5),
    ("d_x1 - y2", parse_vector, "vector term lacks a d_<coord> symbol", 9),
    ("dx1^dy1 + x1", parse_form, "form term lacks a wedge chain", 12),
    ("dx1^dy1 + dx2*2.0", parse_form, "mixed degrees in form", 17),
    ("dx1 + dx1^dy1*y2", parse_form, "mixed degrees in form", 16),
    ("dx1^x2", parse_form, "'x2' is not a basis covector", 6),
    ("dx1^dy1^dfoo", parse_form, "'dfoo' is not a basis covector", 12),
    ("d_x1 )", parse_vector, "trailing input ')'", 5),
    ("dx1 dx2", parse_form, "trailing input 'dx2'", 4),
    ("0@2 x", parse_form, "trailing input after zero form", 4),
    ("x1 y1", parse_field, "trailing input 'y1'", 3),
    ("cos(2*pi*(x1 +))*d_y1", parse_vector, "expected 'name', found ')'", 14),
    ("sin(2*pi*(x1 y1))*dx1", parse_form, "expected ')', found 'y1'", 13),
    ("cos(2*pi*(-x1 + 2*))*dy1", parse_form, "expected 'name', found ')'", 18),
    ("cos(2*pi*(x1 - 2.5*x1))", parse_field, "expected integer, found '2.5'", 15),
    ("x1 $", parse_field, "bad character '$'", 3),
    ("d_zz", parse_vector, "unknown name 'd_zz'", 0),
    ("d_x1*d_zz", parse_vector, "unknown name 'd_zz'", 5),
    ("cos(2*pi*zz)", parse_field, "unknown name 'zz'", 9),
    ("cos(2*pi*(x1 - zz))", parse_field, "unknown name 'zz'", 15),
    ("cos(2*pi*y1)", parse_field, "frequency on line coordinate 'y1'", 9),
    ("x1*sin(2*pi*(x1 - 2*y2 + y2))*d_x1", parse_vector,
     "frequency on line coordinate 'y2'", 20),
    ("cos(2*pi*(y1 + x1))*dx1^dy1", parse_form,
     "frequency on line coordinate 'y1'", 10),
])
def test_malformed_text_is_a_parse_error_at_its_offset(text, parse, message,
                                                       at):
    with pytest.raises(ParseError) as err:
        parse(text, M)
    assert str(err.value) == f"{message} (at offset {at})"
    assert err.value.pos == at


@pytest.mark.parametrize("parse, write, suffix", [
    (parse_field, field_to_text, ""), (parse_form, form_to_text, "*dx1^dy1")])
def test_sums_nest_up_to_the_cap(parse, write, suffix):
    cap = grammar.MAX_NESTING
    text = "(" * cap + "x1 + 1" + ")" * cap + suffix
    got = parse(text, M)
    assert parse(write(got), M) == got
    assert write(got) == write(parse("(x1 + 1)" + suffix, M))
    deeper = "(" + text.replace(suffix, "") + ")" + suffix
    with pytest.raises(ParseError) as err:
        parse(deeper, M)
    assert err.value.pos == cap  # the first "(" past the cap
    assert str(err.value).startswith(
        f"parentheses nested deeper than {cap}")


def test_tokens_keep_kinds_and_offsets():
    text = " 2.5e3*x1 ^ (y2-1)@"
    with grammar._scanned(text) as vals:
        tokens = list(zip(map(grammar._kind, vals), vals,
                          grammar._offsets(text)))
    assert tokens.pop() == ("eof", "", len(text))
    assert tokens == [
        ("num", "2.5e3", 1), ("op", "*", 6), ("name", "x1", 7),
        ("op", "^", 10), ("op", "(", 12), ("name", "y2", 13),
        ("op", "-", 15), ("num", "1", 16), ("op", ")", 17), ("op", "@", 18)]


# The scan as it was before it became one findall, one match per token:
# the reference that the scan must agree with.
_REFERENCE_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()@])"
    r")")


def _reference_tokens(text):
    items = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            pos = len(text) - len(rest)
            raise ParseError(f"bad character {text[pos]!r}", pos)
        kind = m.lastgroup
        items.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return items


@settings(max_examples=400, deadline=None)
@given(st.text("0123456789.eE+-*^()@ \t" + string.ascii_letters + "_$٣",
               max_size=24))
@example(".")
@example("1e")
@example("1e+")
@example("x1 \t")
@example("٣.5e3*x1 + .5")
@example("x1 + 1e200*1e200 $")
def test_the_scan_agrees_with_the_per_match_reference(text):
    try:
        want = _reference_tokens(text)
    except ParseError as err:
        for parse in (parse_field, parse_vector, parse_form):
            with pytest.raises(ParseError) as got:
                parse(text, M)
            assert (str(got.value), got.value.pos) == (str(err), err.pos)
        return
    with grammar._scanned(text) as vals:
        got = list(zip(map(grammar._kind, vals), vals, grammar._offsets(text)))
    assert got.pop() == ("eof", "", len(text))
    assert got == want


def test_a_line_frequency_is_checked_on_its_sum():
    assert parse_field("cos(2*pi*(y1 - y1))", M) == ScalarField.constant(M, 1.0)
    assert parse_field("x1*sin(2*pi*(x1 + y2 - y2))", M) == \
        parse_field("x1*sin(2*pi*x1)", M)


def test_model_names_and_positions_are_read_once():
    assert M.names is M.names
    assert [M.index(n) for n in M.names] == list(range(M.dim))
    with pytest.raises(KeyError) as err:
        M.index("zz")
    assert err.value.args[0] == "no coordinate 'zz' in ('x1', 'y1', 'x2', 'y2')"


@pytest.mark.parametrize("parse,suffix", [
    (parse_field, "*x1"), (parse_vector, "*d_x1"), (parse_form, "*dx1^dy1")])
def test_a_product_is_pruned_once_not_after_each_factor(parse, suffix):
    # 1e-7*1e-7 is below the pruning threshold; only the whole product,
    # 9.999999999999998e-08, is pruned, and it stays
    assert parse("1e-7*1e-7*1e7" + suffix, M) == \
        parse("9.999999999999998e-08" + suffix, M)


def test_a_folded_term_alone_is_checked_pruned_and_normalized():
    with pytest.raises(fields.NonFiniteCoefficientError) as err:
        parse_field("1e200*1e200*x1", M)
    assert str(err.value) == ("coefficient inf is not finite: a sum or "
                              "product of coefficients overflowed")
    assert parse_field("1e-13*x1", M) == ScalarField.zero(M)
    assert parse_field("1e-7*1e-7*1e7*x1", M).terms == (
        (((1, 0, 0, 0), (0, 0, 0, 0), COS), 9.999999999999998e-08),)
    assert parse_field("-2*sin(2*pi*(-x1))", M).terms == (
        (((0, 0, 0, 0), (1, 0, 0, 0), SIN), 2.0),)


def _field_products(text):
    """(field, calls) of parsing text on P, calls counting fields.field_mul."""
    calls = []
    real = fields.field_mul

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "field_mul", counted)
        f = parse_field(text, P)
    return f, len(calls)


def test_numbers_powers_and_one_trig_factor_make_no_field_product():
    f, calls = _field_products("2.5*x1^1000000*y1^2*cos(2*pi*(q - 3*x1))")
    assert calls == 0
    assert f.terms == ((((1000000, 2, 0), (3, 0, -1), COS), 2.5),)
    # a number raised to a power keeps its left-to-right product
    f, calls = _field_products("0.1^3*q")
    assert calls == 0
    assert f.terms == ((((0, 0, 1), (0, 0, 0), COS), 0.1 * 0.1 * 0.1),)
    # a second trig factor is a field, multiplied in once
    f, calls = _field_products("cos(2*pi*x1)*2*sin(2*pi*q)")
    assert calls == 1
    assert f == parse_field("sin(2*pi*(x1 + q)) - sin(2*pi*(x1 - q))", P)


def test_a_zero_trig_factor_zeroes_the_term_and_a_line_frequency_raises():
    assert parse_field("sin(2*pi*(q - q))*x1", P).terms == ()
    assert parse_field("3*x1^2*sin(2*pi*(x1 - x1))*(y1 + q)", P).terms == ()
    for text in ("cos(2*pi*y1)", "2*x1*sin(2*pi*(q + y1))",
                 "cos(2*pi*q)*cos(2*pi*y1)"):
        with pytest.raises(ValueError, match="frequency on line coordinate"):
            parse_field(text, P)


FOLD_SUM = "(y1 - 0.3*x1^2)"
FOLD_ENV = {"g": parse_field("0.7*q - y1^2", P)}


@st.composite
def term_pieces(draw):
    """The factor texts of one term on P, in reading order, and whether
    every number is read before the first factor that does not fold."""
    freq = st.integers(min_value=-3, max_value=3)

    def trig():
        ks = [(k, n) for k, n in ((draw(freq), "x1"), (draw(freq), "q")) if k]
        if not ks:
            arg = "(q - q)"
        elif ks[0][0] > 0 and len(ks) == 1:
            arg = f"{ks[0][0]}*{ks[0][1]}"
        else:
            arg = "(" + "".join(
                ("-" if k < 0 else "") + f"{abs(k)}*{n}" if i == 0
                else (" - " if k < 0 else " + ") + f"{abs(k)}*{n}"
                for i, (k, n) in enumerate(ks)) + ")"
        return f"{draw(st.sampled_from(['cos', 'sin']))}(2*pi*{arg})"

    numbers = [repr(draw(st.floats(min_value=0.1, max_value=10)))
               for _ in range(draw(st.integers(0, 3)))]
    coords = [(name if p == 1 else f"{name}^{p}")
              for name, p in draw(st.lists(st.tuples(
                  st.sampled_from(["x1", "y1", "q"]), st.integers(0, 4)),
                  min_size=1, max_size=3))]
    trigs = [trig() for _ in range(draw(st.integers(0, 2)))]
    others = [FOLD_SUM] * draw(st.integers(0, 1)) + \
        ["g"] * draw(st.integers(0, 1))
    pieces = draw(st.permutations(numbers + coords + trigs + others))
    # the factors that do not fold: the second cos/sin, the sum and g
    unfolded = [i for i, p in enumerate(pieces) if p in trigs][1:] + \
        [i for i, p in enumerate(pieces) if p in others]
    first = min(unfolded, default=len(pieces))
    return pieces, not any(p in numbers for p in pieces[first:])


@settings(max_examples=200, deadline=None)
@given(term_pieces())
def test_a_folded_term_is_the_product_of_its_factors(drawn):
    pieces, numbers_first = drawn
    want = parse_field(pieces[0], P, FOLD_ENV)
    for p in pieces[1:]:
        want = fields.field_mul(want, parse_field(p, P, FOLD_ENV))
    got = parse_field("*".join(pieces), P, FOLD_ENV)
    assert [k for k, _ in got.terms] == [k for k, _ in want.terms]
    if numbers_first:
        # every number is read before the first factor that does not fold,
        # so both sides multiply the same numbers in the same order, and
        # the other factors by exact 1, -1 and 0.5, or by the same
        # coefficients of the sum and of g in the same order
        assert got.terms == want.terms
        return
    # the fold multiplies a number read after a factor that does not fold
    # into the coefficient before that factor's coefficient (0.3 of the
    # sum, 0.7 of g), so the two sides round one product in two orders.
    # Each rounds at most once per factor, so they agree to two units of
    # roundoff per factor; one ulp is not enough: 1.977 * 0.3 * 2.66 and
    # 1.977 * 2.66 * 0.3 differ by two units in the last place
    bound = 2 * len(pieces) * 2.0 ** -53
    for (_, c), (_, w) in zip(got.terms, want.terms):
        assert abs(c - w) <= bound * abs(w)


@st.composite
def signed_sums(draw):
    """(text, [(term text, sign)]) of a sum on P: terms of numbers, c^n,
    coordinate powers, one or two cos/sin factors, the parenthesized sum
    FOLD_SUM and the env name g, with a leading sign and random spacing.
    Some terms share one of three keys, so that three or more coefficients
    of a key are added in the order of the text."""
    space = st.sampled_from(["", " ", "  ", "\t"])
    number = st.floats(min_value=0.1, max_value=10).map(repr)
    shared = st.sampled_from(["x1", "y1^2*cos(2*pi*q)", "sin(2*pi*(x1 - q))"])
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            pieces = [draw(number), draw(shared)]
        else:
            pieces = list(draw(term_pieces())[0])
        if draw(st.booleans()):
            pieces.insert(draw(st.integers(0, len(pieces))),
                          f"{draw(number)}^{draw(st.integers(0, 3))}")
        text = pieces[0]
        for p in pieces[1:]:
            text += draw(space) + "*" + draw(space) + p
        terms.append((text, draw(st.sampled_from([1.0, -1.0]))))
    first, sign = terms[0]
    text = draw(space) + draw(st.sampled_from(["", "+"] if sign > 0 else
                                              ["-"])) + draw(space) + first
    for t, s in terms[1:]:
        text += draw(space) + ("+" if s > 0 else "-") + draw(space) + t
    return text + draw(space), terms


@settings(max_examples=200, deadline=None)
@given(signed_sums())
def test_a_sum_is_the_combine_of_its_signed_terms_bit_for_bit(drawn):
    text, terms = drawn
    got = parse_field(text, P, FOLD_ENV)
    want = fields.combine(P, [(parse_field(t, P, FOLD_ENV), s)
                              for t, s in terms])
    assert [(k, c.hex()) for k, c in got.terms] == \
        [(k, c.hex()) for k, c in want.terms]


def test_a_folded_sum_is_one_canonical_pass_and_one_field():
    text = " - ".join(f"{k}.5*y1^{k}*cos(2*pi*({k}*x1 - q))"
                      for k in range(1, 41))
    built = []
    real = ScalarField.__init__

    def counted(self, *args):
        built.append(1)
        real(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScalarField, "__init__", counted)
        calls, items = _canonicalized(parse_field, text)
    assert (calls, items) == (1, 40)
    assert len(built) == 1


# -- the coarse scan ---------------------------------------------------------


def _scan_readings(reader, text, model, env=None):
    """(coarse, fine): what reader makes of the coarse _SCAN list of text
    and of the fine _TOKEN list, and the lengths of both lists."""
    vals = grammar._SCAN.findall(text) + [""]
    coarse = reader(vals, model, env, {})
    with grammar._scanned(text) as fine_vals:
        fine = reader(fine_vals, model, env, {})
    return (coarse, len(vals)), (fine, len(fine_vals))


def vector_strategy():
    return st.lists(raw_terms(12), min_size=3, max_size=3).map(
        lambda raws: fields.VectorField(
            P, tuple(ScalarField.build(P, r) for r in raws)))


@settings(max_examples=60, deadline=None)
@given(raw_terms(40), vector_strategy(), form_strategy(12))
def test_the_coarse_scan_reads_what_the_fine_scan_reads(raw, v, a):
    f = ScalarField.build(P, raw)
    for x, write, parse, reader in (
            (f, field_to_text, parse_field, grammar._field),
            (v, vector_to_text, parse_vector, grammar._vector),
            (a, form_to_text, parse_form, grammar._form)):
        text = write(x)
        (coarse, n_coarse), (fine, n_fine) = _scan_readings(reader, text, P)
        assert coarse == fine
        assert parse(text, P) == x
        # each cos/sin factor is one coarse token instead of at least eight
        waves = text.count("cos(") + text.count("sin(")
        assert n_coarse <= n_fine - 7 * waves


@settings(max_examples=200, deadline=None)
@given(signed_sums())
def test_the_coarse_scan_reads_a_written_sum_as_the_fine_scan(drawn):
    """Texts that are not canonical: spacing, signs, powers of numbers, a
    second cos/sin factor, a parenthesized sum and an env name."""
    text, _ = drawn
    (coarse, _), (fine, _) = _scan_readings(grammar._field, text, P,
                                            FOLD_ENV)
    assert [(k, c.hex()) for k, c in coarse.terms] == \
        [(k, c.hex()) for k, c in fine.terms]


# The printer as it was before it memoized the monomial and wave texts of
# a call: the reference that the printed text must match byte for byte.
def _ref_freq_text(model, freqs):
    names = model.names
    parts = [(k, names[i] if abs(k) == 1 else f"{abs(k)}*{names[i]}")
             for i, k in enumerate(freqs) if k != 0]
    if len(parts) == 1 and parts[0][0] > 0:
        return parts[0][1]
    return "(" + _ref_join_signed(parts) + ")"


def _ref_term_body(model, key, coeff):
    powers, freqs, phase = key
    names = model.names
    factors = []
    a = abs(coeff)
    if a != 1.0:
        factors.append(repr(float(a)))
    for i, p in enumerate(powers):
        if p == 0:
            continue
        factors.append(names[i] if p == 1 else f"{names[i]}^{p}")
    if any(freqs):
        trig = "cos" if phase == COS else "sin"
        factors.append(f"{trig}(2*pi*{_ref_freq_text(model, freqs)})")
    if not factors:
        factors.append(repr(float(a)))
    return "*".join(factors)


def _ref_join_signed(parts):
    out = []
    for n, (c, body) in enumerate(parts):
        if n == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def _ref_field_to_text(f):
    if not f.terms:
        return "0"
    return _ref_join_signed(
        [(c, _ref_term_body(f.model, key, c)) for key, c in f.terms])


def _ref_times_symbol(f, symbol):
    if len(f.terms) == 1:
        key, c = f.terms[0]
        body = _ref_term_body(f.model, key, c)
        return c, symbol if body == "1.0" else f"{body}*{symbol}"
    return 1.0, f"({_ref_field_to_text(f)})*{symbol}"


def _ref_vector_to_text(v):
    parts = [_ref_times_symbol(comp, f"d_{v.model.names[i]}")
             for i, comp in enumerate(v.components) if comp.terms]
    return _ref_join_signed(parts) if parts else "0"


def _ref_form_to_text(a):
    if not a.coeffs:
        return f"0@{a.degree}"
    return _ref_join_signed([
        _ref_times_symbol(f, "^".join(f"d{a.model.names[i]}" for i in idx))
        for idx, f in a.coeffs])


@settings(max_examples=60, deadline=None)
@given(raw_terms(40), vector_strategy(), form_strategy(12), field_strategy())
def test_printed_text_is_the_reference_text_byte_for_byte(raw, v, a, g):
    f = ScalarField.build(P, raw)
    for x in (f, f * np.float64(1.5), partial(f, 1), -f):
        assert field_to_text(x) == _ref_field_to_text(x)
    assert field_to_text(g) == _ref_field_to_text(g)
    assert vector_to_text(v) == _ref_vector_to_text(v)
    assert form_to_text(a) == _ref_form_to_text(a)


@pytest.mark.parametrize("name", sorted(
    p.name[:-len(".scene")] for p in bundled_scene_dir().iterdir()
    if p.name.endswith(".scene")))
def test_bundled_scenes_serialize_as_the_reference_prints(name):
    sc = resolve_scene(name)
    got = scene.serialize_scene(sc)
    with pytest.MonkeyPatch.context() as mp:
        for write in (_ref_field_to_text, _ref_vector_to_text,
                      _ref_form_to_text):
            mp.setattr(scene, write.__name__[len("_ref_"):], write)
        want = scene.serialize_scene(sc)
    assert got == want
    assert scene.serialize_scene(scene.parse_scene(got)) == got


def _ref_field_mul(a, b):
    """field_mul as it was before it reused the power sums and frequency
    differences and sums of a product."""
    out = []
    for (p1, k1, f1), c1 in a.terms:
        for (p2, k2, f2), c2 in b.terms:
            p = tuple(x + y for x, y in zip(p1, p2))
            c = c1 * c2
            if not any(k1):
                out.append(((p, k2, f2), c))
                continue
            if not any(k2):
                out.append(((p, k1, f1), c))
                continue
            diff = tuple(x - y for x, y in zip(k1, k2))
            summ = tuple(x + y for x, y in zip(k1, k2))
            if f1 == COS and f2 == COS:
                out += [((p, diff, COS), 0.5 * c), ((p, summ, COS), 0.5 * c)]
            elif f1 == SIN and f2 == SIN:
                out += [((p, diff, COS), 0.5 * c), ((p, summ, COS), -0.5 * c)]
            elif f1 == SIN and f2 == COS:
                out += [((p, diff, SIN), 0.5 * c), ((p, summ, SIN), 0.5 * c)]
            else:  # cos * sin
                out += [((p, diff, SIN), -0.5 * c), ((p, summ, SIN), 0.5 * c)]
    return ScalarField(a.model, fields._canonical(out))


@settings(max_examples=100, deadline=None)
@given(raw_terms(30), raw_terms(30))
def test_field_mul_is_the_reference_product_bit_for_bit(ra, rb):
    a, b = ScalarField.build(P, ra), ScalarField.build(P, rb)
    for x, y in ((a, b), (b, a), (a, a)):
        got = fields.field_mul(x, y)
        want = _ref_field_mul(x, y)
        assert [(k, c.hex()) for k, c in got.terms] == \
            [(k, c.hex()) for k, c in want.terms]


# mutations inside a canonical cos/sin factor: (old text, new text)
TRIG_MUTATIONS = [
    ("*(", "* ("), ("x1", "x1 "), ("(2", "( 2"), ("x1", "x$1"), ("q", "q?"),
    ("3*", "3.5*"), ("3*", "0*"), ("3*", "0.0*"), ("x1", "y1"), ("q", "zz"),
    ("x1", "(x1)"), ("(3", "((3"), ("q)", "q"), ("2*pi*", "2*pi*("),
    ("pi", "pi2"), ("2*pi", "2.0*pi"), ("x1", "2*x1*x1"), ("q", "q^2"),
    ("x1", "3e1*x1"), ("-", "--"), ("+", "+-"), ("*q", "*q*q"),
    (" - ", " * "), ("q", "")]


@st.composite
def mutated_trig_texts(draw):
    """A term with a canonical cos/sin factor on M5, changed inside the
    factor by one of TRIG_MUTATIONS, or followed by ^n."""
    k1, kq = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
    arg = draw(st.sampled_from(
        [f"{kq}*q", "x1", "q", f"({k1}*x1 - {kq}*q)", f"(x1 + {kq}*q)",
         f"(-x1 + {kq}*q)", f"({kq}*x1 - q)"]))
    factor = f"{draw(st.sampled_from(['cos', 'sin']))}(2*pi*{arg})"
    old, new = draw(st.sampled_from(TRIG_MUTATIONS + [(")", ")^2")]))
    if old in factor:
        at = draw(st.sampled_from(
            [m.start() for m in re.finditer(re.escape(old), factor)]))
        factor = factor[:at] + new + factor[at + len(old):]
    head = draw(st.sampled_from(["", "0.25*", "y1^2*", "-x1*"]))
    tail = draw(st.sampled_from(["", "*y2", " + 1.5*q", "^3",
                                 " - cos(2*pi*x1)"]))
    return head + factor + tail


M5 = model_from_names([("x1", CIRCLE), ("y1", LINE), ("x2", LINE),
                       ("y2", LINE), ("q", CIRCLE)])


def _outcome(read):
    try:
        return "ok", read()
    except ParseError as err:
        return "error", str(err), err.pos


@settings(max_examples=300, deadline=None)
@given(mutated_trig_texts())
@example("cos(2*pi* (x1 + q))")
@example("sin(2*pi*(x1 + q))^2*x1")
@example("cos(2*pi*2.5*x1)")
@example("cos(2*pi*0*q) + 1")
@example("x1*sin(2*pi*y1)")
@example("cos(2*pi*(x1 - 2*y1 + 2*y1))")
@example("cos(2*pi*zz)")
@example("cos(2*pi*((x1 + q))")
@example("sin(2*pi*(x1 + q)")
@example("cos(2*pi*(x1 $ q))")
@example("2cos(2*pi*x1)")
@example("xcos(2*pi*q)")
def test_a_mutated_trig_factor_is_the_fine_scan_error(text):
    for parse, suffix in ((parse_field, ""), (parse_vector, "*d_y1"),
                          (parse_form, "*dx1^dy1")):
        whole = text + suffix
        got = _outcome(lambda: parse(whole, M5))
        # the fine scan alone: every token of the first reading is a
        # _TOKEN, as in the reading that follows an error
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grammar, "_SCAN", grammar._TOKEN)
            assert got == _outcome(lambda: parse(whole, M5))


def exact_shape_field(rng, nterms):
    """nterms distinct terms coeff * lines^p * trig(2*pi*(k1*x1 + kq*q))
    on M5: the shape of the benchmark's exact workload."""
    raw = {}
    while len(raw) < nterms:
        powers = (0, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2),
                  0)
        k1, kq = rng.randint(-3, 3), rng.randint(-3, 3)
        phase = COS if (k1, kq) == (0, 0) else rng.choice((COS, SIN))
        c = rng.choice((-1, 1)) * rng.randint(500, 5000) / 10000.0
        raw.setdefault((powers, (k1, 0, 0, 0, kq), phase), c)
    return ScalarField.build(M5, raw)


def test_a_canonical_product_is_read_from_the_coarse_scan():
    """A tier-1 guard on the parse's token count: a product of two 30-term
    fields of the exact workload's shape scans to about 13.5 coarse tokens
    a term, against about 26 fine ones, and is read without the fine
    scan."""
    rng = random.Random(30)
    h = fields.field_mul(exact_shape_field(rng, 30),
                         exact_shape_field(rng, 30))
    text = field_to_text(h)
    scans = []
    real_scan, real_scanned = grammar._SCAN, grammar._scanned

    class Counted:
        def findall(self, s):
            vals = real_scan.findall(s)
            scans.append(("coarse", len(vals)))
            return vals

    def counted_scanned(s):
        scans.append(("fine", len(grammar._TOKEN.findall(s))))
        return real_scanned(s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grammar, "_SCAN", Counted())
        mp.setattr(grammar, "_scanned", counted_scanned)
        assert parse_field(text, M5) == h
    assert len(h.terms) > 500
    assert [kind for kind, _ in scans] == ["coarse"]
    # sign, coefficient, up to three powers and the factor, joined by *:
    # 16 coarse tokens at most, 13.5 on average, where the fine scan
    # gives the factor alone 8 to 16
    assert scans[0][1] <= 15 * len(h.terms)
    assert len(grammar._TOKEN.findall(text)) >= 24 * len(h.terms)
