"""Text grammar for fields, vectors and forms.

Fields are sums like ``1.5*x1^2*cos(2*pi*(q - x2))``; vectors use ``d_x1``
basis symbols; forms use wedge chains like ``dx1^dy2`` with field
coefficients in front.  The ``2*pi`` token is explicit so integer
frequencies round-trip without floating-point noise.  Serialization is
canonical: parse(serialize(x)) reproduces x exactly.

A sum is parsed term by term, and one product reader reads every term,
of a field and of a vector or form alike.  It folds the term's numbers
(multiplied left to right), coordinate powers (x^n adds n to an integer
power) and first cos/sin factor into one key and one coefficient.  Only a
factor that does not fold (a second cos/sin, a parenthesized sum, an env
name, or one of these raised to a power) is read as a ScalarField and
multiplied in with ``fields.field_mul``, in reading order.  So each term
is sign-normalized and pruned once, after its whole product, and a term
of numbers, coordinate powers and one cos/sin makes no field product.
The signed terms of each result (a field, a vector component, a form
component) are summed by the sum rule of the ``fields`` module docstring:
one ``fields.combine`` per result, added left to right and pruned once.
An n-term sum therefore costs O(n log n) rather than a
re-canonicalization of the partial sum after every ``+``.
"""

from __future__ import annotations

import itertools
import math
import re

from .fields import (COS, SIN, ScalarField, VectorField, _norm_term,
                     circle_freqs, combine)
from .forms import DifferentialForm, _form_sum
from .model import ManifoldModel

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()@])"
    r")")


class ParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} (at offset {pos})")
        self.pos = pos


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                pos = len(text) - len(rest)
                raise ParseError(f"bad character {text[pos]!r}", pos)
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def accept(self, kind, value=None):
        k, v, _ = self.peek()
        if k == kind and (value is None or v == value):
            self.i += 1
            return v
        return None

    def expect(self, kind, value=None):
        k, v, pos = self.peek()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {v!r}", pos)
        self.i += 1
        return v


def _is_int(text: str) -> bool:
    return re.fullmatch(r"\d+", text) is not None


def _parse_int(toks: _Tokens) -> int:
    k, v, pos = toks.next()
    if k != "num" or not _is_int(v):
        raise ParseError(f"expected integer, found {v!r}", pos)
    return int(v)


def _coordinate(model: ManifoldModel, name: str, pos: int, skip=0) -> int:
    """Index of the coordinate name[skip:], else ParseError at pos."""
    try:
        return model.index(name[skip:])
    except KeyError:
        raise ParseError(f"unknown name {name!r}", pos) from None


def _parse_trig(toks: _Tokens, model: ManifoldModel, which: str) -> tuple:
    """(freqs, phase) of the cos/sin factor whose name was just read."""
    toks.expect("op", "(")
    k, v, pos = toks.next()
    if not (k == "num" and v == "2"):
        raise ParseError("trig argument must start with 2*pi*", pos)
    toks.expect("op", "*")
    toks.expect("name", "pi")
    toks.expect("op", "*")
    freqs = [0] * model.dim

    def add_part(sign):
        mult = 1
        if toks.peek()[0] == "num":
            mult = _parse_int(toks)
            toks.expect("op", "*")
        pos = toks.peek()[2]
        freqs[_coordinate(model, toks.expect("name"), pos)] += int(sign) * mult

    if toks.accept("op", "("):
        _signed_terms(toks, add_part)
        toks.expect("op", ")")
    else:
        add_part(1)
    toks.expect("op", ")")
    return circle_freqs(model, freqs), COS if which == "cos" else SIN


def _exponent(toks: _Tokens):
    """n if ^n follows, else None."""
    return _parse_int(toks) if toks.accept("op", "^") else None


def _power(model: ManifoldModel, f: ScalarField, n) -> ScalarField:
    """f, or f^n as n products from the constant 1."""
    if n is None:
        return f
    out = ScalarField.constant(model, 1.0)
    for _ in range(n):
        out = out * f
    return out


def _parse_product(toks: _Tokens, model: ManifoldModel, env, symbol=None,
                   symbols: str = "") -> tuple:
    """(field, symbol) of one term: factors joined by ``*``.

    The factors fold into one key and one coefficient: each number (c^n
    as n products) multiplies the coefficient left to right, x^n adds n
    to the power of x, and the first cos/sin factor gives the frequencies
    and phase.  A factor that does not fold (a second cos/sin, a
    parenthesized sum, an env name, or one of these raised to a power) is
    read as a field and multiplied in after the folded monomial, in
    reading order.  The folded monomial is sign-normalized and pruned
    once: alone, or with its product by those fields.
    symbol(toks, model), if given, reads a basis symbol (a tuple) at the
    current token or returns None there; a term holds at most one, and
    the symbol returned is None if it holds none.
    """
    coeff = 1.0
    powers = [0] * model.dim
    trig = None
    rest: list[ScalarField] = []
    sym = None
    while True:
        k, v, pos = toks.peek()
        got = symbol(toks, model) if symbol else None
        if got is not None:
            if sym is not None:
                raise ParseError(f"two {symbols} in one term", pos)
            sym = got
        elif k == "num":
            toks.next()
            c = float(v)
            if not math.isfinite(c):
                raise ParseError(f"number {v!r} overflows", pos)
            n = _exponent(toks)
            coeff *= c if n is None else math.prod(itertools.repeat(c, n))
        elif k == "name" and v in ("cos", "sin"):
            toks.next()
            wave = _parse_trig(toks, model, v)
            n = _exponent(toks)
            if n is None and trig is None:
                trig = wave
            else:
                rest.append(_power(model, ScalarField._trig(model, *wave, 1.0),
                                   n))
        elif k == "name" and env and v in env:
            toks.next()
            if env[v].model != model:
                raise ParseError(f"{v!r} lives on a different model", pos)
            rest.append(_power(model, env[v], _exponent(toks)))
        elif k == "name":
            toks.next()
            i = _coordinate(model, v, pos)
            n = _exponent(toks)
            powers[i] += 1 if n is None else n
        elif (k, v) == ("op", "("):
            toks.next()
            f = _parse_sum(toks, model, env)
            toks.expect("op", ")")
            rest.append(_power(model, f, _exponent(toks)))
        else:
            raise ParseError(f"unexpected token {v!r}", pos)
        if not toks.accept("op", "*"):
            break
    freqs, phase = trig or ((0,) * model.dim, COS)
    key = (tuple(powers), freqs, phase)
    if not rest:
        return ScalarField.build(model, {key: coeff}), sym
    # unpruned: the products with the other factors prune it with them
    monomial = _norm_term(*key, coeff)
    f = ScalarField(model, (monomial,) if monomial else ())
    for g in rest:
        f = f * g
    return f, sym


def _signed_terms(toks: _Tokens, term) -> None:
    """Call term(sign) on each term of a sum with an optional leading sign."""
    sign = -1.0 if toks.accept("op", "-") else 1.0
    toks.accept("op", "+")
    term(sign)
    while True:
        if toks.accept("op", "+"):
            term(1.0)
        elif toks.accept("op", "-"):
            term(-1.0)
        else:
            return


def _parse_sum(toks: _Tokens, model: ManifoldModel, env) -> ScalarField:
    pairs: list = []
    _signed_terms(toks, lambda sign: pairs.append(
        (_parse_product(toks, model, env)[0], sign)))
    return combine(model, pairs)


def _at_end(toks: _Tokens) -> None:
    k, v, pos = toks.peek()
    if k != "eof":
        raise ParseError(f"trailing input {v!r}", pos)


def parse_field(text: str, model: ManifoldModel, env=None) -> ScalarField:
    toks = _Tokens(text)
    f = _parse_sum(toks, model, env)
    _at_end(toks)
    return f


def _parse_terms(toks: _Tokens, model: ManifoldModel, env, symbol,
                 symbols: str, lacks: str) -> list:
    """The (symbol, coefficient, sign) terms of a whole text that sums
    factors times exactly one basis symbol each.  symbol(toks, model)
    reads a symbol, a tuple, at the current token, or returns None there.
    All symbols of the sum have one length: a form's degree (a vector's
    symbols all have length 1)."""
    terms: list = []

    def term(sign):
        coeff, sym = _parse_product(toks, model, env, symbol, symbols)
        if sym is None:
            raise ParseError(lacks, toks.peek()[2])
        if terms and len(sym) != len(terms[0][0]):
            raise ParseError("mixed degrees in form", toks.peek()[2])
        terms.append((sym, coeff, sign))

    _signed_terms(toks, term)
    _at_end(toks)
    return terms


def _basis_vector(toks: _Tokens, model: ManifoldModel):
    """(coordinate index,) for a d_<coord> symbol."""
    k, v, pos = toks.peek()
    if k == "name" and v.startswith("d_"):
        toks.next()
        return (_coordinate(model, v, pos, skip=2),)
    return None


def parse_vector(text: str, model: ManifoldModel, env=None) -> VectorField:
    """Sums of scalar-coefficient multiples of d_<coord> basis symbols."""
    toks = _Tokens(text)
    pairs: list[list] = [[] for _ in range(model.dim)]
    if toks.peek()[:2] == ("num", "0") and len(toks.items) == 1:
        return VectorField(model, tuple(ScalarField.zero(model) for _ in pairs))
    for (i,), coeff, sign in _parse_terms(
            toks, model, env, _basis_vector, "basis symbols",
            "vector term lacks a d_<coord> symbol"):
        pairs[i].append((coeff, sign))
    return VectorField(model, tuple(combine(model, p) for p in pairs))


def _covector_index(name: str, model: ManifoldModel):
    if name.startswith("d") and len(name) > 1:
        try:
            return model.index(name[1:])
        except KeyError:
            return None
    return None


def _wedge_chain(toks: _Tokens, model: ManifoldModel):
    """The coordinate indices of a chain like dx1^dy2, or None."""
    k, v, _ = toks.peek()
    ci = _covector_index(v, model) if k == "name" else None
    if ci is None:
        return None
    toks.next()
    idx = [ci]
    while toks.accept("op", "^"):
        nm = toks.expect("name")
        cj = _covector_index(nm, model)
        if cj is None:
            raise ParseError(f"{nm!r} is not a basis covector", toks.peek()[2])
        idx.append(cj)
    return tuple(idx)


def parse_form(text: str, model: ManifoldModel, env=None) -> DifferentialForm:
    """Sums of field coefficients times wedge chains like dx1^dy2.

    The zero form needs an explicit degree: ``0@2``.
    """
    toks = _Tokens(text)
    if toks.peek()[:2] == ("num", "0"):
        save = toks.i
        toks.next()
        if toks.accept("op", "@"):
            deg = _parse_int(toks)
            if toks.peek()[0] != "eof":
                raise ParseError("trailing input after zero form", toks.peek()[2])
            return DifferentialForm.zero(model, deg)
        toks.i = save
    terms = _parse_terms(toks, model, env, _wedge_chain, "wedge chains",
                         "form term lacks a wedge chain")
    return _form_sum(model, len(terms[0][0]), terms)


# -- serialization -------------------------------------------------------


def _num_text(c: float) -> str:
    return repr(float(c))


def _freq_text(model: ManifoldModel, freqs) -> str:
    names = model.names
    parts = [(k, names[i] if abs(k) == 1 else f"{abs(k)}*{names[i]}")
             for i, k in enumerate(freqs) if k != 0]
    if len(parts) == 1 and parts[0][0] > 0:
        return parts[0][1]
    return "(" + _join_signed(parts) + ")"


def _term_body(model: ManifoldModel, key, coeff: float) -> str:
    powers, freqs, phase = key
    factors = []
    a = abs(coeff)
    if a != 1.0:
        factors.append(_num_text(a))
    for i, p in enumerate(powers):
        if p == 0:
            continue
        factors.append(model.names[i] if p == 1 else f"{model.names[i]}^{p}")
    if any(freqs):
        trig = "cos" if phase == COS else "sin"
        factors.append(f"{trig}(2*pi*{_freq_text(model, freqs)})")
    if not factors:
        factors.append(_num_text(a))
    return "*".join(factors)


def _join_signed(parts: list[tuple[float, str]]) -> str:
    out = []
    for n, (c, body) in enumerate(parts):
        if n == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def field_to_text(f: ScalarField) -> str:
    if not f.terms:
        return "0"
    return _join_signed(
        [(c, _term_body(f.model, key, c)) for key, c in f.terms])


def _times_symbol(f: ScalarField, symbol: str) -> tuple[float, str]:
    """The signed part `coefficient*symbol` of a vector or form."""
    if len(f.terms) == 1:
        key, c = f.terms[0]
        body = _term_body(f.model, key, c)
        return c, symbol if body == "1.0" else f"{body}*{symbol}"
    return 1.0, f"({field_to_text(f)})*{symbol}"


def vector_to_text(v: VectorField) -> str:
    parts = [_times_symbol(comp, f"d_{v.model.names[i]}")
             for i, comp in enumerate(v.components) if comp.terms]
    return _join_signed(parts) if parts else "0"


def form_to_text(a: DifferentialForm) -> str:
    if not a.coeffs:
        return f"0@{a.degree}"
    return _join_signed([
        _times_symbol(f, "^".join(f"d{a.model.names[i]}" for i in idx))
        for idx, f in a.coeffs])
