"""Text grammar for fields, vectors and forms.

Fields are sums like ``1.5*x1^2*cos(2*pi*(q - x2))``; vectors use ``d_x1``
basis symbols; forms use wedge chains like ``dx1^dy2`` with field
coefficients in front.  The ``2*pi`` token is explicit so integer
frequencies round-trip without floating-point noise.  Serialization is
canonical: parse(serialize(x)) reproduces x exactly.

A text is scanned once, by one ``findall`` of the token pattern, into a
list of token strings that ends in the sentinel ``""``.  The readers take
that list and an index and return the index after what they read.  A
token's kind is read from its text: one of ``-+*^()@`` is an operator, a
token that starts with an ASCII letter or ``_`` is a name, and any other
is a number, except a character that starts no token, which the scan
matches on its own.  Such a bad character is the error of the whole
text, wherever it stands.  A reader's error carries a token index; the
text is scanned for offsets again only when a ParseError is raised.

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
re-canonicalization of the partial sum after every ``+``.  Parenthesized
sums nest at most ``MAX_NESTING`` (64) deep: one more ``(`` is a ParseError.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import re
import string

from .fields import (COS, PRUNE_EPS, SIN, ScalarField, VectorField,
                     _non_finite, _norm_term, combine)
from .forms import DifferentialForm, _form_sum
from .model import ManifoldModel

_TOKEN = re.compile(
    r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_][A-Za-z_0-9]*"
    r"|[-+*^()@]"
    r"|\S")
_OPS = frozenset("-+*^()@")
MAX_NESTING = 64  # parenthesized sums, well inside the recursion limit
_NAME_START = frozenset(string.ascii_letters + "_")


class ParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} (at offset {pos})")
        self.pos = pos


class _At(ValueError):
    """A parse error at token index i, before its offset is known."""

    def __init__(self, msg, i):
        super().__init__(msg)
        self.i = i


def _kind(v: str) -> str:
    """'op', 'name', 'num', 'bad' (a character that starts no token) or
    'eof' (the sentinel) of a token of the scan."""
    if not v:
        return "eof"
    if v in _OPS:
        return "op"
    if v[0] in _NAME_START:
        return "name"
    return "num" if v[0].isdecimal() or len(v) > 1 else "bad"


def _offsets(text: str) -> list[int]:
    """The offset of each token of text, then len(text) for the sentinel."""
    return [m.start() for m in _TOKEN.finditer(text)] + [len(text)]


@contextlib.contextmanager
def _scanned(text: str):
    """The tokens of text, then the sentinel "", to be read in the with
    block.  An error raised there at a token is a ParseError at its
    offset.  If the reading raises any ValueError (every parse error is
    one), a bad character anywhere in the text is the error instead, as
    if the text had been checked before it was read."""
    vals = _TOKEN.findall(text)
    vals.append("")
    try:
        yield vals
    except ValueError as err:
        at = _offsets(text)
        for j, v in enumerate(vals):
            if _kind(v) == "bad":
                raise ParseError(f"bad character {v!r}", at[j]) from None
        if isinstance(err, _At):
            raise ParseError(err.args[0], at[err.i]) from None
        raise


def _expect(vals: list, i: int, want: str) -> int:
    """The index after the token want at i."""
    if vals[i] != want:
        raise _At(f"expected {want!r}, found {vals[i]!r}", i)
    return i + 1


def _name(vals: list, i: int) -> str:
    """The name at i."""
    if _kind(vals[i]) != "name":
        raise _At(f"expected 'name', found {vals[i]!r}", i)
    return vals[i]


def _parse_int(vals: list, i: int) -> tuple:
    """(n, index after) of the integer at i."""
    v = vals[i]
    if not v.isdecimal():
        raise _At(f"expected integer, found {v!r}", i)
    return int(v), i + 1


def _exponent(vals: list, i: int) -> tuple:
    """(n, index after) if ^n is at i, else (None, i)."""
    return _parse_int(vals, i + 1) if vals[i] == "^" else (None, i)


def _coordinate(model: ManifoldModel, name: str, i: int, skip=0) -> int:
    """Index of the coordinate name[skip:], else an error at token i."""
    try:
        return model.index(name[skip:])
    except KeyError:
        raise _At(f"unknown name {name!r}", i) from None


def _parse_trig(vals: list, i: int, model: ManifoldModel, which: str) -> tuple:
    """((freqs, phase), index after) of the cos/sin factor whose name is
    at i - 1.  Its argument is 2*pi* times a coordinate, optionally
    times an integer, or a parenthesized signed sum of these.  A nonzero
    summed frequency on a line coordinate is an error at that
    coordinate's first token in the argument."""
    i = _expect(vals, i, "(")
    if vals[i] != "2":
        raise _At("trig argument must start with 2*pi*", i)
    i = _expect(vals, _expect(vals, _expect(vals, i + 1, "*"), "pi"), "*")
    start = i
    freqs = [0] * model.dim
    sign = 1
    group = vals[i] == "("
    if group:
        i += 1
        if vals[i] == "-":
            sign, i = -1, i + 1
        if vals[i] == "+":
            i += 1
    while True:
        mult = 1
        if _kind(vals[i]) == "num":
            mult, i = _parse_int(vals, i)
            i = _expect(vals, i, "*")
        freqs[_coordinate(model, _name(vals, i), i)] += sign * mult
        i += 1
        if not group or vals[i] not in ("+", "-"):
            break
        sign = 1 if vals[i] == "+" else -1
        i += 1
    if group:
        i = _expect(vals, i, ")")
    i = _expect(vals, i, ")")
    for j, k in enumerate(freqs):
        if k and not model.is_circle(j):
            name = model.names[j]
            raise _At(f"frequency on line coordinate {name!r}",
                      vals.index(name, start, i))
    return (tuple(freqs), COS if which == "cos" else SIN), i


def _power(model: ManifoldModel, f: ScalarField, n) -> ScalarField:
    """f, or f^n as n products from the constant 1."""
    if n is None:
        return f
    out = ScalarField.constant(model, 1.0)
    for _ in range(n):
        out = out * f
    return out


def _parse_product(vals: list, i: int, model: ManifoldModel, env,
                   symbol=None, symbols: str = "", depth: int = 0) -> tuple:
    """(field, symbol, index after) of the term at i: factors joined by
    ``*``.

    The factors fold into one key and one coefficient: each number (c^n
    as n products) multiplies the coefficient left to right, x^n adds n
    to the power of x, and the first cos/sin factor gives the frequencies
    and phase.  A factor that does not fold (a second cos/sin, a
    parenthesized sum, an env name, or one of these raised to a power) is
    read as a field and multiplied in after the folded monomial, in
    reading order.  The folded monomial is sign-normalized and pruned
    once: alone, or with its product by those fields.
    symbol(vals, i, model), if given, reads a basis symbol (a tuple) at
    token i and returns (symbol, index after), or returns None there; a
    term holds at most one, and the symbol returned is None if it holds
    none.  depth counts the parenthesized sums around the term.
    """
    coeff = 1.0
    powers = [0] * model.dim
    trig = None
    rest: list[ScalarField] = []
    sym = None
    while True:
        v = vals[i]
        got = symbol(vals, i, model) if symbol else None
        if got is not None:
            if sym is not None:
                raise _At(f"two {symbols} in one term", i)
            sym, i = got
        elif v[:1] in _NAME_START:
            if v == "cos" or v == "sin":
                wave, i = _parse_trig(vals, i + 1, model, v)
                n, i = _exponent(vals, i)
                if n is None and trig is None:
                    trig = wave
                else:
                    rest.append(_power(
                        model, ScalarField._trig(model, *wave, 1.0), n))
            elif env and v in env:
                if env[v].model != model:
                    raise _At(f"{v!r} lives on a different model", i)
                n, i = _exponent(vals, i + 1)
                rest.append(_power(model, env[v], n))
            else:
                j = _coordinate(model, v, i)
                n, i = _exponent(vals, i + 1)
                powers[j] += 1 if n is None else n
        elif v == "(":
            if depth == MAX_NESTING:
                raise _At(f"parentheses nested deeper than {MAX_NESTING}", i)
            f, i = _parse_sum(vals, i + 1, model, env, depth + 1)
            n, i = _exponent(vals, _expect(vals, i, ")"))
            rest.append(_power(model, f, n))
        else:
            try:
                c = float(v)
            except ValueError:  # an operator, the end or a bad character
                raise _At(f"unexpected token {v!r}", i) from None
            if not math.isfinite(c):
                raise _At(f"number {v!r} overflows", i)
            n, i = _exponent(vals, i + 1)
            coeff *= c if n is None else math.prod(itertools.repeat(c, n))
        if vals[i] != "*":
            break
        i += 1
    freqs, phase = trig or ((0,) * model.dim, COS)
    monomial = _norm_term(tuple(powers), freqs, phase, coeff)
    if not rest:
        # one sign-normalized term is canonical once it is finite and
        # above the pruning threshold
        if monomial and not math.isfinite(monomial[1]):
            raise _non_finite(monomial[1])
        keep = monomial and abs(monomial[1]) > PRUNE_EPS
        return ScalarField(model, (monomial,) if keep else ()), sym, i
    # unpruned: the products with the other factors prune it with them
    f = ScalarField(model, (monomial,) if monomial else ())
    for g in rest:
        f = f * g
    return f, sym, i


def _signed_terms(vals: list, i: int, term) -> int:
    """Read the sum at i, with an optional leading sign: term(sign, i)
    reads each term and returns the index after it.  Returns the index
    after the sum."""
    sign = 1.0
    if vals[i] == "-":
        sign, i = -1.0, i + 1
    if vals[i] == "+":
        i += 1
    while True:
        i = term(sign, i)
        if vals[i] not in ("+", "-"):
            return i
        sign = 1.0 if vals[i] == "+" else -1.0
        i += 1


def _parse_sum(vals: list, i: int, model: ManifoldModel, env,
               depth: int = 0) -> tuple:
    """(field, index after) of the sum at i, inside depth parentheses."""
    pairs: list = []

    def term(sign, i):
        f, _, i = _parse_product(vals, i, model, env, depth=depth)
        pairs.append((f, sign))
        return i

    i = _signed_terms(vals, i, term)
    return combine(model, pairs), i


def _at_end(vals: list, i: int) -> None:
    if vals[i]:
        raise _At(f"trailing input {vals[i]!r}", i)


def parse_field(text: str, model: ManifoldModel, env=None) -> ScalarField:
    with _scanned(text) as vals:
        f, i = _parse_sum(vals, 0, model, env)
        _at_end(vals, i)
        return f


def _parse_terms(vals: list, model: ManifoldModel, env, symbol,
                 symbols: str, lacks: str) -> list:
    """The (symbol, coefficient, sign) terms of a whole text that sums
    factors times exactly one basis symbol each.  symbol(vals, i, model)
    reads a symbol, a tuple, at token i and returns (symbol, index
    after), or returns None there.  All symbols of the sum have one
    length: a form's degree (a vector's symbols all have length 1)."""
    terms: list = []

    def term(sign, i):
        coeff, sym, i = _parse_product(vals, i, model, env, symbol, symbols)
        if sym is None:
            raise _At(lacks, i)
        if terms and len(sym) != len(terms[0][0]):
            raise _At("mixed degrees in form", i)
        terms.append((sym, coeff, sign))
        return i

    _at_end(vals, _signed_terms(vals, 0, term))
    return terms


def _basis_vector(vals: list, i: int, model: ManifoldModel):
    """((coordinate index,), index after) for a d_<coord> symbol at i."""
    if vals[i].startswith("d_"):
        return (_coordinate(model, vals[i], i, skip=2),), i + 1
    return None


def parse_vector(text: str, model: ManifoldModel, env=None) -> VectorField:
    """Sums of scalar-coefficient multiples of d_<coord> basis symbols."""
    pairs: list[list] = [[] for _ in range(model.dim)]
    with _scanned(text) as vals:
        if vals[0] == "0" and len(vals) == 2:
            return VectorField(
                model, tuple(ScalarField.zero(model) for _ in pairs))
        for (i,), coeff, sign in _parse_terms(
                vals, model, env, _basis_vector, "basis symbols",
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


def _wedge_chain(vals: list, i: int, model: ManifoldModel):
    """(coordinate indices, index after) of a chain like dx1^dy2 at i,
    or None."""
    ci = _covector_index(vals[i], model)
    if ci is None:
        return None
    idx = [ci]
    i += 1
    while vals[i] == "^":
        nm = _name(vals, i + 1)
        i += 2
        cj = _covector_index(nm, model)
        if cj is None:
            raise _At(f"{nm!r} is not a basis covector", i)
        idx.append(cj)
    return tuple(idx), i


def parse_form(text: str, model: ManifoldModel, env=None) -> DifferentialForm:
    """Sums of field coefficients times wedge chains like dx1^dy2.

    The zero form needs an explicit degree: ``0@2``.
    """
    with _scanned(text) as vals:
        if vals[0] == "0" and vals[1] == "@":
            deg, i = _parse_int(vals, 2)
            if vals[i]:
                raise _At("trailing input after zero form", i)
            return DifferentialForm.zero(model, deg)
        terms = _parse_terms(vals, model, env, _wedge_chain, "wedge chains",
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
    names = model.names
    factors = []
    a = abs(coeff)
    if a != 1.0:
        factors.append(_num_text(a))
    for i, p in enumerate(powers):
        if p == 0:
            continue
        factors.append(names[i] if p == 1 else f"{names[i]}^{p}")
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
