"""Text grammar for fields, vectors and forms.

Fields are sums like ``1.5*x1^2*cos(2*pi*(q - x2))``; vectors use ``d_x1``
basis symbols; forms use wedge chains like ``dx1^dy2`` with field
coefficients in front.  The ``2*pi`` token is explicit so integer
frequencies round-trip without floating-point noise.  Serialization is
canonical: parse(serialize(x)) reproduces x exactly.

A text is first read from its coarse scan: one ``findall`` of _SCAN into
a list of token strings that ends in the sentinel ``""``.  A whole
canonical cos/sin factor, ``cos(2*pi*`` or ``sin(2*pi*`` then a name,
an ``int*name`` or a parenthesized group without nested parentheses,
then ``)``, is one token of it; the other tokens are those of the fine
scan, _TOKEN.  A canonical term then scans to about 13 tokens instead of
26.  The product reader looks each factor token up in a dict that lives
for one parse call, and fills it, the first time the token appears, by
reading the token's own fine scan with _parse_trig, which must use the
whole token up.  If reading the coarse list raises any ValueError, the
text is read again from its fine scan alone, so every error, and its
offset, is the one the fine scan gives.

The fine scan, one ``findall`` of _TOKEN, gives every operator, name and
number its own token.  The readers take either list and an index and
return the index after what they read.  A token's kind is read from its
text: one of ``-+*^()@`` is an operator, a token that starts with an
ASCII letter or ``_`` is a name, and any other is a number, except a
character that starts no token, which the scan matches on its own.  The
pattern tries operators, then names, then numbers; their first
characters differ, so the order only makes the common tokens match
sooner.  Such a bad character is the error of the
whole text, wherever it stands.  A reader's error carries a token index;
the text is scanned for offsets again only when a ParseError is raised.
A cos/sin argument's ``(2*pi*`` head is one list-slice compare and a
coordinate one lookup in the model's name-to-index map; the helpers that
name what was expected (_expect, _name, _coordinate) read them again only
to raise that error at that token.

A sum is parsed term by term, and one product reader reads every term,
of a field and of a vector or form alike.  It folds the term's numbers
(multiplied left to right), coordinate powers (x^n adds n to an integer
power) and first cos/sin factor into one key and one coefficient.  Only a
factor that does not fold (a second cos/sin, a parenthesized sum, an env
name, or one of these raised to a power) is read as a ScalarField and
multiplied in with ``fields.field_mul``, in reading order.  So each term
is sign-normalized and pruned once, after its whole product, and a term
of numbers, coordinate powers and one cos/sin makes no field product.
The reader returns the term's canonical (key, coeff) pairs, not a field:
a folded term costs a few list and dict operations.  The sum rule of the
``fields`` module docstring then adds the signed terms, left to right,
and prunes them once.  A field's sum extends one list of signed pairs,
each already sign-normalized, and makes one ScalarField from one
``fields._summed`` pass over it; a vector or form wraps each term's
pairs as its coefficient and sums them with one ``fields.combine`` per
component.  An n-term sum therefore costs O(n log n) rather than a
re-canonicalization of the partial sum after every ``+``.  Parenthesized
sums nest at most ``MAX_NESTING`` (64) deep: one more ``(`` is a
ParseError.

The printer writes each term as its coefficient's text, its monomial's
text and its wave's text, joined by ``*``.  Within one print call it
makes the text of each distinct powers and of each distinct (freqs,
phase) once; the same holds for ``fields.field_mul``, which makes each
power sum and each frequency difference and sum once per product.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import re
import string

from . import fields
from .fields import (COS, PRUNE_EPS, SIN, ScalarField, VectorField,
                     _non_finite, _norm_term, combine)
from .forms import DifferentialForm, _form_sum
from .model import ManifoldModel

_TOKEN = re.compile(
    r"[-+*^()@]"
    r"|[A-Za-z_][A-Za-z_0-9]*"
    r"|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
    r"|\S")
# the coarse scan: a whole canonical cos/sin factor is one token, read
# through _wave; the other tokens are those of _TOKEN
_SCAN = re.compile(
    r"(?:cos|sin)\(2\*pi\*"
    r"(?:[A-Za-z_][A-Za-z_0-9]*|\d+\*[A-Za-z_][A-Za-z_0-9]*|\([^()]*\))\)"
    r"|" + _TOKEN.pattern)
_OPS = frozenset("-+*^()@")
_TRIG_HEAD = ["(", "2", "*", "pi", "*"]
_SIGNS = {"+": 1.0, "-": -1.0}
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
    if vals[i:i + 5] != _TRIG_HEAD:
        # raise the error at the first token that differs
        i = _expect(vals, i, "(")
        if vals[i] != "2":
            raise _At("trig argument must start with 2*pi*", i)
        _expect(vals, _expect(vals, _expect(vals, i + 1, "*"), "pi"), "*")
    i = start = i + 5
    positions = model._positions
    freqs = [0] * len(positions)
    sign = 1
    group = vals[i] == "("
    if group:
        i += 1
        if vals[i] == "-":
            sign, i = -1, i + 1
        if vals[i] == "+":
            i += 1
    while True:
        v = vals[i]
        mult = 1
        if v.isdecimal():
            mult, i = int(v), _expect(vals, i + 1, "*")
        elif _kind(v) == "num":
            _parse_int(vals, i)  # raises: not an integer
        j = positions.get(vals[i])
        if j is None:
            _coordinate(model, _name(vals, i), i)  # raises
        freqs[j] += sign * mult
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


def _wave(v: str, model: ManifoldModel) -> tuple:
    """(freqs, phase) of v, a whole cos/sin factor of the coarse scan: its
    own fine scan, read by _parse_trig to its end."""
    vals = _TOKEN.findall(v)
    vals.append("")
    wave, i = _parse_trig(vals, 1, model, vals[0])
    _at_end(vals, i)
    return wave


def _power(model: ManifoldModel, f: ScalarField, n) -> ScalarField:
    """f, or f^n as n products from the constant 1."""
    if n is None:
        return f
    out = ScalarField.constant(model, 1.0)
    for _ in range(n):
        out = out * f
    return out


def _parse_product(vals: list, i: int, model: ManifoldModel, env, waves,
                   symbol=None, symbols: str = "", depth: int = 0) -> tuple:
    """(terms, symbol, index after) of the term at i: factors joined by
    ``*``.  terms are the canonical (key, coeff) pairs of the term.

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
    none.  depth counts the parenthesized sums around the term.  waves
    maps each whole cos/sin factor of the coarse scan read so far in this
    parse to its (freqs, phase).
    """
    positions = model._positions
    coeff = 1.0
    powers = [0] * len(positions)
    trig = None
    rest: list[ScalarField] = []
    sym = None
    while True:
        v = vals[i]
        if symbol and (got := symbol(vals, i, model)) is not None:
            if sym is not None:
                raise _At(f"two {symbols} in one term", i)
            sym, i = got
        elif v[:1] in _NAME_START:
            if v[-1] == ")" or v == "cos" or v == "sin":
                if v[-1] == ")":  # a whole factor of the coarse scan
                    wave = waves.get(v)
                    if wave is None:
                        wave = waves[v] = _wave(v, model)
                    i += 1
                else:
                    wave, i = _parse_trig(vals, i + 1, model, v)
                if vals[i] != "^" and trig is None:
                    trig = wave
                else:
                    n, i = _exponent(vals, i)
                    rest.append(_power(
                        model, ScalarField._trig(model, *wave, 1.0), n))
            elif env and v in env:
                if env[v].model != model:
                    raise _At(f"{v!r} lives on a different model", i)
                n, i = _exponent(vals, i + 1)
                rest.append(_power(model, env[v], n))
            else:
                j = positions.get(v)
                if j is None:
                    _coordinate(model, v, i)  # raises
                i += 1
                if vals[i] == "^":
                    n, i = _parse_int(vals, i + 1)
                    powers[j] += n
                else:
                    powers[j] += 1
        elif v == "(":
            if depth == MAX_NESTING:
                raise _At(f"parentheses nested deeper than {MAX_NESTING}", i)
            f, i = _parse_sum(vals, i + 1, model, env, waves, depth + 1)
            n, i = _exponent(vals, _expect(vals, i, ")"))
            rest.append(_power(model, f, n))
        else:
            try:
                c = float(v)
            except ValueError:  # an operator, the end or a bad character
                raise _At(f"unexpected token {v!r}", i) from None
            if not math.isfinite(c):
                raise _At(f"number {v!r} overflows", i)
            i += 1
            if vals[i] == "^":
                n, i = _parse_int(vals, i + 1)
                c = math.prod(itertools.repeat(c, n))
            coeff *= c
        if vals[i] != "*":
            break
        i += 1
    freqs, phase = trig or ((0,) * len(powers), COS)
    monomial = _norm_term(tuple(powers), freqs, phase, coeff)
    if not rest:
        # one sign-normalized term is canonical once it is finite and
        # above the pruning threshold
        if monomial and not math.isfinite(monomial[1]):
            raise _non_finite(monomial[1])
        keep = monomial and abs(monomial[1]) > PRUNE_EPS
        return ((monomial,) if keep else ()), sym, i
    # unpruned: the products with the other factors prune it with them
    f = ScalarField(model, (monomial,) if monomial else ())
    for g in rest:
        f = f * g
    return f.terms, sym, i


def _leading_sign(vals: list, i: int) -> tuple:
    """(sign, index after) of the optional "-", then "+", that may open a
    sum at i."""
    sign = 1.0
    if vals[i] == "-":
        sign, i = -1.0, i + 1
    if vals[i] == "+":
        i += 1
    return sign, i


def _parse_sum(vals: list, i: int, model: ManifoldModel, env, waves,
               depth: int = 0) -> tuple:
    """(field, index after) of the sum at i, inside depth parentheses: one
    canonical pass over the signed pairs of all its terms, in order.  The
    pairs of each term are already sign-normalized, so the pass only sums
    them (fields._summed)."""
    pairs: list = []
    sign, i = _leading_sign(vals, i)
    while True:
        terms, _, i = _parse_product(vals, i, model, env, waves, depth=depth)
        for key, c in terms:
            pairs.append((key, c * sign))
        sign = _SIGNS.get(vals[i])
        if sign is None:
            return ScalarField(model, fields._summed(pairs)), i
        i += 1


def _at_end(vals: list, i: int) -> None:
    if vals[i]:
        raise _At(f"trailing input {vals[i]!r}", i)


def _read(text: str, reader, model: ManifoldModel, env):
    """reader(vals, model, env, waves) of the coarse scan of text, waves a
    memo of its whole cos/sin factors that lives for this call.  If that
    raises any ValueError, the same reader of the fine scan, inside
    _scanned: so every error, and its offset, is the fine scan's."""
    vals = _SCAN.findall(text)
    vals.append("")
    try:
        return reader(vals, model, env, {})
    except ValueError:
        pass
    with _scanned(text) as vals:
        return reader(vals, model, env, {})


def _field(vals: list, model: ManifoldModel, env, waves) -> ScalarField:
    f, i = _parse_sum(vals, 0, model, env, waves)
    _at_end(vals, i)
    return f


def parse_field(text: str, model: ManifoldModel, env=None) -> ScalarField:
    return _read(text, _field, model, env)


def _parse_terms(vals: list, model: ManifoldModel, env, waves, symbol,
                 symbols: str, lacks: str) -> list:
    """The (symbol, coefficient, sign) terms of a whole text that sums
    factors times exactly one basis symbol each.  symbol(vals, i, model)
    reads a symbol, a tuple, at token i and returns (symbol, index
    after), or returns None there.  All symbols of the sum have one
    length: a form's degree (a vector's symbols all have length 1)."""
    terms: list = []
    sign, i = _leading_sign(vals, 0)
    while True:
        coeff, sym, i = _parse_product(vals, i, model, env, waves, symbol,
                                       symbols)
        if sym is None:
            raise _At(lacks, i)
        if terms and len(sym) != len(terms[0][0]):
            raise _At("mixed degrees in form", i)
        terms.append((sym, ScalarField(model, coeff), sign))
        sign = _SIGNS.get(vals[i])
        if sign is None:
            _at_end(vals, i)
            return terms
        i += 1


def _basis_vector(vals: list, i: int, model: ManifoldModel):
    """((coordinate index,), index after) for a d_<coord> symbol at i."""
    if vals[i].startswith("d_"):
        return (_coordinate(model, vals[i], i, skip=2),), i + 1
    return None


def _vector(vals: list, model: ManifoldModel, env, waves) -> list:
    if vals[0] == "0" and len(vals) == 2:
        return []
    return _parse_terms(vals, model, env, waves, _basis_vector,
                        "basis symbols",
                        "vector term lacks a d_<coord> symbol")


def parse_vector(text: str, model: ManifoldModel, env=None) -> VectorField:
    """Sums of scalar-coefficient multiples of d_<coord> basis symbols."""
    pairs: list[list] = [[] for _ in range(model.dim)]
    for (i,), coeff, sign in _read(text, _vector, model, env):
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


def _form(vals: list, model: ManifoldModel, env, waves) -> DifferentialForm:
    if vals[0] == "0" and vals[1] == "@":
        deg, i = _parse_int(vals, 2)
        if vals[i]:
            raise _At("trailing input after zero form", i)
        return DifferentialForm.zero(model, deg)
    terms = _parse_terms(vals, model, env, waves, _wedge_chain,
                         "wedge chains", "form term lacks a wedge chain")
    return _form_sum(model, len(terms[0][0]), terms)


def parse_form(text: str, model: ManifoldModel, env=None) -> DifferentialForm:
    """Sums of field coefficients times wedge chains like dx1^dy2.

    The zero form needs an explicit degree: ``0@2``.
    """
    return _read(text, _form, model, env)


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


def _mono_text(names, powers) -> str:
    return "*".join(n if p == 1 else f"{n}^{p}"
                    for n, p in zip(names, powers) if p)


def _wave_text(model: ManifoldModel, freqs, phase) -> str:
    if not any(freqs):
        return ""
    trig = "cos" if phase == COS else "sin"
    return f"{trig}(2*pi*{_freq_text(model, freqs)})"


def _bodies(model: ManifoldModel, terms, texts: dict) -> list:
    """(coeff, text) of each term: the texts of its coefficient's size
    (none if 1.0), of its monomial and of its wave, joined by ``*``, or
    "1.0" if all three are empty.  texts memoizes, for one print call,
    the monomial text of each powers and the wave text of each (freqs,
    phase); a powers tuple holds ints and a wave key starts with a tuple,
    so the two never share a key."""
    names = model.names
    out = []
    for (powers, freqs, phase), c in terms:
        mono = texts.get(powers)
        if mono is None:
            mono = texts[powers] = _mono_text(names, powers)
        wave = texts.get((freqs, phase))
        if wave is None:
            wave = texts[freqs, phase] = _wave_text(model, freqs, phase)
        a = abs(c)
        size = "" if a == 1.0 else _num_text(a)
        out.append((c, "*".join(filter(None, (size, mono, wave))) or "1.0"))
    return out


def _join_signed(parts: list[tuple[float, str]]) -> str:
    out = []
    for n, (c, body) in enumerate(parts):
        if n == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def _field_text(f: ScalarField, texts: dict) -> str:
    if not f.terms:
        return "0"
    return _join_signed(_bodies(f.model, f.terms, texts))


def field_to_text(f: ScalarField) -> str:
    return _field_text(f, {})


def _times_symbol(f: ScalarField, symbol: str, texts: dict) -> tuple:
    """The signed part `coefficient*symbol` of a vector or form."""
    if len(f.terms) == 1:
        ((c, body),) = _bodies(f.model, f.terms, texts)
        return c, symbol if body == "1.0" else f"{body}*{symbol}"
    return 1.0, f"({_field_text(f, texts)})*{symbol}"


def vector_to_text(v: VectorField) -> str:
    texts: dict = {}
    parts = [_times_symbol(comp, f"d_{v.model.names[i]}", texts)
             for i, comp in enumerate(v.components) if comp.terms]
    return _join_signed(parts) if parts else "0"


def form_to_text(a: DifferentialForm) -> str:
    if not a.coeffs:
        return f"0@{a.degree}"
    texts: dict = {}
    return _join_signed([
        _times_symbol(f, "^".join(f"d{a.model.names[i]}" for i in idx), texts)
        for idx, f in a.coeffs])
