"""Sparse multivariate polynomials over an exact field.

Monomials are exponent tuples; the fixed term order is graded lex
(total degree first, then lexicographic with the first variable largest),
which is degree-compatible: deg u < deg v implies u < v.  Polynomials are
immutable-by-convention dicts from monomial to nonzero coefficient.
"""

import re

from .field import FieldError


def monomial_mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def monomial_divides(u, v):
    """True when u divides v componentwise."""
    return all(a <= b for a, b in zip(u, v))


def monomial_div(u, v):
    return tuple(a - b for a, b in zip(u, v))


def monomial_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def grlex_key(u):
    return (sum(u), u)


def _fixed_degree(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _fixed_degree(nvars - 1, total - head):
            yield (head,) + tail


def monomials_leq(nvars, max_degree):
    """All monomials of total degree <= max_degree, ascending graded lex.

    The list for degree d is a prefix of the list for any d' > d, so a
    coefficient vector extends to a larger degree by zero-padding.
    """
    out = []
    for total in range(max_degree + 1):
        out.extend(sorted(_fixed_degree(nvars, total)))
    return out


class MonomialIndex:
    """Bijection between monomials of degree <= max_degree and 0..size-1."""

    __slots__ = ("nvars", "max_degree", "monomials", "_pos")

    def __init__(self, nvars, max_degree):
        self.nvars = nvars
        self.max_degree = max_degree
        self.monomials = tuple(monomials_leq(nvars, max_degree))
        self._pos = {mono: i for i, mono in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def index(self, mono):
        try:
            return self._pos[mono]
        except KeyError:
            raise ValueError(
                f"monomial {mono} exceeds index degree {self.max_degree}") from None

    def at(self, i):
        return self.monomials[i]


class Polynomial:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                mono = tuple(mono)
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono} for {nvars} variables")
                c = field.add(clean.get(mono, field.zero), field.coerce(coeff))
                if c == field.zero:
                    clean.pop(mono, None)
                else:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field, nvars, i):
        mono = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(field, nvars, {mono: field.one})

    def _check(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise FieldError("polynomials live in different rings")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        res = dict(self.terms)
        f = self.field
        for mono, c in other.terms.items():
            s = f.add(res.get(mono, f.zero), c)
            if s == f.zero:
                res.pop(mono, None)
            else:
                res[mono] = s
        return Polynomial._raw(self.field, self.nvars, res)

    def __sub__(self, other):
        self._check(other)
        res = dict(self.terms)
        f = self.field
        for mono, c in other.terms.items():
            s = f.sub(res.get(mono, f.zero), c)
            if s == f.zero:
                res.pop(mono, None)
            else:
                res[mono] = s
        return Polynomial._raw(self.field, self.nvars, res)

    def __neg__(self):
        f = self.field
        return Polynomial._raw(self.field, self.nvars,
                               {m: f.sub(f.zero, c) for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        f = self.field
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = monomial_mul(m1, m2)
                s = f.add(res.get(mono, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    res.pop(mono, None)
                else:
                    res[mono] = s
        return Polynomial._raw(self.field, self.nvars, res)

    @classmethod
    def _raw(cls, field, nvars, terms):
        p = cls.__new__(cls)
        p.field = field
        p.nvars = nvars
        p.terms = terms
        return p

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        if c == f.zero:
            return Polynomial._raw(f, self.nvars, {})
        return Polynomial._raw(f, self.nvars,
                               {m: f.mul(c, v) for m, v in self.terms.items()})

    def shift(self, mono):
        """Multiply by a single monomial."""
        return Polynomial._raw(self.field, self.nvars,
                               {monomial_mul(m, mono): c for m, c in self.terms.items()})

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        if not self.terms:
            return self
        inv = self.field.qinv(self.leading_coeff())
        return self.scale(inv)

    def coeff(self, mono):
        return self.terms.get(tuple(mono), self.field.zero)

    def sorted_terms(self):
        """(monomial, coefficient) pairs in ascending graded lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def eval_at(self, point):
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates")
        f = self.field
        point = [f.coerce(x) for x in point]
        total = f.zero
        for mono, c in self.sorted_terms():
            v = c
            for x, e in zip(point, mono):
                for _ in range(e):
                    v = f.mul(v, x)
            total = f.add(total, v)
        return total

    def to_string(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = [f"z{i + 1}" for i in range(self.nvars)]
        f = self.field
        parts = []
        for mono, c in reversed(self.sorted_terms()):
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(mono) if e]
            text = f.fmt(c)
            neg = text.startswith("-")
            if neg:
                text = text[1:]
            if factors and text == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([text] + factors)
            else:
                body = text
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.to_string()})"


def coeff_vector(poly, index):
    """Dense coefficient vector over the index's monomials, ascending."""
    if poly.degree() > index.max_degree:
        raise ValueError(
            f"polynomial degree {poly.degree()} exceeds index degree {index.max_degree}")
    vec = [poly.field.zero] * len(index)
    for mono, c in poly.terms.items():
        vec[index.index(mono)] = c
    return vec


def polynomial_from_vector(vec, index, field):
    terms = {index.at(i): c for i, c in enumerate(vec) if c != field.zero}
    return Polynomial(field, index.nvars, terms)


class PolynomialParseError(ValueError):
    """Unparsable polynomial text; the message carries the position."""


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)"
                       r"|(?P<op>[-+*^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            rest = text[pos:].strip()
            if not rest:
                break
            raise PolynomialParseError(
                f"unexpected character {rest[0]!r} at position {pos} in {text!r}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def parse_polynomial(text, var_names, field):
    """Parse text like "z1*z2 - 1" or "3/2*z1^2" into a Polynomial.

    Terms are products of rational literals and named variables with
    optional integer exponents; parentheses are not supported.  Unknown
    names and float literals are rejected.
    """
    if not text.strip():
        raise PolynomialParseError("empty polynomial text")
    var_index = {name: i for i, name in enumerate(var_names)}
    nvars = len(var_names)
    tokens = _tokenize(text)
    for kind, val, pos in tokens:
        if kind == "op" and val in "()":
            raise PolynomialParseError(f"parentheses not supported (position {pos})")
    result = Polynomial.zero(field, nvars)
    i = 0
    sign = 1
    # leading sign
    while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
        if tokens[i][1] == "-":
            sign = -sign
        i += 1
    while i < len(tokens):
        term_coeff = field.one
        term_mono = [0] * nvars
        expect_factor = True
        while True:
            if expect_factor:
                if i >= len(tokens):
                    raise PolynomialParseError(f"dangling operator at end of {text!r}")
                kind, val, pos = tokens[i]
                if kind == "num":
                    term_coeff = field.mul(term_coeff, field.parse(val))
                    i += 1
                elif kind == "name":
                    if val not in var_index:
                        raise PolynomialParseError(
                            f"unknown variable {val!r} at position {pos}")
                    exp = 1
                    i += 1
                    if i < len(tokens) and tokens[i][:2] == ("op", "^"):
                        i += 1
                        if i >= len(tokens) or tokens[i][0] != "num" or "/" in tokens[i][1]:
                            raise PolynomialParseError(
                                f"exponent must be a plain integer near position {pos}")
                        exp = int(tokens[i][1])
                        i += 1
                    term_mono[var_index[val]] += exp
                else:
                    raise PolynomialParseError(
                        f"expected a factor, found {val!r} at position {pos}")
                expect_factor = False
            else:
                if i >= len(tokens):
                    break
                kind, val, pos = tokens[i]
                if kind == "op" and val == "*":
                    i += 1
                    expect_factor = True
                elif kind == "op" and val == "^":
                    raise PolynomialParseError(f"misplaced '^' at position {pos}")
                else:
                    break
        if sign < 0:
            term_coeff = field.sub(field.zero, term_coeff)
        result = result + Polynomial(field, nvars, {tuple(term_mono): term_coeff})
        if i >= len(tokens):
            break
        kind, val, pos = tokens[i]
        if kind != "op" or val not in "+-":
            raise PolynomialParseError(
                f"expected '+' or '-' between terms, found {val!r} at position {pos}")
        sign = 1 if val == "+" else -1
        i += 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise PolynomialParseError(f"dangling operator at end of {text!r}")
    return result
