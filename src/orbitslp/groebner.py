"""Buchberger's algorithm and the filtered-dimension bookkeeping built on it.

Everything here is under the fixed graded lex order, which matters: a
degree-compatible order is what lets standard-monomial counting compute
the dimension of the coordinate ring filtered by total degree, and what
makes the monomial multiples of a basis span the ideal degree slice.
"""

from .linalg import oracle_rref
from .polynomials import (Polynomial, grlex_key, monomial_div, monomial_divides,
                          monomial_lcm, monomial_mul, monomials_leq)


class GroebnerBasis:
    """Reduced basis: monic elements, sorted by ascending leading monomial."""

    __slots__ = ("polys", "nvars", "field")

    def __init__(self, polys, nvars, field):
        self.polys = tuple(polys)
        self.nvars = nvars
        self.field = field

    def leading_monomials(self):
        return [p.leading_monomial() for p in self.polys]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def __repr__(self):
        return f"GroebnerBasis({[p.to_string() for p in self.polys]})"


def s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lf, lg)
    field = f.field
    cf = field.qinv(f.leading_coeff())
    cg = field.qinv(g.leading_coeff())
    return (f.shift(monomial_div(lcm, lf)).scale(cf)
            - g.shift(monomial_div(lcm, lg)).scale(cg))


def normal_form(f, basis):
    """Remainder of f under multivariate division by the basis.

    No term of the result is divisible by any basis leading monomial; for
    a Groebner basis this is the canonical representative mod the ideal.
    """
    basis = [g for g in basis if g]
    heads = [(g.leading_monomial(), g) for g in basis]
    field = f.field
    rem = Polynomial.zero(field, f.nvars)
    p = f
    while p:
        lm = p.leading_monomial()
        lc = p.terms[lm]
        for head, g in heads:
            if monomial_divides(head, lm):
                factor = field.mul(lc, field.qinv(g.leading_coeff()))
                p = p - g.shift(monomial_div(lm, head)).scale(factor)
                break
        else:
            tip = Polynomial(field, f.nvars, {lm: lc})
            rem = rem + tip
            p = p - tip
    return rem


def buchberger(gens, nvars=None, field=None):
    """Reduced Groebner basis of the ideal the generators span.

    Pair selection is by smallest lcm; the only shortcut is the coprime
    leading monomial criterion.  Desk-scale ideals keep this simple
    version fast, and the reduced result is unique for the order.
    """
    polys = [g for g in gens if g]
    if polys:
        nvars = polys[0].nvars
        field = polys[0].field
    elif nvars is None or field is None:
        raise ValueError("empty generating set needs explicit nvars and field")
    basis = [p.monic() for p in polys]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        pairs.sort(key=lambda ij: grlex_key(
            monomial_lcm(basis[ij[0]].leading_monomial(),
                         basis[ij[1]].leading_monomial())))
        i, j = pairs.pop(0)
        lf = basis[i].leading_monomial()
        lg = basis[j].leading_monomial()
        if monomial_lcm(lf, lg) == monomial_mul(lf, lg):
            continue  # coprime leads: s-polynomial reduces to zero
        h = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if h:
            h = h.monic()
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(h)
    # inter-reduce to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            h = normal_form(basis[i], others)
            if h != basis[i]:
                changed = True
                basis[i] = h.monic() if h else h
        basis = [g for g in basis if g]
    basis.sort(key=lambda g: grlex_key(g.leading_monomial()))
    return GroebnerBasis(basis, nvars, field)


def ideal_k_basis(gb, max_degree):
    """Echelonized vector-space basis of the ideal's slice of degree <= d.

    Monomial multiples m*g with deg(m*g) <= d span the slice because the
    order is degree-compatible; exact row reduction (pivots at leading
    monomials) turns the spanning set into a canonical independent one.
    """
    rows = []
    for g in gb:
        dg = g.degree()
        if dg > max_degree:
            continue
        for mono in monomials_leq(gb.nvars, max_degree - dg):
            rows.append(g.shift(mono))
    if not rows:
        return []
    monos = list(reversed(monomials_leq(gb.nvars, max_degree)))
    mat = [[f.coeff(mono) for mono in monos] for f in rows]
    reduced = oracle_rref(mat, gb.field)
    out = []
    for row in reduced:
        terms = {monos[i]: c for i, c in enumerate(row) if c != gb.field.zero}
        if terms:
            out.append(Polynomial(gb.field, gb.nvars, terms))
    out.sort(key=lambda g: grlex_key(g.leading_monomial()))
    return out


def hilbert_leq(gb, d):
    """Dimension of the quotient ring filtered at total degree d.

    Counts the standard monomials: those of degree <= d not divisible by
    any leading monomial of the basis.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    heads = gb.leading_monomials()
    return sum(1 for mono in monomials_leq(gb.nvars, d)
               if not any(monomial_divides(h, mono) for h in heads))

