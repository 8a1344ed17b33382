"""Exact scalar arithmetic for the supported coefficient fields.

Values are plain Python objects: ``fractions.Fraction`` over the rationals,
``int`` residues in [0, p) over a prime field.  A field object owns the
operations; values are immutable, so they can be shared freely between
concurrent evaluations.

Division is replaced everywhere by the total quasi-inverse

    qinv(a) = 1/a  if a != 0,      qinv(0) = 0,

so formulas built from add/sub/mul/qinv are defined at every point and
never branch on a value being zero.
"""

import re
from fractions import Fraction

# an integer or a fraction with a nonzero denominator
_NUMBER_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")


class FieldError(ValueError):
    """Malformed scalar, non-prime characteristic, or mixed-field usage."""


class RationalField:
    """Arbitrary-precision rationals; elements are reduced Fractions."""

    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def qinv(self, a):
        return self.zero if a == 0 else self.one / a

    def coerce(self, x):
        """Turn an int, Fraction, or literal string into an element."""
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldError(f"cannot coerce {x!r} into {self!r}")

    def parse(self, text):
        s = text.strip()
        if not _NUMBER_RE.match(s):
            raise FieldError(f"not an exact rational literal: {text!r}")
        return Fraction(s)

    def fmt(self, a):
        return str(a)

    def to_json(self):
        return "rational"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers mod p for prime p; elements are ints in [0, p)."""

    kind = "prime-field"

    def __init__(self, p):
        if not isinstance(p, int) or p < 2:
            raise FieldError(f"characteristic must be a prime integer, got {p!r}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def qinv(self, a):
        # pow(a, -1, p) is the stdlib's extended Euclid, exact for any prime p
        return 0 if a == 0 else pow(a, -1, self.p)

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise FieldError(f"{x} has no image in GF({self.p})")
            return self.mul(x.numerator % self.p, self.qinv(den))
        raise FieldError(f"cannot coerce {x!r} into {self!r}")

    def parse(self, text):
        s = text.strip()
        if not _NUMBER_RE.match(s):
            raise FieldError(f"not an exact field literal: {text!r}")
        return self.coerce(Fraction(s))

    def fmt(self, a):
        return str(a)

    def to_json(self):
        return {"prime": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def field_from_json(obj):
    """Inverse of Field.to_json: "rational" or {"prime": p}."""
    if obj == "rational":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"prime"}:
        return PrimeField(obj["prime"])
    raise FieldError(f"unrecognized field spec: {obj!r}")
