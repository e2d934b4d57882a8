"""Exact Laurent polynomials in v over arbitrary-precision integers.

The coefficient ring for everything in this package is Z[v, v^-1],
stored sparsely as {exponent: coefficient}.  A second small type,
QuadExt, represents a0 + a1*v with v^2 = q for an exact rational q;
it is the target of specialization at v = q^(1/2).

The module-level helpers below are the sparse arithmetic on raw
{exponent: int} dicts; Laurent wraps them, and the Hecke-algebra code
calls them directly on its coefficient vectors.  Next to them sits the
packed codec: a coefficient as one int, its value at v = 2^PACK_W
(Kronecker substitution), on which the KL build and the
structure-constant sweep add shifted multiples in C.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import NotInAPlus

__all__ = ["Laurent", "QuadExt", "ZERO", "ONE", "V", "VINV"]


# -- raw sparse arithmetic (dicts {exp: int}, zero-free) --------------------

def _addmul(dst: dict, src: dict, k: int = 1, shift: int = 0) -> None:
    """dst += k * v^shift * src, in place."""
    for e, c in src.items():
        e += shift
        s = dst.get(e, 0) + k * c
        if s:
            dst[e] = s
        else:
            dst.pop(e, None)


def _mul_raw(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _star_raw(c: dict) -> dict:
    # v -> -v^-1
    return {-e: (v if e % 2 == 0 else -v) for e, v in c.items()}


# -- packed coefficients (one int each) --------------------------------------
#
# c = sum c_e v^e with every e >= -off is packed as sum c_e 2^(PACK_W (e + off)):
# digit e + off, PACK_W bits wide, holds c_e.  Packing is Z-linear and v^s c
# is a left shift by PACK_W s, so sums of shifted multiples stay exact in
# the ints; v^-1 c is an exact right shift while digit 0 is empty.  The
# digits are read back balanced, which is exact while every |c_e| stays
# below 2^(PACK_W-1): keeping that true is the caller's job.

PACK_W = 20
PACK_OFF = 8
_HALF = 1 << (PACK_W - 1)
_DIGIT = (1 << PACK_W) - 1


def _pack(d: dict, off: int = PACK_OFF) -> int:
    """Raises ValueError (a negative shift) on an exponent below -off."""
    return sum(c << PACK_W * (e + off) for e, c in d.items())


def _unpack(c: int, off: int = PACK_OFF) -> dict:
    """The zero-free {exponent: int} dict of a packed coefficient."""
    out = {}
    if not c:
        return out
    e = _valuation(c, off)
    c >>= PACK_W * (e + off)
    while c:
        d = ((c + _HALF) & _DIGIT) - _HALF
        if d:
            out[e] = d
        c = (c - d) >> PACK_W
        e += 1
    return out


def _valuation(c: int, off: int = PACK_OFF) -> int:
    """Lowest exponent of a nonzero packed coefficient: the digit of its
    lowest set bit."""
    return ((c & -c).bit_length() - 1) // PACK_W - off


def _digit(c: int, e: int, off: int = PACK_OFF) -> int:
    """Coefficient of v^e in a packed coefficient.  The digits below sum to
    less than half a unit of digit e + off, so rounding strips them."""
    k = PACK_W * (e + off)
    if k:
        c = (c + (1 << (k - 1))) >> k
    return ((c + _HALF) & _DIGIT) - _HALF


def _accumulate(out: dict, key, value) -> None:
    """out[key] += value for int or Laurent values; zero sums are dropped."""
    got = out.get(key)
    s = value if got is None else got + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class Laurent:
    """A Laurent polynomial in v with integer coefficients.

    Instances are immutable; all arithmetic returns new objects.
    Zero coefficients are never stored.

    >>> (V + VINV) * (V - VINV)
    Laurent({-2: -1, 2: 1})
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        d = dict(coeffs)
        self._c = {e: c for e, c in d.items() if c != 0}

    @classmethod
    def _raw(cls, d: dict[int, int]) -> "Laurent":
        # internal: d must already be zero-free; not copied
        self = object.__new__(cls)
        self._c = d
        return self

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "Laurent":
        if coeff == 0:
            return ZERO
        return cls._raw({exp: coeff})

    @classmethod
    def const(cls, n: int) -> "Laurent":
        return cls.monomial(0, n)

    # -- queries ----------------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def is_zero(self) -> bool:
        return not self._c

    def min_exp(self) -> int:
        """Lowest stored exponent; raises ValueError on the zero polynomial."""
        return min(self._c)

    def max_exp(self) -> int:
        return max(self._c)

    def in_a_plus(self) -> bool:
        """True iff the polynomial lies in Z[v] (no negative exponents)."""
        return all(e >= 0 for e in self._c)

    def constant_term_after_shift(self, a: int) -> int:
        """Coefficient of v^0 in v^a * self; requires v^a * self in Z[v]."""
        if any(e + a < 0 for e in self._c):
            raise NotInAPlus(f"v^{a} * {self} has negative-exponent terms")
        return self._c.get(-a, 0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self._c)
        _addmul(out, other._c)
        return Laurent._raw(out)

    def __sub__(self, other: "Laurent") -> "Laurent":
        out = dict(self._c)
        _addmul(out, other._c, -1)
        return Laurent._raw(out)

    def __neg__(self) -> "Laurent":
        return Laurent._raw({e: -c for e, c in self._c.items()})

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            return self.scale(other)
        return Laurent._raw(_mul_raw(self._c, other._c))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Laurent":
        """self^k for an integer k >= 0, by repeated squaring."""
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base, k = base * base, k >> 1
        return out

    def scale(self, n: int) -> "Laurent":
        if n == 0:
            return ZERO
        return Laurent._raw({e: n * c for e, c in self._c.items()})

    def shift(self, k: int) -> "Laurent":
        """Multiply by v^k."""
        if k == 0:
            return self
        return Laurent._raw({e + k: c for e, c in self._c.items()})

    def bar(self) -> "Laurent":
        """The involution v -> v^-1."""
        return Laurent._raw({-e: c for e, c in self._c.items()})

    def star(self) -> "Laurent":
        """The ring automorphism v -> -v^-1."""
        return Laurent._raw(_star_raw(self._c))

    # -- evaluation -------------------------------------------------------

    def specialize(self, q: Fraction) -> "QuadExt":
        """Evaluate at v = q^(1/2): even powers land in a0, odd in a1*v."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError("specialization requires q > 0")
        a0 = Fraction(0)
        a1 = Fraction(0)
        for e, c in self._c.items():
            if e % 2 == 0:
                a0 += c * q ** (e // 2)
            else:
                a1 += c * q ** ((e - 1) // 2)
        return QuadExt(a0, a1, q)

    def eval_q(self, q: Fraction) -> Fraction:
        """Evaluate as a polynomial in q = v^2; all exponents must be even."""
        q = Fraction(q)
        total = Fraction(0)
        for e, c in self._c.items():
            if e % 2:
                raise ValueError("odd v-exponent; not a polynomial in q")
            total += c * q ** (e // 2)
        return total

    # -- protocol ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if not isinstance(other, Laurent):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        return f"Laurent({dict(sorted(self._c.items()))})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self._c.items()):
            if e == 0:
                parts.append(str(c))
                continue
            vpow = "v" if e == 1 else f"v^{e}"
            if c == 1:
                parts.append(vpow)
            elif c == -1:
                parts.append(f"-{vpow}")
            else:
                parts.append(f"{c}*{vpow}")
        out = parts[0]
        for p in parts[1:]:
            out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return out

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list[list]:
        """[[exponent, coefficient-as-decimal-string], ...] sorted by exponent."""
        return [[e, str(c)] for e, c in sorted(self._c.items())]

    @classmethod
    def from_json(cls, data: Iterable[Iterable]) -> "Laurent":
        return cls({int(e): int(c) for e, c in data})


ZERO = Laurent._raw({})
ONE = Laurent._raw({0: 1})
V = Laurent._raw({1: 1})
VINV = Laurent._raw({-1: 1})


class QuadExt:
    """An element a0 + a1*v of Q[v]/(v^2 - q), q an exact positive rational.

    This is a field when q is not a square in Q; for square q it still
    represents the specialization exactly (no folding of v into Q).
    """

    __slots__ = ("a0", "a1", "q")

    def __init__(self, a0, a1, q):
        self.a0 = Fraction(a0)
        self.a1 = Fraction(a1)
        self.q = Fraction(q)

    def _check(self, other: "QuadExt") -> None:
        if self.q != other.q:
            raise ValueError("mixed specialization points")

    def __add__(self, other: "QuadExt") -> "QuadExt":
        self._check(other)
        return QuadExt(self.a0 + other.a0, self.a1 + other.a1, self.q)

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        self._check(other)
        return QuadExt(self.a0 - other.a0, self.a1 - other.a1, self.q)

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a0, -self.a1, self.q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a0 * other, self.a1 * other, self.q)
        self._check(other)
        return QuadExt(
            self.a0 * other.a0 + self.q * self.a1 * other.a1,
            self.a0 * other.a1 + self.a1 * other.a0,
            self.q,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a0 == 0 and self.a1 == 0

    def norm(self) -> Fraction:
        """Field norm a0^2 - q*a1^2 (zero iff non-invertible)."""
        return self.a0 * self.a0 - self.q * self.a1 * self.a1

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("non-invertible element of the quadratic extension")
        return QuadExt(self.a0 / n, -self.a1 / n, self.q)

    def __truediv__(self, other: "QuadExt") -> "QuadExt":
        return self * other.inverse()

    def eval_sqrt(self, sqrt_q: Fraction) -> Fraction:
        """Collapse to Q using an exact square root of q (square q only)."""
        sqrt_q = Fraction(sqrt_q)
        if sqrt_q * sqrt_q != self.q:
            raise ValueError("not an exact square root of q")
        return self.a0 + self.a1 * sqrt_q

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.a1 == 0 and self.a0 == other
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.q == other.q and self.a0 == other.a0 and self.a1 == other.a1

    def __hash__(self) -> int:
        return hash((self.a0, self.a1, self.q))

    def __repr__(self) -> str:
        return f"QuadExt({self.a0}, {self.a1}, q={self.q})"
