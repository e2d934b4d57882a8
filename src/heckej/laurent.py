"""Exact Laurent polynomials in v over arbitrary-precision integers.

The coefficient ring for everything in this package is Z[v, v^-1],
stored sparsely as {exponent: coefficient}.  Specialization at
v = q^(1/2), for an exact rational q > 0, lands in Q(sqrt q) and is
returned as the pair of rationals (a0, a1) meaning a0 + a1*sqrt(q).

The module-level helpers below are the sparse arithmetic on raw
{exponent: int} dicts, which Laurent wraps.  Next to them sits the
packed codec: a coefficient as one int, its value at v = 2^W (Kronecker
substitution), on which the KL build, the structure-constant sweep and
the Hecke-algebra product add and multiply in C.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

__all__ = ["Laurent", "ZERO", "ONE", "V", "VINV"]


# -- raw sparse arithmetic (dicts {exp: int}, zero-free) --------------------

def _addmul(dst: dict, src: dict, k: int = 1) -> None:
    """dst += k * src, in place."""
    for e, c in src.items():
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


# -- packed coefficients (one int each) --------------------------------------
#
# c = sum c_e v^e with every e >= -off is packed as sum c_e 2^(W (e + off)):
# digit e + off, W bits wide, holds c_e.  Packing is Z-linear, the product
# of two packed ints is their product packed with the sum of their offsets,
# and v^s c is a left shift by W s, so sums and products stay exact in the
# ints; v^-1 c is an exact right shift while digit 0 is empty.  The digits
# are read back balanced, which is exact while every |c_e| stays below
# 2^(W-1), so W >= 2: keeping that true is the caller's job.  W is PACK_W
# unless a caller passes its own width.

PACK_W = 20
PACK_OFF = 8
_HALF = 1 << (PACK_W - 1)
_DIGIT = (1 << PACK_W) - 1


def _pack(d: dict, off: int = PACK_OFF, width: int = PACK_W) -> int:
    """Raises ValueError (a negative shift) on an exponent below -off."""
    return sum(c << width * (e + off) for e, c in d.items())


def _unpack(c: int, off: int = PACK_OFF, width: int = PACK_W) -> dict:
    """The zero-free {exponent: int} dict of a packed coefficient."""
    out = {}
    if not c:
        return out
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    e = _valuation(c, off, width)
    c >>= width * (e + off)
    while c:
        d = ((c + half) & mask) - half
        if d:
            out[e] = d
        c = (c - d) >> width
        e += 1
    return out


def _valuation(c: int, off: int = PACK_OFF, width: int = PACK_W) -> int:
    """Lowest exponent of a nonzero packed coefficient: the digit of its
    lowest set bit."""
    return ((c & -c).bit_length() - 1) // width - off


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


def _join_terms(parts: list[str]) -> str:
    """Printed terms joined into a sum, a negative term as " - " and its
    absolute value: ["v^-1", "-2", "v"] -> "v^-1 - 2 + v"."""
    return " + ".join(parts).replace(" + -", " - ")


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

    # -- queries ----------------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def min_exp(self) -> int:
        """Lowest stored exponent; raises ValueError on the zero polynomial."""
        return min(self._c)

    def max_exp(self) -> int:
        return max(self._c)

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

    def bar(self) -> "Laurent":
        """The involution v -> v^-1."""
        return Laurent._raw({-e: c for e, c in self._c.items()})

    def star(self) -> "Laurent":
        """The ring automorphism v -> -v^-1."""
        return Laurent._raw({-e: (-c if e & 1 else c) for e, c in self._c.items()})

    # -- evaluation -------------------------------------------------------

    def specialize(self, q: Fraction) -> tuple[Fraction, Fraction]:
        """Evaluate at v = q^(1/2), as the pair (a0, a1) meaning
        a0 + a1*sqrt(q): even powers land in a0, odd ones in a1."""
        from fractions import Fraction

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
        return a0, a1

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
        return _join_terms(parts)


ZERO = Laurent._raw({})
ONE = Laurent._raw({0: 1})
V = Laurent._raw({1: 1})
VINV = Laurent._raw({-1: 1})

