"""The SL(2,F) picture: cells K x_n I, volumes, the bi-invariant
function f with eventually-geometric coefficients, and its convolution
with the characteristic functions of the standard lattices.

Haar measure is normalized so that vol(I) = 1, hence vol(K) = q + 1.
Values are exact rational functions of q (sympy expressions over the
symbol ``q``); the finite-quotient counter over SL(2, Z/p^m) serves as
an independent oracle for every closed form here.

sympy is imported on the first call that needs it, or the first read of
``q``, not with this module.  Importing :mod:`heckej.sl2`, and so the
CLI, which imports it, does not load sympy: callers that never use
SL(2) run without it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, DepthTooSmall, DivergentTail

if TYPE_CHECKING:
    import sympy

__all__ = [
    "q",
    "Lattice",
    "CellFunction",
    "gamma_coefficient",
    "volume_ratio",
    "conv_cell_value",
    "conv_f_value",
    "standard_f",
    "verify_relations",
    "brute_force_count",
    "cell_value_from_count",
    "schwartz_decay_check",
    "canonical_str",
]

ENUMERATION_BUDGET = 10**7


@functools.cache
def _sympy():
    """The sympy module and the symbol q, imported on first use."""
    import sympy

    return sympy, sympy.Symbol("q", positive=True)


def __getattr__(name: str):
    if name == "q":
        return _sympy()[1]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Lattice(Enum):
    """Target lattice for convolution: O+O ('std') or O+tO ('sub')."""

    STD = "std"
    SUB = "sub"

    def thresholds(self, n: int, r: int) -> tuple[int, int]:
        """Valuation thresholds on the first column (a, c) of h in K for
        h (t^-r, 0) to land in t^n O + t^(-n(+1)) O."""
        if self is Lattice.STD:
            return (n + r, r - n)
        return (n + r, r - n + 1)


def gamma_coefficient(n: int) -> sympy.Expr:
    """Coefficient of the cell indicator at n in the element f."""
    _, q = _sympy()
    if n <= 0:
        return q ** (2 * n)
    return -(q ** (-2 * n + 1))


def volume_ratio(n: int) -> sympy.Expr:
    """vol(K x_n I) / vol(K); the n = 0 cell is K itself, ratio 1."""
    _, q = _sympy()
    if n > 0:
        return q ** (2 * n - 1)
    return q ** (-2 * n)


def conv_cell_value(n: int, r: int, lattice: Lattice) -> sympy.Expr:
    """Value of (chi_{K x_n I} * chi_lattice) at (t^-r, 0)."""
    sympy, q = _sympy()
    if lattice is Lattice.STD:
        if n > 0:
            if r > n:
                return sympy.Integer(0)
            if r <= -n:
                return (q + 1) * q ** (2 * n - 1)
            return q ** (n - r)
        if n < 0:
            m = -n
            if r > m:
                return sympy.Integer(0)
            if r <= -m:
                return (q + 1) * q ** (2 * m)
            return q ** (m - r + 1)
        return (q + 1) if r <= 0 else sympy.Integer(0)
    # O + tO
    if n > 0:
        if r > n - 1:
            return sympy.Integer(0)
        if r <= -n:
            return (q + 1) * q ** (2 * n - 1)
        return q ** (n - r)
    m = -n
    if r > m:
        return sympy.Integer(0)
    if r <= -m - 1:
        return (q + 1) * q ** (2 * m)
    return q ** (m - r)


@dataclass(frozen=True)
class CellFunction:
    """A bi-invariant function sum_n coeff(n) chi_{K x_n I} whose
    coefficients are eventually geometric in both directions.

    pos_tail = (start, value, ratio): coeff(n) = value * ratio^(n-start)
    for n >= start; neg_tail likewise for n <= its start with the ratio
    applied per step towards -infinity.  Exceptional values override
    nothing outside the tails: evaluation first checks ``exceptional``,
    then the tails.
    """

    exceptional: tuple[tuple[int, sympy.Expr], ...]
    pos_tail: tuple[int, sympy.Expr, sympy.Expr]
    neg_tail: tuple[int, sympy.Expr, sympy.Expr]

    def coefficient(self, n: int) -> sympy.Expr:
        for k, v in self.exceptional:
            if k == n:
                return v
        start, value, ratio = self.pos_tail
        if n >= start:
            return value * ratio ** (n - start)
        start, value, ratio = self.neg_tail
        if n <= start:
            return value * ratio ** (start - n)
        return _sympy()[0].Integer(0)


def standard_f() -> CellFunction:
    """The element f = sum gamma_n chi_{K x_n I}."""
    sympy, q = _sympy()
    return CellFunction(
        exceptional=(),
        pos_tail=(1, -q ** (-1), q ** (-2)),
        neg_tail=(0, sympy.Integer(1), q ** (-2)),
    )


def _geometric_sum(first: sympy.Expr, ratio: sympy.Expr) -> sympy.Expr:
    """Formal sum first * (1 + ratio + ratio^2 + ...) as a rational function."""
    sympy, q = _sympy()
    num, den = sympy.fraction(sympy.cancel(ratio))
    if sympy.degree(num, q) >= sympy.degree(den, q):
        raise DivergentTail(f"tail ratio {ratio} does not vanish as q grows")
    return sympy.cancel(first / (1 - ratio))


def conv_f_value(r: int, lattice: Lattice, f: CellFunction | None = None) -> sympy.Expr:
    """(f * chi_lattice)(t^-r, 0) as an exact rational function of q.

    The sum over cells is split into an explicit window, inside which
    the case table may hit boundary branches, and two tails where both
    the coefficients and the cell values are geometric.
    """
    sympy, q = _sympy()
    if f is None:
        f = standard_f()
    exceptional_ns = [k for k, _ in f.exceptional]
    window = max(
        [abs(r) + 1, f.pos_tail[0], -f.neg_tail[0]]
        + [abs(k) for k in exceptional_ns]
    ) + 1
    total = sympy.Integer(0)
    for n in range(-window, window + 1):
        total += f.coefficient(n) * conv_cell_value(n, r, lattice)
    # positive tail: cell value is q^(n-r) with one extra q-power per step
    n0 = window + 1
    first = f.coefficient(n0) * conv_cell_value(n0, r, lattice)
    if first != 0:
        total += _geometric_sum(first, f.pos_tail[2] * q)
    # negative tail: for n = -m the value gains one q-power per step in m
    m0 = window + 1
    first = f.coefficient(-m0) * conv_cell_value(-m0, r, lattice)
    if first != 0:
        total += _geometric_sum(first, f.neg_tail[2] * q)
    return sympy.cancel(total)


def verify_relations(R: int) -> list[tuple[str, int, bool]]:
    """Check gamma_r + q gamma_{-r} = 0 (1<=r<=R) and
    q gamma_{r+1} + gamma_{-r} = 0 (0<=r<=R) symbolically."""
    if R < 1:
        raise ValueError("R must be >= 1")
    sympy, q = _sympy()
    report = []
    for r in range(1, R + 1):
        lhs = sympy.cancel(gamma_coefficient(r) + q * gamma_coefficient(-r))
        report.append(("gamma_r + q*gamma_-r", r, lhs == 0))
    for r in range(0, R + 1):
        lhs = sympy.cancel(q * gamma_coefficient(r + 1) + gamma_coefficient(-r))
        report.append(("q*gamma_{r+1} + gamma_-r", r, lhs == 0))
    return report


def _is_prime(p: int) -> bool:
    return _sympy()[0].isprime(p)


_census_cache: dict[tuple[int, int], dict[tuple[int, int], int]] = {}


def _completion_census(p: int, m: int) -> dict[tuple[int, int], int]:
    """For each valuation pair (val(a), val(c)), the number of matrices in
    SL(2, Z/p^m) whose first column has those valuations.

    One enumeration of all first columns (a, c) with exact counting of
    completions (b, d) solving ad - bc = 1; reused across queries.
    """
    got = _census_cache.get((p, m))
    if got is not None:
        return got
    import math

    pm = p**m
    val = [m] * pm
    for v in range(m):
        step = p**v
        for x in range(step, pm, step):
            if x % (p ** (v + 1)) != 0:
                val[x] = v
    census: dict[tuple[int, int], int] = {}
    for a in range(pm):
        for c in range(pm):
            if val[a] > 0 and val[c] > 0:
                continue  # det would be divisible by p
            # completions (b, d): d solves a*d = 1 + b*c mod p^m
            g = math.gcd(a, pm)
            if g == 1:
                count = pm  # d determined for every b
            else:
                count = sum(g for b in range(pm) if (1 + b * c) % g == 0)
            key = (val[a], val[c])
            census[key] = census.get(key, 0) + count
    _census_cache[(p, m)] = census
    return census


def brute_force_count(p: int, m: int, n: int, r: int, lattice: Lattice) -> Fraction:
    """#{g in SL(2, Z/p^m) meeting the valuation thresholds} / #SL(2, Z/p^m).

    Enumerates first columns (a, c) and counts exact completions (b, d)
    with ad - bc = 1, a p^(3m)-scale enumeration.  Equals
    vol(K_{n,r}) / vol(K) (resp. the primed version for O+tO).

    A threshold t <= m is decidable mod p^m (val >= t means divisibility
    by p^t); if both thresholds are >= 1 the set is empty at any depth,
    since a and c cannot both vanish mod p inside SL(2).
    """
    if not _is_prime(p) or m < 1:
        raise ValueError("p must be prime and m >= 1")
    th_a, th_c = lattice.thresholds(n, r)
    th_a, th_c = max(th_a, 0), max(th_c, 0)
    if th_a >= 1 and th_c >= 1:
        return Fraction(0)
    if th_a > m or th_c > m:
        raise DepthTooSmall(
            f"thresholds ({th_a}, {th_c}) not decidable at depth p^{m}"
        )
    if p ** (3 * m) > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"p^(3m) = {p ** (3 * m)} exceeds {ENUMERATION_BUDGET}")
    census = _completion_census(p, m)
    hits = sum(c for (va, vc), c in census.items() if va >= th_a and vc >= th_c)
    total = sum(census.values())
    return Fraction(hits, total)


def cell_value_from_count(p: int, m: int, n: int, r: int, lattice: Lattice) -> Fraction:
    """Oracle value of (chi_{K x_n I} * chi_lattice)(t^-r, 0) at q = p."""
    sympy, q = _sympy()
    frac = brute_force_count(p, m, n, r, lattice)
    ratio = Fraction(sympy.Rational(volume_ratio(n).subs(q, p)))
    return ratio * (p + 1) * frac


def schwartz_decay_check(N: int, q_value: Fraction) -> list[tuple[int, Fraction, bool]]:
    """Verify q^|n| * |gamma_n(q)| <= q for |n| <= N (geometric decay)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    q_value = Fraction(q_value)
    if q_value <= 1:
        raise ValueError("q must be > 1")
    sympy, q = _sympy()
    report = []
    for n in range(-N, N + 1):
        g = Fraction(sympy.Rational(gamma_coefficient(n).subs(q, sympy.Rational(q_value))))
        weighted = q_value ** abs(n) * abs(g)
        report.append((n, weighted, weighted <= q_value))
    return report


def canonical_str(expr: sympy.Expr) -> str:
    """num/den with a monic denominator, matching the CLI output format."""
    sympy, q = _sympy()
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    lead = sympy.LC(sympy.Poly(den, q)) if den.has(q) else den
    num = sympy.expand(num / lead)
    den = sympy.expand(den / lead)
    if den == 1:
        return str(num)
    return f"({num})/({den})"
