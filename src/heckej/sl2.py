"""The SL(2,F) picture: cells K x_n I, volumes, the bi-invariant
function f with eventually-geometric coefficients, and its convolution
with the characteristic functions of the standard lattices.

Haar measure is normalized so that vol(I) = 1, hence vol(K) = q + 1.
Values are exact Laurent polynomials in q, stored as
:class:`heckej.laurent.Laurent` in v with q = v^2 (only even exponents),
the same type that holds the Kazhdan-Lusztig polynomials; the
finite-quotient counter over SL(2, Z/p^m) serves as an independent
oracle for every closed form here.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from enum import Enum

from .errors import BudgetExceeded, DepthTooSmall, DivergentTail, NotLaurentPolynomial
from .laurent import ONE, ZERO, Laurent, _join_terms

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

# Size budgets, checked before any work: p^(3m) for the counting oracle,
# cells on each side of the conv_f_value window, R for verify_relations,
# and N for schwartz_decay_check (whose output grows like N^2) with the
# digits of its largest value, kept below Python's 4,300-digit limit on
# int-to-str conversion.
ENUMERATION_BUDGET = 10**7
WINDOW_BUDGET = 10**4
RELATIONS_BUDGET = 10**5
DECAY_BUDGET = 10**3
DECAY_DIGITS_BUDGET = 4000

q = Laurent.monomial(2)


def _q(k: int, coeff: int = 1) -> Laurent:
    """coeff * q^k."""
    return Laurent.monomial(2 * k, coeff)


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


def gamma_coefficient(n: int) -> Laurent:
    """Coefficient of the cell indicator at n in the element f."""
    if n <= 0:
        return _q(2 * n)
    return _q(-2 * n + 1, -1)


def volume_ratio(n: int) -> Laurent:
    """vol(K x_n I) / vol(K); the n = 0 cell is K itself, ratio 1."""
    if n > 0:
        return _q(2 * n - 1)
    return _q(-2 * n)


def conv_cell_value(n: int, r: int, lattice: Lattice) -> Laurent:
    """Value of (chi_{K x_n I} * chi_lattice) at (t^-r, 0): 0, a power of
    q, or (q + 1) volume_ratio(n).  O + tO (t = 1) moves the boundary
    between the first two for n > 0, between the last two for n <= 0."""
    t = 1 if lattice is Lattice.SUB else 0
    if n > 0:
        if r > n - t:
            return ZERO
        if r <= -n:
            return _q(2 * n) + _q(2 * n - 1)
        return _q(n - r)
    m = -n
    if r > m:
        return ZERO
    if r <= -m - t:
        return _q(2 * m + 1) + _q(2 * m)
    return _q(m - r + 1 - t)


class CellFunction(namedtuple("CellFunction", "exceptional pos_tail neg_tail")):
    """A bi-invariant function sum_n coeff(n) chi_{K x_n I} whose
    coefficients are eventually geometric in both directions.

    exceptional is a tuple of pairs (n, coeff(n)).  pos_tail = (start,
    value, ratio): coeff(n) = value * ratio^(n-start) for n >= start;
    neg_tail likewise for n <= its start with the ratio applied per step
    towards -infinity.  Exceptional values override nothing outside the
    tails: evaluation first checks ``exceptional``, then the tails.
    """

    __slots__ = ()

    def coefficient(self, n: int) -> Laurent:
        for k, v in self.exceptional:
            if k == n:
                return v
        start, value, ratio = self.pos_tail
        if n >= start:
            return value * ratio ** (n - start)
        start, value, ratio = self.neg_tail
        if n <= start:
            return value * ratio ** (start - n)
        return ZERO


def standard_f() -> CellFunction:
    """The element f = sum gamma_n chi_{K x_n I}."""
    return CellFunction(
        exceptional=(),
        pos_tail=(1, _q(-1, -1), _q(-2)),
        neg_tail=(0, ONE, _q(-2)),
    )


def _exact_quotient(num: Laurent, den: Laurent) -> Laurent:
    """num / den for a den whose top term is v^0, by long division from
    the top; raises NotLaurentPolynomial if the quotient is not one."""
    quot, rem = ZERO, num
    # an exact quotient's lowest term is num's lowest over den's lowest
    while rem and rem.max_exp() >= num.min_exp() - den.min_exp():
        term = Laurent.monomial(rem.max_exp(), rem.coeff(rem.max_exp()))
        quot += term
        rem -= term * den
    if rem:
        raise NotLaurentPolynomial(f"({num}) / ({den}) is not a Laurent polynomial")
    return quot


def conv_f_value(r: int, lattice: Lattice, f: CellFunction | None = None) -> Laurent:
    """(f * chi_lattice)(t^-r, 0) as an exact Laurent polynomial in q.

    The sum over cells is split into an explicit window, inside which
    the case table may hit boundary branches, and two tails where both
    the coefficients and the cell values are geometric.  A tail sums to
    first / (1 - ratio), and ratio vanishes as q grows, so the common
    denominator has top term v^0 and the sum is divided out exactly.
    """
    if f is None:
        f = standard_f()
    bounds = [abs(r) + 1, f.pos_tail[0], -f.neg_tail[0]] + [abs(k) for k, _ in f.exceptional]
    window = max(bounds) + 1
    if window > WINDOW_BUDGET:
        raise BudgetExceeded(f"window of {window} cells per side exceeds {WINDOW_BUDGET}")
    num, den = ZERO, ONE
    for n in range(-window, window + 1):
        num += f.coefficient(n) * conv_cell_value(n, r, lattice)
    # past the window the cell value gains one q-power per step away from
    # n = 0 on either side: q^(n-r) for n > 0, q^(m-r+1) or q^(m-r) for n = -m
    for n, tail in ((window + 1, f.pos_tail), (-window - 1, f.neg_tail)):
        first = f.coefficient(n) * conv_cell_value(n, r, lattice)
        if not first:
            continue
        ratio = tail[2] * q
        if ratio and ratio.max_exp() >= 0:
            raise DivergentTail(f"tail ratio {ratio} does not vanish as q grows")
        num, den = num * (ONE - ratio) + first * den, den * (ONE - ratio)
    return _exact_quotient(num, den)


def verify_relations(R: int) -> list[tuple[str, int, bool]]:
    """Check gamma_r + q gamma_{-r} = 0 (1<=r<=R) and
    q gamma_{r+1} + gamma_{-r} = 0 (0<=r<=R) exactly."""
    if R < 1:
        raise ValueError("R must be >= 1")
    if R > RELATIONS_BUDGET:
        raise BudgetExceeded(f"R = {R} exceeds {RELATIONS_BUDGET}")
    report = []
    for r in range(1, R + 1):
        lhs = gamma_coefficient(r) + q * gamma_coefficient(-r)
        report.append(("gamma_r + q*gamma_-r", r, lhs == ZERO))
    for r in range(0, R + 1):
        lhs = q * gamma_coefficient(r + 1) + gamma_coefficient(-r)
        report.append(("q*gamma_{r+1} + gamma_-r", r, lhs == ZERO))
    return report


# The first 13 primes; 3317044064679887385961981 is the least strong
# pseudoprime to all of them (Sorenson and Webster 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the bases above: exact for p < 3.3 * 10^24, a
    strong probable-prime test beyond, and fast for any int."""
    if p < 2 or any(p % b == 0 for b in _MILLER_RABIN_BASES):
        return p in _MILLER_RABIN_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    d = (p - 1) >> s
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@functools.cache
def _completion_census(p: int, m: int) -> dict[tuple[int, int], int]:
    """For each valuation pair (val(a), val(c)), the number of matrices in
    SL(2, Z/p^m) whose first column has those valuations.

    One enumeration of all first columns (a, c) with exact counting of
    completions (b, d) solving ad - bc = 1; reused across queries.  With
    g = gcd(a, p^m), the b that admit a d are those with g | 1 + bc, each
    with g choices of d; whether g | 1 + bc depends on c only through
    c mod g, so the b are counted once per class (g, c mod g).
    """
    pm = p**m
    val = [0] * pm  # val[x]: the largest v <= m with p^v | x
    for v in range(1, m + 1):
        for x in range(0, pm, p**v):
            val[x] = v
    census: dict[tuple[int, int], int] = {}
    completions: dict[tuple[int, int], int] = {}  # (g, c mod g) -> #(b, d)
    for a in range(pm):
        g = math.gcd(a, pm)
        for c in range(pm):
            if val[a] > 0 and val[c] > 0:
                continue  # det would be divisible by p
            # completions (b, d): d solves a*d = 1 + b*c mod p^m
            if g == 1:
                count = pm  # d determined for every b
            else:
                cls = (g, c % g)
                count = completions.get(cls)
                if count is None:
                    count = completions[cls] = sum(g for b in range(pm) if (1 + b * c) % g == 0)
            key = (val[a], val[c])
            census[key] = census.get(key, 0) + count
    return census


def brute_force_count(p: int, m: int, n: int, r: int, lattice: Lattice) -> Fraction:
    """#{g in SL(2, Z/p^m) meeting the valuation thresholds} / #SL(2, Z/p^m).

    Enumerates the p^(2m) first columns (a, c) and counts the completions
    (b, d) with ad - bc = 1 by direct enumeration of b, once per residue
    class of `_completion_census`; the closed forms share none of this.
    The budget still bounds p^(3m), the size of the (a, b, c) space.
    Equals vol(K_{n,r}) / vol(K) (resp. the primed version for O+tO).

    A threshold t <= m is decidable mod p^m (val >= t means divisibility
    by p^t); if both thresholds are >= 1 the set is empty at any depth,
    since a and c cannot both vanish mod p inside SL(2).
    """
    from fractions import Fraction

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
    # p^(3m) >= 2^(3m (bit_length(p) - 1)), so the first test refuses from m
    # and the bit length alone, and p^(3m) is computed only below 2^46
    bits = 3 * m * (p.bit_length() - 1)
    if bits >= ENUMERATION_BUDGET.bit_length() or p ** (3 * m) > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"p = {p}, m = {m}: p^(3m) exceeds {ENUMERATION_BUDGET}")
    census = _completion_census(p, m)
    hits = sum(c for (va, vc), c in census.items() if va >= th_a and vc >= th_c)
    total = sum(census.values())
    return Fraction(hits, total)


def cell_value_from_count(p: int, m: int, n: int, r: int, lattice: Lattice) -> Fraction:
    """Oracle value of (chi_{K x_n I} * chi_lattice)(t^-r, 0) at q = p."""
    frac = brute_force_count(p, m, n, r, lattice)
    return volume_ratio(n).specialize(p)[0] * (p + 1) * frac


def check_bits(bits: int) -> None:
    """Refuse values of up to `bits` bits when they may have more than
    DECAY_DIGITS_BUDGET digits: a number below 2^bits has more than B
    digits only if 2^bits has, that is if bits >= the bit length of 10^B."""
    if bits >= (10**DECAY_DIGITS_BUDGET).bit_length():
        raise BudgetExceeded(f"values of up to {bits} bits exceed {DECAY_DIGITS_BUDGET} digits")


def schwartz_decay_check(N: int, q_value: Fraction) -> list[tuple[int, Fraction, bool]]:
    """Verify q^|n| * |gamma_n(q)| <= q for |n| <= N (geometric decay)."""
    from fractions import Fraction

    if N < 0:
        raise ValueError("N must be >= 0")
    if N > DECAY_BUDGET:
        raise BudgetExceeded(f"N = {N} exceeds {DECAY_BUDGET}")
    q_value = Fraction(q_value)
    if q_value <= 1:
        raise ValueError("q must be > 1")
    # the values are q^k for -N <= k <= 1; as q > 1, its numerator is the
    # larger part, and a part of q^k has at most |k| times its bits
    check_bits(max(N, 1) * q_value.numerator.bit_length())
    report = []
    for n in range(-N, N + 1):
        weighted = q_value ** abs(n) * abs(gamma_coefficient(n).specialize(q_value)[0])
        report.append((n, weighted, weighted <= q_value))
    return report


def canonical_str(x: Laurent) -> str:
    """x as a polynomial in q over a power of q, terms in descending
    powers, matching the CLI output format: ``q + 1``, ``q**3 + q**2``,
    ``(-1)/(q**3)``, ``0``."""
    if not x:
        return "0"
    if any(e % 2 for e, _ in x.items()):
        raise ValueError(f"{x} is not a Laurent polynomial in q = v^2")
    shift = max(0, -x.min_exp() // 2)
    terms = []
    for e, c in sorted(x.items(), reverse=True):
        k = e // 2 + shift
        power = "q" if k == 1 else f"q**{k}"
        coeff = "" if c == 1 else "-" if c == -1 else f"{c}*"
        terms.append(str(c) if k == 0 else coeff + power)
    num = _join_terms(terms)
    return num if shift == 0 else f"({num})/({'q' if shift == 1 else f'q**{shift}'})"
