"""Volumes, the element f, convolution identities, and the
finite-quotient counting oracle for SL(2).

The library returns Laurent polynomials in v with q = v^2.  The oracle
below states the closed forms as rational functions of q: a pair
(num, den) of polynomials, each a {power of q: coefficient} dict with no
zero coefficient.  Two values are equal when num * den' == num' * den,
and a geometric tail sums to first / (1 - ratio q).  The oracle shares
no code with heckej.  What the text of ``canonical_str`` must be, and
which numbers are prime, are pinned as literals: the values sympy gave
when it was the oracle."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import heckej.sl2
from heckej import BudgetExceeded, DepthTooSmall, DivergentTail, NotLaurentPolynomial
from heckej.laurent import ONE, ZERO, Laurent
from heckej.sl2 import (
    CellFunction,
    Lattice,
    brute_force_count,
    canonical_str,
    cell_value_from_count,
    conv_cell_value,
    conv_f_value,
    gamma_coefficient,
    schwartz_decay_check,
    standard_f,
    verify_relations,
    volume_ratio,
)


def qpow(k, coeff=1):
    return Laurent.monomial(2 * k, coeff)


# -- the oracle: rational functions of q ----------------------------------

def poly(x):
    """A Laurent polynomial with even v-exponents as a polynomial in q."""
    assert all(e % 2 == 0 for e, _ in x.items()), x
    return {e // 2: c for e, c in x.items()}


def padd(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def pmul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def radd(x, y):
    return padd(pmul(x[0], y[1]), pmul(y[0], x[1])), pmul(x[1], y[1])


def rmul(x, y):
    return pmul(x[0], y[0]), pmul(x[1], y[1])


def same(x, y):
    """x == y as rational functions, by cross-multiplication."""
    return pmul(x[0], y[1]) == pmul(y[0], x[1])


def mono(k, coeff=1):
    return {k: coeff}, {0: 1}


def lib(x):
    """A library value as a rational function."""
    return poly(x), {0: 1}


def value_at(x, p):
    """A library value at q = p."""
    return sum(c * Fraction(p) ** k for k, c in poly(x).items())


NIL = {}, {0: 1}
Q_PLUS_1 = {1: 1, 0: 1}, {0: 1}


def oracle_gamma(n):
    return mono(2 * n) if n <= 0 else mono(-2 * n + 1, -1)


def oracle_volume(n):
    return mono(2 * n - 1) if n > 0 else mono(-2 * n)


def oracle_cell_value(n, r, lattice):
    if lattice is Lattice.STD:
        if n > 0:
            if r > n:
                return NIL
            if r <= -n:
                return rmul(Q_PLUS_1, mono(2 * n - 1))
            return mono(n - r)
        if n < 0:
            m = -n
            if r > m:
                return NIL
            if r <= -m:
                return rmul(Q_PLUS_1, mono(2 * m))
            return mono(m - r + 1)
        return Q_PLUS_1 if r <= 0 else NIL
    if n > 0:
        if r > n - 1:
            return NIL
        if r <= -n:
            return rmul(Q_PLUS_1, mono(2 * n - 1))
        return mono(n - r)
    m = -n
    if r > m:
        return NIL
    if r <= -m - 1:
        return rmul(Q_PLUS_1, mono(2 * m))
    return mono(m - r)


def oracle_coefficient(f, n):
    """coeff(n) of a CellFunction, read from its fields."""
    for k, value in f.exceptional:
        if k == n:
            return lib(value)
    start, value, ratio = f.pos_tail
    steps = n - start
    if steps < 0:
        start, value, ratio = f.neg_tail
        steps = start - n
    if steps < 0:
        return NIL
    num = poly(value)
    for _ in range(steps):
        num = pmul(num, poly(ratio))
    return num, {0: 1}


def oracle_conv_f_value(r, lattice, f):
    """A window summed term by term plus two geometric tails, each
    first / (1 - ratio q)."""
    window = max([abs(r) + 1, f.pos_tail[0], -f.neg_tail[0]]
                 + [abs(k) for k, _ in f.exceptional]) + 1
    total = NIL
    for n in range(-window, window + 1):
        total = radd(total, rmul(oracle_coefficient(f, n), oracle_cell_value(n, r, lattice)))
    for n, tail in ((window + 1, f.pos_tail), (-window - 1, f.neg_tail)):
        num, den = rmul(oracle_coefficient(f, n), oracle_cell_value(n, r, lattice))
        if num:
            total = radd(total, (num, pmul(den, padd({0: 1}, pmul(poly(tail[2]), {1: -1})))))
    return total


# -- closed forms ----------------------------------------------------------

def test_gamma_coefficients_closed_form():
    assert poly(heckej.sl2.q) == {1: 1}
    assert poly(gamma_coefficient(0)) == {0: 1}
    assert poly(gamma_coefficient(1)) == {-1: -1}
    assert poly(gamma_coefficient(2)) == {-3: -1}
    assert poly(gamma_coefficient(-1)) == {-2: 1}
    assert poly(gamma_coefficient(-2)) == {-4: 1}


def test_volume_ratios_closed_form():
    assert poly(volume_ratio(0)) == {0: 1}
    assert poly(volume_ratio(1)) == {1: 1}
    assert poly(volume_ratio(2)) == {3: 1}
    assert poly(volume_ratio(-1)) == {2: 1}
    assert poly(volume_ratio(-2)) == {4: 1}


def test_volume_ratio_growth():
    # the ratio grows geometrically in |n| on both sides of the K cell
    def grows(n, step, power):
        return same(lib(volume_ratio(n)), rmul(lib(volume_ratio(n - step)), mono(power)))

    assert grows(1, 1, 1) and grows(-1, -1, 2)
    for n in range(2, 6):
        assert grows(n, 1, 2) and grows(-n, -1, 2), n


# What the sympy oracle printed (sympy.cancel, then num/den over a monic
# denominator) for the values of the grid below, in its order: the
# distinct forms, and the sha256 of all 646 joined by newlines.
GRID_FORMS = (
    "(-1)/(q)", "(-1)/(q**11)", "(-1)/(q**13)", "(-1)/(q**15)", "(-1)/(q**3)",
    "(-1)/(q**5)", "(-1)/(q**7)", "(-1)/(q**9)", "(1)/(q**10)", "(1)/(q**12)",
    "(1)/(q**14)", "(1)/(q**16)", "(1)/(q**2)", "(1)/(q**4)", "(1)/(q**6)",
    "(1)/(q**8)", "0", "1", "q", "q + 1", "q**10", "q**10 + q**9", "q**11",
    "q**11 + q**10", "q**12", "q**12 + q**11", "q**13", "q**13 + q**12",
    "q**14", "q**14 + q**13", "q**15", "q**15 + q**14", "q**16",
    "q**16 + q**15", "q**17 + q**16", "q**2", "q**2 + q", "q**3",
    "q**3 + q**2", "q**4", "q**4 + q**3", "q**5", "q**5 + q**4", "q**6",
    "q**6 + q**5", "q**7", "q**7 + q**6", "q**8", "q**8 + q**7", "q**9",
    "q**9 + q**8",
)
GRID_FORMS_SHA256 = "a0f7a6d70d29e1ac8d1b2320c55d2b9e03b6f4f50548f330824ffad42c60a8f3"


def test_closed_forms_match_rational_oracle_on_grid():
    """Every value the CLI can print on |n|, |r| <= 8 equals its closed
    form, and prints as sympy printed it."""
    forms = []

    def check(got, want, where):
        assert same(lib(got), want), where
        forms.append(canonical_str(got))

    for n in range(-8, 9):
        check(gamma_coefficient(n), oracle_gamma(n), n)
        check(volume_ratio(n), oracle_volume(n), n)
    for n in range(-8, 9):
        for r in range(-8, 9):
            for lat in Lattice:
                check(conv_cell_value(n, r, lat), oracle_cell_value(n, r, lat), (n, r, lat))
    for r in range(-8, 9):
        for lat in Lattice:
            check(conv_f_value(r, lat), oracle_conv_f_value(r, lat, standard_f()), (r, lat))
    assert tuple(sorted(set(forms))) == GRID_FORMS
    assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == GRID_FORMS_SHA256


def test_coefficient_relations():
    report = verify_relations(50)
    assert len(report) == 101
    assert all(ok for _, _, ok in report)
    with pytest.raises(ValueError):
        verify_relations(0)


def test_standard_f_matches_gamma():
    f = standard_f()
    for n in range(-8, 9):
        assert f.coefficient(n) == gamma_coefficient(n)


def test_convolution_with_standard_lattice():
    for r in range(-5, 1):
        assert poly(conv_f_value(r, Lattice.STD)) == {1: 1, 0: 1}
    for r in range(1, 6):
        assert conv_f_value(r, Lattice.STD) == 0


def test_convolution_with_sublattice_vanishes():
    for r in range(-5, 6):
        assert conv_f_value(r, Lattice.SUB) == 0


def test_cell_values_sample():
    assert poly(conv_cell_value(0, 0, Lattice.STD)) == {1: 1, 0: 1}
    assert conv_cell_value(0, 1, Lattice.STD) == 0
    assert poly(conv_cell_value(1, 0, Lattice.STD)) == {1: 1}
    assert conv_cell_value(1, 1, Lattice.SUB) == 0  # boundary r > n - 1
    assert poly(conv_cell_value(1, 0, Lattice.SUB)) == {1: 1}
    assert poly(conv_cell_value(-1, 0, Lattice.SUB)) == {1: 1}
    assert poly(conv_cell_value(2, -3, Lattice.STD)) == {4: 1, 3: 1}


def test_divergent_tail_rejected():
    tails = [
        (ONE, qpow(-2)),       # ratio * q = q on the positive side
        (qpow(-2), qpow(-1)),  # ratio * q = 1 on the negative side: still divergent
    ]
    for pos_ratio, neg_ratio in tails:
        bad = CellFunction(
            exceptional=(),
            pos_tail=(1, ONE, pos_ratio),
            neg_tail=(0, ONE, neg_ratio),
        )
        for lat in Lattice:
            with pytest.raises(DivergentTail):
                conv_f_value(0, lat, bad)


def test_convergent_sum_that_is_not_a_laurent_polynomial_rejected():
    # sum over n >= 1 of q^(2-2n) * q^n = q^2 / (q - 1) at r = 0
    f = CellFunction(exceptional=(), pos_tail=(1, ONE, qpow(-2)), neg_tail=(0, ZERO, qpow(-2)))
    assert same(oracle_conv_f_value(0, Lattice.STD, f), ({2: 1}, {1: 1, 0: -1}))
    with pytest.raises(NotLaurentPolynomial):
        conv_f_value(0, Lattice.STD, f)


def test_custom_cell_functions_match_rational_oracle():
    """Exceptional values, and scaling both tails of f alike, keep the
    sum a Laurent polynomial."""
    gamma = standard_f()
    fs = [
        CellFunction(((0, qpow(3)), (2, Laurent.monomial(0, 5)), (-4, qpow(-1, -2))),
                     gamma.pos_tail, gamma.neg_tail),
        CellFunction(((3, qpow(1)),), (1, qpow(1, -3), qpow(-2)), (0, qpow(2, 3), qpow(-2))),
    ]
    for f in fs:
        for r in range(-6, 7):
            for lat in Lattice:
                want = oracle_conv_f_value(r, lat, f)
                assert same(lib(conv_f_value(r, lat, f)), want), (r, lat)


def test_exact_quotient_long_division():
    from heckej.sl2 import _exact_quotient

    rng = random.Random(6)
    for _ in range(300):
        quot = Laurent({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))})
        den = ONE + Laurent({rng.randint(-5, -1): rng.randint(-3, 3) for _ in range(3)})
        assert _exact_quotient(quot * den, den) == quot
        rem = Laurent.monomial(rng.randint(-4, 4), rng.choice([-1, 1]))
        if den != ONE:
            with pytest.raises(NotLaurentPolynomial):
                _exact_quotient(quot * den + rem, den)


def test_canonical_str():
    assert canonical_str(qpow(1) + ONE) == "q + 1"
    assert canonical_str(qpow(-1)) == "(1)/(q)"
    assert canonical_str(qpow(-3, -1)) == "(-1)/(q**3)"
    assert canonical_str(qpow(3) + qpow(2)) == "q**3 + q**2"
    assert canonical_str(ZERO) == "0"
    assert canonical_str(qpow(2, 3) - qpow(1, 2) + qpow(-2)) == "(3*q**4 - 2*q**3 + 1)/(q**2)"
    with pytest.raises(ValueError):
        canonical_str(Laurent.monomial(1))


# -- the finite-quotient counting oracle -----------------------------------

def test_counting_oracle_spot_values():
    # vol(K_{1,0}) / vol(K) for q = 2: q / (q + 1) / q^... = 1/3
    assert brute_force_count(2, 4, 1, 0, Lattice.STD) == Fraction(1, 3)
    assert cell_value_from_count(2, 4, 1, 0, Lattice.STD) == 2
    assert cell_value_from_count(2, 4, 1, 2, Lattice.STD) == 0
    assert cell_value_from_count(3, 3, 0, 0, Lattice.STD) == 4  # q + 1 at q = 3


def test_counting_oracle_total_is_group_order():
    from heckej.sl2 import _completion_census

    for p, m in [(2, 3), (3, 2)]:
        census = _completion_census(p, m)
        order = p ** (3 * m) * (1 - Fraction(1, p * p))
        assert sum(census.values()) == order


def _val(x, p, m):
    """The largest v <= m with p^v | x, by trial division."""
    v = 0
    while v < m and x % p ** (v + 1) == 0:
        v += 1
    return v


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 1)])
def test_census_matches_full_enumeration(p, m):
    """Every (a, b, c, d) in (Z/p^m)^4 with ad - bc = 1, tallied by
    (val a, val c), against the census, key by key."""
    from heckej.sl2 import _completion_census

    pm = p**m
    tally = {}
    for a, b, c, d in itertools.product(range(pm), repeat=4):
        if (a * d - b * c) % pm == 1:
            key = (_val(a, p, m), _val(c, p, m))
            tally[key] = tally.get(key, 0) + 1
    census = _completion_census(p, m)
    assert sorted(census) == sorted(tally)
    for key, count in tally.items():
        assert census[key] == count, key


def test_counting_oracle_preconditions():
    with pytest.raises(ValueError):
        brute_force_count(4, 2, 0, 0, Lattice.STD)
    with pytest.raises(DepthTooSmall):
        # threshold r - n + 1 = 5 exceeds the depth
        brute_force_count(2, 4, -2, 2, Lattice.SUB)
    with pytest.raises(BudgetExceeded):
        brute_force_count(3, 6, 0, 0, Lattice.STD)
    # impossible double divisibility is decidable at any depth
    assert brute_force_count(2, 2, 2, 3, Lattice.STD) == 0


# What sympy gave on the 300 seeded 80-bit numbers below: the indices of
# those isprime called prime, and nextprime(n) - n for the first 60.
BIG_PRIME_INDICES = [95, 261]
NEXT_PRIME_GAPS = [
    161, 95, 15, 16, 17, 3, 109, 12, 22, 47, 170, 8, 135, 11, 22, 59, 26, 3, 109, 50,
    188, 42, 71, 15, 6, 28, 21, 28, 85, 50, 57, 59, 148, 64, 26, 144, 47, 142, 65, 1,
    51, 30, 9, 14, 25, 24, 5, 85, 13, 28, 5, 42, 30, 127, 93, 12, 23, 24, 46, 24,
]


def test_is_prime_matches_sympy():
    """_is_prime against a sieve below 10^5, and against the answers of
    sympy's isprime and nextprime pinned above."""
    from heckej.sl2 import _is_prime

    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [p for p in range(-5, limit) if _is_prime(p)] == [p for p in range(limit) if sieve[p]]
    rng = random.Random(2024)
    big = [rng.randrange(2**80) for _ in range(300)]
    assert [i for i, n in enumerate(big) if _is_prime(n)] == BIG_PRIME_INDICES
    for n, gap in zip(big, NEXT_PRIME_GAPS):
        # n + gap is the least prime above n
        assert [k for k in range(1, gap + 1) if _is_prime(n + k)] == [gap], n
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n, factors in (
        (3215031751, (151, 751, 28351)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (318665857834031151167461, (399165290221, 798330580441)),
    ):
        assert math.prod(factors) == n and not _is_prime(n), n


@pytest.mark.parametrize("p,m", [(2, 4), (3, 4)])
def test_oracle_grid_cross_check(p, m):
    """Counting oracle vs the closed-form case table on the full grid;
    the single point per prime whose valuation threshold exceeds the
    depth is skipped (and covered at greater depth below)."""
    skipped = []
    for n in range(-2, 3):
        for r in range(-3, 4):
            for lat in Lattice:
                try:
                    got = cell_value_from_count(p, m, n, r, lat)
                except DepthTooSmall:
                    skipped.append((n, r, lat))
                    continue
                assert got == value_at(conv_cell_value(n, r, lat), p), (n, r, lat)
    assert skipped == [(-2, 2, Lattice.SUB)]


def test_oracle_deep_point_at_greater_depth():
    got = cell_value_from_count(2, 7, -2, 2, Lattice.SUB)
    assert got == value_at(conv_cell_value(-2, 2, Lattice.SUB), 2)


def test_oracle_validates_volume_ratios():
    # witness point per n with small thresholds; exact identity
    # ratio(n) * (q+1) * counted_fraction = closed-form cell value
    witnesses = {0: 0, 1: 0, 2: -1, -1: 0, -2: -1}
    for p, m in [(2, 4), (3, 3)]:
        for n, r in witnesses.items():
            frac = brute_force_count(p, m, n, r, Lattice.STD)
            assert frac > 0
            lhs = value_at(volume_ratio(n), p) * (p + 1) * frac
            assert lhs == value_at(conv_cell_value(n, r, Lattice.STD), p)


def test_schwartz_decay():
    report = schwartz_decay_check(10, Fraction(2))
    assert len(report) == 21
    assert all(ok for _, _, ok in report)
    with pytest.raises(ValueError):
        schwartz_decay_check(3, Fraction(1))


def test_decay_digit_rule_is_exact():
    """A value below 2^bits is refused exactly when 2^bits has more than
    the budgeted digits: bits >= the bit length of 10^budget."""
    digits = [len(str(1 << bits)) for bits in range(14000)]
    for budget in (1, 2, 7, 100, 4000):
        limit = (10**budget).bit_length()
        for bits, d in enumerate(digits):
            assert (bits >= limit) == (d > budget), (budget, bits)


def test_size_budgets(monkeypatch):
    """Each closed-form request past its size budget is refused before any
    work; the boundary is checked with budgets shrunk to a few cells."""
    monkeypatch.setattr(heckej.sl2, "WINDOW_BUDGET", 10)
    monkeypatch.setattr(heckej.sl2, "RELATIONS_BUDGET", 10)
    monkeypatch.setattr(heckej.sl2, "DECAY_BUDGET", 10)
    # q^-10 at q = 2 and q = 5 is estimated at 7 and 10 digits
    monkeypatch.setattr(heckej.sl2, "DECAY_DIGITS_BUDGET", 7)
    gamma = standard_f()
    exceptional = CellFunction(((11, ONE),), gamma.pos_tail, gamma.neg_tail)
    # the window reaches |r| + 2 cells on each side for the standard f
    assert conv_f_value(-8, Lattice.STD) == conv_f_value(0, Lattice.STD)
    assert len(verify_relations(10)) == 21
    assert len(schwartz_decay_check(10, Fraction(2))) == 21
    for call in (
        lambda: conv_f_value(-9, Lattice.STD),
        lambda: conv_f_value(9, Lattice.SUB),
        lambda: conv_f_value(0, Lattice.STD, exceptional),
        lambda: verify_relations(11),
        lambda: schwartz_decay_check(11, Fraction(2)),
        lambda: schwartz_decay_check(10, Fraction(5)),
    ):
        with pytest.raises(BudgetExceeded):
            call()
