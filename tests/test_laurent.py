"""Laurent polynomial ring and the quadratic specialization target."""

import json
import math
import random
from fractions import Fraction

import pytest

from heckej import Laurent, NotInAPlus, ONE, QuadExt, V, VINV, ZERO, laurent


def random_poly(rng, max_terms=5, span=6, coeff=20):
    return Laurent(
        {
            rng.randint(-span, span): rng.randint(-coeff, coeff)
            for _ in range(rng.randint(0, max_terms))
        }
    )


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(2500):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert a + (-a) == ZERO
        assert a ** 0 == ONE and a ** 3 == a * a * a


def test_power_by_repeated_squaring(monkeypatch):
    products = []
    mul = laurent._mul_raw
    monkeypatch.setattr(laurent, "_mul_raw", lambda a, b: products.append(1) or mul(a, b))
    assert (ONE + V) ** 100 == Laurent({k: math.comb(100, k) for k in range(101)})
    assert len(products) <= 2 * (100).bit_length()
    with pytest.raises(ValueError):
        V ** -1


def test_zero_coefficients_never_stored():
    p = Laurent({3: 5}) - Laurent({3: 5}) + Laurent({0: 0, 1: 0})
    assert p.is_zero()
    assert list(p.items()) == []


def test_monomial_and_const():
    assert Laurent.monomial(2, 3) == Laurent({2: 3})
    assert Laurent.monomial(2, 0) == ZERO
    assert Laurent.const(7) == Laurent({0: 7})
    assert V * VINV == ONE


def test_shift_and_exponent_range():
    p = V + VINV
    assert p.shift(2) == Laurent({3: 1, 1: 1})
    assert p.min_exp() == -1 and p.max_exp() == 1
    assert not p.in_a_plus()
    assert p.shift(1).in_a_plus()
    with pytest.raises(ValueError):
        ZERO.min_exp()


def test_bar_and_star_are_involutions():
    rng = random.Random(7)
    for _ in range(500):
        p = random_poly(rng)
        assert p.bar().bar() == p
        assert p.star().star() == p
    # bar: v -> 1/v; star: v -> -1/v
    assert V.bar() == VINV
    assert V.star() == -VINV
    assert (V + VINV).star() == -(V + VINV)
    assert (V * V).star() == VINV * VINV


def test_bar_and_star_are_ring_maps():
    rng = random.Random(8)
    for _ in range(500):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).star() == a.star() + b.star()
        assert (a * b).star() == a.star() * b.star()


def test_constant_term_after_shift():
    p = V + VINV  # v + 1/v
    assert p.constant_term_after_shift(1) == 1
    h = Laurent({-2: 3, 0: 5, 1: 7})
    assert h.constant_term_after_shift(2) == 3
    assert h.constant_term_after_shift(3) == 0
    with pytest.raises(NotInAPlus):
        h.constant_term_after_shift(1)


def test_specialize_is_a_homomorphism():
    rng = random.Random(99)
    for q in (Fraction(2), Fraction(4), Fraction(1, 2), Fraction(9, 4)):
        for _ in range(200):
            a, b = random_poly(rng), random_poly(rng)
            assert (a * b).specialize(q) == a.specialize(q) * b.specialize(q)
            assert (a + b).specialize(q) == a.specialize(q) + b.specialize(q)


def test_specialize_splits_parity():
    p = Laurent({2: 1, 1: 3, -1: 1})  # v^2 + 3v + 1/v
    x = p.specialize(Fraction(4))
    assert x.a0 == 4
    assert x.a1 == 3 + Fraction(1, 4)
    with pytest.raises(ValueError):
        p.specialize(Fraction(-1))


def test_eval_q():
    p = Laurent({0: 1, 2: 1, 4: 2})  # 1 + q + 2q^2
    assert p.eval_q(Fraction(3)) == 1 + 3 + 18
    with pytest.raises(ValueError):
        V.eval_q(Fraction(2))


def test_json_round_trip():
    rng = random.Random(123)
    for _ in range(200):
        p = random_poly(rng)
        blob = json.dumps(p.to_json())
        assert Laurent.from_json(json.loads(blob)) == p
    assert (V + VINV).to_json() == [[-1, "1"], [1, "1"]]


def test_quadext_field_operations():
    q = Fraction(2)
    x = QuadExt(3, 5, q)
    y = QuadExt(-1, 2, q)
    assert (x * y) * x == x * (y * x)
    assert x * x.inverse() == QuadExt(1, 0, q)
    assert x.norm() == 9 - 2 * 25
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 0, q).inverse()
    with pytest.raises(ValueError):
        x * QuadExt(1, 0, Fraction(3))


def test_quadext_eval_sqrt():
    x = QuadExt(1, Fraction(1, 2), Fraction(4))
    assert x.eval_sqrt(Fraction(2)) == 2
    with pytest.raises(ValueError):
        x.eval_sqrt(Fraction(3))


def test_packed_codec_roundtrip_valuation_and_digits():
    """pack/unpack, the valuation as the lowest set bit and the signed
    digit, on random coefficients of both signs up to 2^(W-1) - 1, with
    exponents reaching both ends -(OFF-1) and OFF-1."""
    rng = random.Random(20261018)
    w, off = laurent.PACK_W, laurent.PACK_OFF
    top = (1 << (w - 1)) - 1
    for i in range(300):
        exps = rng.sample(range(-off + 1, off), rng.randint(1, 6))
        exps[0] = (-off + 1, off - 1)[i % 2]
        d = {e: rng.choice((-1, 1)) * rng.choice((1, rng.randint(1, top), top)) for e in exps}
        p = Laurent(d)
        c = laurent._pack(p._c)
        assert Laurent._raw(laurent._unpack(c)) == p
        assert laurent._valuation(c) == p.min_exp()
        for e in range(-off, off + 1):
            assert laurent._digit(c, e) == p.coeff(e), (d, e)
    assert laurent._pack({}) == 0 and laurent._unpack(0) == {}
    with pytest.raises(ValueError):
        laurent._pack({-off - 1: 1})
