"""Positivity (Elias and Williamson 2014) as an oracle on the public API:
over the certified ball of each ring fixture, every KL polynomial and every
unsigned structure constant h_{x,y,z} has nonnegative coefficients."""

import pytest


def nonnegative(p):
    return all(c >= 0 for _, c in p.items())


@pytest.mark.parametrize("ring_name", ["a1_ring", "a2_ring"])
def test_kl_polynomials_and_unsigned_h_are_positive(request, ring_name):
    ring = request.getfixturevalue(ring_name)
    ball = ring.group.enumerate_ball(ring.radius)
    kl = h = 0
    for w in ball:
        for y in ball:
            if len(y.word) <= len(w.word):
                p = ring.table.kl_polynomial(y, w)
                assert nonnegative(p), (y, w, p)
                kl += bool(p)
    for x in ball:
        for y in ball:
            if len(x.word) + len(y.word) <= ring.radius:
                for z, c in ring.constants.h_map(x, y).items():
                    assert nonnegative(c), (x, y, z, c)
                    h += 1
    assert kl > len(ball) and h > len(ball)
