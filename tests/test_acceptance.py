"""Acceptance gate: one test per criterion, each ending in a single
pass/fail line.  Everything here is exact; no tolerances anywhere."""

import time
from fractions import Fraction

import pytest

from heckej import GroupDescriptor, KLTable, Laurent, ONE, ZERO, hecke_algebra, make_group
from heckej.errors import DepthTooSmall
from heckej.sl2 import (
    Lattice,
    brute_force_count,
    cell_value_from_count,
    conv_cell_value,
    conv_f_value,
    gamma_coefficient,
    q,
    standard_f,
    verify_relations,
    volume_ratio,
)


def report(line):
    print(line)


def test_criterion_1_kl_certification():
    """Bar-invariance and degree bounds for every canonical basis element
    in the rank-1 ball of length 12 and the rank-2 ball of length 8;
    all dihedral KL polynomials equal 1; all inside the runtime budget."""
    started = time.monotonic()
    checked = 0
    for affine_type, radius in (("A1~", 12), ("A2~", 8)):
        desc = GroupDescriptor(affine_type)
        g = make_group(desc)
        alg = hecke_algebra(desc)
        table = KLTable(g, radius)
        for w in g.enumerate_ball(radius):
            c = alg.to_basis(alg.basis_element(w, "Cprime"), "Ttilde", table)
            assert alg.bar(c, table) == c, f"bar fails at {w}"
            for y in g.enumerate_ball(len(w.word)):
                p = table.kl_polynomial(y, w)
                if affine_type == "A1~":
                    expected = ONE if g.bruhat_leq(y, w) else ZERO
                    assert p == expected, f"dihedral P != 1 at ({y}, {w})"
                if y != w and p:
                    assert p.max_exp() <= len(w.word) - len(y.word) - 1
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(f"PASS criterion 1: KL certification ({checked} elements, {elapsed:.1f}s)")


def test_criterion_2_j_associativity(a1_ring, a2_ring):
    """Exact integer associativity of J on both working balls, in both
    sign conventions."""
    total = 0
    for ring, max_len in ((a1_ring, 5), (a2_ring, 3)):
        ball = ring.group.enumerate_ball(max_len)
        for signed in (False, True):
            for x in ball:
                for y in ball:
                    xy = ring.j_multiply(ring.t(x), ring.t(y), signed)
                    for z in ball:
                        yz = ring.j_multiply(ring.t(y), ring.t(z), signed)
                        left = ring.j_multiply(xy, ring.t(z), signed)
                        right = ring.j_multiply(ring.t(x), yz, signed)
                        assert left == right, (x, y, z, signed)
                        total += 1
    report(f"PASS criterion 2: J associativity ({total} triples, both conventions)")


def test_criterion_3_homomorphism(a1_ring, a2_ring):
    """phi(C'_x) phi(C'_y) = phi(C'_x C'_y) for all pairs within the
    stated length budgets."""
    total = 0
    for ring, max_sum in ((a1_ring, 8), (a2_ring, 5)):
        g = ring.group
        alg = ring.algebra
        ball = g.enumerate_ball(max_sum)
        for x in ball:
            for y in ball:
                if len(x.word) + len(y.word) > max_sum:
                    continue
                lhs = ring.jta_multiply(ring.phi(x), ring.phi(y))
                prod = alg.multiply(
                    alg.basis_element(x, "Cprime"),
                    alg.basis_element(y, "Cprime"),
                    ring.table,
                )
                rhs = ring.phi_of_element(prod)
                assert lhs == rhs, (str(x), str(y))
                total += 1
    report(f"PASS criterion 3: phi homomorphism ({total} pairs)")


def test_criterion_4_injectivity(a1_ring, a2_ring):
    """Specialized phi has full rank on the canonical span of the
    length-4 ball for q in {2, 3, 4}."""
    for ring in (a1_ring, a2_ring):
        ball = ring.group.enumerate_ball(4)
        for qv in (Fraction(2), Fraction(3), Fraction(4)):
            rank = ring.specialized_rank(ball, qv)
            assert rank == len(ball), (ring.desc, qv, rank)
    report("PASS criterion 4: specialized phi injective on the length-4 balls, q in {2,3,4}")


def test_criterion_5_volumes():
    """Closed-form volume ratios for |n| <= 2, checked against the
    counting oracle at (p, m) = (2, 4) and (3, 3)."""
    expected = {0: 1, 1: q, 2: q**3, -1: q**2, -2: q**4}
    enumerated = 0
    for n, val in expected.items():
        assert volume_ratio(n) == val
    witnesses = {0: 0, 1: 0, 2: -1, -1: 0, -2: -1}
    for p, m in ((2, 4), (3, 3)):
        enumerated += p ** (3 * m)
        for n, r in witnesses.items():
            frac = brute_force_count(p, m, n, r, Lattice.STD)
            assert frac > 0
            lhs = volume_ratio(n).specialize(p)[0] * (p + 1) * frac
            rhs = conv_cell_value(n, r, Lattice.STD).specialize(p)[0]
            assert lhs == rhs, (p, m, n, r)
    assert enumerated <= 10**7
    report(f"PASS criterion 5: volume ratios vs counting oracle ({enumerated} elements enumerated)")


def test_criterion_6_relations():
    """Both coefficient relations hold exactly for all r <= 50."""
    report_rows = verify_relations(50)
    assert all(ok for _, _, ok in report_rows)
    # the two relations pin the whole coefficient sequence once gamma_0 = 1
    assert gamma_coefficient(0) == 1
    report(f"PASS criterion 6: coefficient relations ({len(report_rows)} instances)")


def test_criterion_7_convolutions():
    """f * chi_{O+O} equals q+1 (r <= 0) and 0 (r > 0); f * chi_{O+tO}
    vanishes identically; cross-checked numerically at q = 2, 3 by the
    counting oracle on the grid |n| <= 2, |r| <= 3."""
    for r in range(-5, 6):
        want = (q + ONE) if r <= 0 else ZERO
        assert conv_f_value(r, Lattice.STD) == want, r
        assert conv_f_value(r, Lattice.SUB) == 0, r
    f = standard_f()
    for n in range(-6, 7):
        assert f.coefficient(n) == gamma_coefficient(n)
    checked = 0
    for p in (2, 3):
        skipped = []
        for n in range(-2, 3):
            for r in range(-3, 4):
                for lat in Lattice:
                    try:
                        got = cell_value_from_count(p, 4, n, r, lat)
                    except DepthTooSmall:
                        skipped.append((n, r, lat))
                        continue
                    want = conv_cell_value(n, r, lat).specialize(p)[0]
                    assert got == want, (p, n, r, lat)
                    checked += 1
        # exactly one grid point per prime needs more depth than p^4
        assert skipped == [(-2, 2, Lattice.SUB)]
    deep = cell_value_from_count(2, 7, -2, 2, Lattice.SUB)
    assert deep == conv_cell_value(-2, 2, Lattice.SUB).specialize(2)[0]
    report(f"PASS criterion 7: convolution identities, oracle grid ({checked} points + 1 deep point)")


def test_criterion_8_gamma_spot_values(a1_ring):
    """Gamma spot values and a J product, produced by the full pipeline."""
    g = a1_ring.group
    s0, s1 = g.generator(0), g.generator(1)
    assert a1_ring.j_multiply(a1_ring.t(s0), a1_ring.t(s0), signed=True).terms == {s0: -1}
    assert a1_ring.gamma(s0, s0, s0) == 1
    for z in g.enumerate_ball(4):
        assert a1_ring.gamma(s0, s1, z) == 0
    assert a1_ring.j_multiply(a1_ring.t(s0), a1_ring.t(s1), signed=True).terms == {}
    prod = a1_ring.j_multiply(a1_ring.t(g.element((0, 1))), a1_ring.t(g.element((1, 0))))
    assert prod.terms == {g.element((0, 1, 0)): 1, s0: 1}
    report("PASS criterion 8: gamma spot values and t_01 t_10 = t_010 + t_0")
