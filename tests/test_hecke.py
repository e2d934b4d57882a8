"""Hecke algebra arithmetic, canonical bases, KL data, structure constants."""

import json
import random

import pytest

import heckej.hecke
from heckej import (
    BudgetExceeded,
    GroupDescriptor,
    GroupElement,
    HeckejError,
    KLTable,
    Laurent,
    NonInvertibleTerm,
    ONE,
    RadiusExceeded,
    StructureConstants,
    V,
    VINV,
    WeylGroup,
    ZERO,
    hecke_algebra,
    laurent,
    make_group,
)

Q = Laurent({2: 1})


@pytest.fixture(scope="module")
def a1():
    desc = GroupDescriptor("A1~")
    g = make_group(desc)
    return g, hecke_algebra(desc), KLTable(g, 12)


@pytest.fixture(scope="module")
def a2():
    desc = GroupDescriptor("A2~")
    g = make_group(desc)
    return g, hecke_algebra(desc), KLTable(g, 8)


@pytest.fixture(scope="module")
def a2x():
    desc = GroupDescriptor("A2~", extended=True)
    g = make_group(desc)
    return g, hecke_algebra(desc), KLTable(g, 6)


def basis_elt(alg, w, basis="Ttilde"):
    return alg.basis_element(w, basis)


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
def test_quadratic_relation_in_t_basis(affine_type):
    desc = GroupDescriptor(affine_type)
    g = make_group(desc)
    alg = hecke_algebra(desc)
    one = alg.unit("T")
    for s in g.generators():
        ts = alg.basis_element(s, "T")
        lhs = alg.multiply(ts, ts)
        rhs = ts.scale(Q - ONE) + one.scale(Q)
        assert lhs == rhs


def test_normalized_generator_inverse(a1):
    g, alg, table = a1
    s = g.generator(0)
    ts = alg.basis_element(s, "Ttilde")
    inv = ts + alg.unit("Ttilde").scale(VINV - V)
    assert alg.multiply(ts, inv) == alg.unit("Ttilde")


def test_braid_relation(a2):
    g, alg, _ = a2
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        ti = alg.basis_element(g.generator(i), "Ttilde")
        tj = alg.basis_element(g.generator(j), "Ttilde")
        lhs = alg.multiply(alg.multiply(ti, tj), ti)
        rhs = alg.multiply(alg.multiply(tj, ti), tj)
        assert lhs == rhs


def test_t_basis_multiplication_matches_lengths(a2):
    g, alg, _ = a2
    for a in g.enumerate_ball(3):
        for b in g.enumerate_ball(3):
            if len(g.multiply(a, b).word) == len(a.word) + len(b.word):
                prod = alg.multiply(
                    alg.basis_element(a, "Ttilde"), alg.basis_element(b, "Ttilde")
                )
                assert prod == alg.basis_element(g.multiply(a, b), "Ttilde")


def test_bar_of_generator(a1):
    g, alg, table = a1
    ts = alg.basis_element(g.generator(0), "Ttilde")
    expected = ts + alg.unit("Ttilde").scale(VINV - V)
    assert alg.bar(ts, table) == expected


def test_bar_is_an_involution(a2):
    g, alg, table = a2
    rng = random.Random(5)
    ball = g.enumerate_ball(4)
    for _ in range(20):
        terms = {
            w: Laurent({rng.randint(-3, 3): rng.randint(-5, 5)})
            for w in rng.sample(ball, 4)
        }
        h = alg.element(terms, "Ttilde")
        assert alg.bar(alg.bar(h, table), table) == h


@pytest.mark.parametrize("signed", [False, True])
def test_canonical_basis_is_bar_invariant_a1(a1, signed):
    g, alg, table = a1
    for w in g.enumerate_ball(10):
        c = table.c_basis_element(w, signed=signed)
        assert alg.bar(c, table) == c


@pytest.mark.parametrize("signed", [False, True])
def test_canonical_basis_is_bar_invariant_a2(a2, signed):
    g, alg, table = a2
    for w in g.enumerate_ball(6):
        c = table.c_basis_element(w, signed=signed)
        assert alg.bar(c, table) == c


def test_kl_polynomial_normalization(a2):
    g, alg, table = a2
    e = g.identity
    for w in g.enumerate_ball(8):
        p = table.kl_polynomial(w, w)
        assert p == ONE
        for y in g.enumerate_ball(len(w.word)):
            p = table.kl_polynomial(y, w)
            if not g.bruhat_leq(y, w):
                assert p == ZERO
                continue
            assert p.coeff(0) == 1  # constant term 1 on the interval
            assert p.in_a_plus() and all(e % 2 == 0 for e, _ in p.items())


def test_kl_degree_bound(a2):
    g, alg, table = a2
    for w in g.enumerate_ball(8):
        for y in g.enumerate_ball(len(w.word)):
            p = table.kl_polynomial(y, w)
            if p.is_zero() or y == w:
                continue
            assert p.max_exp() <= len(w.word) - len(y.word) - 1


def test_dihedral_kl_polynomials_are_one(a1):
    g, alg, table = a1
    for w in g.enumerate_ball(12):
        for y in g.enumerate_ball(len(w.word)):
            expected = ONE if g.bruhat_leq(y, w) else ZERO
            assert table.kl_polynomial(y, w) == expected


def test_first_nontrivial_kl_polynomial(a2):
    # smallest affine rank-2 element with P != 1: the length-5
    # involutions below which the length-0 coefficient picks up q
    g, alg, table = a2
    e = g.identity
    w = g.element((0, 1, 2, 1, 0))
    assert table.kl_polynomial(e, w) == Laurent({0: 1, 2: 1})


def test_mu_examples(a1):
    g, alg, table = a1
    e = g.identity
    s0 = g.generator(0)
    assert table.mu(e, s0) == 1
    assert table.mu(s0, g.element((1, 0))) == 1
    assert table.mu(e, g.element((0, 1, 0))) == 0


def test_signed_and_unsigned_c_bases(a1):
    g, alg, table = a1
    s0 = g.generator(0)
    cp = table.c_basis_element(s0, signed=False)
    cs = table.c_basis_element(s0, signed=True)
    e = g.identity
    assert cp.terms[s0] == ONE and cp.terms[e] == VINV
    assert cs.terms[s0] == ONE and cs.terms[e] == -V


@pytest.mark.parametrize("basis", ["T", "Ttilde", "Cprime", "Csigned"])
def test_basis_conversion_round_trip(a2, a2x, basis):
    # a2x puts omega parts on the terms
    for g, alg, table in (a2, a2x):
        rng = random.Random(11)
        ball = g.enumerate_ball(5)
        for _ in range(10):
            terms = {
                w: Laurent({rng.randint(-2, 2): rng.randint(-4, 4)})
                for w in rng.sample(ball, 5)
            }
            h = alg.element(terms, "Ttilde")
            there = alg.to_basis(h, basis, table)
            back = alg.to_basis(there, "Ttilde", table)
            assert back == h


def test_conversion_refusals(a2):
    g, alg, table = a2
    x = next(w for w in g.enumerate_ball(8) if len(w.word) == 8)
    s = next(t for t in g.generators() if len(g.multiply(x, t).word) == 9)
    longer = g.multiply(x, s)
    for basis in ("Cprime", "Csigned"):
        # a canonical-basis term longer than the table radius, either way
        with pytest.raises(RadiusExceeded):
            alg.to_basis(alg.basis_element(longer, basis), "Ttilde", table)
        with pytest.raises(RadiusExceeded):
            alg.to_basis(alg.basis_element(longer, "Ttilde"), basis, table)
        with pytest.raises(RadiusExceeded):
            alg.multiply(alg.basis_element(longer, basis), alg.unit(basis), table)
        with pytest.raises(RadiusExceeded):
            alg.multiply(alg.basis_element(x, basis), alg.basis_element(s, basis), table)
        with pytest.raises(ValueError, match="needs a KL table"):
            alg.to_basis(alg.unit(basis), "Ttilde")
        with pytest.raises(ValueError, match="needs a KL table"):
            alg.to_basis(alg.unit("T"), basis)
        with pytest.raises(ValueError, match="needs a KL table"):
            alg.multiply(alg.unit(basis), alg.unit(basis))
    # an omega part that the unextended group does not have
    stray = alg.element({GroupElement(g.desc, (), 1): ONE}, "Ttilde")
    with pytest.raises(NonInvertibleTerm):
        alg.bar(stray, table)


def test_conversion_rejects_table_of_another_group_handle(a1):
    # KL data is read by Coxeter id, and ids are local to one group handle
    g, alg, table = a1
    other = KLTable(WeylGroup(g.desc), 2)
    with pytest.raises(ValueError, match="of this group"):
        alg.to_basis(alg.unit("Cprime"), "T", other)
    with pytest.raises(ValueError, match="of this group"):
        alg.to_basis(alg.unit("T"), "Cprime", other)


def h_oracle(alg, table, x, y, signed):
    """Structure constants read off from an explicit product of canonical
    basis elements, independent of the column recursion."""
    basis = "Csigned" if signed else "Cprime"
    prod = alg.multiply(
        alg.basis_element(x, basis), alg.basis_element(y, basis), table
    )
    return dict(alg.to_basis(prod, basis, table).terms)


@pytest.mark.parametrize("signed", [False, True])
def test_structure_constants_against_product_oracle_a1(a1, signed):
    g, alg, table = a1
    sc = StructureConstants(table)
    ball = g.enumerate_ball(4)
    for x in ball:
        for y in ball:
            assert sc.h_map(x, y, signed=signed) == h_oracle(alg, table, x, y, signed)


@pytest.mark.parametrize("signed", [False, True])
def test_structure_constants_against_product_oracle_a2(a2, signed):
    g, alg, table = a2
    sc = StructureConstants(table)
    ball = g.enumerate_ball(2)
    for x in ball:
        for y in ball:
            assert sc.h_map(x, y, signed=signed) == h_oracle(alg, table, x, y, signed)


def test_structure_constant_spot_values(a1):
    g, alg, table = a1
    sc = StructureConstants(table)
    s0 = g.generator(0)
    vp = V + VINV
    assert sc.h_map(s0, s0, signed=False) == {s0: vp}
    assert sc.h_map(s0, s0, signed=True) == {s0: -vp}


def test_signed_constants_are_star_of_unsigned(a2):
    g, alg, table = a2
    sc = StructureConstants(table)
    ball = g.enumerate_ball(3)
    for x in ball:
        for y in ball:
            unsigned = sc.h_map(x, y, signed=False)
            signed = sc.h_map(x, y, signed=True)
            assert signed == {z: c.star() for z, c in unsigned.items()}


def test_structure_constants_support_bound(a2):
    g, alg, table = a2
    sc = StructureConstants(table)
    ball = g.enumerate_ball(3)
    for x in ball:
        for y in ball:
            for z in sc.h_map(x, y):
                assert len(z.word) <= len(x.word) + len(y.word)
                assert abs(len(z.word) - len(x.word)) <= len(y.word)


def test_structure_constants_radius_guard(a2):
    g, alg, table = a2
    sc = StructureConstants(table)
    x = next(w for w in g.enumerate_ball(6) if len(w.word) == 6)
    y = next(w for w in g.enumerate_ball(4) if len(w.word) == 4)
    # the column sweep for y needs KL data out to len(x) + len(y) - 1 = 9
    with pytest.raises(RadiusExceeded):
        sc.h_map(x, y)


def test_extended_product_reduces_to_coxeter_part(a2x):
    g, alg, table = a2x
    sc = StructureConstants(table)
    x = g.element((0, 1), 1)
    y = g.element((2,), 2)
    perm = g.omega_perm(1)
    y_perm = g.element(tuple(perm[i] for i in y.word))
    plain = sc.h_map(g.element((0, 1)), y_perm)
    twisted = sc.h_map(x, y)
    assert twisted == {
        g.element(z.word, (x.omega + y.omega) % 3): c for z, c in plain.items()
    }


def test_h_map_permutes_y_only_for_omega_x(monkeypatch):
    desc = GroupDescriptor("A1~", extended=True)
    g = make_group(desc)
    alg = hecke_algebra(desc)
    table = KLTable(g, 6)
    sc = StructureConstants(table)
    ball = g.enumerate_ball(3)
    calls = []
    permuted_id = WeylGroup._permuted_id

    def counting(self, perm, i):
        calls.append(i)
        return permuted_id(self, perm, i)

    monkeypatch.setattr(WeylGroup, "_permuted_id", counting)
    for omega in (0, 1):
        for x in (w for w in ball if w.omega == omega):
            for y in ball:
                calls.clear()
                got = sc.h_map(x, y)
                assert len(calls) == omega, (x, y)
                assert got == h_oracle(alg, table, x, y, False), (x, y)


def test_extended_omega_multiplication(a2x):
    g, alg, table = a2x
    om = g.omega_element(1)
    s0 = g.generator(0)
    t_om = alg.basis_element(om, "Ttilde")
    t_s0 = alg.basis_element(s0, "Ttilde")
    perm = g.omega_perm(1)
    lhs = alg.multiply(t_om, t_s0)
    # omega parts sit on the right: omega s_0 = s_{perm(0)} omega
    assert lhs == alg.basis_element(g.element((perm[0],), 1), "Ttilde")
    # omega T_s omega^-1 = T_{perm(s)}
    om_inv = alg.basis_element(g.inverse(om), "Ttilde")
    conj = alg.multiply(t_om, alg.multiply(t_s0, om_inv))
    assert conj == alg.basis_element(g.generator(perm[0]), "Ttilde")


def test_kl_cache_round_trip(a1):
    g, alg, table = a1
    small = KLTable(g, 4)
    blob = json.dumps(small.to_json(), sort_keys=True)
    restored = KLTable.from_json(json.loads(blob))
    assert restored.radius == 4
    for w in g.enumerate_ball(4):
        for y in g.enumerate_ball(len(w.word)):
            assert restored.kl_polynomial(y, w) == small.kl_polynomial(y, w)


def test_kl_cache_rejects_tampered_entries(a1):
    g, alg, table = a1
    data = KLTable(g, 3).to_json()
    assert data["version"] == 1
    tampered = json.loads(json.dumps(data))
    target = next(e for e in tampered["entries"] if e["y"] != e["w"])
    target["P"] = [[0, "1"], [2, "7"]]
    with pytest.raises(ValueError):
        KLTable.from_json(tampered)
    with pytest.raises(ValueError):
        KLTable.from_json({"version": 2})


@pytest.mark.parametrize("affine_type, radius", [("A1~", 9), ("A2~", 6)])
def test_kl_entry_budget(monkeypatch, affine_type, radius):
    """The entry estimate sum_n |stratum n| * |ball(n)| equals the one from
    the enumerated ball, bounds the entries of the table, and is checked
    before any enumeration."""
    g = WeylGroup(GroupDescriptor(affine_type))
    lengths = [len(g._words[i]) for i in g._ball_ids(radius)]
    estimate = sum(lengths.count(n) * sum(m <= n for m in lengths) for n in range(radius + 1))
    monkeypatch.setattr(heckej.hecke, "KL_ENTRY_BUDGET", estimate)
    table = KLTable(g, radius)
    assert sum(len(col) for col in table._coords.values()) <= estimate

    def no_enumeration(self, r):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(WeylGroup, "_ball_ids", no_enumeration)
    with pytest.raises(BudgetExceeded):
        table.extend(radius + 1)
    assert table.radius == radius
    monkeypatch.setattr(heckej.hecke, "KL_ENTRY_BUDGET", estimate - 1)
    with pytest.raises(BudgetExceeded):
        KLTable(g, radius)


def test_packed_guard_refuses_wide_digits(monkeypatch):
    """With stored digits cut to one bit, the first KL polynomial with a
    coefficient 2 (A2~, length 7) and the first column with an h_{x,y,z}
    that has one (A1~, y = 01, len(x) = 2) are refused, not returned."""
    monkeypatch.setattr(heckej.hecke, "PACK_T", 1)
    table = KLTable(WeylGroup(GroupDescriptor("A2~")), 6)
    with pytest.raises(BudgetExceeded):
        table.extend(7)
    assert table.radius == 6
    g = WeylGroup(GroupDescriptor("A1~"))
    columns = StructureConstants(KLTable(g, 5))
    yid = g._id_of((0, 1))
    assert max(max(c.values()) for vec in columns.column(yid, 1).values() for c in vec.values()) == 1
    with pytest.raises(BudgetExceeded):
        columns.column(yid, 2)


def test_packed_guard_refuses_a_step_too_wide_for_its_digits(monkeypatch):
    """Two digits of 2^PACK_T summed may pass 2^(PACK_W-1), where a digit
    no longer reads back: the first KL step and the first column step are
    refused."""
    g = WeylGroup(GroupDescriptor("A1~"))
    columns = StructureConstants(KLTable(g, 3))
    monkeypatch.setattr(heckej.hecke, "PACK_T", laurent.PACK_W - 2)
    with pytest.raises(BudgetExceeded):
        KLTable(WeylGroup(GroupDescriptor("A1~")), 1)
    with pytest.raises(BudgetExceeded):
        columns.column(g._id_of((0,)), 1)


def test_packed_guard_refuses_negative_coefficients():
    """A mu one too large subtracts q^((len w - len z)/2) P_{z,z} past the
    degree of P_{z,w}: that digit goes negative, and positivity fails."""
    table = KLTable(WeylGroup(GroupDescriptor("A2~")), 4)
    for wid, mus in table._mu_down.items():
        table._mu_down[wid] = [(y, mu + 1) for y, mu in mus]
    with pytest.raises(HeckejError) as err:
        table.extend(5)
    assert err.type is HeckejError and "negative" in str(err.value)


def test_packed_guard_refuses_exponents_past_the_offset(monkeypatch):
    """A column started one digit above digit 0 (its unit at v^(1-PACK_OFF))
    reaches digit 0 at its first v^-1, where a second v^-1 would shift it
    out: that step is refused."""
    g = WeylGroup(GroupDescriptor("A1~"))
    columns = StructureConstants(KLTable(g, 3))
    monkeypatch.setattr(heckej.hecke, "_pack", lambda d: 1 << laurent.PACK_W)
    with pytest.raises(BudgetExceeded):
        columns.column(g._id_of((0,)), 1)
