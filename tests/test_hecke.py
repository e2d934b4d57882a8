"""Hecke algebra arithmetic, canonical bases, KL data, structure constants."""

import random

import pytest

import heckej.hecke
from heckej.hecke import BASES
from heckej import (
    BudgetExceeded,
    GroupDescriptor,
    GroupElement,
    GroupMismatch,
    HeckeElement,
    HeckejError,
    KLTable,
    Laurent,
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
def a1x():
    desc = GroupDescriptor("A1~", extended=True)
    g = make_group(desc)
    return g, hecke_algebra(desc), KLTable(g, 8)


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
        h = HeckeElement(g.desc, "Ttilde", terms)
        assert alg.bar(alg.bar(h, table), table) == h


@pytest.fixture()
def c_basis_element(c_oracle):
    def build(alg, table, w, signed):
        """C_w (signed, from the oracle) or C'_w (from the library's
        conversion) expanded in the ~T basis."""
        if signed:
            return c_oracle(table, w)
        return alg.to_basis(alg.basis_element(w, "Cprime"), "Ttilde", table)

    return build


@pytest.mark.parametrize("signed", [False, True])
def test_canonical_basis_is_bar_invariant_a1(a1, signed, c_basis_element):
    g, alg, table = a1
    for w in g.enumerate_ball(10):
        c = c_basis_element(alg, table, w, signed)
        assert alg.bar(c, table) == c


@pytest.mark.parametrize("signed", [False, True])
def test_canonical_basis_is_bar_invariant_a2(a2, signed, c_basis_element):
    g, alg, table = a2
    for w in g.enumerate_ball(6):
        c = c_basis_element(alg, table, w, signed)
        assert alg.bar(c, table) == c


@pytest.mark.parametrize("fixture", ["a1x", "a2x"])
def test_bar_on_the_extended_groups(fixture, request, c_basis_element):
    """bar, whose recursion ends in an Omega part, is a multiplicative
    involution fixing C'_w on the Omega-extended groups too."""
    g, alg, table = request.getfixturevalue(fixture)
    rng = random.Random(11)
    ball = g.enumerate_ball(3)

    def sample():
        terms = {w: Laurent({rng.randint(-2, 2): rng.randint(-3, 3)}) for w in rng.sample(ball, 3)}
        return HeckeElement(g.desc, "Ttilde", terms)

    for _ in range(10):
        h1, h2 = sample(), sample()
        bar1, bar2 = alg.bar(h1, table), alg.bar(h2, table)
        assert alg.bar(alg.multiply(h1, h2), table) == alg.multiply(bar1, bar2)
        assert alg.bar(bar1, table) == h1
    for w in g.enumerate_ball(6):
        c = c_basis_element(alg, table, w, False)
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
            assert p.min_exp() >= 0 and all(e % 2 == 0 for e, _ in p.items())


def test_kl_degree_bound(a2):
    g, alg, table = a2
    for w in g.enumerate_ball(8):
        for y in g.enumerate_ball(len(w.word)):
            p = table.kl_polynomial(y, w)
            if not p or y == w:
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


def test_signed_and_unsigned_c_bases(a1, c_basis_element):
    g, alg, table = a1
    s0 = g.generator(0)
    cp = c_basis_element(alg, table, s0, False)
    cs = c_basis_element(alg, table, s0, True)
    e = g.identity
    assert cp.terms[s0] == ONE and cp.terms[e] == VINV
    assert cs.terms[s0] == ONE and cs.terms[e] == -V


@pytest.mark.parametrize("basis", ["T", "Ttilde", "Cprime"])
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
            h = HeckeElement(g.desc, "Ttilde", terms)
            there = alg.to_basis(h, basis, table)
            back = alg.to_basis(there, "Ttilde", table)
            assert back == h


def test_conversion_refusals(a2):
    g, alg, table = a2
    x = next(w for w in g.enumerate_ball(8) if len(w.word) == 8)
    s = next(t for t in g.generators() if len(g.multiply(x, t).word) == 9)
    longer = g.multiply(x, s)
    # a canonical-basis term longer than the table radius, either way
    with pytest.raises(RadiusExceeded):
        alg.to_basis(alg.basis_element(longer, "Cprime"), "Ttilde", table)
    with pytest.raises(RadiusExceeded):
        alg.to_basis(alg.basis_element(longer, "Ttilde"), "Cprime", table)
    with pytest.raises(RadiusExceeded):
        alg.multiply(alg.basis_element(longer, "Cprime"), alg.unit("Cprime"), table)
    with pytest.raises(RadiusExceeded):
        alg.multiply(alg.basis_element(x, "Cprime"), alg.basis_element(s, "Cprime"), table)
    with pytest.raises(ValueError, match="needs a KL table"):
        alg.to_basis(alg.unit("Cprime"), "Ttilde")
    with pytest.raises(ValueError, match="needs a KL table"):
        alg.to_basis(alg.unit("T"), "Cprime")
    with pytest.raises(ValueError, match="needs a KL table"):
        alg.multiply(alg.unit("Cprime"), alg.unit("Cprime"))
    # an omega part that the unextended group does not have
    stray = HeckeElement(g.desc, "Ttilde", {GroupElement(g.desc, (), 1): ONE})
    with pytest.raises(ValueError, match="no omega element 1"):
        alg.bar(stray, table)


def test_unknown_basis_and_another_algebras_elements(a1, a2):
    g, alg, table = a1
    # C_w is no basis of the library: the CLI reads it as star of C'
    for name in ("C", "Csigned"):
        with pytest.raises(ValueError, match=f"unknown basis '{name}'"):
            alg.basis_element(g.identity, name)
    other = a2[1]
    for h1, h2 in ((other.unit(), alg.unit()), (alg.unit(), other.unit())):
        with pytest.raises(GroupMismatch):
            alg.multiply(h1, h2, table)


def test_conversion_rejects_table_of_another_group_handle(a1):
    # KL data is read by Coxeter id, and ids are local to one group handle
    g, alg, table = a1
    other = KLTable(WeylGroup(g.desc), 2)
    with pytest.raises(ValueError, match="of this group"):
        alg.to_basis(alg.unit("Cprime"), "T", other)
    with pytest.raises(ValueError, match="of this group"):
        alg.to_basis(alg.unit("T"), "Cprime", other)


def h_oracle(alg, table, x, y):
    """Structure constants read off from an explicit product of canonical
    basis elements, independent of the column recursion."""
    prod = alg.multiply(
        alg.basis_element(x, "Cprime"), alg.basis_element(y, "Cprime"), table
    )
    return dict(alg.to_basis(prod, "Cprime", table).terms)


def check_pairs_against_product_oracle(alg, table, pairs, signed, c_oracle):
    """h_map against the product oracle.  With signed, the constants of the
    basis C_w are star(h), the rule the CLI applies for --basis signed:
    C_x C_y, multiplied in ~T from the KL-polynomial oracle's C_w, must be
    sum_z star(h_{x,y,z}) C_z."""
    sc = StructureConstants(table)
    for x, y in pairs:
        h = sc.h_map(x, y)
        if not signed:
            assert h == h_oracle(alg, table, x, y), (x, y)
            continue
        expect = HeckeElement(alg.desc, "Ttilde", {})
        for z, c in h.items():
            expect = expect + c_oracle(table, z).scale(c.star())
        assert alg.multiply(c_oracle(table, x), c_oracle(table, y)) == expect, (x, y)


def check_against_product_oracle(groups, radius, signed, c_oracle):
    # on the extended groups the oracle's products run through ~T pieces
    # keyed by (cox_id, omega) with omega != 0
    for g, alg, table in groups:
        ball = g.enumerate_ball(radius)
        check_pairs_against_product_oracle(alg, table, [(x, y) for x in ball for y in ball], signed, c_oracle)


@pytest.mark.parametrize("signed", [False, True])
def test_structure_constants_against_product_oracle_a1(a1, a1x, signed, c_oracle):
    check_against_product_oracle([a1, a1x], 4, signed, c_oracle)


@pytest.mark.parametrize("signed", [False, True])
def test_structure_constants_against_product_oracle_a2(a2, a2x, signed, c_oracle):
    check_against_product_oracle([a2, a2x], 2, signed, c_oracle)


@pytest.mark.parametrize("signed", [False, True])
def test_structure_constants_against_product_oracle_multi_term(a2, signed, c_oracle):
    """On A2~ ball(2) every KL coefficient has one term.  C'_x for
    x = 1201021 has P_{121,x} = 1 + q, so the oracle's products add
    coefficients of two terms, one term at a time."""
    g, alg, _ = a2
    table = KLTable(g, 9)
    x = g.element((1, 2, 0, 1, 0, 2, 1))
    assert table.kl_polynomial(g.element((1, 2, 1)), x) == ONE + Q
    check_pairs_against_product_oracle(alg, table, [(x, y) for y in g.enumerate_ball(2)], signed, c_oracle)


def test_structure_constant_spot_values(a1):
    g, alg, table = a1
    sc = StructureConstants(table)
    s0 = g.generator(0)
    vp = V + VINV
    assert sc.h_map(s0, s0) == {s0: vp}


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


def test_column_grows_each_row_once(a2, monkeypatch):
    """A longer x adds to a stored column only the rows of its new strata,
    each computed once, and a shorter x computes none; the grown column
    equals one built at the longer radius from the start."""
    g, alg, table = a2
    yid = g._id_of((0, 1))
    sc = StructureConstants(table)
    before = set(sc.column(yid, 2))
    rows = []
    s_mult = StructureConstants._s_mult

    def counting(self, s, vec):
        rows.append(s)
        return s_mult(self, s, vec)

    monkeypatch.setattr(StructureConstants, "_s_mult", counting)
    grown = sc.column(yid, 5)
    new = set(grown) - before
    assert new == {i for i in g._ball_ids(5) if len(g._words[i]) >= 3}
    assert len(rows) == len(new)
    rows.clear()
    assert sc.column(yid, 3) is grown
    assert rows == []
    monkeypatch.undo()
    assert grown == StructureConstants(table).column(yid, 5)


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
                assert got == h_oracle(alg, table, x, y), (x, y)


def test_extended_omega_multiplication(a2x):
    g, alg, table = a2x
    om = g.element((), 1)
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
    assert max(max(laurent._unpack(c).values()) for vec in columns.column(yid, 1).values() for c in vec.values()) == 1
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


# -- an oracle for the Hecke product: T-basis words on plain dicts ----------
#
# Vectors are {GroupElement: {exponent: int}} in the T basis; nothing here
# calls the library's Hecke-algebra code, only the group and the KL data.


def _add(out, w, c, shift=0, k=1):
    """out[w] += k v^shift c."""
    d = out.setdefault(w, {})
    for e, x in c.items():
        d[e + shift] = d.get(e + shift, 0) + k * x


def _clean(vec):
    vec = {w: {e: x for e, x in c.items() if x} for w, c in vec.items()}
    return {w: c for w, c in vec.items() if c}


def _lmul_t(g, s, vec, inverse=False):
    """T_s vec, T_s T_w being T_{sw} if sw > w and (q - 1) T_w + q T_{sw}
    if sw < w; or T_s^-1 vec, with T_s^-1 = q^-1 T_s + q^-1 - 1."""
    out = {}
    shift = -2 if inverse else 0
    for w, c in vec.items():
        sw = g.multiply(g.generator(s), w)
        if len(sw.word) > len(w.word):
            _add(out, sw, c, shift)
        else:
            _add(out, w, c, 2 + shift)
            _add(out, w, c, shift, -1)
            _add(out, sw, c, 2 + shift)
        if inverse:
            _add(out, w, c, -2)
            _add(out, w, c, 0, -1)
    return out


def _t_product(g, vec1, vec2):
    """T_x T_y = T_{s1} (... T_{sk} (T_omega T_y)) for x = s1...sk omega,
    and T_omega T_y = T_{omega y}."""
    out = {}
    for x, c in vec1.items():
        vec = {g.multiply(GroupElement(g.desc, (), x.omega), y): d for y, d in vec2.items()}
        for s in reversed(x.word):
            vec = _lmul_t(g, s, vec)
        for w, d in vec.items():
            for e, k in c.items():
                _add(out, w, d, e, k)
    return _clean(out)


def _t_bar(g, vec):
    """bar(T_x) = T_{s1}^-1 ... T_{sk}^-1 T_omega for x = s1...sk omega."""
    out = {}
    for x, c in vec.items():
        image = {GroupElement(g.desc, (), x.omega): {0: 1}}
        for s in reversed(x.word):
            image = _lmul_t(g, s, image, inverse=True)
        for w, d in image.items():
            for e, k in c.items():
                _add(out, w, d, -e, k)
    return _clean(out)


def _in_t(g, table, h):
    """h in the T basis: ~T_w = v^-len(w) T_w, and C'_{w omega} =
    sum_y v^-len(w) P_{y,w}(v^2) T_{y omega} with P read from the table."""
    out = {}
    for w, c in h.terms.items():
        n = len(w.word)
        if h.basis != "Cprime":
            _add(out, w, c._c, 0 if h.basis == "T" else -n)
            continue
        for y in g.enumerate_ball(n):
            if y.omega == 0:
                for e, k in table.kl_polynomial(y, GroupElement(g.desc, w.word, 0)).items():
                    _add(out, GroupElement(g.desc, y.word, w.omega), c._c, e - n, k)
    return _clean(out)


def _random_element(rng, g, basis, ball):
    """Three terms with coefficients up to 10^30 at exponents in [-60, 60]."""
    terms = {}
    for w in rng.sample(ball, 3):
        terms[w] = Laurent({rng.randint(-60, 60): rng.randint(-10**30, 10**30) for _ in range(rng.randint(1, 3))})
    return HeckeElement(g.desc, basis, terms)


@pytest.mark.parametrize("fixture", ["a1", "a1x", "a2", "a2x"])
def test_packed_kernel_against_the_t_basis_oracle(fixture, request):
    g, alg, table = request.getfixturevalue(fixture)
    rng = random.Random(26)
    ball = g.enumerate_ball(3)
    for basis in ("T", "Ttilde", "Cprime"):
        for _ in range(8):
            h1 = _random_element(rng, g, basis, ball)
            h2 = _random_element(rng, g, rng.choice(BASES), ball)
            t1, t2 = _in_t(g, table, h1), _in_t(g, table, h2)
            prod = alg.multiply(h1, h2, table)
            assert prod.basis == basis
            assert _in_t(g, table, prod) == _t_product(g, t1, t2)
            assert _in_t(g, table, alg.bar(h1, table)) == _t_bar(g, t1)
            for target in BASES:
                assert _in_t(g, table, alg.to_basis(h1, target, table)) == t1


def test_power_of_a_generator_passes_the_kl_digit(a1):
    """(C'_s)^25 = (v + v^-1)^24 C'_s, whose central coefficient 2,704,156
    passes 2^19, half the digit of the KL build."""
    g, alg, table = a1
    s = g.generator(0)
    cs = alg.basis_element(s, "Cprime")
    power, oracle = cs, _in_t(g, table, cs)
    for _ in range(24):
        power = alg.multiply(power, cs, table)
        oracle = _t_product(g, oracle, _in_t(g, table, cs))
    assert power == cs.scale((V + VINV) ** 24)
    assert power.terms[s].coeff(0) == 2704156 > 1 << 19
    assert _in_t(g, table, power) == oracle


@pytest.mark.parametrize("fixture", ["a1x", "a2"])
def test_coefficients_at_the_width_limit(fixture, request):
    """c b times the unit has the bound |c|_1 n(b) = |c| for b = T_omega,
    ~T_omega or C'_omega, so c = +-(2^k - 1) fills its digit of k + 1 bits
    to the last value either way, and +-2^k, +-(2^k + 1) are the first past
    it, read with one bit more."""
    g, alg, table = request.getfixturevalue(fixture)
    w = max(g.enumerate_ball(0), key=lambda x: x.omega)
    for k in range(1, 70):
        e = 60 if k & 1 else -60
        for c in (2**k - 1, 2**k, 2**k + 1, -(2**k - 1), -(2**k), -(2**k + 1)):
            for basis in BASES:
                h = HeckeElement(g.desc, basis, {w: Laurent({e: c})})
                unit = alg.unit(basis)
                t, t_unit = _in_t(g, table, h), _in_t(g, table, unit)
                assert _in_t(g, table, alg.multiply(h, unit, table)) == _t_product(g, t, t_unit), (k, c, basis)
                assert _in_t(g, table, alg.multiply(unit, h, table)) == _t_product(g, t_unit, t), (k, c, basis)
                assert _in_t(g, table, alg.bar(h, table)) == _t_bar(g, t), (k, c, basis)
