"""a-function, gamma constants, J multiplication, distinguished
involutions, and the map phi into J tensor A."""

import random
import sys
from fractions import Fraction

import pytest

from heckej import (
    GroupDescriptor,
    GroupMismatch,
    HeckeElement,
    HeckejError,
    JRing,
    KLTable,
    Laurent,
    NotInAPlus,
    RadiusExceeded,
    StructureConstants,
    V,
    VINV,
    WeylGroup,
    certification_bound,
    hecke_algebra,
    make_group,
    phi_reach,
)
from heckej.asymptotic import _quadratic_rank
from heckej.laurent import _accumulate, _pack, _unpack


def test_certification_bound_values(a1_desc, a2_desc):
    assert certification_bound(a1_desc, 0) == 4
    assert certification_bound(a1_desc, 5) == 9
    assert certification_bound(a2_desc, 3) == 11


def test_a_function_a1(a1_ring):
    g = a1_ring.group
    for z in g.enumerate_ball(8):
        av = a1_ring.a_function(z)
        assert av.certified
        assert av.value == (0 if z.is_identity() else 1)


def test_a_function_a2_strata(a2_ring):
    g = a2_ring.group
    values = {}
    for z in g.enumerate_ball(6):
        av = a2_ring.a_function(z)
        assert av.certified
        values[z] = av.value
    assert set(values.values()) == {0, 1, 3}
    assert values[g.identity] == 0
    for s in g.generators():
        assert values[s] == 1
    assert values[g.element((0, 1, 0))] == 3
    assert values[g.element((0, 1, 2, 1, 0))] == 3
    # a is constant on inverse pairs
    for z, a in values.items():
        assert values[g.inverse(z)] == a


def test_a_function_against_direct_minimum(a1_ring):
    """Recompute the scan minimum from explicit canonical-basis products."""
    g = a1_ring.group
    alg = a1_ring.algebra
    table = a1_ring.table
    scan = 6
    ball = [w for w in g.enumerate_ball(scan)]
    mins = {}
    for x in ball:
        for y in ball:
            prod = alg.multiply(
                alg.basis_element(x, "Cprime"), alg.basis_element(y, "Cprime"), table
            )
            for z, c in alg.to_basis(prod, "Cprime", table).terms.items():
                if c:
                    mins[z] = min(mins.get(z, 0), c.min_exp())
    for z in g.enumerate_ball(2):
        # bound for len(z) <= 2 is 2 + 2 + 2 = 6, so scan 6 is certified
        assert a1_ring.a_function(z).value == -mins[z]


def test_a_monotone_in_scan_radius(a2_ring, scan_a_values):
    """The reference scan of a(010) rises to the proved value 3."""
    z = a2_ring.group.element((0, 1, 0))
    vals = scan_a_values(a2_ring.desc, a2_ring.radius)[a2_ring.group._id_of(z.word)][3:12]
    assert vals == sorted(vals)
    assert vals[-1] == 3 == a2_ring.a_function(z).value


def test_a_function_past_scan_radius_is_radius_exceeded(a1_desc):
    ring = JRing(a1_desc, 0)
    z = ring.group.element((0, 1, 0, 1, 0))
    assert len(z) > certification_bound(a1_desc, ring.radius) == 4
    with pytest.raises(RadiusExceeded):
        ring.a_function(z)


def test_default_a_function_is_proved_or_refused(a1_desc):
    """a(z) is a proof, refused past the working radius L."""
    ring = JRing(a1_desc, 2)
    z = ring.group.element((0, 1, 0, 1))
    with pytest.raises(RadiusExceeded, match="len\\(z\\) = 4 beyond certified radius 2"):
        ring.a_function(z)
    av = ring.a_function(ring.group.element((0, 1)))
    assert (av.value, av.scan_radius, av.certified, av.certificate) == (1, 6, True, "unique-word")


@pytest.mark.parametrize(
    "affine_type, extended, radius",
    [("A1~", False, 6), ("A1~", True, 6), ("A2~", False, 2), ("A2~", True, 1)],
)
def test_a_function_every_scan_radius_against_unreduced_minimum(affine_type, extended, radius, scan_a_values):
    """The reference scan at every scan radius r <= S against the minimum
    over all pairs (x, y) of ball(r), one column per y, with no orbits and
    no strata; at S it agrees with every proved a(z) of ball(L)."""
    desc = GroupDescriptor(affine_type, extended)
    bound = certification_bound(desc, radius)
    scanned = scan_a_values(desc, radius)
    g = make_group(desc)
    columns = StructureConstants(KLTable(g, 2 * bound - 1))
    for r in range(bound, -1, -1):
        ids = {g._id_of(w.word) for w in g.enumerate_ball(r)}
        mins = {}
        for yid in ids:
            for xid, vec in columns.column(yid, r).items():
                if xid in ids:
                    for z, c in vec.items():
                        mins[z] = min(mins.get(z, 0), min(_unpack(c)))
        for z in g.enumerate_ball(r):
            assert scanned[g._id_of(z.word)][r] == -mins[g._id_of(z.word)], (z, r)
    ring = JRing(desc, radius)
    for z in g.enumerate_ball(radius):
        assert ring.a_function(z).value == scanned[g._id_of(z.word)][bound], z


def test_gamma_spot_values(a1_ring):
    g = a1_ring.group
    s0, s1 = g.generator(0), g.generator(1)
    t = a1_ring.t
    assert a1_ring.gamma(s0, s0, s0) == 1
    assert a1_ring.j_multiply(t(s0), t(s0), signed=True).terms == {s0: -1}
    assert a1_ring.gamma_map(s0, s1) == {}
    assert a1_ring.j_multiply(t(s0), t(s1), signed=True).terms == {}


def test_gamma_sign_transport(a2_ring):
    """The signed t_x t_y = tau(tau(t_x) tau(t_y)) carries the sign
    (-1)^(len x + len y + len z) on each gamma."""
    g = a2_ring.group
    ball = g.enumerate_ball(2)
    for x in ball:
        for y in ball:
            unsigned = a2_ring.gamma_map(x, y)
            signed = a2_ring.j_multiply(a2_ring.t(x), a2_ring.t(y), signed=True).terms
            expect = {
                z: c * (-1) ** (len(x.word) + len(y.word) + len(z.word))
                for z, c in unsigned.items()
            }
            assert signed == expect


@pytest.mark.parametrize("ring_name, radius", [("a2_ring", 5), ("a1x_ring", 4)])
def test_packed_read_off_matches_the_laurent_read_off(ring_name, radius, request):
    """Each gamma, one digit of a packed row, against the constant term of
    v^a(z) h_{x,y,z} on the decoded h_map, zeros included; on the extended
    A1~ the pairs include x with an omega part."""
    ring = request.getfixturevalue(ring_name)
    ball = ring.group.enumerate_ball(radius)
    assert any(x.omega for x in ball) == ring.desc.extended
    for x in ball:
        for y in ball:
            expect = {}
            for z, h in ring.constants.h_map(x, y).items():
                if len(z) <= ring.radius:
                    a = ring.a_function(z).value
                    assert h.min_exp() >= -a, (x, y, z)
                    g = h.coeff(-a)
                    if g:
                        expect[z] = g
            assert ring.gamma_map(x, y) == expect, (x, y)


def test_packed_read_off_below_v_to_the_minus_a_is_refused(a1_desc, monkeypatch):
    """A row digit below v^-a(z) is not in A+ after the shift: NotInAPlus,
    not a silently dropped digit, and not memoized."""
    ring = JRing(a1_desc, 4)
    s0 = ring.group.generator(0)
    assert ring.a_function(s0).value == 1
    row = StructureConstants._row

    def low(self, x, y):
        got, omega = row(self, x, y)
        return {z: c + _pack({-2: 1}) for z, c in got.items()}, omega

    monkeypatch.setattr(StructureConstants, "_row", low)
    for _ in range(2):
        with pytest.raises(NotInAPlus, match="negative-exponent"):
            ring.gamma_map(s0, s0)
    monkeypatch.undo()
    assert ring.gamma_map(s0, s0) == {s0: 1}


def test_j_multiplication_example(a1_ring):
    g = a1_ring.group
    t = a1_ring.t
    prod = a1_ring.j_multiply(t(g.element((0, 1))), t(g.element((1, 0))))
    assert prod.terms == {g.element((0, 1, 0)): 1, g.generator(0): 1}


def test_j_product_drops_cancelled_terms(a1_ring):
    # t_0 t_01 = t_01 and t_010 t_01 = t_01 + t_0101, so the t_01 terms cancel
    g = a1_ring.group
    a = a1_ring.j_element({g.generator(0): 1, g.element((0, 1, 0)): -1})
    prod = a1_ring.j_multiply(a, a1_ring.t(g.element((0, 1))))
    assert prod.terms == {g.element((0, 1, 0, 1)): -1}
    assert 0 not in prod.terms.values()


def test_negative_radius_refused(a1_desc):
    with pytest.raises(ValueError, match="radius must be >= 0"):
        JRing(a1_desc, -1)


@pytest.mark.parametrize("ring_name", ["a1_ring", "a2_ring", "a1x_ring", "a2x_ring"])
def test_j_unit_element(ring_name, request):
    # the sum of t_d over distinguished involutions is the unit of J, on
    # every t_w that a product with it may reach within the radius
    ring = request.getfixturevalue(ring_name)
    unit = ring.j_element({d: 1 for d in ring.distinguished_involutions()})
    for w in ring.group.enumerate_ball(ring.radius - unit.max_length()):
        assert ring.j_multiply(unit, ring.t(w)) == ring.t(w)
        assert ring.j_multiply(ring.t(w), unit) == ring.t(w)


def test_memoized_read_offs_are_copies(a1_ring, monkeypatch):
    g = a1_ring.group
    x, y = g.element((0, 1)), g.element((1, 0))
    s0 = g.generator(0)
    calls = []
    row = StructureConstants._row

    def counting(self, *args, **kwargs):
        calls.append(args)
        return row(self, *args, **kwargs)

    # every row read, gamma's and phi's through h_map, goes through _row
    monkeypatch.setattr(StructureConstants, "_row", counting)
    gm = a1_ring.gamma_map(x, y)
    expect = dict(gm)
    gm[s0] = 99
    gm.clear()
    assert a1_ring.gamma_map(x, y) == expect
    img = a1_ring.phi(s0)
    expect_phi = dict(img.terms)
    img.terms[s0] = Laurent({5: 1})
    img.terms.pop(g.element((0, 1)))
    assert a1_ring.phi(s0).terms == expect_phi
    # the second gamma_map and phi calls were read from the memos
    calls.clear()
    a1_ring.gamma_map(x, y)
    a1_ring.j_multiply(a1_ring.t(x), a1_ring.t(y))
    a1_ring.phi(s0)
    assert calls == []
    # the distinguished involutions too, also on a ring that has not read phi yet
    fresh = JRing(a1_ring.desc, 4)
    dinv = fresh.distinguished_involutions()
    expect_dinv = list(dinv)
    dinv.clear()
    assert fresh.distinguished_involutions() == expect_dinv
    assert fresh.phi(fresh.group.generator(0)).terms == {
        fresh.group.generator(0): V + VINV,
        fresh.group.element((0, 1)): Laurent({0: 1}),
    }


def test_memo_hits_hash_no_descriptor(a1_desc, a2_desc):
    ring = JRing(GroupDescriptor("A1~", extended=True), 4)
    g = ring.group
    x, y = g.element((0,), 1), g.element((1, 0))
    ring.gamma_map(x, y)
    for signed in (False, True):
        ring.j_multiply(ring.t(x), ring.t(y), signed)
    # memo hits hash and compare their element keys in C: the profiler
    # sees no Python-level __hash__ or __eq__ call
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("__hash__", "__eq__"):
            called.append(frame.f_code)

    sys.setprofile(profile)
    try:
        for _ in range(2):
            ring.gamma_map(x, y)
            for signed in (False, True):
                ring.j_multiply(ring.t(x), ring.t(y), signed)
    finally:
        sys.setprofile(None)
    assert called == []
    # equal words in different groups stay different elements
    a1_s0 = JRing(a1_desc, 0).group.generator(0)
    a2_s0 = JRing(a2_desc, 0).group.generator(0)
    assert a1_s0.word == a2_s0.word and a1_s0 != a2_s0
    assert len({a1_s0, a2_s0}) == 2


def test_failed_read_offs_are_not_memoized(a1_desc, monkeypatch):
    ring = JRing(a1_desc, 2)
    s0 = ring.group.generator(0)
    # (e, z) gives h = 1, of valuation 0, a wrong witness for every z != e
    monkeypatch.setattr(WeylGroup, "parabolic_factor", lambda self, z, n: (self.identity, z))
    for _ in range(2):
        with pytest.raises(HeckejError, match="witness"):
            ring.gamma(s0, s0, s0)
        with pytest.raises(HeckejError, match="witness"):
            ring.gamma_map(s0, s0)
        with pytest.raises(HeckejError, match="witness"):
            ring.phi(ring.group.identity)
    monkeypatch.undo()
    assert ring.gamma(s0, s0, s0) == 1
    assert ring.gamma_map(s0, s0) == {s0: 1}


def test_refusals_run_before_the_memos(a1_desc, a2_desc):
    ring = JRing(a1_desc, 2)
    g = ring.group
    tx, ty = ring.t(g.element((0, 1))), ring.t(g.element((1, 0)))
    # jta_multiply truncates instead of refusing, so it memoizes the gammas
    # of (01, 10) that j_multiply must still refuse to use
    ring.jta_multiply(tx, ty)
    for _ in range(2):
        with pytest.raises(RadiusExceeded):
            ring.j_multiply(tx, ty)
    # phi(e) memoizes the a-values of every d; phi(s0) still passes
    # len(x) + 2 len(w0) - 1
    small = JRing(a2_desc, 5)
    small.phi(small.group.identity)
    s0 = small.group.generator(0)
    for _ in range(2):
        with pytest.raises(RadiusExceeded):
            small.phi(s0)


def _whole_factor_refusal(ring, a, b, tensor_a):
    """The refusal of a product as a rule on the whole factors, taken up
    front: in J when the longest terms' lengths add past the radius, in J
    tensor A when either factor has a term past it.  The message, or None."""

    def longest(e):
        return max((len(w.word) for w in e.terms), default=0)

    if tensor_a:
        n, what = max(longest(a), longest(b)), "factor length"
    else:
        n, what = longest(a) + longest(b), "product support length"
    return f"{what} = {n} beyond certified radius {ring.radius}" if n > ring.radius else None


@pytest.mark.parametrize("affine_type, extended, radius", [("A1~", False, 6), ("A1~", True, 6), ("A2~", False, 5)])
def test_products_refuse_as_the_whole_factor_rule(affine_type, extended, radius):
    """j_multiply and jta_multiply refuse term by term, and skip the pairs
    whose cell keys differ; on random multi-term factors near the radius
    they raise exactly when the whole-factor rule does, with its message,
    and otherwise equal the sum of their one-term products."""
    ring = JRing(GroupDescriptor(affine_type, extended), radius)
    g = ring.group
    near = g.enumerate_ball(radius + 2)
    rng = random.Random(f"refusals:{affine_type}:{extended}")

    def element(tensor_a):
        terms = {}
        for w in rng.sample(near, rng.choice((0, 1, 2, 3, 5))):
            c = rng.choice((-2, -1, 1, 3))
            terms[w] = Laurent({rng.randrange(-2, 3): c}) if tensor_a else c
        return ring.j_element(terms)

    s0, s1 = g.generators()[:2]
    mutated = ring.j_multiply(ring.t(s0), ring.t(s0))
    mutated.terms[g.element((1, 0) * (radius // 2))] = -1
    fixed = [ring.j_element({}), mutated, ring.t(s1), ring.t(g.element((0, 1) * radius))]
    if affine_type == "A1~":
        # t_0 t_01 = t_01 and t_010 t_01 = t_01 + t_0101: in either
        # convention the t_01 terms cancel
        cancelled = ring.j_multiply(
            ring.j_element({s0: 1, g.element((0, 1, 0)): -1}), ring.t(g.element((0, 1))), signed=True
        )
        assert list(cancelled.terms) == [g.element((0, 1, 0, 1))]
        fixed.append(cancelled)
    cases = [(a, b) for a in fixed for b in fixed]
    if affine_type == "A2~":
        # of these factors only t_0102 t_01 is past the radius, a pair
        # across two-sided cells that the skip never visits
        x, y = g.element((0, 1, 0, 2)), g.element((0, 1))
        assert len(x) + len(y) == radius + 1 and ring.a_function(x).value != ring.a_function(y).value
        cases.append((ring.j_element({x: 1, s0: 1}), ring.j_element({y: 1, s1: 1})))
    cases += [(element(False), element(False)) for _ in range(150)]
    cases += [(rng.choice(fixed), element(False)) for _ in range(30)]
    cases += [(element(False), rng.choice(fixed)) for _ in range(30)]
    outcomes = set()
    for a, b in cases:
        signed = rng.random() < 0.5
        for tensor_a in (False, True):
            if tensor_a:
                a, b = (ring.j_element({w: Laurent({0: c}) for w, c in e.terms.items()}) for e in (a, b))
            expect = _whole_factor_refusal(ring, a, b, tensor_a)
            try:
                got = ring.jta_multiply(a, b) if tensor_a else ring.j_multiply(a, b, signed)
            except RadiusExceeded as err:
                assert str(err) == expect, (a, b, tensor_a)
                outcomes.add((tensor_a, "refused"))
                continue
            assert expect is None, (a, b, tensor_a)
            total: dict = {}
            for x, c1 in a.terms.items():
                for y, c2 in b.terms.items():
                    if tensor_a:
                        one = ring.jta_multiply(ring.j_element({x: c1}), ring.j_element({y: c2}))
                    else:
                        one = ring.j_multiply(ring.j_element({x: c1}), ring.j_element({y: c2}), signed)
                    for z, c in one.terms.items():
                        _accumulate(total, z, c)
            assert got.terms == total, (a, b, tensor_a)
            outcomes.add((tensor_a, "product"))
    # both outcomes occur, in J and in J tensor A
    assert len(outcomes) == 4


@pytest.mark.parametrize("ring_name", ["a1_ring", "a2_ring", "a1x_ring", "a2x_ring"])
def test_pairs_across_two_sided_cells_have_no_gamma(ring_name, request):
    """The premise of the cell skip, read off without it: gamma_{x,y,z} != 0
    needs x ~_L y^-1 (P8 of Lusztig, Cells in affine Weyl groups II, 1987),
    so a(x) = a(y), a being constant on two-sided cells, and R(x) = L(y),
    the right descent set being constant on left cells (Kazhdan and
    Lusztig, 1979, Prop. 2.4).  Every pair with (a(x), R(x)) != (a(y), L(y))
    has no nonzero gamma; both kinds of such pair occur."""
    ring = request.getfixturevalue(ring_name)
    g = ring.group
    ball = g.enumerate_ball(ring.radius)
    a = {w: ring.a_function(w).value for w in ball}
    left = {w: (a[w], g.left_descents(w)) for w in ball}
    right = {w: (a[w], g.right_descents(w)) for w in ball}
    skipped = {"a": 0, "descents": 0}
    for x in ball:
        for y in ball:
            if right[x] != left[y] and len(x.word) + len(y.word) <= ring.radius:
                skipped["a" if a[x] != a[y] else "descents"] += 1
                assert ring._gamma_terms(x, y) == (), (x, y)
    assert all(skipped.values()), skipped


def test_j_multiply_refuses_past_radius(a1_desc):
    small = JRing(a1_desc, 2)
    g = small.group
    t = small.t
    with pytest.raises(RadiusExceeded):
        small.j_multiply(t(g.element((0, 1))), t(g.element((1, 0))))


def test_certified_radius_refusals(a1_desc, a2_desc):
    ring = JRing(a1_desc, 2)
    g = ring.group
    s0 = g.generator(0)
    with pytest.raises(RadiusExceeded):
        ring.gamma(s0, s0, g.element((0, 1, 0)))
    with pytest.raises(RadiusExceeded):
        ring.gamma_map(g.element((0, 1)), g.generator(1))
    with pytest.raises(RadiusExceeded):
        ring.distinguished_involutions(ring.radius + 1)
    other = JRing(a2_desc, 0)
    with pytest.raises(GroupMismatch):
        ring.j_multiply(ring.t(s0), other.t(other.group.identity))


def test_jta_multiply_drops_terms_past_radius(a1_desc):
    # t_01 t_10 = t_010 + t_0 in J (test_j_multiplication_example); at radius
    # 2, j_multiply refuses it and jta_multiply keeps only t_0
    ring = JRing(a1_desc, 2)
    g = ring.group
    one = Laurent({0: 1})
    tx = ring.j_element({g.element((0, 1)): one})
    ty = ring.j_element({g.element((1, 0)): one})
    with pytest.raises(RadiusExceeded):
        ring.j_multiply(tx, ty)
    assert ring.jta_multiply(tx, ty).terms == {g.generator(0): one}


def test_jta_multiply_refuses_a_factor_past_radius(a1_desc):
    """A factor with a term past L is refused, in either place; phi images
    lie within L and keep the KL table within radius 2L - 1."""
    ring = JRing(a1_desc, 2)
    g = ring.group
    one = Laurent({0: 1})
    long = ring.j_element({g.generator(0): one, g.element((0, 1, 0)): one})
    short = ring.j_element({g.generator(1): one})
    for a, b in ((long, short), (short, long)):
        with pytest.raises(RadiusExceeded, match=r"^factor length = 3 beyond certified radius 2$"):
            ring.jta_multiply(a, b)
    # phi(x) needs len(x) + 2 len(w0) - 1 <= L
    ball = g.enumerate_ball(ring.radius - max(len(d) for d in ring.distinguished_involutions()))
    for x in ball:
        for y in ball:
            ring.jta_multiply(ring.phi(x), ring.phi(y))
    assert ring.table.radius == 2 * ring.radius - 1


def test_distinguished_involutions_a1(a1_ring):
    g = a1_ring.group
    assert a1_ring.distinguished_involutions(3) == [
        g.identity,
        g.generator(0),
        g.generator(1),
    ]


def test_distinguished_involutions_a2(a2_ring):
    g = a2_ring.group
    dinv = a2_ring.distinguished_involutions(6)
    words = sorted(str(d) for d in dinv)
    assert words == sorted(
        ["e", "0", "1", "2", "010", "020", "121", "01210", "10201", "20102"]
    )
    # defining property, rechecked against independently computed pieces
    for d in dinv:
        assert g.multiply(d, d).is_identity()
        p = a2_ring.table.kl_polynomial(g.identity, d)
        assert a2_ring.a_function(d).value == len(d.word) - p.max_exp()


def test_phi_spot_value(a1_ring):
    g = a1_ring.group
    s0 = g.generator(0)
    img = a1_ring.phi(s0)
    assert img.terms == {
        s0: V + VINV,
        g.element((0, 1)): Laurent({0: 1}),
    }


def _check_signed_against_star_path(ring, xs):
    """The signed J product and the signed phi, both through signed_image,
    against the structure constants of the basis C_w, star(h) with h the
    h_map of C': signed gamma_{x,y,z} is the constant term of v^a(z)
    star(h_{x,y,z}), and the signed phi(C_x) sums (-1)^len(z)
    star(h_{x,d,z}) over distinguished d and z with a(z) = a(d).
    signed_image is its own inverse."""
    sc = ring.constants

    def a_of(z):
        return ring.a_function(z).value

    for x in xs:
        for y in xs:
            expect = {}
            for z, h in sc.h_map(x, y).items():
                if len(z.word) <= ring.radius:
                    h, a = h.star(), a_of(z)
                    assert h.min_exp() >= -a, (x, y, z)
                    g = h.coeff(-a)
                    if g:
                        expect[z] = g
            prod = ring.j_multiply(ring.t(x), ring.t(y), signed=True)
            assert prod.terms == expect, (x, y)
            assert prod.signed_image().signed_image() == prod
        expect = {}
        for d in ring.distinguished_involutions():
            for z, h in sc.h_map(x, d).items():
                if a_of(z) == a_of(d):
                    expect[z] = expect.get(z, Laurent({})) + (-h.star() if len(z.word) % 2 else h.star())
        img = ring.phi(x)
        assert img.signed_image().terms == {z: c for z, c in expect.items() if c}, x
        assert img.signed_image().signed_image() == img


def test_signed_read_offs_match_the_star_path(a2_ring, monkeypatch):
    ring = JRing(GroupDescriptor("A1~", extended=True), 6)
    g = ring.group
    calls = []
    row = StructureConstants._row

    def counting(self, *args, **kwargs):
        calls.append(args)
        return row(self, *args, **kwargs)

    # one row read per (x, y) serves both conventions; the witness of a(z)
    # is read beforehand, so only the read-off's own row is counted.  R(x)
    # = L(y) = {0}, so the cell skip reads the pair, and t_x t_y = t_010@1
    # + t_0@1 has odd-length terms whose sign flips in the C convention
    x, y = g.element((0, 1), 1), g.element((0, 1))
    for z in g.enumerate_ball(ring.radius):
        ring.a_function(z)
    monkeypatch.setattr(StructureConstants, "_row", counting)
    signed = ring.j_multiply(ring.t(x), ring.t(y), signed=True)
    ring.gamma_map(x, y)
    unsigned = ring.j_multiply(ring.t(x), ring.t(y))
    assert calls == [(x, y)]
    assert unsigned.terms == {g.element((0, 1, 0), 1): 1, g.element((0,), 1): 1}
    assert signed.terms == {z: -c for z, c in unsigned.terms.items()}
    monkeypatch.undo()
    _check_signed_against_star_path(ring, g.enumerate_ball(3))
    _check_signed_against_star_path(a2_ring, a2_ring.group.enumerate_ball(3))


@pytest.mark.parametrize("signed", [False, True])
def test_phi_is_multiplicative_a1(a1_ring, signed, c_oracle):
    """phi(C'_x) phi(C'_y) = phi(C'_x C'_y); with signed, the product is
    taken in ~T of the KL-polynomial oracle's C_x and C_y and carried to C'
    by iota (v -> -v^-1, ~T_w fixed, so C_w -> C'_w), the ring map by which
    phi-check's one product in C' checks the C_w convention too."""
    g = a1_ring.group
    alg = a1_ring.algebra
    table = a1_ring.table
    ball = g.enumerate_ball(4)
    for x in ball:
        for y in ball:
            if len(x.word) + len(y.word) > 4:
                continue
            lhs = a1_ring.jta_multiply(a1_ring.phi(x), a1_ring.phi(y))
            if signed:
                prod = alg.multiply(c_oracle(table, x), c_oracle(table, y))
                prod = HeckeElement(g.desc, "Ttilde", {w: c.star() for w, c in prod.terms.items()})
            else:
                prod = alg.multiply(alg.basis_element(x, "Cprime"), alg.basis_element(y, "Cprime"), table)
            assert lhs == a1_ring.phi_of_element(prod)


def test_phi_refuses_past_radius(a2_desc):
    small = JRing(a2_desc, 3)
    g = small.group
    # distinguished involutions reach length 2 len(w0) - 1 = 5, so even
    # phi(e) overflows the radius
    for x, length in ((g.identity, 5), (g.generator(0), 6)):
        with pytest.raises(RadiusExceeded, match=rf"^len\(x\) \+ 2 len\(w0\) - 1 = {length} beyond certified radius 3$"):
            small.phi(x)


@pytest.mark.parametrize("extended", [False, True])
def test_phi_answers_only_whole_images(a2_desc, extended):
    """At every radius r <= 6, phi(x) is refused or equals the image at
    radius 10, cut to len <= r.  On A2~ the distinguished involutions
    01210, 10201 and 20102 have length 5 and add terms of length <= r
    even where len(x) + 5 > r: phi(0) at radius 4 lacks t_0102 and t_0201
    if it answers."""
    desc = GroupDescriptor("A2~", extended)
    ref = JRing(desc, 10)
    answered = 0
    for r in range(7):
        ring = JRing(desc, r)
        for x in ring.group.enumerate_ball(r):
            try:
                img = ring.phi(x)
            except RadiusExceeded:
                continue
            answered += 1
            cut = {z: c for z, c in ref.phi(x).terms.items() if len(z.word) <= r}
            assert img.terms == cut, (r, x)
    # phi(e) at radius 5 and 6, and phi(x) for len(x) = 1 at radius 6,
    # each for the 3 Omega parts of the extended group
    assert answered == (15 if extended else 5)


@pytest.mark.parametrize("affine_type, count", [("A1~", 3), ("A2~", 10)])
def test_distinguished_involutions_are_short(affine_type, count):
    """One distinguished involution per left cell: 3 on A1~ and 10 on A2~
    (Lusztig 1985; Shi, LNM 1179), all of length <= phi_reach(0) =
    2 len(w0) - 1, the bound phi relies on."""
    desc = GroupDescriptor(affine_type)
    dinv = JRing(desc, 14).distinguished_involutions()
    assert len(dinv) == count
    assert max(len(d.word) for d in dinv) == phi_reach(desc, 0)


def test_phi_specialized(a1_ring):
    g = a1_ring.group
    img = a1_ring.phi(g.generator(0))
    spec = {str(z): a0 + 2 * a1 for z, (a0, a1) in img.specialize(Fraction(4)).items()}
    assert spec == {"0": Fraction(5, 2), "01": 1}
    for q in (0, -1, Fraction(-1, 4)):
        with pytest.raises(ValueError, match="specialization requires q > 0"):
            img.specialize(q)


@pytest.mark.parametrize(
    "q, repeated",
    [(Fraction(q), r) for r in (False, True) for q in (2, 3, 4)],
    ids=["q0", "q1", "q2", "q0-repeated", "q1-repeated", "q2-repeated"],
)
def test_specialized_rank_full_a1(a1_ring, q, repeated):
    ball = a1_ring.group.enumerate_ball(2)
    # a repeated element adds a dependent row: the rank counts distinct elements
    xs = ball + ball[-1:] if repeated else ball
    assert a1_ring.specialized_rank(xs, q) == len(ball)


def test_quadratic_rank_over_q_sqrt_2():
    """Rows of pairs (a0, a1) = a0 + a1*sqrt(2): a row alone, a row and
    its multiple by sqrt(2), and two independent rows."""
    q = Fraction(2)
    one, root2, two = (1, 0), (0, 1), (2, 0)
    assert _quadratic_rank([[one, root2]], q) == 1
    assert _quadratic_rank([[one, root2], [root2, two]], q) == 1
    assert _quadratic_rank([[one, root2], [one, (0, 0)]], q) == 2


def test_extended_j_ring(a1_desc):
    desc = GroupDescriptor("A1~", extended=True)
    ring = JRing(desc, 4)
    g = ring.group
    om = g.element((), 1)
    s0 = g.generator(0)
    # the omega part is the lowest cell: t_omega annihilates t_{s0}
    # (a = 1 cell) and squares to t_e inside the a = 0 cell
    assert ring.j_multiply(ring.t(om), ring.t(s0)).terms == {}
    assert ring.j_multiply(ring.t(om), ring.t(om)) == ring.t(g.identity)
    # product inside the a = 1 cell, crossing omega parts
    x = g.element((0,), 1)
    y = g.element((1,), 1)
    assert ring.j_multiply(ring.t(x), ring.t(y)) == ring.t(s0)
    # distinguished involutions stay inside the Coxeter part
    assert all(d.omega == 0 for d in ring.distinguished_involutions())


def test_gamma_symmetry_under_inversion(a2_ring):
    # gamma_{x,y,z} = gamma_{y^-1,x^-1,z^-1}
    g = a2_ring.group
    ball = g.enumerate_ball(2)
    for x in ball:
        for y in ball:
            gm = a2_ring.gamma_map(x, y)
            flipped = a2_ring.gamma_map(g.inverse(y), g.inverse(x))
            assert gm == {g.inverse(z): c for z, c in flipped.items()}


@pytest.mark.parametrize("ring_name", ["a1_ring", "a2_ring"])
def test_default_a_values_are_proved_by_certificates(ring_name, request):
    """Every default a-value on the certified ball has a certificate that is
    not the scan, and each witness (x, y), read through the public h_map,
    gives h_{x,y,z} of valuation -a(z)."""
    ring = request.getfixturevalue(ring_name)
    g = ring.group
    counts = {}
    for z in g.enumerate_ball(ring.radius):
        av = ring.a_function(z)
        counts[av.certificate] = counts.get(av.certificate, 0) + 1
        assert av.certified and av.scan_radius == certification_bound(ring.desc, len(z))
        if z.is_identity():
            assert (av.certificate, av.value, av.witness) == ("identity", 0, None)
            continue
        x, y = av.witness
        assert len(x) + len(y) == len(z) + av.value, z
        assert ring.constants.h_map(x, y)[z].min_exp() == -av.value, z
        if av.certificate == "unique-word":
            assert av.value == 1 and y == z and len(x) == 1
    if ring.desc.affine_type == "A1~":
        assert counts == {"identity": 1, "unique-word": 2 * ring.radius}
    else:
        assert ring.radius == 10
        assert counts == {"identity": 1, "unique-word": 57, "witness+bound": 108}


def test_extended_certificates_carry_the_omega_part():
    ring = JRing(GroupDescriptor("A2~", extended=True), 4)
    g = ring.group
    for z in g.enumerate_ball(4):
        av = ring.a_function(z)
        if z.word:
            x, y = av.witness
            assert x.omega == 0 and y.omega == z.omega
            assert ring.constants.h_map(x, y)[z].min_exp() == -av.value, z
        else:
            assert (av.certificate, av.value) == ("identity", 0)


def test_wrong_witness_is_an_error(a2_desc, monkeypatch):
    ring = JRing(a2_desc, 4)
    g = ring.group
    z = g.element((0, 1, 0, 2))
    factor = WeylGroup.parabolic_factor
    # the right pair, with its factors swapped: h_{w_J y, x w_J, z} is 0 here
    monkeypatch.setattr(WeylGroup, "parabolic_factor", lambda self, z, n: factor(self, z, n)[::-1])
    for _ in range(2):
        with pytest.raises(HeckejError, match="witness"):
            ring.a_function(z)
    # (e, z) gives h = 1, of valuation 0; 010 is in the support of
    # C'_10 C'_01, a pair the cell skip reads as R(10) = L(01) = {0}
    monkeypatch.setattr(WeylGroup, "parabolic_factor", lambda self, z, n: factor(self, z, n) and (self.identity, z))
    with pytest.raises(HeckejError, match="witness"):
        ring.gamma_map(g.element((1, 0)), g.element((0, 1)))
    monkeypatch.undo()
    assert ring.a_function(z).value == 3
    assert ring.a_function(z).certificate == "witness+bound"


def test_gamma_refuses_long_pairs(a1_desc):
    ring = JRing(a1_desc, 2)
    g = ring.group
    x, y, z = g.element((0, 1, 0, 1)), g.element((1, 0, 1, 0)), g.element((0, 1))
    with pytest.raises(RadiusExceeded, match="len\\(x\\) \\+ len\\(y\\)"):
        ring.gamma_map(x, y)
    with pytest.raises(RadiusExceeded, match="len\\(x\\) \\+ len\\(y\\)"):
        ring.gamma(x, y, z)
