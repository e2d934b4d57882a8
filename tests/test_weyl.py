"""Group arithmetic, normal forms, ball enumeration, Bruhat order."""

import itertools

import pytest
import sympy

import heckej.weyl
from heckej import BudgetExceeded, GroupDescriptor, GroupMismatch, UnsupportedType, WeylGroup, make_group


def poincare_counts(affine_type: str, upto: int) -> list[int]:
    """Length-generating series of the affine group, as an independent
    oracle for ball sizes: finite part times 1/((1-t^m)) over the
    exponents (1 for the rank-1 type, 1 and 2 for rank 2)."""
    t = sympy.Symbol("t")
    if affine_type == "A1~":
        series = (1 + t) / (1 - t)
    else:
        series = (1 + t) * (1 + t + t**2) / ((1 - t) * (1 - t**2))
    expansion = sympy.series(series, t, 0, upto + 1).removeO()
    poly = sympy.Poly(expansion, t)
    return [int(poly.coeff_monomial(t**k)) for k in range(upto + 1)]


def test_unsupported_type_rejected():
    with pytest.raises(UnsupportedType):
        GroupDescriptor("B2~")


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
def test_generators_are_involutions(affine_type):
    g = make_group(GroupDescriptor(affine_type))
    for s in g.generators():
        assert g.multiply(s, s).is_identity()
        assert len(s.word) == 1


@pytest.mark.parametrize("affine_type,upto", [("A1~", 12), ("A2~", 8)])
def test_ball_sizes_match_length_series(affine_type, upto):
    g = make_group(GroupDescriptor(affine_type))
    counts = poincare_counts(affine_type, upto)
    ball = g.enumerate_ball(upto)
    by_len = {}
    for w in ball:
        by_len[len(w.word)] = by_len.get(len(w.word), 0) + 1
    assert [by_len.get(k, 0) for k in range(upto + 1)] == counts


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
def test_extended_ball_scales_by_omega_order(affine_type):
    desc = GroupDescriptor(affine_type, extended=True)
    g = make_group(desc)
    plain = make_group(GroupDescriptor(affine_type))
    assert len(g.enumerate_ball(5)) == desc.omega_order * len(plain.enumerate_ball(5))


def test_ball_is_sorted_and_duplicate_free():
    g = make_group(GroupDescriptor("A2~", extended=True))
    ball = g.enumerate_ball(4)
    keys = [w.sort_key() for w in ball]
    assert keys == sorted(keys)
    assert len(set(ball)) == len(ball)


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
def test_multiplication_against_word_concatenation(affine_type):
    g = make_group(GroupDescriptor(affine_type))
    ball = g.enumerate_ball(4)
    for a in ball:
        for b in ball:
            assert g.multiply(a, b) == g.element(a.word + b.word)


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
def test_length_parity_and_subadditivity(affine_type):
    g = make_group(GroupDescriptor(affine_type))
    ball = g.enumerate_ball(4)
    for a in ball:
        for b in ball:
            ab = g.multiply(a, b)
            assert (len(ab.word) - len(a.word) - len(b.word)) % 2 == 0
            assert len(ab.word) <= len(a.word) + len(b.word)


@pytest.mark.parametrize(
    "affine_type,extended",
    [
        pytest.param("A1~", True, id="A1~"),
        pytest.param("A2~", True, id="A2~"),
        pytest.param("A1~", False, id="A1~-plain"),
        pytest.param("A2~", False, id="A2~-plain"),
    ],
)
def test_inverse(affine_type, extended):
    g = make_group(GroupDescriptor(affine_type, extended=extended))
    for w in g.enumerate_ball(5):
        winv = g.inverse(w)
        assert g.multiply(w, winv).is_identity()
        assert len(winv.word) == len(w.word)


def test_normal_form_is_shortlex_least_reduced_word():
    cases = []
    for affine_type in ("A1~", "A2~"):
        g = make_group(GroupDescriptor(affine_type))
        cases.append((g, g.enumerate_ball(5)))
    # interning the longest words first into an empty group makes each new
    # element walk down through several elements not yet interned
    fresh = WeylGroup(GroupDescriptor("A2~"))
    cases.append((fresh, [fresh.element(w.word) for w in reversed(cases[1][1])]))
    for g, ball in cases:
        for w in ball:
            n = len(w.word)
            # every reduced word for w, by brute force over all words of length n
            reduced = [
                word
                for word in itertools.product(range(g.rank), repeat=n)
                if g.element(word) == w
            ]
            assert min(reduced) == w.word


@pytest.mark.parametrize(
    "affine_type,extended",
    [
        pytest.param("A1~", False, id="A1~"),
        pytest.param("A2~", False, id="A2~"),
        pytest.param("A1~", True, id="A1~-extended"),
        pytest.param("A2~", True, id="A2~-extended"),
    ],
)
def test_descents(affine_type, extended):
    g = make_group(GroupDescriptor(affine_type, extended=extended))
    for w in g.enumerate_ball(6):
        ld = g.left_descents(w)
        rd = g.right_descents(w)
        if not w.word:
            assert not ld and not rd
            continue
        assert ld and rd
        for s in range(g.rank):
            gen = g.generator(s)
            shorter = len(g.multiply(gen, w).word) < len(w.word)
            assert (s in ld) == shorter
            shorter = len(g.multiply(w, gen).word) < len(w.word)
            assert (s in rd) == shorter


def test_interning_cost_is_linear(monkeypatch):
    products = [0]
    mat_mul = heckej.weyl._mat_mul

    def counted(a, b):
        products[0] += 1
        return mat_mul(a, b)

    monkeypatch.setattr(heckej.weyl, "_mat_mul", counted)
    g = WeylGroup(GroupDescriptor("A2~"))
    w = g.element((0, 1, 2) * 400)
    assert len(w.word) == 1200
    assert products[0] <= 8 * 1200
    assert g.element(w.word) == w

    products[0] = 0
    g = WeylGroup(GroupDescriptor("A2~"))
    ball = g.enumerate_ball(19)
    assert products[0] <= 3 * len(ball) * g.rank


def test_bad_letters_and_unreduced_words_rejected():
    g = make_group(GroupDescriptor("A2~"))
    for word in [(-1,), (3,), (0, 1, 5)]:
        with pytest.raises(ValueError):
            g.element(word)
    with pytest.raises(ValueError):
        g.from_json({"word": [-1, -3]})
    s0 = g.generator(0)
    for word in [(0, 0), (0, 1, 0, 1), (3,)]:
        with pytest.raises(ValueError):
            g.bruhat_leq_via_word(s0, word)


def test_omega_conjugation_permutes_generators():
    for affine_type in ("A1~", "A2~"):
        desc = GroupDescriptor(affine_type, extended=True)
        g = make_group(desc)
        for k in range(desc.omega_order):
            om = g.omega_element(k)
            om_inv = g.inverse(om)
            perm = g.omega_perm(k)
            for i in range(g.rank):
                lhs = g.multiply(om, g.multiply(g.generator(i), om_inv))
                assert lhs == g.generator(perm[i])
        # the omega subgroup is cyclic of the stated order
        om = g.omega_element(1 % desc.omega_order)
        power = g.identity
        for _ in range(desc.omega_order):
            power = g.multiply(power, om)
        assert power.is_identity()


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
@pytest.mark.parametrize("extended", [False, True])
def test_diagram_automorphisms_are_length_preserving_automorphisms(affine_type, extended):
    g = make_group(GroupDescriptor(affine_type, extended=extended))
    # S3 on the A2~ triangle, Z/2 on the A1~ edge
    assert sorted(g.diagram_automorphisms) == sorted(itertools.permutations(range(g.rank)))
    assert set(g.omega_perm(k) for k in range(g.desc.omega_order)) <= set(g.diagram_automorphisms)

    def act(perm, w):
        return g.element(tuple(perm[s] for s in w.word), w.omega)

    ball = [w for w in g.enumerate_ball(3) if w.omega == 0]
    for perm in g.diagram_automorphisms:
        for x in ball:
            assert len(act(perm, x).word) == len(x.word)
            for y in ball:
                assert act(perm, g.multiply(x, y)) == g.multiply(act(perm, x), act(perm, y))


def test_omega_parts_have_zero_length():
    g = make_group(GroupDescriptor("A2~", extended=True))
    w = g.element((0, 1), 2)
    assert len(w.word) == 2
    assert g.multiply(w, g.inverse(w)).is_identity()


def test_group_mismatch_detected():
    g1 = make_group(GroupDescriptor("A1~"))
    g2 = make_group(GroupDescriptor("A2~"))
    with pytest.raises(GroupMismatch):
        g1.multiply(g1.identity, g2.identity)


def subword_closure(g, word):
    """All elements represented by subsequences of the given word; by the
    subword characterization this is the lower Bruhat interval."""
    out = set()
    for mask in range(1 << len(word)):
        sub = tuple(word[i] for i in range(len(word)) if mask >> i & 1)
        out.add(g.element(sub))
    return out


@pytest.mark.parametrize("affine_type,radius", [("A1~", 8), ("A2~", 5)])
def test_bruhat_order_matches_subword_oracle(affine_type, radius):
    g = make_group(GroupDescriptor(affine_type))
    ball = g.enumerate_ball(radius)
    for w in ball:
        below = subword_closure(g, w.word)
        for y in ball:
            assert g.bruhat_leq(y, w) == (y in below)


def test_bruhat_independent_of_reduced_word():
    g = make_group(GroupDescriptor("A2~"))
    for w in g.enumerate_ball(6):
        n = len(w.word)
        words = [
            word
            for word in itertools.product(range(3), repeat=n)
            if g.element(word) == w
        ]
        expected = {y: g.bruhat_leq(y, w) for y in g.enumerate_ball(n)}
        for word in words:
            for y, val in expected.items():
                assert g.bruhat_leq_via_word(y, word) == val


def test_bruhat_is_a_partial_order():
    g = make_group(GroupDescriptor("A2~"))
    ball = g.enumerate_ball(4)
    for a in ball:
        assert g.bruhat_leq(a, a)
        for b in ball:
            if g.bruhat_leq(a, b) and g.bruhat_leq(b, a):
                assert a == b
            for c in ball:
                if g.bruhat_leq(a, b) and g.bruhat_leq(b, c):
                    assert g.bruhat_leq(a, c)


def test_bruhat_incomparable_across_omega():
    g = make_group(GroupDescriptor("A1~", extended=True))
    w = g.element((0, 1), 1)
    y = g.element((0,), 0)
    assert not g.bruhat_leq(y, w)
    assert g.bruhat_leq(g.element((0,), 1), w)


def test_element_string_and_json_round_trip():
    g = make_group(GroupDescriptor("A2~", extended=True))
    w = g.element((0, 1, 0), 2)
    assert str(w) == "010@2"
    assert g.from_json(w.to_json()) == w
    assert str(g.identity) == "e"


@pytest.mark.parametrize("affine_type, extended, radius", [("A1~", True, 7), ("A2~", False, 6), ("A2~", True, 4)])
def test_ball_budget(monkeypatch, affine_type, extended, radius):
    """The ball size estimated from the length series is exact, and a ball
    past BALL_BUDGET is refused before any enumeration."""
    g = WeylGroup(GroupDescriptor(affine_type, extended))
    size = len(g.enumerate_ball(radius))
    monkeypatch.setattr(heckej.weyl, "BALL_BUDGET", size)
    assert len(g.enumerate_ball(radius)) == size

    def no_enumeration(self, i, s):
        raise AssertionError("enumerated past the budget")

    fresh = WeylGroup(GroupDescriptor(affine_type, extended))
    monkeypatch.setattr(WeylGroup, "_rmul", no_enumeration)
    with pytest.raises(BudgetExceeded):
        fresh.enumerate_ball(radius + 1)
    monkeypatch.setattr(heckej.weyl, "BALL_BUDGET", size - 1)
    with pytest.raises(BudgetExceeded):
        fresh.enumerate_ball(radius)
