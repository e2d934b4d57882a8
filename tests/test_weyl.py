"""Group arithmetic, normal forms, ball enumeration, Bruhat order."""

import itertools
import random

import pytest

import heckej.weyl
from heckej import (
    BudgetExceeded,
    GroupDescriptor,
    GroupElement,
    GroupMismatch,
    HeckejError,
    UnsupportedType,
    WeylGroup,
    make_group,
)


def poincare_counts(affine_type: str, upto: int) -> list[int]:
    """Length-generating series of the affine group, as an independent
    oracle for ball sizes: the finite part's Poincare polynomial over
    prod (1 - t^m) for the exponents m (1 for the rank-1 type, 1 and 2 for
    rank 2), expanded by exact series division, in which dividing by
    1 - t^m is the running sum c[k] += c[k - m]."""
    if affine_type == "A1~":
        finite, exponents = [1, 1], (1,)  # 1 + t
    else:
        finite, exponents = [1, 2, 2, 1], (1, 2)  # (1 + t)(1 + t + t^2)
    counts = (finite + [0] * upto)[: upto + 1]
    for m in exponents:
        for k in range(m, upto + 1):
            counts[k] += counts[k - m]
    return counts


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
    # the series that the ball and KL budgets read
    series = list(heckej.weyl._length_series(g.desc, upto))
    assert series == list(zip(counts, itertools.accumulate(counts)))


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
            # each reduced word builds a separate element, equal to w and of its hash
            assert {hash(g.element(word)) for word in reduced} == {hash(w)}


def test_a_canonical_word_not_yet_interned_is_interned_on_first_use():
    """A caller's element whose word a fresh group has not interned gets
    the id that element() gives that word, and the descents it has in a
    group that built it from the word; a reduced word that is not the
    canonical one (1 0 1 for 0 1 0) is refused."""
    desc = GroupDescriptor("A2~")
    built = make_group(desc)
    for word in [(0, 1, 2, 0, 1, 2), (0, 1, 0, 2, 1, 0), (0, 1, 2, 0, 1, 2, 0)]:
        w = built.element(word)
        assert w.word == word
        g = WeylGroup(desc)
        assert word not in g._index
        i = g._element_id(GroupElement(desc, word))
        assert g._words[i] == word
        assert g._word_id(word) == i == g._element_id(g.element(word))
        assert g.left_descents(GroupElement(desc, word)) == built.left_descents(w)
        assert g.right_descents(GroupElement(desc, word)) == built.right_descents(w)
    with pytest.raises(ValueError, match="not a canonical reduced word"):
        WeylGroup(desc)._element_id(GroupElement(desc, (1, 0, 1)))


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


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
def test_parabolic_factor_against_reduced_words(affine_type):
    """parabolic_factor(z, len(w0)) gives (x w, w y) with z = x w y, lengths
    adding, for some w of length len(w0).  It finds none only when z has one
    reduced word (the a-function's unique-word certificate rests on this),
    and on A2~ exactly then; reduced words are counted by brute force."""
    g = make_group(GroupDescriptor(affine_type))
    top = g.desc.finite_longest_length
    counts = {}
    for n in range(7):
        for word in itertools.product(range(g.rank), repeat=n):
            z = g.element(word)
            if len(z.word) == n:
                counts[z] = counts.get(z, 0) + 1
    longest = [w for w in g.enumerate_ball(top) if len(w) == top]
    for z, count in counts.items():
        factor = g.parabolic_factor(z, top)
        if factor is None:
            assert count == 1, z
            continue
        assert top == 1 or count > 1, z
        xw, wy = factor
        assert len(xw) + len(wy) == len(z) + top
        assert any(
            len(x := g.multiply(xw, w)) == len(xw) - top
            and len(y := g.multiply(w, wy)) == len(wy) - top
            and g.multiply(g.multiply(x, w), y) == z
            for w in longest
        ), z


# 2 cos(pi / m) for the Coxeter matrix entry m (None for infinity)
_TWO_COS = {2: 0, 3: 1, None: 2}
_COXETER_ENTRIES = {"A1~": {(0, 1): None}, "A2~": {(0, 1): 3, (0, 2): 3, (1, 2): 3}}


def _textbook_sigma(affine_type, s):
    """The reflection s on the simple roots, as a nested matrix: s(alpha_j)
    = alpha_j + 2 cos(pi / m_sj) alpha_s, and s(alpha_s) = -alpha_s."""
    m = _COXETER_ENTRIES[affine_type]
    n = 2 if affine_type == "A1~" else 3
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[s] = [-1 if j == s else _TWO_COS[m[min(s, j), max(s, j)]] for j in range(n)]
    return rows


def _textbook_product(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _flat(rows):
    return tuple(x for row in rows for x in row)


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
def test_generator_updates_match_the_textbook_product(affine_type):
    """_gen_times and _times_gen against sigma(s) * M and M * sigma(s) by the
    textbook sum over k, on random matrices, for every generator s; d_s is
    row s of sigma(s) minus e_s, and the group builds the same."""
    g = WeylGroup(GroupDescriptor(affine_type))
    n = g.rank
    rng = random.Random(f"kernels:{affine_type}")
    for s in range(n):
        sigma = _textbook_sigma(affine_type, s)
        d = tuple(x - (j == s) for j, x in enumerate(sigma[s]))
        assert g._d[s] == d
        for _ in range(200):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            m = _flat(rows)
            assert heckej.weyl._gen_times(m, n, s, d) == _flat(_textbook_product(sigma, rows)), (m, s)
            assert heckej.weyl._times_gen(m, n, s, d) == _flat(_textbook_product(rows, sigma)), (m, s)


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
@pytest.mark.parametrize("extended", [False, True])
def test_interned_matrices_are_the_product_along_the_word(affine_type, extended):
    """Every element of ball(12) is keyed by sigma(w^-1), the textbook
    product of the generator matrices along its word reversed, and keys are
    distinct; s is a left descent of w iff s * w is shorter."""
    g = WeylGroup(GroupDescriptor(affine_type, extended))
    n = g.rank
    sigmas = [_textbook_sigma(affine_type, s) for s in range(n)]
    ball = g.enumerate_ball(12)
    keys = set()
    for w in ball:
        i = g._element_id(w)
        expect = [[int(r == c) for c in range(n)] for r in range(n)]
        for s in w.word:
            expect = _textbook_product(sigmas[s], expect)
        assert g._invmats[i] == _flat(expect), w
        assert g._invmat_index[g._invmats[i]] == i
        keys.add(g._invmats[i])
        for s in range(n):
            shorter = len(g.multiply(g.generator(s), w)) < len(w)
            assert (s in g._ldesc[i]) == shorter, (w, s)
    assert len(keys) == len(ball) // g.desc.omega_order


def test_interning_cost_is_linear(monkeypatch):
    updates = [0]

    def counted(kernel):
        def run(m, n, s, d):
            updates[0] += 1
            return kernel(m, n, s, d)

        return run

    for name in ("_gen_times", "_times_gen"):
        monkeypatch.setattr(heckej.weyl, name, counted(getattr(heckej.weyl, name)))
    # a word of 1,200 letters is past the radius of the default ball budget
    monkeypatch.setattr(heckej.weyl, "BALL_BUDGET", 3 * 10**6)
    g = WeylGroup(GroupDescriptor("A2~"))
    w = g.element((0, 1, 2) * 400)
    assert len(w.word) == 1200
    assert 0 < updates[0] <= 8 * 1200
    assert g.element(w.word) == w

    updates[0] = 0
    g = WeylGroup(GroupDescriptor("A2~"))
    ball = g.enumerate_ball(19)
    assert 0 < updates[0] <= 3 * len(ball) * g.rank


def test_a_faulty_generator_update_is_refused_not_interned_without_end(monkeypatch):
    """w*s is interned after at most len(w) + 1 steps down, so a walk that
    needs more, as under a faulty update, raises HeckejError at once
    instead of interning ever larger matrices.  The mutant is patched into
    a fresh group: make_group's cached one stays sound."""
    times_gen = heckej.weyl._times_gen
    steps = [0]

    def flipped(m, n, s, d):
        # d_s[s] = +2 in place of -2: sigma(s) no longer squares to 1
        steps[0] += 1
        return times_gen(m, n, s, tuple(-c if j == s else c for j, c in enumerate(d)))

    for affine_type, word in (("A1~", (0, 1, 0)), ("A2~", (0, 1, 2, 0))):
        g = WeylGroup(GroupDescriptor(affine_type))
        w = g.element(word)
        monkeypatch.setattr(heckej.weyl, "_times_gen", flipped)
        steps[0] = 0
        with pytest.raises(HeckejError, match=f"stepped down {len(word) + 1} times"):
            g._rmul(g._element_id(w), 1)
        assert steps[0] == len(word) + 1
        monkeypatch.undo()


def test_bad_letters_and_unreduced_words_rejected():
    g = make_group(GroupDescriptor("A2~"))
    for word in [(-1,), (3,), (0, 1, 5)]:
        with pytest.raises(ValueError):
            g.element(word)
    with pytest.raises(ValueError):
        g.element([-1, -3])
    s0 = g.generator(0)
    for word in [(0, 0), (0, 1, 0, 1), (3,)]:
        with pytest.raises(ValueError):
            g.bruhat_leq_via_word(s0, word)


def test_generator_and_omega_element_out_of_range():
    g = make_group(GroupDescriptor("A2~", extended=True))
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"no generator {i}"):
            g.generator(i)
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"no omega element {k}"):
            g.element((), k)
    with pytest.raises(ValueError, match="no omega element 1"):
        make_group(GroupDescriptor("A2~")).element((), 1)


def test_omega_conjugation_permutes_generators():
    for affine_type in ("A1~", "A2~"):
        desc = GroupDescriptor(affine_type, extended=True)
        g = make_group(desc)
        for k in range(desc.omega_order):
            om = g.element((), k)
            om_inv = g.inverse(om)
            perm = g.omega_perm(k)
            for i in range(g.rank):
                lhs = g.multiply(om, g.multiply(g.generator(i), om_inv))
                assert lhs == g.generator(perm[i])
        # the omega subgroup is cyclic of the stated order
        om = g.element((), 1 % desc.omega_order)
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


def test_element_string():
    g = make_group(GroupDescriptor("A2~", extended=True))
    w = g.element((0, 1, 0), 2)
    assert str(w) == "010@2"
    assert str(g.identity) == "e"
    assert repr(make_group(GroupDescriptor("A1~", extended=True)).element((0,), 1)) == (
        "GroupElement(desc=GroupDescriptor(affine_type='A1~', extended=True), word=(0,), omega=1)"
    )


def test_elements_and_descriptors_are_read_only():
    desc = GroupDescriptor("A1~", extended=True)
    w = make_group(desc).element((0,), 1)
    for obj, field in [(desc, "affine_type"), (desc, "extended"), (w, "desc"), (w, "word"), (w, "omega")]:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
    # and they take no new attributes
    with pytest.raises(AttributeError):
        w.note = "x"


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


@pytest.mark.parametrize("affine_type", ["A1~", "A2~"])
@pytest.mark.parametrize("extended", [False, True])
def test_ball_strata_are_kept_per_group(affine_type, extended):
    """A group enumerates each stratum once: balls asked in any radius order
    are prefixes of its largest, and equal a fresh group's answer; a radius
    past BALL_BUDGET interns nothing."""
    desc = GroupDescriptor(affine_type, extended)
    g = WeylGroup(desc)
    radii = list(range(13 if affine_type == "A1~" else 9))
    random.Random(f"strata:{desc}").shuffle(radii)
    for radius in radii:
        words = [g._words[i] for i in g._ball_ids(radius)]
        fresh = WeylGroup(desc)
        assert words == [fresh._words[i] for i in fresh._ball_ids(radius)]
    largest = g._ball_ids(max(radii))

    def no_enumeration(i, s):
        raise AssertionError("a stratum enumerated twice")

    g._rmul = no_enumeration
    for radius in radii:
        assert g._ball_ids(radius) == largest[: len(g._ball_ids(radius))]
    interned = len(g._words)
    # every stratum has an element, so this ball has over BALL_BUDGET
    with pytest.raises(BudgetExceeded):
        g._ball_ids(heckej.weyl.BALL_BUDGET)
    assert len(g._words) == interned


def test_long_word_refused_before_interning():
    """A word longer than the radius of the largest ball within BALL_BUDGET
    (81 on A2~) is refused before any prefix of it is interned."""
    g = make_group(GroupDescriptor("A2~"))
    assert len(g.element((0, 1, 2) * 27).word) == 81
    interned = len(g._words)
    with pytest.raises(BudgetExceeded):
        g.element((0, 1, 2) * 100)
    assert len(g._words) == interned
    with pytest.raises(BudgetExceeded):
        g.element((0, 1, 2) * 27 + (0,))
