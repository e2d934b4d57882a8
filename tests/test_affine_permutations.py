"""The Weyl layer against a model that shares none of its code: affine
permutations (Bjorner and Brenti, Combinatorics of Coxeter Groups, 8.3).

The affine Weyl group of type A_{n-1}~ is the group of bijections w of Z
with w(i + n) = w(i) + n and w(1) + ... + w(n) = 1 + ... + n, composed as
functions.  s_i (i mod n) swaps the values i and i + 1 in each class mod n,
so s_0 swaps n and n + 1.  Dropping the sum condition gives the extended
affine Weyl group of GL(n), where the shift tau: i -> i + 1 has length 0 and
tau s_i tau^-1 = s_(i+1); the library's extended group, whose Omega = Z/n
acts by s -> s + 1, is its quotient by the central tau^n: i -> i + n.  So
the library's (word, omega) is s_(word[0]) ... s_(word[-1]) tau^omega.

A permutation is stored as its window (w(1), ..., w(n)), the power of tau^n
taken out.  Length is Shi's formula, the sum over 1 <= i < j <= n of
|floor((w(j) - w(i)) / n)|; descents, and the ShortLex-least reduced word
(the least left descent s, then the word of s w), come from lengths alone.
No reflection representation, no interning and no memo is involved.
"""

import pytest

from heckej import GroupDescriptor, WeylGroup

# (type, extended, radius of the element checks, radius of the product checks)
GROUPS = [
    pytest.param("A1~", False, 12, 10, id="A1~"),
    pytest.param("A1~", True, 12, 8, id="A1~-extended"),
    pytest.param("A2~", False, 8, 5, id="A2~"),
    pytest.param("A2~", True, 7, 4, id="A2~-extended"),
]


def value(w, i):
    """w(i) for any integer i, from the window."""
    q, r = divmod(i - 1, len(w))
    return w[r] + q * len(w)


def compose(u, v):
    """The window of u o v, with the power of tau^n taken out."""
    n = len(v)
    w = [value(u, x) for x in v]
    # the window sum is 1 + ... + n plus n k for w in W tau^k
    k = (sum(w) - n * (n + 1) // 2) // n
    return tuple(x - n * (k // n) for x in w)


def generator(n, s):
    """The window of s_s: j -> j + 1 on the class s mod n, j - 1 on s + 1."""
    return tuple(j + 1 if j % n == s else j - 1 if j % n == (s + 1) % n else j for j in range(1, n + 1))


def tau(n, k):
    """The window of tau^k, as an element of the quotient by tau^n."""
    return compose(tuple(range(1, n + 1)), tuple(j + k % n for j in range(1, n + 1)))


def length(w):
    n = len(w)
    return sum(abs((w[j] - w[i]) // n) for i in range(n) for j in range(i + 1, n))


def omega_part(w):
    n = len(w)
    return (sum(w) - n * (n + 1) // 2) // n


def inverse(w):
    n = len(w)
    inv = [0] * n
    for j, x in enumerate(w, 1):
        q, r = divmod(x - 1, n)
        inv[r] = j - q * n
    return compose(tuple(range(1, n + 1)), tuple(inv))


def left_descents(w):
    return {s for s in range(len(w)) if length(compose(generator(len(w), s), w)) < length(w)}


def right_descents(w):
    return {s for s in range(len(w)) if length(compose(w, generator(len(w), s))) < length(w)}


def canonical_word(w):
    """The ShortLex-least reduced word of the Coxeter part of w."""
    n = len(w)
    w = compose(w, tau(n, -omega_part(w)))
    word = []
    while length(w):
        s = min(left_descents(w))
        word.append(s)
        w = compose(generator(n, s), w)
    return tuple(word)


def model(w):
    """The window of the library's element w."""
    n = w.desc.generator_count
    out = tau(n, 0)
    for s in w.word:
        out = compose(out, generator(n, s))
    return compose(out, tau(n, w.omega))


def model_ball(n, omegas, radius):
    """Windows of length <= radius, by length, found by multiplying on the
    right by generators; every omega part in range(omegas)."""
    strata = [{tau(n, k) for k in range(omegas)}]
    for _ in range(radius):
        strata.append({
            v for w in strata[-1] for s in range(n)
            if length(v := compose(w, generator(n, s))) == len(strata)
        })
    return strata


@pytest.mark.parametrize("affine_type, extended, radius, product_radius", GROUPS)
def test_ball_sizes_by_length(affine_type, extended, radius, product_radius):
    g = WeylGroup(GroupDescriptor(affine_type, extended))
    strata = model_ball(g.rank, g.desc.omega_order, radius)
    counts = [0] * (radius + 1)
    for w in g.enumerate_ball(radius):
        counts[len(w.word)] += 1
    assert counts == [len(stratum) for stratum in strata]
    assert {model(w) for w in g.enumerate_ball(radius)} == set().union(*strata)


@pytest.mark.parametrize("affine_type, extended, radius, product_radius", GROUPS)
def test_elements_against_the_model(affine_type, extended, radius, product_radius):
    """Length, omega part, canonical word, descents and inverse of each
    element of the ball, and no two elements with one window."""
    g = WeylGroup(GroupDescriptor(affine_type, extended))
    ball = g.enumerate_ball(radius)
    windows = {w: model(w) for w in ball}
    assert len(set(windows.values())) == len(ball)
    for w, m in windows.items():
        assert length(m) == len(w.word)
        assert omega_part(m) == w.omega
        assert canonical_word(m) == w.word
        assert g.left_descents(w) == left_descents(m)
        assert g.right_descents(w) == right_descents(m)
        assert model(g.inverse(w)) == inverse(m)


@pytest.mark.parametrize("affine_type, extended, radius, product_radius", GROUPS)
def test_products_against_the_model(affine_type, extended, radius, product_radius):
    g = WeylGroup(GroupDescriptor(affine_type, extended))
    ball = g.enumerate_ball(product_radius)
    windows = {w: model(w) for w in ball}
    for a in ball:
        for b in ball:
            assert model(g.multiply(a, b)) == compose(windows[a], windows[b])
