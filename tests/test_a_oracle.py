"""The certified a-function against cell theory, on whole certified balls.

The oracle below uses nothing from heckej: a = 0 only at e; in A2~,
a = 3 exactly when some reduced word of z has a factor iji with i != j
(the lowest two-sided cell, Shi 1987), and a = 1 otherwise; in A1~,
a = 1 away from e.
"""

import itertools

import pytest

from heckej import certification_bound


def braid_class(word: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All reduced words of the element with reduced word `word` in A2~:
    every m_ij is 3, so the moves iji <-> jij connect them (Matsumoto)."""
    seen = {word}
    todo = [word]
    while todo:
        w = todo.pop()
        for k in range(len(w) - 2):
            i, j, i2 = w[k : k + 3]
            if i == i2 != j:
                moved = w[:k] + (j, i, j) + w[k + 3 :]
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    return seen


def oracle_a(affine_type: str, word: tuple[int, ...]) -> int:
    if not word:
        return 0
    if affine_type == "A1~":
        return 1
    has_iji = any(
        w[k] == w[k + 2] != w[k + 1] for w in braid_class(word) for k in range(len(w) - 2)
    )
    return 3 if has_iji else 1


@pytest.mark.parametrize("ring_name", ["a1_ring", "a2_ring"])
def test_a_function_matches_cell_oracle_on_certified_ball(ring_name, request, scan_a_values):
    ring = request.getfixturevalue(ring_name)
    g = ring.group
    scanned = scan_a_values(ring.desc, ring.radius)
    affine_type = ring.desc.affine_type
    # the generator permutations preserving the Coxeter matrix: all of
    # them for the A1~ edge and the A2~ triangle
    automorphisms = list(itertools.permutations(range(g.rank)))
    ball = g.enumerate_ball(ring.radius)
    values = {z: ring.a_function(z) for z in ball}
    for z, av in values.items():
        assert av.certified
        assert av.value == oracle_a(affine_type, z.word), z
        assert values[g.inverse(z)].value == av.value, z
        for perm in automorphisms:
            image = g.element(tuple(perm[s] for s in z.word))
            assert values[image].value == av.value, (z, perm)
        # the certification bound is never beaten by the widest scan
        assert av.scan_radius == certification_bound(ring.desc, len(z.word))
        assert scanned[g._id_of(z.word)][-1] == av.value, z
