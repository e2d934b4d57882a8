"""Every entry point that reads a caller's group element checks that it
belongs to the group: GroupMismatch for an element of another group,
ValueError for an omega part, a letter or a word the group lacks."""

import pytest

import heckej
from heckej import GroupDescriptor, GroupElement, GroupMismatch, JRing, StructureConstants

A2 = GroupDescriptor("A2~")

# (name, element, expected exception), all shown to the unextended A2~
NON_ELEMENTS = [
    ("A1~ element", heckej.make_group(GroupDescriptor("A1~")).element((0, 1)), GroupMismatch),
    ("omega 1", GroupElement(A2, (0,), 1), ValueError),
    ("word 00", GroupElement(A2, (0, 0)), ValueError),
    ("letter 5", GroupElement(A2, (5,)), ValueError),
]


@pytest.fixture(scope="module")
def ring():
    # phi of a length-2 element needs len(x) + len(d) <= L for d = 01210
    return JRing(A2, 7)


def _basis_term(basis):
    """to_basis of one term in basis, into another basis."""
    target = "Ttilde" if basis == "T" else "T"
    return lambda r, b: r.algebra.to_basis(r.algebra.basis_element(b, basis), target, r.table)


ENTRY_POINTS = {
    # weyl
    "multiply left": lambda r, b: r.group.multiply(b, r.group.generator(1)),
    "multiply right": lambda r, b: r.group.multiply(r.group.generator(1), b),
    "inverse": lambda r, b: r.group.inverse(b),
    "left_descents": lambda r, b: r.group.left_descents(b),
    "right_descents": lambda r, b: r.group.right_descents(b),
    "parabolic_factor": lambda r, b: r.group.parabolic_factor(b, 1),
    "bruhat_leq y": lambda r, b: r.group.bruhat_leq(b, r.group.element((0, 1, 0))),
    "bruhat_leq w": lambda r, b: r.group.bruhat_leq(r.group.identity, b),
    "bruhat_leq_via_word": lambda r, b: r.group.bruhat_leq_via_word(b, (0, 1, 0)),
    # hecke
    "to_basis T": _basis_term("T"),
    "to_basis Ttilde": _basis_term("Ttilde"),
    "to_basis Cprime": _basis_term("Cprime"),
    "hecke multiply": lambda r, b: r.algebra.multiply(
        r.algebra.unit("Cprime"), r.algebra.basis_element(b, "Cprime"), r.table
    ),
    "bar": lambda r, b: r.algebra.bar(r.algebra.basis_element(b, "Ttilde"), r.table),
    "kl_polynomial y": lambda r, b: r.table.kl_polynomial(b, r.group.element((0, 1))),
    "kl_polynomial w": lambda r, b: r.table.kl_polynomial(r.group.identity, b),
    "mu y": lambda r, b: r.table.mu(b, r.group.element((0, 1))),
    "mu w": lambda r, b: r.table.mu(r.group.identity, b),
    "h_map x": lambda r, b: StructureConstants(r.table).h_map(b, r.group.generator(0)),
    "h_map y": lambda r, b: StructureConstants(r.table).h_map(r.group.generator(0), b),
    # asymptotic
    "a_function": lambda r, b: r.a_function(b),
    "gamma z": lambda r, b: r.gamma(r.group.generator(0), r.group.generator(0), b),
    "gamma_map x": lambda r, b: r.gamma_map(b, r.group.generator(0)),
    "gamma_map y": lambda r, b: r.gamma_map(r.group.generator(0), b),
    "j_multiply": lambda r, b: r.j_multiply(r.t(b), r.t(r.group.identity)),
    "j_multiply signed": lambda r, b: r.j_multiply(r.t(r.group.identity), r.t(b), signed=True),
    "phi": lambda r, b: r.phi(b),
    "jta_multiply": lambda r, b: r.jta_multiply(r.t(b), r.t(r.group.identity)),
    "phi_of_element T": lambda r, b: r.phi_of_element(r.algebra.basis_element(b, "T")),
    "phi_of_element Cprime": lambda r, b: r.phi_of_element(r.algebra.basis_element(b, "Cprime")),
}


@pytest.mark.parametrize("bad, error", [pytest.param(b, e, id=name) for name, b, e in NON_ELEMENTS])
@pytest.mark.parametrize("call", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_entry_points_refuse_non_elements(ring, call, bad, error):
    with pytest.raises(error) as info:
        call(ring, bad)
    # a ValueError must not be a GroupMismatch in disguise, nor the reverse
    assert isinstance(info.value, GroupMismatch) == (error is GroupMismatch)


def test_refusals_name_what_is_wrong(ring):
    g = ring.group
    messages = {
        "A1~ element": "used with group",
        "omega 1": "no omega element 1",
        "word 00": "not a canonical reduced word",
        "letter 5": "no generator 5 in type A2~",
    }
    for name, bad, _ in NON_ELEMENTS:
        with pytest.raises(Exception, match=messages[name]):
            g.left_descents(bad)


def test_canonical_elements_pass_the_check(ring):
    """Elements the group builds, including words not seen before, pass."""
    g = ring.group
    fresh = GroupElement(A2, g.element((2, 1, 0, 2, 1, 0, 2)).word)
    assert g.inverse(g.inverse(fresh)) == fresh
    extended = heckej.make_group(GroupDescriptor("A2~", extended=True))
    assert extended.left_descents(GroupElement(extended.desc, (0,), 2)) == frozenset({0})
