"""The asymptotic ring J: a-function, gamma constants, t-basis
multiplication, distinguished involutions, and the map from the Hecke
algebra into J tensor A.

Truncation discipline.  a(z) is an infimum over all pairs (x, y), so a
finite scan only ever yields a lower bound.  A JRing is created with a
working radius L, and a(z) is certified for len(z) <= L by one of three
certificates (see JRing._prove); a witness that does not give the
claimed valuation raises HeckejError:

- identity: a(z) = 0 when z has no Coxeter part (e and the Omega
  elements).
- witness+bound: z = x w_J y with lengths adding and len(w_J) = len(w0)
  (w0 = finite longest element) has a(z) >= len(w_J), by the witness
  h_{x w_J, w_J y, z} of valuation -len(w_J), and a(z) <= len(w0) for
  every z (Lusztig, Cells in affine Weyl groups, 1985).
- unique-word: z != e with a unique reduced word has a(z) = 1 (Lusztig,
  Some examples of square integrable representations of semisimple
  p-adic groups, 1983); witness (s, z) for the left descent s, with
  h_{s,z,z} = v + v^-1.  One walk down the word of z decides between
  the two: on A1~ and A2~ a left descent set of two or more elements
  gives a factor w_J of length len(w0), so a z without one has a unique
  word.  On A1~, len(w0) = 1 and both certificates say the same.

a_function(z) refuses len(z) > L and answers every other z by its
certificate, reported at the certification bound len(z) + 2*len(w0) + 2.
No a-value comes from a scan of pairs: the all-pairs minimum
StructureConstants.scan_min_exponents is only the tests' reference.

The KL table has radius L + len(w0) - 1, which holds every witness and
every h_{x,y,z} with len x + len y <= L.  Every gamma, J-product and phi
image refuses to go past the certified radius instead of silently
truncating (phi(x) needs phi_reach(len(x)) <= L), except jta_multiply: it
refuses a factor with a term past L, and its product in J tensor A drops
each t_z with len(z) > L (the table is extended to len x + len y - 1 <=
2L - 1 for it).

One convention.  Every read-off is for the canonical basis C'_w.  The
basis C_w has structure constants star(h), star being v -> -v^-1, and J
in its convention is the image of this one under JElement.signed_image.
(h is bar-invariant with exponents of the parity of len x + len y +
len z, so the gammas of the two conventions differ by that sign.)  The
signed J product is therefore no second read-off: star is an involutive
ring automorphism and gamma an integer, so tau o star of the product of
the images of sum c1 t_x and sum c2 t_y is sum (-1)^(len x + len y +
len z) c1 c2 gamma_{x,y,z} t_z, for integer and Laurent c1, c2 alike.

Specialization.  JElement.specialize, the one evaluation at v = q^(1/2),
serves specialized_rank and the CLI's phi --q.

Read-off.  gamma_{x,y,z} is one digit of the packed h_{x,y,z} in the
row that StructureConstants._row hands out (h_map decodes the same row
whole): digit -a(z), after the valuation (the digit of the lowest set
bit) shows no term below v^-a(z); NotInAPlus otherwise.  A witness of
a(z) is checked on the same row by its valuation.

Cell skip.  gamma_{x,y,z} != 0 needs x ~_L y^-1 (P8 of Lusztig, Cells
in affine Weyl groups II, 1987).  So x and y lie in one two-sided cell,
on which a is constant, and R(x) = R(y^-1) = L(y), since the right
descent set is constant on left cells (Kazhdan and Lusztig,
Representations of Coxeter groups and Hecke algebras, 1979, Prop. 2.4).
A product therefore groups the terms t_y of its right factor once by the
key (a(y), L(y)) and pairs each t_x only with the group of key
(a(x), R(x)); both keys of an element are memoized together, each a-value
being one memoized proof.  The pairs it skips are never read off, and
_gamma_terms itself does not skip.

Memoization.  A ring computes each read-off once: the proved a(z) per
z and the two keys of the cell skip, its distinguished involutions, the
gammas of each (x, y), stored with their signs
(-1)^(len x + len y + len z) gamma for the signed product, and the phi
image of each x.  A refusal runs before the memo of any pair past the
radius is read: a product refuses term by term as it visits its
factors, with the message of its whole factors.  Only
successful results are stored, so a call that raised raises again; the
memos are bounded by the certified radius.  Callers get copies, apart
from the immutable AValue of a proof.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import GroupMismatch, HeckejError, NotInAPlus, RadiusExceeded
from .hecke import HeckeElement, KLTable, StructureConstants, hecke_algebra
from .laurent import Laurent, _accumulate, _digit, _unpack, _valuation
from .weyl import GroupDescriptor, GroupElement, make_group

__all__ = ["AValue", "JElement", "JTensorAElement", "JRing"]


class AValue(namedtuple("AValue", "z value scan_radius certified certificate witness")):
    """a(z) and how it is known: a proof, reported at the certification
    bound (scan_radius) with the certificate that names it (see the module
    docstring) and its witness pair (x, y), if it has one; certified is
    always True."""

    __slots__ = ()


class JElement:
    """Finite combination of t_w, tagged with its certification radius.

    Coefficients are integers for elements of J and Laurent polynomials
    for elements of J tensor A (the images of phi), none of them zero:
    JRing.j_element drops zeros, and the ring's products never make one.
    Mutable and unhashable; equal when the group and terms are.
    """

    __slots__ = ("desc", "terms", "radius")

    def __init__(self, desc: GroupDescriptor, terms: dict[GroupElement, int | Laurent], radius: int):
        self.desc = desc
        self.terms = terms
        self.radius = radius

    def max_length(self) -> int:
        return max((len(w.word) for w in self.terms), default=0)

    def signed_image(self) -> "JElement":
        """tau o star: t_w -> (-1)^len(w) t_w, and star (v -> -v^-1) on
        Laurent coefficients.  It carries J (tensor A) in the C' convention
        onto the C convention and back, being its own inverse."""
        terms = {}
        for w, c in self.terms.items():
            if isinstance(c, Laurent):
                c = c.star()
            terms[w] = -c if len(w.word) & 1 else c
        return JElement(self.desc, terms, self.radius)

    def specialize(self, q: Fraction) -> dict[GroupElement, tuple[Fraction, Fraction]]:
        """An element of J tensor A at v = q^(1/2), each coefficient as the
        pair (a0, a1) meaning a0 + a1*sqrt(q); q <= 0 is refused."""
        return {w: c.specialize(q) for w, c in self.terms.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, JElement):
            return NotImplemented
        return self.desc == other.desc and self.terms == other.terms

    def __repr__(self) -> str:
        body = " + ".join(
            f"({c})*t[{w}]" if isinstance(c, Laurent) else f"{c}*t[{w}]"
            for w, c in sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        )
        return body or "0"


JTensorAElement = JElement


def certification_bound(desc: GroupDescriptor, z_length: int) -> int:
    """The radius at which a certified a(z) is reported: len(z) + 2 len(w0) + 2.
    It is a label of the proof (AValue.scan_radius); nothing is scanned."""
    return z_length + 2 * desc.finite_longest_length + 2


def phi_reach(desc: GroupDescriptor, n: int) -> int:
    """The largest len(z) of a term t_z of phi(x) for len(x) = n, the one
    statement of phi's reach: len(z) <= len(x) + len(d) over the
    distinguished involutions d, which reach length 2 len(w0) - 1."""
    return n + 2 * desc.finite_longest_length - 1


class JRing:
    """J with certified-truncated multiplication at a fixed working radius."""

    def __init__(self, desc: GroupDescriptor, radius: int):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.desc = desc
        self.radius = radius
        self.group = make_group(desc)
        self.algebra = hecke_algebra(desc)
        self.table = KLTable(self.group, radius + desc.finite_longest_length - 1)
        self.constants = StructureConstants(self.table)
        # read-offs, computed once per ring and stored only on success
        self._dinv: list[GroupElement] | None = None
        self._proofs: dict[GroupElement, AValue] = {}
        self._gammas: dict[tuple, tuple[tuple[GroupElement, int, int], ...]] = {}
        self._keys: dict[GroupElement, tuple] = {}
        self._phis: dict[GroupElement, tuple[tuple[GroupElement, Laurent], ...]] = {}

    # -- a-function --------------------------------------------------------

    def _prove(self, z: GroupElement) -> AValue:
        """a(z) for len(z) <= radius by a certificate, as the module
        docstring sets out (memoized).  A witness (x, y) must give
        h_{x,y,z} of valuation -a(z), or HeckejError is raised."""
        got = self._proofs.get(z)
        if got is not None:
            return got
        g = self.group
        zid = g._element_id(z)
        top = self.desc.finite_longest_length
        if not z.word:
            certificate, value, witness = "identity", 0, None
        else:
            witness = g.parabolic_factor(z, top)
            if witness is not None:
                certificate, value = "unique-word" if top == 1 else "witness+bound", top
            else:
                # the walk met no left descent set J with len(w_J) = top; on A1~
                # and A2~ that is every J of two or more elements, so each one
                # was a singleton and z has a unique reduced word
                certificate, value, witness = "unique-word", 1, (g.generator(z.word[0]), z)
            x, y = witness
            h = self.constants._row(x, y)[0].get(zid, 0)
            if not h or _valuation(h) != -value:
                raise HeckejError(f"witness ({x}, {y}) of a({z}) = {value} gives h = {Laurent._raw(_unpack(h))}")
        got = self._proofs[z] = AValue(
            z, value, certification_bound(self.desc, len(z.word)), True, certificate, witness
        )
        return got

    def a_function(self, z: GroupElement) -> AValue:
        """a(z) for len(z) <= radius, proved by a certificate and reported at
        the certification bound."""
        self._within(len(z.word), "len(z)")
        return self._prove(z)

    def _within(self, length: int, what: str) -> None:
        """The one refusal of a request past the certified radius."""
        if length > self.radius:
            raise RadiusExceeded(f"{what} = {length} beyond certified radius {self.radius}")

    # -- gamma constants ---------------------------------------------------

    def _gamma_terms(self, x: GroupElement, y: GroupElement) -> tuple[tuple[GroupElement, int, int], ...]:
        """The triples (z, gamma_{x,y,z}, (-1)^(len x + len y + len z) gamma_{x,y,z})
        with gamma nonzero, for the z of h_{x,y,.} within the certified
        radius (memoized).  gamma is digit -a(z) of the packed h_{x,y,z},
        which must lie in v^-a(z) Z[v] (NotInAPlus otherwise).  A pair past
        the radius (from jta_multiply) extends the table, never past 2L - 1."""
        got = self._gammas.get((x, y))
        if got is None:
            self.table.extend(len(x.word) + len(y.word) - 1)
            row, omega = self.constants._row(x, y)
            words, element = self.group._words, self.group._element
            xy_len = len(x.word) + len(y.word)
            got = []
            for zid, c in row.items():
                word = words[zid]
                if len(word) <= self.radius:
                    z = element(zid, omega)
                    a = self._prove(z).value
                    if _valuation(c) < -a:
                        raise NotInAPlus(f"v^{a} h_{{{x},{y},{z}}} has negative-exponent terms")
                    g = _digit(c, -a)
                    if g:
                        got.append((z, g, -g if (xy_len + len(word)) & 1 else g))
            got = self._gammas[x, y] = tuple(got)
        return got

    def gamma(self, x: GroupElement, y: GroupElement, z: GroupElement) -> int:
        """Constant term of v^a(z) h_{x,y,z}; refused for z past the radius,
        and wherever gamma_map is."""
        self.group._element_id(z)
        self._within(len(z.word), "len(z)")
        return self.gamma_map(x, y).get(z, 0)

    def gamma_map(self, x: GroupElement, y: GroupElement) -> dict[GroupElement, int]:
        """All nonzero gamma_{x,y,z}; needs len(x)+len(y) within the radius."""
        self._within(len(x.word) + len(y.word), "len(x) + len(y)")
        return self._product(self.t(x), self.t(y)).terms

    # -- J multiplication --------------------------------------------------

    def t(self, w: GroupElement) -> JElement:
        return JElement(self.desc, {w: 1}, self.radius)

    def j_element(self, terms: dict[GroupElement, int]) -> JElement:
        return JElement(self.desc, {w: c for w, c in terms.items() if c}, self.radius)

    def _product(self, a: JElement, b: JElement, signed: bool = False, truncate: bool = False) -> JElement:
        """sum c1 c2 gamma_{x,y,z} t_z over the terms c1 t_x of a and c2 t_y
        of b, for the z within the certified radius L.  With signed, each
        gamma carries the sign (-1)^(len x + len y + len z), which gives the
        product in the C convention (module docstring, "One convention").

        A pair past the radius is refused before its memo is read: in J one
        with len x + len y > L; with truncate, in J tensor A, one with
        len x > L or len y > L, its t_z past L being dropped instead.  x is
        paired only with the y whose left key (a(y), L(y)) is the right key
        (a(x), R(x)) of x, as every other pair has only zero gammas (module
        docstring, "Cell skip")."""
        radius = self.radius
        if not a.terms or not b.terms:
            # no pair to visit, but a factor past the radius is still refused
            for w in a.terms or b.terms:
                if len(w.word) > radius:
                    self._refuse(a, b, truncate)
            return JElement(self.desc, {}, radius)
        # the memos read inline, as a call costs more than the lookup
        keys, memo = self._keys, self._gammas
        # the terms of b by left key; an x longer than xroom has a pair
        # past the radius
        cells: dict = {}
        xroom = radius
        for y, c2 in b.terms.items():
            ly = len(y.word)
            if ly > radius:
                self._refuse(a, b, truncate)
            if not truncate and radius - ly < xroom:
                xroom = radius - ly
            key = (keys.get(y) or self._cell_keys(y))[0]
            cells.setdefault(key, []).append((y, c2))
        pick = 2 if signed else 1
        out: dict = {}
        for x, c1 in a.terms.items():
            if len(x.word) > xroom:
                self._refuse(a, b, truncate)
            for y, c2 in cells.get((keys.get(x) or self._cell_keys(x))[1], ()):
                terms = memo.get((x, y))
                if terms is None:
                    terms = self._gamma_terms(x, y)
                # most read-offs are empty: look before multiplying c1 * c2
                if not terms:
                    continue
                c = c1 * c2
                for term in terms:
                    # almost every gamma is 1: add c itself then
                    gamma = term[pick]
                    _accumulate(out, term[0], c if gamma == 1 else c * gamma)
        return JElement(self.desc, out, radius)

    def _cell_keys(self, w: GroupElement) -> tuple[tuple[int, frozenset[int]], tuple[int, frozenset[int]]]:
        """The left key (a(w), L(w)) and the right key (a(w), R(w)) of w for
        the cell skip of _product, stored in the memo that _product reads
        inline before it calls this on a miss."""
        a = self._prove(w).value
        g = self.group
        got = self._keys[w] = ((a, g.left_descents(w)), (a, g.right_descents(w)))
        return got

    def _refuse(self, a: JElement, b: JElement, truncate: bool) -> None:
        """The refusal of a product whose factors reach past the radius,
        reported for the whole factors: in J by the product support length
        (the longest terms' lengths added), in J tensor A by the factor
        length.  _product calls it only on a term past the radius, so it
        always raises."""
        if truncate:
            self._within(max(a.max_length(), b.max_length()), "factor length")
        else:
            self._within(a.max_length() + b.max_length(), "product support length")

    def j_multiply(self, j1: JElement, j2: JElement, signed: bool = False) -> JElement:
        """Product in J; refused when its support may pass the radius.  With
        signed, in the C convention (see _product)."""
        if j1.desc != self.desc or j2.desc != self.desc:
            raise GroupMismatch("elements of a different group")
        return self._product(j1, j2, signed)

    # -- distinguished involutions ----------------------------------------

    def distinguished_involutions(self, radius: int | None = None) -> list[GroupElement]:
        """Involutions d with a(d) = len(d) - 2 deg_q P_{e,d} in the ball."""
        if radius is None:
            radius = self.radius
        self._within(radius, "radius")
        if self._dinv is None:
            e = self.group.identity
            out = []
            for d in self.group.enumerate_ball(self.radius):
                if not self.group.multiply(d, d).is_identity():
                    continue
                p = self.table.kl_polynomial(e, d)
                if not p:
                    continue
                # stored on v-exponents, so max_exp is twice the q-degree of P
                if self._prove(d).value == len(d.word) - p.max_exp():
                    out.append(d)
            self._dinv = out
        return [d for d in self._dinv if len(d) <= radius]

    # -- the homomorphism into J tensor A ----------------------------------

    def _phi_terms(self, x: GroupElement) -> tuple[tuple[GroupElement, Laurent], ...]:
        """The terms (z, coefficient) of phi(C'_x): sum over distinguished d
        and z in the same a-stratum of h_{x,d,z} t_z (memoized), not to be
        mutated.  Needs phi_reach(len(x)) in the radius."""
        self._within(phi_reach(self.desc, len(x.word)), "len(x) + 2 len(w0) - 1")
        got = self._phis.get(x)
        if got is None:
            out: dict[GroupElement, Laurent] = {}
            for d in self.distinguished_involutions():
                ad = self._prove(d).value
                for z, h in self.constants.h_map(x, d).items():
                    if self._prove(z).value == ad:
                        _accumulate(out, z, h)
            got = self._phis[x] = tuple(out.items())
        return got

    def phi(self, x: GroupElement) -> JElement:
        """Image of the canonical basis element C'_x (see _phi_terms)."""
        return JElement(self.desc, dict(self._phi_terms(x)), self.radius)

    def phi_of_element(self, h: HeckeElement) -> JElement:
        """phi extended A-linearly to a Hecke-algebra element."""
        h = self.algebra.to_basis(h, "Cprime", self.table)
        out: dict[GroupElement, Laurent] = {}
        for x, c in h.terms.items():
            for z, hz in self._phi_terms(x):
                _accumulate(out, z, c * hz)
        return JElement(self.desc, out, self.radius)

    def jta_multiply(self, a: JElement, b: JElement) -> JElement:
        """Product in J tensor A, truncated to the certified radius; refused
        for a factor with a term past it."""
        return self._product(a, b, truncate=True)

    # -- specialization ----------------------------------------------------

    def specialized_rank(self, xs: list[GroupElement], q: Fraction) -> int:
        """Rank over Q(sqrt q) of the specialized phi images of the given
        basis elements: for square q at v = +sqrt(q) over Q, otherwise by
        _quadratic_rank."""
        from fractions import Fraction

        q = Fraction(q)
        images = [self.phi(x).specialize(q) for x in xs]
        support = dict.fromkeys(z for img in images for z in img)
        rows = [[img.get(z, (0, 0)) for z in support] for img in images]
        sqrt_q = _exact_sqrt(q)
        if sqrt_q is None:
            return _quadratic_rank(rows, q)
        return _rank([[a0 + a1 * sqrt_q for a0, a1 in row] for row in rows])


def _exact_sqrt(q: Fraction) -> Fraction | None:
    from fractions import Fraction

    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return root if root * root == q else None


def _quadratic_rank(rows: list[list[tuple]], q: Fraction) -> int:
    """Rank over the field Q(sqrt q), q not a square, of rows of pairs
    (a0, a1) meaning a0 + a1*sqrt(q).  Q(sqrt q) has degree 2 over Q, so a
    row r = A + sqrt(q) B spans the same Q-space as r and sqrt(q) r, which
    in the basis 1, sqrt(q) are the rational rows (A | B) and (q B | A);
    their Q-rank is twice the rank sought."""
    flat = []
    for row in rows:
        a, b = [c[0] for c in row], [c[1] for c in row]
        flat += [a + b, [q * c for c in b] + a]
    return _rank(flat) // 2


def _rank(rows: list[list]) -> int:
    """Rank over Q by Gaussian elimination."""
    from fractions import Fraction

    rows = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank
