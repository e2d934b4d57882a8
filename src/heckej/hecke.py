"""The affine Hecke algebra: bases, multiplication, bar involution,
Kazhdan-Lusztig polynomials and structure constants.

Conventions.  q = v^2 and T_s^2 = (q-1)T_s + q, so the rescaled basis
~T_w = v^(-len(w)) T_w satisfies ~T_s^2 = (v-v^-1) ~T_s + 1.  The
canonical basis is

    C'_w = sum_y v^(len(y)-len(w)) P_{y,w}(v^2) ~T_y,

fixed by the bar involution, the ~T product recursion run with inverse
generators ~T_s^-1.  The table checks only unitriangularity; bar
invariance is certified in tests/test_hecke.py.  The bases are T, ~T
and C' only: the basis C_w of Kazhdan and Lusztig is the image of C'_w
under star (v -> -v^-1 on coefficients, ~T_w fixed), a ring
automorphism, which the CLI applies to C'-results at output time.

Internally every Hecke-algebra vector is a raw ~T vector
{(cox_id, omega): int}, each coefficient u_y one int of heckej.laurent's
codec with a signed, balanced digit of W bits, in length-scaled form:
the int at y is v^(kappa-len(y)) u_y at v = 2^W, for one kappa per
vector.  In that form every step is int adds, left shifts and products:
~T_s raises kappa by one and takes c at y to c at sy if sy > y, and to
v^2 c at sy and (v^2 - 1) c at y if sy < y; a product of two vectors
multiplies their ints, and its kappa is the sum of theirs; and C'_w,
with kappa len(w), is P_{y,w}(v^2) at y (`KLTable._packed`, once per w
and width), so peeling it off is one int product per y.  A
HeckeElement ({GroupElement: Laurent}) appears only at the public
edges: `_to_ttilde_raw` packs one in any basis and `_from_ttilde_raw`
writes one in any basis.

Unlike the KL data these coefficients have any sign and size, so W is
set per call from an a priori bound.  Let n(T_w) = n(~T_w) = 3^len(w)
and n(C'_w) = sum_y P_{y,w}(1), and N(h) = sum |c|_1 n(b) over the terms
c b of h, |.|_1 summing absolute coefficients.  Then the coefficients
of h1 h2 in any basis have |.|_1 at most N(h1) N(h2) in total, and those
of h and of bar(h) at most N(h).  Since ~T_s = C'_s - v^-1 and
~T_s^-1 = C'_s - v, by positivity of P_{y,w} and h_{x,y,z} each
coefficient is bounded by that of a product of factors C'_s + v^(+-1)
and C'_w, which is positive in ~T and C' coordinates and whose total at
v = 1 is its mass in the group algebra, a product of 3s and P-masses;
in particular |~T_s u|_1 <= 3 |u|_1.  W = bit_length(bound) + 1 then
reads every result back exactly (`_width`).  Only results are read
back: an int is the exact value of the polynomial it stands for, so a
step in between may grow past W bits.

The KL table and the structure-constant columns are {cox_id: coeff}
vectors whose coefficients are packed ints (heckej.laurent's codec):
P_{y,w} with q = 2^PACK_W, and h_{x,y,z} with v = 2^PACK_W, so each
recursion step is int shifts and adds.  Both stay packed: `_packed`
repacks one w once per width, `h_map` decodes one row per query, and
the J ring reads single digits of the row `_row` hands it.  Exactness is guarded at
every step: each stored vector has all digits in [0, 2^PACK_T), which
positivity guarantees, and a step sums at most 2^(PACK_W-1-PACK_T) such
digits into one.

The KL table is built once per orbit of the diagram automorphisms: a
sigma of the Coxeter graph preserves length and Bruhat order, so
P_{sigma y, sigma w} = P_{y,w} and mu(sigma y, sigma w) = mu(y, w)
(Kazhdan-Lusztig 1979; Lusztig, Hecke algebras with unequal parameters,
ch. 5-6), and the other elements of an orbit are relabelled copies.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce

from .errors import BudgetExceeded, GroupMismatch, HeckejError, RadiusExceeded
from .laurent import PACK_W, _DIGIT, Laurent, ONE, ZERO, _accumulate, _digit, _pack, _unpack, _valuation
from .weyl import GroupDescriptor, GroupElement, WeylGroup, _length_series, make_group

__all__ = [
    "HeckeElement",
    "HeckeAlgebra",
    "KLTable",
    "StructureConstants",
    "hecke_algebra",
]

BASES = ("T", "Ttilde", "Cprime")

# stratum entry of StructureConstants.scan_min_exponents with no pair;
# larger than any valuation.  The scan answers no a(z) of the library: it
# is the reference that the tests check the certified a-function against.
NO_PAIR = 1 << 30

# Budget on the entries of one KL table, checked before any enumeration.
# The largest table the tests build (A2~, radius 35: 1.13 M entries) is
# estimated at 1.86 M by _check_kl_budget.
KL_ENTRY_BUDGET = 2 * 10**6

# Bits of a stored packed digit: every coefficient of a KL polynomial and
# of a structure constant h_{x,y,z} must stay below 2^PACK_T, and the rest of a
# PACK_W-bit digit is headroom for the sums of one recursion step.  The
# largest table the KL budget admits (A2~, radius 35) has coefficients up
# to 4; its scan (radius 18) has h-coefficients up to 42 and steps that
# sum up to 539 digits, where 2^(PACK_W-1-PACK_T) = 2048 are allowed.
PACK_T = 8


def _width(bound: int) -> int:
    """Bits of a balanced digit that holds every integer of absolute value
    at most bound."""
    return bound.bit_length() + 1


def _nonzero(vec: dict) -> dict:
    """vec without its zero entries."""
    return {key: c for key, c in vec.items() if c} if 0 in vec.values() else vec


@lru_cache(maxsize=None)
def _spill_mask(ndigits: int, t: int) -> int:
    """Bits t..PACK_W-1 of each of the lowest ndigits packed digits."""
    repunit = ((1 << PACK_W * ndigits) - 1) // ((1 << PACK_W) - 1)
    return ((1 << PACK_W) - (1 << t)) * repunit


def _check_packed(vec: dict, fan_in: int, floor: int = 0) -> None:
    """The exactness guard of one packed recursion step.  Its inputs had
    digits in [0, 2^PACK_T); fan_in bounds how many of them (with
    multiplicity) sum into one digit of vec.  While fan_in * 2^PACK_T is
    below 2^(PACK_W-1) every true digit of vec is read back exactly, so the
    OR of its entries shows any digit outside [0, 2^PACK_T), and any set
    bit under `floor` (the digit a right shift would drop)."""
    if fan_in << PACK_T >= 1 << (PACK_W - 1):
        raise BudgetExceeded(f"a packed step sums {fan_in} digits; {PACK_W}-bit digits cannot hold them")
    acc = reduce(operator.or_, vec.values(), 0)
    if acc >= 0 and not acc & (_spill_mask(acc.bit_length() // PACK_W + 1, PACK_T) | floor):
        return
    if any(d < 0 for c in vec.values() for d in _unpack(c).values()):
        raise HeckejError("a negative coefficient where positivity holds")
    raise BudgetExceeded(f"a packed coefficient passes 2^{PACK_T} or its lowest exponent")


class HeckeElement:
    """A finite formal sum of basis symbols with Laurent coefficients."""

    __slots__ = ("desc", "basis", "terms")

    def __init__(self, desc: GroupDescriptor, basis: str, terms: dict[GroupElement, Laurent]):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.desc = desc
        self.basis = basis
        self.terms = {w: c for w, c in terms.items() if c}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return (
            self.desc == other.desc
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*{self.basis}[{w}]" for w, c in sorted(self.terms.items(), key=lambda t: t[0].sort_key()))
        return body or "0"

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.basis != other.basis or self.desc != other.desc:
            raise ValueError("can only add elements in the same basis")
        out = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(out, w, c)
        return HeckeElement(self.desc, self.basis, out)

    def scale(self, c: Laurent) -> "HeckeElement":
        return HeckeElement(self.desc, self.basis, {w: c * v for w, v in self.terms.items()})


class HeckeAlgebra:
    """Multiplication and bar involution over one group handle."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self.desc = group.desc

    # -- constructors -----------------------------------------------------

    def basis_element(self, w: GroupElement, basis: str = "T") -> HeckeElement:
        return HeckeElement(self.desc, basis, {w: ONE})

    def unit(self, basis: str = "T") -> HeckeElement:
        return self.basis_element(self.group.identity, basis)

    # -- internal ~T-basis product ---------------------------------------

    def _lmul_gen_raw(self, s: int, vec: dict, shift: int, inverse: bool) -> dict:
        """~T_s, or with inverse ~T_s^-1 = ~T_s - (v - v^-1), times a packed
        vector, whose kappa it raises by one; shift is 2W, so c << shift is
        v^2 c.  ~T_w goes to ~T_{sw} + (v - v^-1) ~T_w if sw < w, and ~T_s^-1
        moves that term to sw > w with the opposite sign."""
        g = self.group
        memo, ldesc = g._lmul_memo, g._ldesc
        out: dict = {}
        for key, c in vec.items():
            i, om = key
            # the memo read inline, as the call costs more than the lookup
            j = memo.get((s, i))
            if j is None:
                j = g._lmul(s, i)
            up = c << shift
            if s in ldesc[i]:
                out[j, om] = out.get((j, om), 0) + up
                if not inverse:
                    out[key] = out.get(key, 0) + up - c
            else:
                out[j, om] = out.get((j, om), 0) + c
                if inverse:
                    out[key] = out.get(key, 0) + c - up
        return _nonzero(out)

    def _lmul_omega_raw(self, k: int, vec: dict) -> dict:
        if k == 0:
            return vec
        g = self.group
        perm = g.omega_perm(k)
        n = g.desc.omega_order
        return {(g._permuted_id(perm, i), (k + om) % n): c for (i, om), c in vec.items()}

    def _mul_ttilde_raw(self, vec1: dict, vec2: dict, shift: int, inverse: bool = False) -> dict:
        """vec1 * vec2 as the sum of c * (~T_w ~T_omega vec2) over the terms
        c ~T_w ~T_omega of vec1, one int product per pair of keys; its kappa
        is the sum of theirs.  Each piece ~T_w ~T_omega vec2 is
        ~T_s (~T_{sw} ~T_omega vec2) for the first letter s of w, built once
        per key (cox_id, omega) from the piece of sw.  The support of a
        canonical expansion is closed under dropping the first letter, so
        its product costs one generator step per support key."""
        pieces: dict = {}
        out: dict = {}
        for key, c in vec1.items():
            for key2, c2 in self._ttilde_piece(pieces, key, vec2, shift, inverse).items():
                out[key2] = out.get(key2, 0) + c * c2
        return _nonzero(out)

    def _ttilde_piece(self, pieces: dict, key: tuple[int, int], vec2: dict, shift: int, inverse: bool) -> dict:
        """~T_w ~T_omega vec2 for key = (id of w, omega), each ~T_s inverted
        with inverse, with kappa raised by len(w); memoized in pieces."""
        got = pieces.get(key)
        if got is None:
            i, om = key
            if i == 0:
                got = self._lmul_omega_raw(om, vec2)
            else:
                s = self.group._words[i][0]
                below = self._ttilde_piece(pieces, (self.group._lmul(s, i), om), vec2, shift, inverse)
                got = self._lmul_gen_raw(s, below, shift, inverse)
            pieces[key] = got
        return got

    # -- basis conversion --------------------------------------------------

    def _read(self, h: HeckeElement, table: "KLTable | None") -> tuple[list, int, int]:
        """h's terms as (Coxeter id, omega, coefficient dict, depth), each
        element checked by the group, and in C' by the table's radius, as its
        id is read; with N(h) of the module docstring and the least kappa
        that packs every term.  A term packs at offset kappa - depth."""
        canonical = h.basis == "Cprime"
        if canonical and (table is None or table.group is not self.group):
            raise ValueError("canonical-basis conversion needs a KL table of this group")
        # T_w = v^len(w) ~T_w: a T coefficient sits len(w) digits above a ~T one
        lift = 0 if h.basis == "T" else 1
        terms = []
        norm = 0
        for w, c in h.terms.items():
            if canonical:
                i = table._require(w)
                mass = table._mass(i)
            else:
                i = self.group._element_id(w)
                mass = 3 ** len(w.word)
            terms.append((i, w.omega, c._c, lift * len(w.word)))
            norm += sum(map(abs, c._c.values())) * mass
        kappa = max((depth - min(c) for _, _, c, depth in terms), default=0)
        return terms, norm, kappa

    def _to_ttilde_raw(self, basis: str, terms: list, kappa: int, width: int, table: "KLTable | None") -> dict:
        """The packed ~T vector, for kappa and width, of terms read by _read
        from an element in basis."""
        if basis != "Cprime":
            return {(i, om): _pack(c, kappa - depth, width) for i, om, c, depth in terms}
        out: dict = {}
        for i, om, c, depth in terms:
            a = _pack(c, kappa - depth, width)
            for y, p in table._packed(i, width).items():
                out[y, om] = out.get((y, om), 0) + a * p
        return _nonzero(out)

    def _from_ttilde_raw(self, vec: dict, kappa: int, width: int, basis: str, table: "KLTable | None") -> HeckeElement:
        """A packed ~T vector, which is consumed, in the given basis.  C'_w is
        ~T_w plus shorter terms, so a canonical expansion is peeled off one
        length at a time from the longest down; in length-scaled form that
        takes c P_{y,w}(v^2) from y for the int c at w."""
        words = self.group._words
        if basis == "Cprime":
            if table is None or table.group is not self.group:
                raise ValueError("canonical-basis conversion needs a KL table of this group")
            rest, vec = vec, {}
            # the keys of rest by length; a peel adds keys only to shorter lengths
            strata: list[list] = [[] for _ in range(max((len(words[i]) for i, _ in rest), default=-1) + 1)]
            for key in rest:
                strata[len(words[key[0]])].append(key)
            for stratum in reversed(strata):
                for key in stratum:
                    i, om = key
                    c = rest.pop(key)
                    if not c:
                        continue
                    vec[key] = c
                    for y, p in table._packed(i, width).items():
                        if y != i:
                            got = rest.get((y, om))
                            if got is None:
                                strata[len(words[y])].append((y, om))
                                got = 0
                            rest[y, om] = got - c * p
        lift = 0 if basis == "T" else 1
        terms = {
            GroupElement(self.desc, words[i], om): Laurent._raw(_unpack(c, kappa - lift * len(words[i]), width))
            for (i, om), c in vec.items()
            if c
        }
        return HeckeElement(self.desc, basis, terms)

    def to_basis(self, h: HeckeElement, basis: str, table: "KLTable | None" = None) -> HeckeElement:
        if h.basis == basis:
            return h
        terms, norm, kappa = self._read(h, table)
        width = _width(norm)
        vec = self._to_ttilde_raw(h.basis, terms, kappa, width, table)
        return self._from_ttilde_raw(vec, kappa, width, basis, table)

    # -- public multiplication -------------------------------------------

    def multiply(self, h1: HeckeElement, h2: HeckeElement, table: "KLTable | None" = None) -> HeckeElement:
        """Product, returned in the basis of h1."""
        if h1.desc != self.desc or h2.desc != self.desc:
            raise GroupMismatch("elements do not belong to this algebra")
        terms1, norm1, kappa1 = self._read(h1, table)
        terms2, norm2, kappa2 = self._read(h2, table)
        width = _width(norm1 * norm2)
        prod = self._mul_ttilde_raw(
            self._to_ttilde_raw(h1.basis, terms1, kappa1, width, table),
            self._to_ttilde_raw(h2.basis, terms2, kappa2, width, table),
            2 * width,
        )
        return self._from_ttilde_raw(prod, kappa1 + kappa2, width, h1.basis, table)

    # -- bar involution ----------------------------------------------------

    def bar(self, h: HeckeElement, table: "KLTable | None" = None) -> HeckeElement:
        """The semilinear involution v -> v^-1, ~T_w -> (~T_{w^-1})^-1.  As
        bar(~T_w ~T_omega) = ~T_{s1}^-1 ... ~T_{sk}^-1 ~T_omega for w = s1...sk,
        it is the product of h's barred ~T coefficients with the unit, with
        inverse steps."""
        ttilde = self.to_basis(h, "Ttilde", table)
        barred = HeckeElement(self.desc, "Ttilde", {w: c.bar() for w, c in ttilde.terms.items()})
        terms, norm, kappa = self._read(barred, table)
        width = _width(norm)
        vec = self._to_ttilde_raw("Ttilde", terms, kappa, width, table)
        out = self._mul_ttilde_raw(vec, {(0, 0): 1}, 2 * width, inverse=True)
        return self._from_ttilde_raw(out, kappa, width, h.basis, table)


@lru_cache(maxsize=None)
def hecke_algebra(desc: GroupDescriptor) -> HeckeAlgebra:
    return HeckeAlgebra(make_group(desc))


def _q_coefficients(c: int) -> list[int]:
    """A packed KL polynomial's coefficients in q, degree 0 first, read
    as its base-2^PACK_W digits.  This is exact: `_check_packed` keeps
    every stored digit in [0, 2^PACK_T), so no digit borrows from the
    next and the top digit is the leading coefficient."""
    out = []
    while c:
        out.append(c & _DIGIT)
        c >>= PACK_W
    return out


def _check_kl_budget(desc: GroupDescriptor, radius: int) -> None:
    """Refuse a KL table of this radius when sum_n |stratum n| * |ball(n)|,
    a bound on its entries (pairs y <= w), passes KL_ENTRY_BUDGET."""
    entries = 0
    for stratum, ball in _length_series(desc, radius):
        entries += stratum * ball
        if entries > KL_ENTRY_BUDGET:
            raise BudgetExceeded(f"a KL table of radius {radius} may hold over {KL_ENTRY_BUDGET} entries")


class KLTable:
    """Kazhdan-Lusztig data for all Coxeter-part elements of length <= radius.

    For each w the full ~T-expansion of C'_w is kept, indexed by Coxeter
    id: its coordinate at y is v^(len(y)-len(w)) P_{y,w}(v^2), stored as
    P_{y,w} packed in q (no offset: P has no negative powers).  Next to it
    is the list of y < w with mu(y, w) != 0, and the sum of those mu.
    Built stratum by stratum; the recursion is

        C'_w = C'_s C'_u - sum_{z<u, sz<z} mu(z,u) C'_z,   w = s u.

    It runs only for the first element of each orbit of the diagram
    automorphisms sigma, in ball order.  A sigma preserves length and
    Bruhat order, so P_{sigma y, sigma w} = P_{y,w} and
    mu(sigma y, sigma w) = mu(y, w) (Kazhdan-Lusztig 1979), and the rest
    of the orbit is filled by relabelling each y to sigma y.  The
    exactness guard and the unitriangularity check run on every element
    the recursion builds.
    """

    def __init__(self, group: WeylGroup, radius: int):
        self.group = group
        self.desc = group.desc
        self.radius = -1
        self._coords: dict[int, dict[int, int]] = {}
        self._mu_down: dict[int, list[tuple[int, int]]] = {}
        self._mu_mass: dict[int, int] = {}
        self._masses: dict[int, int] = {}
        self._packed_expansions: dict[int, dict[int, dict[int, int]]] = {}
        self.extend(radius)

    # -- construction -----------------------------------------------------

    def extend(self, radius: int) -> None:
        """Grow the table to radius: the mu-recursion builds the first
        element of each diagram-automorphism orbit in ball order, and every
        other sigma w of its orbit is its image, relabelled by sigma."""
        if radius <= self.radius:
            return
        _check_kl_budget(self.desc, radius)
        g = self.group
        ids = g._ball_ids(radius)
        sigmas = [g._permuted_ids(p, ids) for p in g.diagram_automorphisms if p != g._no_perm]
        coords, mu_down, mu_mass = self._coords, self._mu_down, self._mu_mass
        for i in ids:
            if i in coords:
                continue
            self._build(i)
            for sigma in sigmas:
                j = sigma[i]
                if j not in coords:
                    coords[j] = {sigma[y]: c for y, c in coords[i].items()}
                    mu_down[j] = [(sigma[z], mu) for z, mu in mu_down[i]]
                    mu_mass[j] = mu_mass[i]
        self.radius = radius

    def _mu_step(self, vecs: dict, rule, s: int, pid: int, fan_in: int, lift: int = 0, floor: int = 0) -> dict:
        """vecs[s p] = rule(s, vecs[p]) - sum_{w<p, sw<w} mu(w,p) 2^(lift*(len(sp)-len(w))/2) vecs[w]
        for s p > p: one mu-recursion step on packed vectors, for the KL
        build (P_{.,w}, lift PACK_W: the factor is q^((len(sp)-len(w))/2))
        and for the structure-constant columns (C'_x C'_y in C'
        coordinates, lift 0).
        fan_in bounds the digits that rule(s, .) sums into one; the
        result passes _check_packed with the subtracted mu added."""
        g = self.group
        ldesc, words = g._ldesc, g._words
        vec = rule(s, vecs[pid])
        top = len(words[pid]) + 1
        for w, mu in self._mu_down[pid]:
            if s in ldesc[w]:
                fan_in += mu
                m = mu << (lift * (top - len(words[w])) >> 1)
                for y, c in vecs[w].items():
                    vec[y] = vec.get(y, 0) - m * c
        if 0 in vec.values():
            vec = {y: c for y, c in vec.items() if c}
        _check_packed(vec, fan_in, floor)
        return vec

    def _cprime_s(self, s: int, vec: dict[int, int]) -> dict[int, int]:
        """C'_s times C'_u on packed P_{.,u}: C'_s ~T_y = ~T_{sy} + v^-1 ~T_y
        if sy > y, ~T_{sy} + v ~T_y if sy < y, so both terms of y add P_{y,u}
        to P_{.,su}, times q when sy < y."""
        g = self.group
        memo, ldesc = g._lmul_memo, g._ldesc
        out: dict[int, int] = {}
        for y, c in vec.items():
            if s in ldesc[y]:
                c <<= PACK_W
            # the memo read inline, as the call costs more than the lookup
            sy = memo.get((s, y))
            if sy is None:
                sy = g._lmul(s, y)
            out[sy] = out.get(sy, 0) + c
            out[y] = out.get(y, 0) + c
        return out

    def _build(self, wid: int) -> None:
        g = self.group
        words = g._words
        word = words[wid]
        if not word:
            self._coords[wid] = {0: 1}
            self._mu_down[wid] = []
            self._mu_mass[wid] = 0
            return
        s = word[0]
        res = self._mu_step(self._coords, self._cprime_s, s, g._lmul(s, wid), 2, PACK_W)
        if res.get(wid) != 1:
            raise HeckejError(f"C'_w is not unitriangular at w = {word}")
        # mu(y, w) is the coefficient of q^((len(w)-len(y)-1)/2) in P_{y,w}
        mu_list = []
        n = len(word)
        for y, c in res.items():
            d = n - len(words[y])
            if d & 1:
                mu = _digit(c, d >> 1, 0)
                if mu:
                    mu_list.append((y, mu))
        self._coords[wid] = res
        self._mu_down[wid] = mu_list
        self._mu_mass[wid] = sum(mu for _, mu in mu_list)

    # -- queries -----------------------------------------------------------

    def _require(self, w: GroupElement) -> int:
        """The Coxeter id of a caller's element w, refused past the radius."""
        wid = self.group._element_id(w)
        if len(w.word) > self.radius:
            raise RadiusExceeded(f"length {len(w.word)} beyond table radius {self.radius}")
        return wid

    def kl_polynomial(self, y: GroupElement, w: GroupElement) -> Laurent:
        """P_{y,w} as a polynomial in q, stored on even v-exponents."""
        wid = self._require(w)
        yid = self.group._element_id(y)
        if y.omega != w.omega:
            return ZERO
        c = self._coords[wid].get(yid)
        return ZERO if c is None else Laurent._raw({2 * k: x for k, x in enumerate(_q_coefficients(c)) if x})

    def mu(self, y: GroupElement, w: GroupElement) -> int:
        wid = self._require(w)
        yid = self.group._element_id(y)
        if y.omega != w.omega:
            return 0
        for z, m in self._mu_down[wid]:
            if z == yid:
                return m
        return 0

    def _packed(self, wid: int, width: int) -> dict[int, int]:
        """C'_w in the Hecke algebra's length-scaled ~T form for kappa = len(w):
        {yid: P_{y,w}(v^2) at v = 2^width}, packed once per w and width;
        refused past the radius."""
        memo = self._packed_expansions.setdefault(width, {})
        got = memo.get(wid)
        if got is None:
            n = len(self.group._words[wid])
            if n > self.radius:
                raise RadiusExceeded(f"length {n} beyond table radius {self.radius}")
            got = memo[wid] = {
                y: sum(d << 2 * width * k for k, d in enumerate(_q_coefficients(p)))
                for y, p in self._coords[wid].items()
            }
        return got

    def _mass(self, wid: int) -> int:
        """sum_y P_{y,w}(1), the mass of C'_w at v = 1 in the group algebra."""
        got = self._masses.get(wid)
        if got is None:
            got = self._masses[wid] = sum(sum(_q_coefficients(p)) for p in self._coords[wid].values())
        return got


class StructureConstants:
    """Structure constants h_{x,y,z} of the canonical basis, by columns.

    For a fixed right factor y the map x -> (z -> h_{x,y,z}) satisfies
    the same mu-recursion as the KL table, with the left rule

        C'_s C'_z = (v + v^-1) C'_z             if sz < z,
        C'_s C'_z = C'_{sz} + sum mu(w,z) C'_w  otherwise (sw < w),

    so a column is one sweep over a ball of x, each row from the row of
    s x.  All data here is for the basis C'_w on Coxeter parts, and omega
    parts are layered on top.  The constants of the basis C_w are their
    images under v -> -v^-1, which the CLI applies at output time.

    `column` keeps each column packed (v = 2^PACK_W, offset PACK_OFF)
    with the largest x-radius it covers, and a longer x grows it from its
    last stratum; `h_map` decodes only the row it reads.
    """

    def __init__(self, table: KLTable):
        self.table = table
        self.group = table.group
        self.desc = table.desc
        self._columns: dict[int, tuple[int, dict[int, dict[int, int]]]] = {}

    # -- the left s-rule on a C'-coordinate vector -------------------------

    def _s_mult(self, s: int, vec: dict[int, int]) -> dict[int, int]:
        g = self.group
        mu_down = self.table._mu_down
        ldesc, memo = g._ldesc, g._lmul_memo
        out: dict[int, int] = {}
        for z, c in vec.items():
            if s in ldesc[z]:
                # (v + v^-1) c; exact, since digit 0 of c is empty
                out[z] = out.get(z, 0) + (((c << 2 * PACK_W) + c) >> PACK_W)
            else:
                sz = memo.get((s, z))
                if sz is None:
                    sz = g._lmul(s, z)
                out[sz] = out.get(sz, 0) + c
                for w, mu in mu_down[z]:
                    if s in ldesc[w]:
                        out[w] = out.get(w, 0) + mu * c
        return out

    def _grow(self, yid: int, col: dict[int, dict[int, int]], xmax: int, ids: list[int]) -> dict:
        """Add to the packed column col of y the rows it lacks among ids, the
        Coxeter ids of ball(xmax) in enumeration order; returns col."""
        g = self.group
        table = self.table
        ylen = len(g._words[yid])
        if xmax + ylen - 1 > table.radius:
            raise RadiusExceeded(
                f"column ({ylen}) x radius {xmax} needs mu data beyond table radius {table.radius}"
            )
        mass = table._mu_mass.__getitem__
        col.setdefault(0, {yid: _pack({0: 1})})
        for xid in ids:
            if xid in col:
                continue
            s = g._words[xid][0]
            pid = g._lmul(s, xid)
            # a digit of _s_mult's output sums at most 2 digits of (v + v^-1) c_z,
            # 1 of c_{sz} and mu(w, z) of each c_z with w in _mu_down[z]
            fan_in = 3 + sum(map(mass, col[pid]))
            col[xid] = table._mu_step(col, self._s_mult, s, pid, fan_in, floor=_DIGIT)
        return col

    def column(self, yid: int, xmax: int) -> dict[int, dict[int, int]]:
        """The packed h_{x,y,.} for all Coxeter ids x with len(x) <= xmax."""
        xdone, col = self._columns.get(yid, (-1, {}))
        if xdone < xmax:
            self._grow(yid, col, xmax, self.group._ball_ids(xmax))
            self._columns[yid] = (xmax, col)
        return col

    # -- public h-constants -----------------------------------------------

    def _row(self, x: GroupElement, y: GroupElement) -> tuple[dict[int, int], int]:
        """The packed h_{x,y,.} as the column's own row {Coxeter id of z: h},
        not to be mutated, and the omega part that every z shares.  As
        C'_x = C'_{x'} T_omega for x = x' omega, it is the row of x' in the
        column of omega y, whose Coxeter part is y's under the omega
        permutation."""
        g = self.group
        xid = g._element_id(x)
        yid = g._element_id(y)
        if x.omega:
            yid = g._permuted_id(g.omega_perm(x.omega), yid)
        return self.column(yid, len(x.word))[xid], (x.omega + y.omega) % self.desc.omega_order

    def h_map(self, x: GroupElement, y: GroupElement) -> dict[GroupElement, Laurent]:
        """The finite support {z: h_{x,y,z} != 0} with exact coefficients."""
        row, omega = self._row(x, y)
        words = self.group._words
        return {GroupElement(self.desc, words[z], omega): Laurent._raw(_unpack(c)) for z, c in row.items()}

    # -- the a-function scan ------------------------------------------------

    def scan_min_exponents(self, scan_radius: int, track_len: int) -> dict[int, list[int]]:
        """Stratified minimum valuations of h_{x,y,z} over the scan ball.

        For every Coxeter id z with len(z) <= track_len, entry m of the
        returned list is the least valuation of h_{x,y,z} over the pairs
        (x, y) with max(len x, len y) = m <= scan_radius, or NO_PAIR when
        z occurs in no such product.  One pass serves every smaller scan
        radius r: the minimum over pairs in ball(r) is the minimum over
        strata 0..r.

        Columns are computed only for one y per orbit of the diagram
        automorphisms sigma (each column streamed and discarded), and
        h_{sigma x, sigma y, sigma z} = h_{x,y,z} transports the result to
        the whole orbit: the minimum for z is the minimum over sigma of the
        representatives' minimum for sigma z.
        """
        g = self.group
        auts = g.diagram_automorphisms
        ids = g._ball_ids(scan_radius)
        length = {i: len(g._words[i]) for i in ids}
        reps = [i for i in ids if i == min(g._permuted_id(p, i) for p in auts)]
        # per stratum, the least lowest set bit c & -c of the packed h_{x,y,z}:
        # its digit is the valuation
        rep_mins = {i: [math.inf] * (scan_radius + 1) for i in ids if length[i] <= track_len}
        for yid in reps:
            col = self._grow(yid, {}, scan_radius, ids)
            ylen = length[yid]
            for xid in ids:
                m = max(length[xid], ylen)
                for z, c in col[xid].items():
                    row = rep_mins.get(z)
                    if row is not None:
                        low = c & -c
                        if low < row[m]:
                            row[m] = low
        return {
            z: [
                NO_PAIR if low == math.inf else _valuation(low)
                for low in map(min, zip(*(rep_mins[g._permuted_id(p, z)] for p in auts)))
            ]
            for z in rep_mins
        }
