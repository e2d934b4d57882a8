"""The affine Hecke algebra: bases, multiplication, bar involution,
Kazhdan-Lusztig polynomials and structure constants.

Conventions.  q = v^2 and T_s^2 = (q-1)T_s + q, so the rescaled basis
~T_w = v^(-len(w)) T_w satisfies ~T_s^2 = (v-v^-1) ~T_s + 1.  The
unsigned canonical basis is

    C'_w = sum_y v^(len(y)-len(w)) P_{y,w}(v^2) ~T_y,

and the signed one replaces each coefficient c(v) by c(-v^-1), which
gives the alternating-sign form with P_{y,w}(v^-2).  Both are fixed by
the bar involution; the table certifies this rather than assuming it.

Internally every Hecke-algebra vector is a raw ~T vector
{(cox_id, omega): coeff}, the coefficients being the zero-free
{exponent: int} dicts of heckej.laurent.  A HeckeElement
({GroupElement: Laurent}) appears only at the public edges:
`_to_ttilde_raw` reads one in any basis and `_from_ttilde_raw` writes
one in any basis.

The KL table and the structure-constant columns are {cox_id: coeff}
vectors whose coefficients are packed ints (heckej.laurent's codec):
P_{y,w} with q = 2^PACK_W, and h_{x,y,z} with v = 2^PACK_W, so each
recursion step is int shifts and adds.  They are decoded once per entry
at the public edges.  Exactness is guarded at every step: each stored
vector has all digits in [0, 2^PACK_T), which positivity guarantees, and
a step sums at most 2^(PACK_W-1-PACK_T) such digits into one.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce

from .errors import BudgetExceeded, GroupMismatch, HeckejError, NonInvertibleTerm, RadiusExceeded
from .laurent import (
    PACK_W, _DIGIT, Laurent, ONE, ZERO, _accumulate, _addmul, _digit, _mul_raw, _pack, _star_raw, _unpack, _valuation,
)
from .weyl import GroupDescriptor, GroupElement, WeylGroup, make_group

__all__ = [
    "HeckeElement",
    "HeckeAlgebra",
    "KLTable",
    "StructureConstants",
    "hecke_algebra",
]

BASES = ("T", "Ttilde", "Cprime", "Csigned")

# stratum entry of StructureConstants.scan_min_exponents with no pair;
# larger than any valuation
NO_PAIR = 1 << 30

# Budget on the entries of one KL table, checked before any enumeration.
# The largest table the tests and the benchmark build (A2~, radius 35:
# 1.13 M entries) is estimated at 1.86 M by _check_kl_budget.
KL_ENTRY_BUDGET = 2 * 10**6

# Bits of a stored packed digit: every coefficient of a KL polynomial and
# of an unsigned h_{x,y,z} must stay below 2^PACK_T, and the rest of a
# PACK_W-bit digit is headroom for the sums of one recursion step.  The
# largest table the KL budget admits (A2~, radius 35) has coefficients up
# to 4; its scan (radius 18) has h-coefficients up to 42 and steps that
# sum up to 539 digits, where 2^(PACK_W-1-PACK_T) = 2048 are allowed.
PACK_T = 8


# -- vectors of raw coefficients ({key: {exp: int}}, no empty entries) ------

def _addmul_at(dst: dict, key, src: dict, k: int = 1, shift: int = 0) -> None:
    """dst[key] += k * v^shift * src, for a nonzero src and k != 0."""
    tgt = dst.get(key)
    if tgt is None:
        dst[key] = {e + shift: k * c for e, c in src.items()}
        return
    _addmul(tgt, src, k, shift)
    if not tgt:
        del dst[key]


def _vec_addmul(dst: dict, src: dict, k: int = 1, shift: int = 0) -> None:
    for key, c in src.items():
        _addmul_at(dst, key, c, k, shift)


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

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.desc, self.basis, {w: -c for w, c in self.terms.items()})

    def scale(self, c: Laurent) -> "HeckeElement":
        return HeckeElement(self.desc, self.basis, {w: c * v for w, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def max_length(self) -> int:
        return max((len(w.word) for w in self.terms), default=0)


class HeckeAlgebra:
    """Multiplication and bar involution over one group handle."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self.desc = group.desc
        self._bar_ttilde: dict[tuple, dict] = {}

    # -- constructors -----------------------------------------------------

    def element(self, terms: dict[GroupElement, Laurent], basis: str = "T") -> HeckeElement:
        return HeckeElement(self.desc, basis, terms)

    def basis_element(self, w: GroupElement, basis: str = "T") -> HeckeElement:
        return HeckeElement(self.desc, basis, {w: ONE})

    def unit(self, basis: str = "T") -> HeckeElement:
        return self.basis_element(self.group.identity, basis)

    # -- internal ~T-basis product ---------------------------------------

    def _lmul_gen_raw(self, s: int, vec: dict) -> dict:
        """~T_s times a raw vector {(cox_id, omega): coeff}."""
        g = self.group
        out: dict = {}
        for (i, om), c in vec.items():
            j = g._lmul(s, i)
            _addmul_at(out, (j, om), c)
            if len(g._words[j]) < len(g._words[i]):
                # descent: extra (v - v^-1) ~T_w term
                _addmul_at(out, (i, om), c, shift=1)
                _addmul_at(out, (i, om), c, -1, shift=-1)
        return out

    def _lmul_omega_raw(self, k: int, vec: dict) -> dict:
        if k == 0:
            return vec
        g = self.group
        perm = g.omega_perm(k)
        out: dict = {}
        for (i, om), c in vec.items():
            _addmul_at(out, (g._permuted_id(perm, i), (k + om) % g.desc.omega_order), c)
        return out

    def _mul_ttilde_raw(self, vec1: dict, vec2: dict) -> dict:
        g = self.group
        out: dict = {}
        for (i, om), c in vec1.items():
            piece = self._lmul_omega_raw(om, vec2)
            for s in reversed(g._words[i]):
                piece = self._lmul_gen_raw(s, piece)
            for key, c2 in piece.items():
                _addmul_at(out, key, _mul_raw(c, c2))
        return out

    # -- basis conversion --------------------------------------------------

    def _to_ttilde_raw(self, h: HeckeElement, table: "KLTable | None") -> dict:
        """h as a raw ~T vector {(cox_id, omega): coeff}."""
        g = self.group
        out: dict = {}
        if h.basis in ("T", "Ttilde"):
            for w, c in h.terms.items():
                # T_w = v^len(w) ~T_w
                shift = len(w.word) if h.basis == "T" else 0
                _addmul_at(out, (g._id_of(w.word), w.omega), c._c, shift=shift)
            return out
        if table is None or table.group is not self.group:
            raise ValueError("canonical-basis conversion needs a KL table of this group")
        signed = h.basis == "Csigned"
        for w, c in h.terms.items():
            for y, cy in table._expansion(table._require(w.word)).items():
                _addmul_at(out, (y, w.omega), _mul_raw(c._c, _star_raw(cy) if signed else cy))
        return out

    def _from_ttilde_raw(self, vec: dict, basis: str, table: "KLTable | None") -> HeckeElement:
        """A raw ~T vector, which is consumed, in the given basis.  C_w is
        ~T_w plus shorter terms, so a canonical expansion is peeled off one
        length at a time from the longest down."""
        words = self.group._words
        if basis == "T":
            vec = {key: {e - len(words[key[0]]): x for e, x in c.items()} for key, c in vec.items()}
        elif basis != "Ttilde":
            if table is None or table.group is not self.group:
                raise ValueError("canonical-basis conversion needs a KL table of this group")
            signed = basis == "Csigned"
            rest, vec = vec, {}
            for length in range(max((len(words[i]) for i, _ in rest), default=-1), -1, -1):
                for key in [k for k in rest if len(words[k[0]]) == length]:
                    i, om = key
                    c = vec[key] = rest.pop(key)
                    for y, cy in table._expansion(table._require(words[i])).items():
                        if y != i:
                            _addmul_at(rest, (y, om), _mul_raw(c, _star_raw(cy) if signed else cy), -1)
        terms = {GroupElement(self.desc, words[i], om): Laurent._raw(c) for (i, om), c in vec.items()}
        return HeckeElement(self.desc, basis, terms)

    def to_basis(self, h: HeckeElement, basis: str, table: "KLTable | None" = None) -> HeckeElement:
        if h.basis == basis:
            return h
        return self._from_ttilde_raw(self._to_ttilde_raw(h, table), basis, table)

    # -- public multiplication -------------------------------------------

    def multiply(self, h1: HeckeElement, h2: HeckeElement, table: "KLTable | None" = None) -> HeckeElement:
        """Product, returned in the basis of h1."""
        if h1.desc != self.desc or h2.desc != self.desc:
            raise GroupMismatch("elements do not belong to this algebra")
        prod = self._mul_ttilde_raw(self._to_ttilde_raw(h1, table), self._to_ttilde_raw(h2, table))
        return self._from_ttilde_raw(prod, h1.basis, table)

    # -- bar involution ----------------------------------------------------

    def _bar_ttilde_raw(self, i: int, om: int) -> dict:
        """bar(~T_w) = (~T_{w^-1})^-1 as a raw vector, memoized per Coxeter id."""
        g = self.group
        key = (i, om)
        got = self._bar_ttilde.get(key)
        if got is not None:
            return got
        word = g._words[i]
        if not word:
            vec = {(0, om): {0: 1}}
        else:
            s = word[0]
            u = g._lmul(s, i)
            # bar(~T_w) = ~T_s^-1 * bar(~T_u),  ~T_s^-1 = ~T_s - (v - v^-1)
            inner = self._bar_ttilde_raw(u, om)
            vec = self._lmul_gen_raw(s, inner)
            _vec_addmul(vec, inner, -1, shift=1)
            _vec_addmul(vec, inner, 1, shift=-1)
        self._bar_ttilde[key] = vec
        return vec

    def bar(self, h: HeckeElement, table: "KLTable | None" = None) -> HeckeElement:
        """The semilinear involution v -> v^-1, ~T_w -> (~T_{w^-1})^-1."""
        out: dict = {}
        for (i, om), c in self._to_ttilde_raw(h, table).items():
            if om != 0 and self.desc.omega_order == 1:
                raise NonInvertibleTerm(f"no omega part {om} in this group")
            cbar = {-e: x for e, x in c.items()}
            for key, x in self._bar_ttilde_raw(i, om).items():
                _addmul_at(out, key, _mul_raw(cbar, x))
        return self._from_ttilde_raw(out, h.basis, table)


@lru_cache(maxsize=None)
def hecke_algebra(desc: GroupDescriptor) -> HeckeAlgebra:
    return HeckeAlgebra(make_group(desc))


def _p_laurent(c: int) -> Laurent:
    """A packed KL polynomial P(q) as a Laurent polynomial in v = q^(1/2)."""
    return Laurent._raw({2 * k: x for k, x in _unpack(c, 0).items()})


def _check_kl_budget(desc: GroupDescriptor, radius: int) -> None:
    """Refuse a KL table of this radius when sum_n |stratum n| * |ball(n)|,
    a bound on its entries (pairs y <= w), passes KL_ENTRY_BUDGET.  The
    strata come from the length series, not from enumeration: each length
    n >= 1 has 2 Coxeter elements in A1~ and 3n in A2~."""
    ball = entries = 1
    for n in range(1, radius + 1):
        stratum = 2 if desc.affine_type == "A1~" else 3 * n
        ball += stratum
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
    """

    def __init__(self, group: WeylGroup, radius: int):
        self.group = group
        self.desc = group.desc
        self.radius = -1
        self._coords: dict[int, dict[int, int]] = {}
        self._mu_down: dict[int, list[tuple[int, int]]] = {}
        self._mu_mass: dict[int, int] = {}
        self._expansions: dict[int, dict[int, dict]] = {}
        self.extend(radius)

    # -- construction -----------------------------------------------------

    def extend(self, radius: int) -> None:
        if radius <= self.radius:
            return
        _check_kl_budget(self.desc, radius)
        for i in self.group._ball_ids(radius):
            if i not in self._coords:
                self._build(i)
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
        lmul, ldesc = g._lmul, g._ldesc
        out: dict[int, int] = {}
        for y, c in vec.items():
            if s in ldesc[y]:
                c <<= PACK_W
            sy = lmul(s, y)
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

    def _require(self, word: tuple[int, ...]) -> int:
        if len(word) > self.radius:
            raise RadiusExceeded(f"length {len(word)} beyond table radius {self.radius}")
        return self.group._id_of(word)

    def kl_polynomial(self, y: GroupElement, w: GroupElement) -> Laurent:
        """P_{y,w} as a polynomial in q, stored on even v-exponents."""
        wid = self._require(w.word)
        if y.omega != w.omega:
            return ZERO
        c = self._coords[wid].get(self.group._id_of(y.word))
        return ZERO if c is None else _p_laurent(c)

    def mu(self, y: GroupElement, w: GroupElement) -> int:
        wid = self._require(w.word)
        if y.omega != w.omega:
            return 0
        yid = self.group._id_of(y.word)
        for z, m in self._mu_down[wid]:
            if z == yid:
                return m
        return 0

    def _expansion(self, wid: int) -> dict[int, dict]:
        """C'_w in ~T coordinates {yid: {exponent: int}}, decoded once."""
        got = self._expansions.get(wid)
        if got is None:
            words = self.group._words
            n = len(words[wid])
            got = {
                y: {2 * k + len(words[y]) - n: c for k, c in _unpack(p, 0).items()}
                for y, p in self._coords[wid].items()
            }
            self._expansions[wid] = got
        return got

    def c_basis_element(self, w: GroupElement, signed: bool = False) -> HeckeElement:
        """C_w (signed) or C'_w (unsigned) expanded in the ~T basis."""
        alg = hecke_algebra(self.desc)
        return alg.to_basis(alg.basis_element(w, "Csigned" if signed else "Cprime"), "Ttilde", self)

    # -- persistence --------------------------------------------------------

    def to_json(self) -> dict:
        g = self.group
        entries = []
        for wid in g._ball_ids(self.radius):
            wword = g._words[wid]
            for yid, c in sorted(self._coords[wid].items()):
                entries.append(
                    {
                        "y": {"word": list(g._words[yid]), "omega": 0},
                        "w": {"word": list(wword), "omega": 0},
                        "P": _p_laurent(c).to_json(),
                    }
                )
        return {
            "version": 1,
            "group": self.desc.to_json(),
            "radius": self.radius,
            "entries": entries,
        }

    @classmethod
    def from_json(cls, data: dict) -> "KLTable":
        if data.get("version") != 1:
            raise ValueError("unknown KL cache version")
        desc = GroupDescriptor.from_json(data["group"])
        table = cls(make_group(desc), int(data["radius"]))
        # entries are recomputed rather than trusted; verify they agree
        for ent in data["entries"]:
            y = table.group.from_json(ent["y"])
            w = table.group.from_json(ent["w"])
            if table.kl_polynomial(y, w) != Laurent.from_json(ent["P"]):
                raise ValueError(f"cache entry mismatch at y={y}, w={w}")
        return table


class StructureConstants:
    """Structure constants h_{x,y,z} of the canonical basis, by columns.

    For a fixed right factor y the map x -> (z -> h_{x,y,z}) satisfies
    the same mu-recursion as the KL table, with the left rule

        C'_s C'_z = (v + v^-1) C'_z             if sz < z,
        C'_s C'_z = C'_{sz} + sum mu(w,z) C'_w  otherwise (sw < w),

    so whole columns are computed in one sweep and cached.  All data
    here is for the unsigned basis on Coxeter parts; omega parts and
    the signed convention are layered on top (signed constants are the
    image of unsigned ones under v -> -v^-1).

    Columns are computed on packed coefficients (v = 2^PACK_W, offset
    PACK_OFF) and decoded once, when `column` caches them.
    """

    def __init__(self, table: KLTable):
        self.table = table
        self.group = table.group
        self.desc = table.desc
        self._columns: dict[int, tuple[int, dict[int, dict[int, dict]]]] = {}

    # -- the left s-rule on a C'-coordinate vector -------------------------

    def _s_mult(self, s: int, vec: dict[int, int]) -> dict[int, int]:
        g = self.group
        mu_down = self.table._mu_down
        ldesc, lmul = g._ldesc, g._lmul
        out: dict[int, int] = {}
        for z, c in vec.items():
            if s in ldesc[z]:
                # (v + v^-1) c; exact, since digit 0 of c is empty
                out[z] = out.get(z, 0) + (((c << 2 * PACK_W) + c) >> PACK_W)
            else:
                sz = lmul(s, z)
                out[sz] = out.get(sz, 0) + c
                for w, mu in mu_down[z]:
                    if s in ldesc[w]:
                        out[w] = out.get(w, 0) + mu * c
        return out

    def _compute_column(self, yid: int, xmax: int, ids: list[int]) -> dict[int, dict[int, int]]:
        """The packed column of y over ids, the Coxeter ids of the ball of
        radius xmax in enumeration order."""
        g = self.group
        table = self.table
        ylen = len(g._words[yid])
        if xmax + ylen - 1 > table.radius:
            raise RadiusExceeded(
                f"column ({ylen}) x radius {xmax} needs mu data beyond table radius {table.radius}"
            )
        mass = table._mu_mass.__getitem__
        col: dict[int, dict[int, int]] = {0: {yid: _pack({0: 1})}}
        for xid in ids:
            if xid == 0:
                continue
            s = g._words[xid][0]
            pid = g._lmul(s, xid)
            # a digit of _s_mult's output sums at most 2 digits of (v + v^-1) c_z,
            # 1 of c_{sz} and mu(w, z) of each c_z with w in _mu_down[z]
            fan_in = 3 + sum(map(mass, col[pid]))
            col[xid] = table._mu_step(col, self._s_mult, s, pid, fan_in, floor=_DIGIT)
        return col

    def column(self, yid: int, xmax: int) -> dict[int, dict[int, dict]]:
        """h_{x,y,.} for all Coxeter ids x with len(x) <= xmax (cached)."""
        cached = self._columns.get(yid)
        if cached and cached[0] >= xmax:
            return cached[1]
        packed = self._compute_column(yid, xmax, self.group._ball_ids(xmax))
        col = {xid: {z: _unpack(c) for z, c in vec.items()} for xid, vec in packed.items()}
        self._columns[yid] = (xmax, col)
        return col

    # -- public h-constants -----------------------------------------------

    def h_map(self, x: GroupElement, y: GroupElement, signed: bool = False) -> dict[GroupElement, Laurent]:
        """The finite support {z: h_{x,y,z} != 0} with exact coefficients."""
        g = self.group
        yid = g._id_of(y.word)
        if x.omega:
            yid = g._permuted_id(g.omega_perm(x.omega), yid)
        xid = g._id_of(x.word)
        col = self.column(yid, len(x.word))
        omega = (x.omega + y.omega) % self.desc.omega_order
        out = {}
        for z, c in col[xid].items():
            coeff = _star_raw(c) if signed else dict(c)
            out[GroupElement(self.desc, g._words[z], omega)] = Laurent._raw(coeff)
        return out

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
            col = self._compute_column(yid, scan_radius, ids)
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
