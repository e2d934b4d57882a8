"""The affine Hecke algebra: bases, multiplication, bar involution,
Kazhdan-Lusztig polynomials and structure constants.

Conventions.  q = v^2 and T_s^2 = (q-1)T_s + q, so the rescaled basis
~T_w = v^(-len(w)) T_w satisfies ~T_s^2 = (v-v^-1) ~T_s + 1.  The
unsigned canonical basis is

    C'_w = sum_y v^(len(y)-len(w)) P_{y,w}(v^2) ~T_y,

and the signed one replaces each coefficient c(v) by c(-v^-1), which
gives the alternating-sign form with P_{y,w}(v^-2).  Both are fixed by
the bar involution; the table certifies this rather than assuming it.

Internally vectors are dicts {basis key: raw coefficient}, the raw
coefficients being the zero-free {exponent: int} dicts whose arithmetic
lives in heckej.laurent; the public surface uses Laurent and
GroupElement values.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import GroupMismatch, HeckejError, NonInvertibleTerm, RadiusExceeded
from .laurent import Laurent, ONE, ZERO, _accumulate, _addmul, _mul_raw, _star_raw
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

    def _to_raw(self, h: HeckeElement) -> dict:
        g = self.group
        out: dict = {}
        for w, c in h.terms.items():
            _addmul_at(out, (g._id_of(w.word), w.omega), c._c)
        return out

    def _from_raw(self, vec: dict) -> HeckeElement:
        g = self.group
        return HeckeElement(
            self.desc,
            "Ttilde",
            {
                GroupElement(self.desc, g._words[i], om): Laurent(c)
                for (i, om), c in vec.items()
            },
        )

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

    # -- public multiplication -------------------------------------------

    def multiply(self, h1: HeckeElement, h2: HeckeElement, table: "KLTable | None" = None) -> HeckeElement:
        """Product, returned in the basis of h1."""
        if h1.desc != self.desc or h2.desc != self.desc:
            raise GroupMismatch("elements do not belong to this algebra")
        a = self.to_basis(h1, "Ttilde", table)
        b = self.to_basis(h2, "Ttilde", table)
        prod = self._from_raw(self._mul_ttilde_raw(self._to_raw(a), self._to_raw(b)))
        return self.to_basis(prod, h1.basis, table)

    # -- basis conversion --------------------------------------------------

    def to_basis(self, h: HeckeElement, basis: str, table: "KLTable | None" = None) -> HeckeElement:
        if h.basis == basis:
            return h
        tt = self._into_ttilde(h, table)
        if basis == "Ttilde":
            return tt
        if basis == "T":
            return HeckeElement(
                self.desc, "T", {w: c.shift(-len(w.word)) for w, c in tt.terms.items()}
            )
        return self._ttilde_to_canonical(tt, basis, table)

    def _into_ttilde(self, h: HeckeElement, table: "KLTable | None") -> HeckeElement:
        if h.basis == "Ttilde":
            return h
        if h.basis == "T":
            return HeckeElement(
                self.desc, "Ttilde", {w: c.shift(len(w.word)) for w, c in h.terms.items()}
            )
        if table is None:
            raise ValueError("canonical-basis conversion needs a KL table")
        out: dict = {}
        for w, c in h.terms.items():
            cw = table.c_basis_element(w, signed=(h.basis == "Csigned"))
            for y, cy in cw.terms.items():
                _accumulate(out, y, c * cy)
        return HeckeElement(self.desc, "Ttilde", out)

    def _ttilde_to_canonical(self, tt: HeckeElement, basis: str, table: "KLTable | None") -> HeckeElement:
        if table is None:
            raise ValueError("canonical-basis conversion needs a KL table")
        rest = dict(tt.terms)
        out: dict = {}
        while rest:
            w = max(rest, key=lambda g: g.sort_key())
            c = rest.pop(w)
            out[w] = c
            neg = -c
            cw = table.c_basis_element(w, signed=(basis == "Csigned"))
            for y, cy in cw.terms.items():
                if y != w:
                    _accumulate(rest, y, neg * cy)
        return HeckeElement(self.desc, basis, out)

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
        g = self.group
        tt = self.to_basis(h, "Ttilde", table)
        out: dict = {}
        for w, c in tt.terms.items():
            if w.omega != 0 and g.desc.omega_order == 1:
                raise NonInvertibleTerm(f"no omega part {w.omega} in this group")
            vec = self._bar_ttilde_raw(g._id_of(w.word), w.omega)
            _vec_addmul(out, {k: _mul_raw(c.bar()._c, v) for k, v in vec.items()})
        return self.to_basis(self._from_raw(out), h.basis, table)


@lru_cache(maxsize=None)
def hecke_algebra(desc: GroupDescriptor) -> HeckeAlgebra:
    return HeckeAlgebra(make_group(desc))


def _coxeter_ids(g: WeylGroup, radius: int) -> list[int]:
    """Coxeter ids of the ball of the given radius, in enumeration order."""
    return [g._id_of(e.word) for e in g.enumerate_ball(radius) if e.omega == 0]


class KLTable:
    """Kazhdan-Lusztig data for all Coxeter-part elements of length <= radius.

    For each w the full ~T-expansion of C'_w is kept as raw coefficient
    dicts indexed by Coxeter id, together with the list of y < w with
    mu(y, w) != 0.  Built stratum by stratum; the recursion is

        C'_w = C'_s C'_u - sum_{z<u, sz<z} mu(z,u) C'_z,   w = s u.
    """

    def __init__(self, group: WeylGroup, radius: int):
        self.group = group
        self.desc = group.desc
        self.radius = -1
        self._coords: dict[int, dict[int, dict]] = {}
        self._mu_down: dict[int, list[tuple[int, int]]] = {}
        self._order: list[int] = []
        self.extend(radius)

    # -- construction -----------------------------------------------------

    def extend(self, radius: int) -> None:
        if radius <= self.radius:
            return
        for i in _coxeter_ids(self.group, radius):
            if i not in self._coords:
                self._build(i)
                self._order.append(i)
        self.radius = radius

    def _build(self, wid: int) -> None:
        g = self.group
        word = g._words[wid]
        if not word:
            self._coords[wid] = {0: {0: 1}}
            self._mu_down[wid] = []
            return
        s = word[0]
        uid = g._lmul(s, wid)
        cu = self._coords[uid]
        res: dict[int, dict] = {}
        for y, c in cu.items():
            sy = g._lmul(s, y)
            _addmul_at(res, sy, c)
            if len(g._words[sy]) < len(g._words[y]):
                _addmul_at(res, y, c, shift=1)
                _addmul_at(res, y, c, -1, shift=-1)
            _addmul_at(res, y, c, shift=-1)
        for z, mu in self._mu_down[uid]:
            if s in g._ldesc[z]:
                _vec_addmul(res, self._coords[z], -mu)
        if res.get(wid) != {0: 1}:
            raise HeckejError(f"C'_w is not unitriangular at w = {word}")
        mu_list = []
        for y, c in res.items():
            if y == wid:
                continue
            mu = c.get(-1, 0)
            if mu:
                mu_list.append((y, mu))
        self._coords[wid] = res
        self._mu_down[wid] = mu_list

    # -- queries -----------------------------------------------------------

    def _require(self, w: GroupElement) -> int:
        if len(w.word) > self.radius:
            raise RadiusExceeded(f"length {len(w.word)} beyond table radius {self.radius}")
        return self.group._id_of(w.word)

    def kl_polynomial(self, y: GroupElement, w: GroupElement) -> Laurent:
        """P_{y,w} as a polynomial in q, stored on even v-exponents."""
        wid = self._require(w)
        if y.omega != w.omega:
            return ZERO
        yid = self.group._id_of(y.word)
        c = self._coords[wid].get(yid)
        if c is None:
            return ZERO
        shift = len(w.word) - len(y.word)
        return Laurent({e + shift: v for e, v in c.items()})

    def mu(self, y: GroupElement, w: GroupElement) -> int:
        wid = self._require(w)
        if y.omega != w.omega:
            return 0
        yid = self.group._id_of(y.word)
        for z, m in self._mu_down[wid]:
            if z == yid:
                return m
        return 0

    def c_basis_element(self, w: GroupElement, signed: bool = False) -> HeckeElement:
        """C_w (signed) or C'_w (unsigned) expanded in the ~T basis."""
        wid = self._require(w)
        g = self.group
        terms = {}
        for y, c in self._coords[wid].items():
            coeff = _star_raw(c) if signed else dict(c)
            terms[GroupElement(self.desc, g._words[y], w.omega)] = Laurent._raw(coeff)
        return HeckeElement(self.desc, "Ttilde", terms)

    # -- persistence --------------------------------------------------------

    def to_json(self) -> dict:
        g = self.group
        entries = []
        for wid in self._order:
            wword = g._words[wid]
            for yid, c in sorted(self._coords[wid].items()):
                shift = len(wword) - len(g._words[yid])
                p = Laurent({e + shift: v for e, v in c.items()})
                entries.append(
                    {
                        "y": {"word": list(g._words[yid]), "omega": 0},
                        "w": {"word": list(wword), "omega": 0},
                        "P": p.to_json(),
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
    """

    def __init__(self, table: KLTable):
        self.table = table
        self.group = table.group
        self.desc = table.desc
        self._columns: dict[int, tuple[int, dict[int, dict[int, dict]]]] = {}

    # -- the left s-rule on a C'-coordinate vector -------------------------

    def _s_mult(self, s: int, vec: dict[int, dict]) -> dict[int, dict]:
        g = self.group
        mu_down = self.table._mu_down
        ldesc = g._ldesc
        out: dict[int, dict] = {}
        for z, c in vec.items():
            if s in ldesc[z]:
                _addmul_at(out, z, c, shift=1)
                _addmul_at(out, z, c, shift=-1)
            else:
                _addmul_at(out, g._lmul(s, z), c)
                for w, mu in mu_down[z]:
                    if s in ldesc[w]:
                        _addmul_at(out, w, c, mu)
        return out

    def _compute_column(self, yid: int, xmax: int, ids: list[int]) -> dict[int, dict[int, dict]]:
        """The column of y over ids, the Coxeter ids of the ball of radius
        xmax in enumeration order."""
        g = self.group
        ylen = len(g._words[yid])
        if xmax + ylen - 1 > self.table.radius:
            raise RadiusExceeded(
                f"column ({ylen}) x radius {xmax} needs mu data beyond table radius {self.table.radius}"
            )
        col: dict[int, dict[int, dict]] = {0: {yid: {0: 1}}}
        for xid in ids:
            if xid == 0:
                continue
            s = g._words[xid][0]
            pid = g._lmul(s, xid)
            vec = self._s_mult(s, col[pid])
            for w, mu in self.table._mu_down[pid]:
                if s in g._ldesc[w]:
                    _vec_addmul(vec, col[w], -mu)
            col[xid] = vec
        return col

    def column(self, yid: int, xmax: int) -> dict[int, dict[int, dict]]:
        """h_{x,y,.} for all Coxeter ids x with len(x) <= xmax (cached)."""
        cached = self._columns.get(yid)
        if cached and cached[0] >= xmax:
            return cached[1]
        col = self._compute_column(yid, xmax, _coxeter_ids(self.group, xmax))
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
        ids = _coxeter_ids(g, scan_radius)
        length = {i: len(g._words[i]) for i in ids}
        reps = [i for i in ids if i == min(g._permuted_id(p, i) for p in auts)]
        rep_mins = {i: [NO_PAIR] * (scan_radius + 1) for i in ids if length[i] <= track_len}
        for yid in reps:
            cached = self._columns.get(yid)
            if cached and cached[0] >= scan_radius:
                col = cached[1]
            else:
                col = self._compute_column(yid, scan_radius, ids)
            ylen = length[yid]
            for xid in ids:
                m = max(length[xid], ylen)
                for z, c in col[xid].items():
                    row = rep_mins.get(z)
                    if row is not None:
                        low = min(c)
                        if low < row[m]:
                            row[m] = low
        return {
            z: [min(vals) for vals in zip(*(rep_mins[g._permuted_id(p, z)] for p in auts))]
            for z in rep_mins
        }
