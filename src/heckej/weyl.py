"""Extended affine Weyl groups of types A1~ and A2~.

The Coxeter part is handled generically through the integral reflection
representation sigma attached to a Coxeter matrix with entries in
{2, 3, oo}.  The representation is faithful, so the matrix M = sigma(w^-1)
names w by itself; it also gives the left descents of w (the columns of M
that are <= 0), and the canonical (ShortLex least) reduced word of w is its
least left descent s followed by the word of s*w.  M is stored flat, row
by row, as a tuple of rank**2 ints.

sigma(s) differs from the identity in row s only, which is e_s + d_s
with d_s[j] = 2 cos(pi / m_sj) off the diagonal and d_s[s] = -2.  So a
step by one generator is a rank-one update of M, never a matrix product:
sigma((w s)^-1) = sigma(s) M adds sum_j d_s[j] * (row j) to row s
(`_gen_times`), and sigma((s w)^-1) = M sigma(s) adds r[s] * d_s to each
row r (`_times_gen`).
The length-zero extension Omega acts by diagram automorphisms and sits
on the right: an element is a pair (coxeter word, omega).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .errors import BudgetExceeded, GroupMismatch, HeckejError, UnsupportedType

__all__ = [
    "GroupDescriptor",
    "GroupElement",
    "WeylGroup",
    "make_group",
]

SUPPORTED_TYPES = ("A1~", "A2~")

# Coxeter matrices; 0 stands for infinity.
_COXETER = {
    "A1~": ((1, 0), (0, 1)),
    "A2~": ((1, 3, 3), (3, 1, 3), (3, 3, 1)),
}

# Omega realized as Z/k acting by diagram automorphisms.
_OMEGA_PERMS = {
    "A1~": [(0, 1), (1, 0)],
    "A2~": [(0, 1, 2), (1, 2, 0), (2, 0, 1)],
}

# Longest length in the finite Weyl group, used for certification bounds.
_FINITE_LONGEST = {"A1~": 1, "A2~": 3}

# Budget on the elements of one ball (Coxeter parts times omega parts),
# checked before any enumeration.  The largest ball the tests build is
# the KL table of their reference scan for JRing(A2~, 10) (radius 35,
# 1,891 elements).
BALL_BUDGET = 10**4


class GroupDescriptor(namedtuple("GroupDescriptor", "affine_type extended", defaults=(False,))):
    """The group: an affine type and whether Omega is adjoined.  A named
    tuple, so it is immutable and compared and hashed by value in C."""

    __slots__ = ()

    def __new__(cls, affine_type: str, extended: bool = False):
        if affine_type not in SUPPORTED_TYPES:
            raise UnsupportedType(f"unsupported affine type {affine_type!r}")
        return super().__new__(cls, affine_type, extended)

    @property
    def generator_count(self) -> int:
        return len(_COXETER[self.affine_type])

    @property
    def omega_order(self) -> int:
        return len(_OMEGA_PERMS[self.affine_type]) if self.extended else 1

    @property
    def finite_longest_length(self) -> int:
        return _FINITE_LONGEST[self.affine_type]


# Every GroupElement ever built, by value: the one object of each value.
_ELEMENTS: dict[tuple, "GroupElement"] = {}


class GroupElement(namedtuple("GroupElement", "desc word omega", defaults=(0,))):
    """An element in canonical form: ShortLex-least reduced word + omega part.

    A named tuple (desc, word, omega), compared by value, but hash-consed:
    there is one object per value, so it is hashed by identity, and a memo
    lookup keyed by elements never hashes their words.  Every way to build
    one (the constructor, `_make`, `_replace`, copy and pickle) returns the
    object of its value from a table shared by the process, filled with
    dict.setdefault so that threads racing on a new value get one object.
    len() is the length of the word, not the number of fields."""

    __slots__ = ()

    def __new__(cls, desc: GroupDescriptor, word: tuple[int, ...], omega: int = 0):
        key = (desc, word, omega)
        got = _ELEMENTS.get(key)
        if got is None:
            got = _ELEMENTS.setdefault(key, tuple.__new__(cls, key))
        return got

    # equal values are the same object, so the identity hash agrees with
    # the tuple's __eq__
    __hash__ = object.__hash__

    @classmethod
    def _make(cls, iterable) -> "GroupElement":
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    def __len__(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word and self.omega == 0

    def sort_key(self):
        return (len(self.word), self.word, self.omega)

    def __str__(self) -> str:
        body = "".join(str(i) for i in self.word) or "e"
        return body if self.omega == 0 else f"{body}@{self.omega}"


def _gen_times(m, n: int, s: int, d) -> tuple[int, ...]:
    """sigma(s) * m for the flat n x n matrix m and d = d_s: row s gains
    sum_j d[j] * (row j), read from m, and every other row stays."""
    out = list(m)
    row = range(s * n, s * n + n)
    shift = -s * n  # from row s to row j, for j = 0, 1, ...
    for c in d:
        for k in row:
            out[k] += c * m[shift + k]
        shift += n
    return tuple(out)


def _times_gen(m, n: int, s: int, d) -> tuple[int, ...]:
    """m * sigma(s) for the flat n x n matrix m and d = d_s: each row r
    gains r[s] * d."""
    out = list(m)
    k = 0  # the entry being updated, row by row
    for t in m[s::n]:
        if t:
            for c in d:
                out[k] += t * c
                k += 1
        else:  # a row with r[s] = 0 stays
            k += n
    return tuple(out)


class WeylGroup:
    """Handle for one (extended) affine Weyl group; elements are interned.

    Coxeter parts are identified by dense integer ids; the tables
    (canonical word, flat matrix sigma(w^-1), left descent set, the id of
    each word and of each matrix, neighbor links, the GroupElements of
    each id and the id of each GroupElement) are memo caches that
    only ever grow, so reads after a warm-up are safe for concurrent use.
    So is the process-wide table of GroupElement objects: it only grows,
    and a new element enters it by one dict.setdefault.
    A new neighbor w*s or s*w costs one generator update of the matrix of
    w (`_gen_times`, `_times_gen`), O(rank**2) integer operations.
    """

    def __init__(self, desc: GroupDescriptor):
        self.desc = desc
        n = desc.generator_count
        self.rank = n
        self._no_perm = tuple(range(n))
        cox = _COXETER[desc.affine_type]
        # d_s = row s of sigma(s) minus e_s: 2 cos(pi / m_sj) off the
        # diagonal (0, 1, 2 for m_sj = 2, 3, oo) and -2 at s
        self._d = tuple(
            tuple(-2 if i == j else {2: 0, 3: 1, 0: 2}[cox[i][j]] for j in range(n))
            for i in range(n)
        )
        # generator permutations that preserve the Coxeter matrix; each one
        # extends to a length-preserving automorphism of W and of its
        # Hecke algebra (C'_w -> C'_{sigma w})
        self.diagram_automorphisms = tuple(
            p for p in itertools.permutations(range(n))
            if all(cox[p[i]][p[j]] == cox[i][j] for i in range(n) for j in range(n))
        )
        if desc.extended and not set(_OMEGA_PERMS[desc.affine_type]) <= set(self.diagram_automorphisms):
            raise UnsupportedType("omega action is not a diagram automorphism")

        # interning tables for Coxeter parts
        self._index: dict[tuple[int, ...], int] = {(): 0}
        self._words: list[tuple[int, ...]] = [()]
        self._invmats = [tuple(int(i == j) for i in range(n) for j in range(n))]
        self._invmat_index = {self._invmats[0]: 0}
        self._ldesc: list[frozenset[int]] = [frozenset()]
        # the GroupElements of each id, one per omega part, made on first use
        # (`_element`), and the id of each, keyed by identity: the elements
        # are hash-consed
        self._elements: list[tuple[GroupElement, ...] | None] = [None]
        self._ids: dict[GroupElement, int] = {}
        self._rmul_memo: dict[tuple[int, int], int] = {}
        self._lmul_memo: dict[tuple[int, int], int] = {}
        self._inv_memo: dict[int, int] = {}
        self._perm_memo: dict[tuple[int, ...], dict[int, int]] = {}
        # the ball as far as enumerated, Coxeter ids sorted by (length, word):
        # the stratum of length n is _ball[_ball_ends[n] : _ball_ends[n + 1]]
        self._ball: list[int] = [0]
        self._ball_ends: list[int] = [0, 1]

    # -- element constructors --------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return self._element(0)

    def generator(self, i: int) -> GroupElement:
        if not 0 <= i < self.rank:
            raise ValueError(f"no generator {i}")
        return self._element(self._rmul(0, i))

    def generators(self) -> list[GroupElement]:
        return [self.generator(i) for i in range(self.rank)]

    def element(self, word, omega: int = 0) -> GroupElement:
        """Build an element from an arbitrary (not necessarily reduced) word.
        Each prefix of the word is interned, so a word longer than the
        radius of the largest ball within BALL_BUDGET is refused first."""
        word = [int(s) for s in word]
        for s in word:
            if not 0 <= s < self.rank:
                raise ValueError(f"no generator {s} in type {self.desc.affine_type}")
        if not 0 <= omega < self.desc.omega_order:
            raise ValueError(f"no omega element {omega}")
        if not _ball_fits(self.desc, len(word)):
            raise BudgetExceeded(f"a word of {len(word)} letters may leave a ball of {BALL_BUDGET} elements")
        return self._element(self._word_id(word), omega)

    # -- Coxeter-part machinery ------------------------------------------

    def _element(self, i: int, om: int = 0) -> GroupElement:
        """The element with Coxeter id i and omega part om; the first call
        for i makes those of every omega part and records their id."""
        got = self._elements[i]
        if got is None:
            # a plain loop: a generator or a temporary dict here costs more
            # than the one value lookup each new element needs
            word, got = self._words[i], []
            for k in range(self.desc.omega_order):
                w = GroupElement(self.desc, word, k)
                got.append(w)
                self._ids[w] = i
            got = self._elements[i] = tuple(got)
        return got[om]

    def _element_id(self, g: GroupElement) -> int:
        """The Coxeter id of a caller's element, and the one test that it is
        an element of this group: GroupMismatch for an element of another
        group, ValueError for an omega part or a word this group lacks.
        Every element this group has made is known by identity; any other
        is checked by value."""
        got = self._ids.get(g)
        if got is not None:
            return got
        if g.desc != self.desc:
            raise GroupMismatch(f"element of {g.desc} used with group {self.desc}")
        if not 0 <= g.omega < self.desc.omega_order:
            raise ValueError(f"no omega element {g.omega}")
        got = self._id_of(g.word)
        self._element(got)  # so that g is known by identity from now on
        return got

    def _id_of(self, word: tuple[int, ...]) -> int:
        """The Coxeter id of a canonical reduced word; the letters and the
        form of a word not yet interned are checked by `element`."""
        got = self._index.get(word)
        if got is not None:
            return got
        canonical = self.element(word).word
        if canonical != word:
            raise ValueError(f"{word} is not a canonical reduced word")
        return self._index[canonical]

    def _word_id(self, word, perm=None, i: int = 0) -> int:
        """Coxeter id of the element i followed by the letters perm[s] of word."""
        perm = perm or self._no_perm
        for s in word:
            i = self._rmul(i, perm[s])
        return i

    def _intern(self, invmat, source: int) -> int:
        """Id of the element w with sigma(w^-1) = invmat, flat, where w is
        the known element `source` times one generator.  A new w's word is
        its least left descent s followed by the word of s*w, so walk down
        by (s*w)^-1 = w^-1 * s, one `_times_gen` a step, to a known element,
        and intern those passed on the way up.  The walk passes at most
        len(source) + 1 elements; a longer one means a faulty update and
        raises HeckejError before it can intern matrices without end."""
        n, d = self.rank, self._d
        pending = []
        while invmat not in self._invmat_index:
            # most walks end within one step, so the bound is read only past it
            if pending and len(pending) > len(self._words[source]):
                raise HeckejError(f"interning stepped down {len(pending)} times without reaching a known element")
            # s_i is a left descent iff w^-1(alpha_i) is a negative root,
            # i.e. column i of the inverse matrix is <= 0.
            desc = frozenset([i for i in range(n) if max(invmat[i::n]) <= 0])
            if not desc:
                raise HeckejError("non-identity element with no left descent")
            s = min(desc)
            pending.append((invmat, desc, s))
            invmat = _times_gen(invmat, n, s, d[s])
        below = self._invmat_index[invmat]
        for invmat, desc, s in reversed(pending):
            idx = len(self._words)
            word = (s,) + self._words[below]
            self._index[word] = idx
            self._invmat_index[invmat] = idx
            self._words.append(word)
            self._invmats.append(invmat)
            self._ldesc.append(desc)
            self._elements.append(None)
            self._lmul_memo[(s, below)] = idx
            self._lmul_memo[(s, idx)] = below
            below = idx
        return below

    def _rmul(self, i: int, s: int) -> int:
        key = (i, s)
        got = self._rmul_memo.get(key)
        if got is not None:
            return got
        # (w * s)^-1 = s * w^-1
        j = self._intern(_gen_times(self._invmats[i], self.rank, s, self._d[s]), i)
        self._rmul_memo[key] = j
        self._rmul_memo[(j, s)] = i
        return j

    def _lmul(self, s: int, i: int) -> int:
        key = (s, i)
        got = self._lmul_memo.get(key)
        if got is not None:
            return got
        j = self._intern(_times_gen(self._invmats[i], self.rank, s, self._d[s]), i)
        self._lmul_memo[key] = j
        self._lmul_memo[(s, j)] = i
        return j

    def _permuted_ids(self, perm, ids) -> dict[int, int]:
        """The images sigma(i) of the diagram automorphism sigma = perm, as
        {Coxeter id: id} for at least the ids given: sigma(i) is the word of
        i with each letter s replaced by perm[s].  As sigma(w t) =
        sigma(w) sigma(t) for the last letter t of w, an image is one `_rmul`
        above the image of the prefix w, which ball enumeration has already
        met; so a ball passed in ball order costs one `_rmul` memo read per
        element.  Images are memoized per perm, and not to be mutated."""
        memo = self._perm_memo.get(perm)
        if memo is None:
            memo = self._perm_memo[perm] = {0: 0}
        words, rmul = self._words, self._rmul_memo
        for i in ids:
            pending = []
            while i not in memo:
                pending.append(i)
                t = words[i][-1]
                # the memo read inline, as the call costs more than the lookup
                j = rmul.get((i, t))
                i = self._rmul(i, t) if j is None else j
            if pending:
                j = memo[i]
                for i in reversed(pending):
                    t = perm[words[i][-1]]
                    k = rmul.get((j, t))
                    j = memo[i] = self._rmul(j, t) if k is None else k
        return memo

    def _permuted_id(self, perm, i: int) -> int:
        """The Coxeter id of sigma(i) for the diagram automorphism sigma = perm."""
        return i if perm == self._no_perm else self._permuted_ids(perm, (i,))[i]

    def _inverse_id(self, i: int) -> int:
        got = self._inv_memo.get(i)
        if got is None:
            got = self._word_id(reversed(self._words[i]))
            self._inv_memo[i] = got
            self._inv_memo[got] = i
        return got

    # -- public operations ------------------------------------------------

    def omega_perm(self, k: int) -> tuple[int, ...]:
        if self.desc.extended:
            return _OMEGA_PERMS[self.desc.affine_type][k]
        if k != 0:
            raise ValueError("group is not extended")
        return tuple(range(self.rank))

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        aid = self._element_id(a)
        self._element_id(b)
        perm = self.omega_perm(a.omega)
        i = self._word_id(b.word, perm, aid)
        return self._element(i, (a.omega + b.omega) % self.desc.omega_order)

    def inverse(self, a: GroupElement) -> GroupElement:
        j = self._inverse_id(self._element_id(a))
        inv_omega = (-a.omega) % self.desc.omega_order
        perm = self.omega_perm(inv_omega)
        # (w * om)^-1 = om^-1 * w^-1 = perm(w^-1) * om^-1
        return self._element(self._permuted_id(perm, j), inv_omega)

    def left_descents(self, a: GroupElement) -> frozenset[int]:
        return self._ldesc[self._element_id(a)]

    def right_descents(self, a: GroupElement) -> frozenset[int]:
        inv = self._inverse_id(self._element_id(a))
        # a = w om and a s = w p(s) om for p the permutation of om, so the
        # descents of a are p^-1 of those of w; the omega permutations are
        # powers of one rotation, so p^-1 is the permutation of om^-1
        perm = self.omega_perm(-a.omega % self.desc.omega_order)
        return frozenset(perm[s] for s in self._ldesc[inv])

    def parabolic_factor(self, z: GroupElement, length: int) -> tuple[GroupElement, GroupElement] | None:
        """The pair (x w_J, w_J y) of a factorization z = x w_J y with lengths
        adding and len(w_J) = length, or None.  Walking down the word of z,
        u = w_J y for J = ldesc(u), where y, the shortest element of W_J u,
        is reached by stripping left descents in J; then x w_J = z y^-1.
        The Omega part of z goes on the right factor."""
        zid = u = self._element_id(z)
        words, ldesc = self._words, self._ldesc
        while u:
            J, y = ldesc[u], u
            while d := ldesc[y] & J:
                y = self._lmul(min(d), y)
            if len(words[u]) - len(words[y]) == length:
                left = self._word_id(reversed(words[y]), None, zid)
                return self._element(left), self._element(u, z.omega)
            u = self._lmul(words[u][0], u)
        return None

    def _ball_ids(self, radius: int) -> list[int]:
        """Coxeter ids of length <= radius, sorted by (length, word).  A
        prefix of a ShortLex-least word is one too, so each element of length
        n + 1 is found once, as the i * s whose word is word(i) + (s,); so
        extending a sorted stratum letter by letter keeps the next sorted.
        Each stratum is enumerated once per group, and a ball is a prefix of
        the largest one so far.  A ball that must grow past BALL_BUDGET is
        refused before any enumeration; one already enumerated was checked
        when it grew."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        ball, ends = self._ball, self._ball_ends
        if len(ends) <= radius + 1 and not _ball_fits(self.desc, radius):
            raise BudgetExceeded(f"a ball of radius {radius} has over {BALL_BUDGET} elements")
        while len(ends) <= radius + 1:
            for i in ball[ends[-2] : ends[-1]]:
                for s in range(self.rank):
                    j = self._rmul(i, s)
                    if self._words[j][-1:] == (s,):
                        ball.append(j)
            ends.append(len(ball))
        return ball[: ends[radius + 1]]

    def enumerate_ball(self, radius: int) -> list[GroupElement]:
        """All elements of length <= radius, sorted by (length, word, omega):
        each Coxeter part from `_ball_ids` with every omega part."""
        element = self._element
        omegas = range(self.desc.omega_order)
        return [element(i, k) for i in self._ball_ids(radius) for k in omegas]

    # -- Bruhat order ------------------------------------------------------

    def bruhat_leq(self, y: GroupElement, w: GroupElement) -> bool:
        """Bruhat order; elements with distinct omega parts are incomparable."""
        yid = self._element_id(y)
        self._element_id(w)
        if y.omega != w.omega:
            return False
        return self._bruhat_rec(yid, w.word, 0)

    def bruhat_leq_via_word(self, y: GroupElement, word: tuple[int, ...]) -> bool:
        """Subword-property comparison of y against one reduced word."""
        yid = self._element_id(y)
        word = tuple(word)
        if len(self.element(word).word) != len(word):
            raise ValueError(f"{word} is not a reduced word")
        return self._bruhat_rec(yid, word, 0)

    def _bruhat_rec(self, yid: int, word: tuple[int, ...], pos: int) -> bool:
        # memoless linear scan: either strip the leading letter from both
        # sides (when it is a descent of y) or from w only
        while True:
            ylen = len(self._words[yid])
            if ylen == 0:
                return True
            if ylen > len(word) - pos:
                return False
            s = word[pos]
            if s in self._ldesc[yid]:
                yid = self._lmul(s, yid)
            pos += 1


def _stratum_size(desc: GroupDescriptor, n: int) -> int:
    """Coxeter elements of length n (the length series): 1 at n = 0, else 2 in A1~ and 3n in A2~."""
    if n == 0:
        return 1
    return 2 if desc.affine_type == "A1~" else 3 * n


def _length_series(desc: GroupDescriptor, radius: int):
    """The pairs (|stratum n|, |ball(n)|) of Coxeter parts for n = 0..radius,
    from the length series, not from enumeration; a budget check stops
    reading them once it is passed."""
    ball = 0
    for n in range(radius + 1):
        stratum = _stratum_size(desc, n)
        ball += stratum
        yield stratum, ball


def _ball_fits(desc: GroupDescriptor, radius: int) -> bool:
    """Whether ball(radius), Coxeter parts times omega parts, has at most
    BALL_BUDGET elements."""
    return all(ball * desc.omega_order <= BALL_BUDGET for _, ball in _length_series(desc, radius))


@lru_cache(maxsize=None)
def make_group(desc: GroupDescriptor) -> WeylGroup:
    """Return the (memoized) group handle for a supported descriptor."""
    return WeylGroup(desc)
