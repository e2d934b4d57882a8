"""Extended affine Weyl groups of types A1~ and A2~.

The Coxeter part is handled generically through the integral reflection
representation attached to a Coxeter matrix with entries in {2, 3, oo}.
The representation is faithful, so the matrix of w^-1 names w by itself;
it also gives the left descents of w, and the canonical (ShortLex least)
reduced word of w is its least left descent s followed by the word of s*w.
The length-zero extension Omega acts by diagram automorphisms and sits
on the right: an element is a pair (coxeter word, omega).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceeded, GroupMismatch, HeckejError, UnsupportedType

__all__ = [
    "GroupDescriptor",
    "GroupElement",
    "WeylGroup",
    "make_group",
    "bruhat_leq",
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
# checked before any enumeration.  The largest balls the tests and the
# benchmark build are the KL tables of JRing(A2~, 10) (radius 35, 1,891
# elements) and of JRing(A1~ extended, 24) (radius 55, 222 elements).
BALL_BUDGET = 10**4


@dataclass(frozen=True)
class GroupDescriptor:
    affine_type: str
    extended: bool = False

    def __post_init__(self):
        if self.affine_type not in SUPPORTED_TYPES:
            raise UnsupportedType(f"unsupported affine type {self.affine_type!r}")

    @property
    def generator_count(self) -> int:
        return len(_COXETER[self.affine_type])

    @property
    def omega_order(self) -> int:
        return len(_OMEGA_PERMS[self.affine_type]) if self.extended else 1

    @property
    def finite_longest_length(self) -> int:
        return _FINITE_LONGEST[self.affine_type]

    def to_json(self) -> dict:
        return {"affine_type": self.affine_type, "extended": self.extended}

    @classmethod
    def from_json(cls, data: dict) -> "GroupDescriptor":
        return cls(data["affine_type"], bool(data.get("extended", False)))


@dataclass(frozen=True)
class GroupElement:
    """An element in canonical form: ShortLex-least reduced word + omega part."""

    desc: GroupDescriptor
    word: tuple[int, ...]
    omega: int = 0

    def __len__(self) -> int:
        return len(self.word)

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word and self.omega == 0

    def sort_key(self):
        return (len(self.word), self.word, self.omega)

    def to_json(self) -> dict:
        return {"word": list(self.word), "omega": self.omega}

    def __str__(self) -> str:
        body = "".join(str(i) for i in self.word) or "e"
        return body if self.omega == 0 else f"{body}@{self.omega}"


def _mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


class WeylGroup:
    """Handle for one (extended) affine Weyl group; elements are interned.

    Coxeter parts are identified by dense integer ids; the tables
    (canonical word, matrix of the inverse, left descent set, the id of
    each word and of each inverse matrix, neighbor links) are memo caches
    that only ever grow, so reads after a warm-up are safe for concurrent
    use.
    """

    def __init__(self, desc: GroupDescriptor):
        self.desc = desc
        n = desc.generator_count
        self.rank = n
        self._no_perm = tuple(range(n))
        cox = _COXETER[desc.affine_type]
        # off-diagonal coefficients of the reflection action
        self._coef = tuple(
            tuple(0 if cox[i][j] == 2 else (1 if cox[i][j] == 3 else 2) for j in range(n))
            for i in range(n)
        )
        self._gen_mats = []
        for i in range(n):
            rows = []
            for k in range(n):
                if k != i:
                    rows.append(tuple(1 if j == k else 0 for j in range(n)))
                else:
                    rows.append(tuple(-1 if j == i else self._coef[i][j] for j in range(n)))
            self._gen_mats.append(tuple(rows))
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
        self._invmats = [_mat_identity(n)]
        self._invmat_index = {self._invmats[0]: 0}
        self._ldesc: list[frozenset[int]] = [frozenset()]
        self._rmul_memo: dict[tuple[int, int], int] = {}
        self._lmul_memo: dict[tuple[int, int], int] = {}
        self._inv_memo: dict[int, int] = {}

    # -- element constructors --------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self.desc, ())

    def generator(self, i: int) -> GroupElement:
        if not 0 <= i < self.rank:
            raise ValueError(f"no generator {i}")
        return GroupElement(self.desc, (i,))

    def generators(self) -> list[GroupElement]:
        return [self.generator(i) for i in range(self.rank)]

    def omega_element(self, k: int) -> GroupElement:
        if not 0 <= k < self.desc.omega_order:
            raise ValueError(f"no omega element {k}")
        return GroupElement(self.desc, (), k)

    def omega_elements(self) -> list[GroupElement]:
        return [self.omega_element(k) for k in range(self.desc.omega_order)]

    def element(self, word, omega: int = 0) -> GroupElement:
        """Build an element from an arbitrary (not necessarily reduced) word."""
        word = [int(s) for s in word]
        for s in word:
            if not 0 <= s < self.rank:
                raise ValueError(f"no generator {s} in type {self.desc.affine_type}")
        if not 0 <= omega < self.desc.omega_order:
            raise ValueError(f"no omega element {omega}")
        return GroupElement(self.desc, self._words[self._word_id(word)], omega)

    def from_json(self, data: dict) -> GroupElement:
        return self.element(data["word"], int(data.get("omega", 0)))

    # -- Coxeter-part machinery ------------------------------------------

    def _check(self, g: GroupElement) -> None:
        if g.desc != self.desc:
            raise GroupMismatch(f"element of {g.desc} used with group {self.desc}")

    def _id_of(self, word: tuple[int, ...]) -> int:
        got = self._index.get(word)
        if got is not None:
            return got
        i = self._word_id(word)
        if self._words[i] != word:
            raise ValueError(f"{word} is not a canonical reduced word")
        return i

    def _word_id(self, word, perm=None, i: int = 0) -> int:
        """Coxeter id of the element i followed by the letters perm[s] of word."""
        perm = perm or self._no_perm
        for s in word:
            i = self._rmul(i, perm[s])
        return i

    def _intern(self, invmat) -> int:
        """Id of the element w whose inverse has matrix invmat. A new w's
        word is its least left descent s followed by the word of s*w, so
        walk down to a known element and intern those passed on the way up."""
        n = self.rank
        pending = []
        while invmat not in self._invmat_index:
            # s_i is a left descent iff w^-1(alpha_i) is a negative root,
            # i.e. column i of the inverse matrix is <= 0.
            desc = frozenset(
                i for i in range(n) if all(invmat[k][i] <= 0 for k in range(n))
            )
            if not desc:
                raise HeckejError("non-identity element with no left descent")
            s = min(desc)
            pending.append((invmat, desc, s))
            # (s * w)^-1 = w^-1 * s
            invmat = _mat_mul(invmat, self._gen_mats[s])
        below = self._invmat_index[invmat]
        for invmat, desc, s in reversed(pending):
            idx = len(self._words)
            word = (s,) + self._words[below]
            self._index[word] = idx
            self._invmat_index[invmat] = idx
            self._words.append(word)
            self._invmats.append(invmat)
            self._ldesc.append(desc)
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
        j = self._intern(_mat_mul(self._gen_mats[s], self._invmats[i]))
        self._rmul_memo[key] = j
        self._rmul_memo[(j, s)] = i
        return j

    def _lmul(self, s: int, i: int) -> int:
        key = (s, i)
        got = self._lmul_memo.get(key)
        if got is not None:
            return got
        j = self._intern(_mat_mul(self._invmats[i], self._gen_mats[s]))
        self._lmul_memo[key] = j
        self._lmul_memo[(s, j)] = i
        return j

    def _permuted_id(self, perm, i: int) -> int:
        """Coxeter id of the word of i with each letter s replaced by perm[s]."""
        return self._word_id(self._words[i], perm)

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
        self._check(a)
        self._check(b)
        perm = self.omega_perm(a.omega)
        i = self._word_id(b.word, perm, self._id_of(a.word))
        omega = (a.omega + b.omega) % self.desc.omega_order
        return GroupElement(self.desc, self._words[i], omega)

    def inverse(self, a: GroupElement) -> GroupElement:
        self._check(a)
        inv_omega = (-a.omega) % self.desc.omega_order
        perm = self.omega_perm(inv_omega)
        j = self._inverse_id(self._id_of(a.word))
        # (w * om)^-1 = om^-1 * w^-1 = perm(w^-1) * om^-1
        k = self._permuted_id(perm, j)
        return GroupElement(self.desc, self._words[k], inv_omega)

    def left_descents(self, a: GroupElement) -> frozenset[int]:
        self._check(a)
        return self._ldesc[self._id_of(a.word)]

    def right_descents(self, a: GroupElement) -> frozenset[int]:
        self._check(a)
        inv = self._inverse_id(self._id_of(a.word))
        base = self._ldesc[inv]
        # right multiplication by s goes through the omega action
        perm = self.omega_perm(a.omega)
        inv_perm = [0] * self.rank
        for i, p in enumerate(perm):
            inv_perm[p] = i
        return frozenset(inv_perm[s] for s in base)

    def length(self, a: GroupElement) -> int:
        self._check(a)
        return len(a.word)

    def _ball_ids(self, radius: int) -> list[int]:
        """Coxeter ids of length <= radius, sorted by (length, word).  A
        prefix of a ShortLex-least word is one too, so each element of length
        n + 1 is found once, as the i * s whose word is word(i) + (s,); so
        extending a sorted stratum letter by letter keeps the next sorted.
        A ball past BALL_BUDGET is refused before any enumeration."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        # each length n >= 1 has 2 Coxeter elements in A1~ and 3n in A2~
        if self.desc.affine_type == "A1~":
            size = 1 + 2 * radius
        else:
            size = 1 + 3 * radius * (radius + 1) // 2
        if size * self.desc.omega_order > BALL_BUDGET:
            raise BudgetExceeded(f"a ball of radius {radius} has over {BALL_BUDGET} elements")
        strata = [[0]]
        for _ in range(radius):
            nxt = []
            for i in strata[-1]:
                for s in range(self.rank):
                    j = self._rmul(i, s)
                    if self._words[j][-1:] == (s,):
                        nxt.append(j)
            strata.append(nxt)
        return [i for stratum in strata for i in stratum]

    def enumerate_ball(self, radius: int) -> list[GroupElement]:
        """All elements of length <= radius, sorted by (length, word, omega):
        each Coxeter part from `_ball_ids` with every omega part."""
        words = self._words
        omegas = range(self.desc.omega_order)
        return [GroupElement(self.desc, words[i], k) for i in self._ball_ids(radius) for k in omegas]

    # -- Bruhat order ------------------------------------------------------

    def bruhat_leq(self, y: GroupElement, w: GroupElement) -> bool:
        """Bruhat order; elements with distinct omega parts are incomparable."""
        self._check(y)
        self._check(w)
        if y.omega != w.omega:
            return False
        return self._bruhat_rec(self._id_of(y.word), w.word, 0)

    def bruhat_leq_via_word(self, y: GroupElement, word: tuple[int, ...]) -> bool:
        """Subword-property comparison of y against one reduced word."""
        self._check(y)
        word = tuple(word)
        if len(self.element(word).word) != len(word):
            raise ValueError(f"{word} is not a reduced word")
        return self._bruhat_rec(self._id_of(y.word), word, 0)

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


@lru_cache(maxsize=None)
def _group_cache(desc: GroupDescriptor) -> WeylGroup:
    return WeylGroup(desc)


def make_group(desc: GroupDescriptor) -> WeylGroup:
    """Return the (memoized) group handle for a supported descriptor."""
    return _group_cache(desc)


def bruhat_leq(y: GroupElement, w: GroupElement) -> bool:
    if y.desc != w.desc:
        raise GroupMismatch("elements of different groups are incomparable")
    return make_group(y.desc).bruhat_leq(y, w)
