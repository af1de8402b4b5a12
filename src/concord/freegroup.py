"""Free-group words and a decidable derived-series depth.

Membership of w in F^(n) is decided through the recursive Magnus
embedding: F/[N,N] embeds in (free Z[F/N]-module of rank m) x| F/N for
N = F^(n-1), so the image of a word in F/F^(n) is a pair (tail,
quotient).  The tail is the word's Fox derivative: a finitely supported
map from (element of F/F^(n-1), generator index) to integers, where the
letter x_g at position j adds 1 at (image of the prefix before it, g) and
x_g^-1 adds -1 at (image of the prefix after it, g).  A word lies in
F^(n) exactly when it lies in F^(n-1) and its level-n tail is zero.

`derived_depth` runs this as one pass per level over the word's prefixes.
At level k every prefix already carries a small integer class: two
prefixes share a class exactly when their images in F/F^(k-1) are equal.
The level-k image of a prefix is then (its Fox tail keyed by those
classes, its level-(k-1) class), and interning these pairs in a dict,
compared by equality, numbers the prefixes for level k+1.  The pass
stops at the first level whose whole-word tail is not zero.

`WreathElement` and `evaluate_in_quotient` compute the same images
letter by letter in the nested wreath model; they are the independent
oracle that the tests check the pass against.

For free groups the rational derived series coincides with the derived
series, which the integer (torsion-free) tails realize structurally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from concord.laurent import memo

DEPTH_CAP = 5


class ResourceCapExceeded(Exception):
    pass


# -- words -------------------------------------------------------------------


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word; letters are (generator index 0-based, +-1)."""

    rank: int
    letters: Tuple[Tuple[int, int], ...]

    @classmethod
    def identity(cls, rank: int) -> "FreeWord":
        return cls(rank, ())

    @classmethod
    def generator(cls, rank: int, i: int, power: int = 1) -> "FreeWord":
        if not 0 <= i < rank:
            raise ValueError(f"generator index {i} out of range for rank {rank}")
        sign = 1 if power > 0 else -1
        return cls(rank, ((i, sign),) * abs(power))

    def __post_init__(self):
        for i, s in self.letters:
            if not (0 <= i < self.rank and s in (1, -1)):
                raise ValueError("malformed letter")
        for a, b in zip(self.letters, self.letters[1:]):
            if a[0] == b[0] and a[1] == -b[1]:
                raise ValueError("word is not freely reduced")

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = list(self.letters)
        for let in other.letters:
            if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
                out.pop()
            else:
                out.append(let)
        return FreeWord(self.rank, tuple(out))

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple((i, -s) for i, s in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        idx = 0
        while idx < len(self.letters):
            g, s = self.letters[idx]
            run = 1
            while idx + run < len(self.letters) and self.letters[idx + run] == (g, s):
                run += 1
            e = s * run
            parts.append(f"x{g + 1}" if e == 1 else f"x{g + 1}^{e}")
            idx += run
        return " ".join(parts)


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    return u * v * u.inverse() * v.inverse()


def conjugate(w: FreeWord, by: FreeWord) -> FreeWord:
    return by * w * by.inverse()


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse generator/commutator syntax: x1, x2^-1, [x1,x2], nesting,
    juxtaposition (whitespace or * separated), parentheses."""
    pos = 0
    s = text

    def skip_ws():
        nonlocal pos
        while pos < len(s) and (s[pos].isspace() or s[pos] == "*"):
            pos += 1

    def parse_int() -> int:
        nonlocal pos
        start = pos
        if pos < len(s) and s[pos] in "+-":
            pos += 1
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start or (pos == start + 1 and s[start] in "+-"):
            raise ValueError(f"expected integer at position {start} in {text!r}")
        return int(s[start:pos])

    def parse_atom() -> FreeWord:
        nonlocal pos
        skip_ws()
        if pos >= len(s):
            raise ValueError(f"unexpected end of word in {text!r}")
        ch = s[pos]
        if ch == "[":
            pos += 1
            left = parse_sequence(stop={",", "]"})
            skip_ws()
            if pos >= len(s) or s[pos] != ",":
                raise ValueError(f"expected ',' in commutator in {text!r}")
            pos += 1
            right = parse_sequence(stop={"]"})
            skip_ws()
            if pos >= len(s) or s[pos] != "]":
                raise ValueError(f"unclosed commutator in {text!r}")
            pos += 1
            return commutator(left, right)
        if ch == "(":
            pos += 1
            inner = parse_sequence(stop={")"})
            skip_ws()
            if pos >= len(s) or s[pos] != ")":
                raise ValueError(f"unclosed parenthesis in {text!r}")
            pos += 1
            return inner
        if ch == "x":
            pos += 1
            start = pos
            while pos < len(s) and s[pos].isdigit():
                pos += 1
            if pos == start:
                raise ValueError(f"generator needs an index at {start} in {text!r}")
            idx = int(s[start:pos])
            if not 1 <= idx <= rank:
                raise ValueError(f"generator x{idx} outside rank {rank}")
            return FreeWord.generator(rank, idx - 1)
        if ch == "1":
            pos += 1
            return FreeWord.identity(rank)
        raise ValueError(f"unexpected character {ch!r} at {pos} in {text!r}")

    def parse_factor() -> FreeWord:
        nonlocal pos
        atom = parse_atom()
        skip_ws()
        if pos < len(s) and s[pos] == "^":
            pos += 1
            e = parse_int()
            out = FreeWord.identity(rank)
            base = atom if e > 0 else atom.inverse()
            for _ in range(abs(e)):
                out = out * base
            return out
        return atom

    def parse_sequence(stop=frozenset()) -> FreeWord:
        nonlocal pos
        out = FreeWord.identity(rank)
        while True:
            skip_ws()
            if pos >= len(s) or s[pos] in stop:
                return out
            out = out * parse_factor()

    result = parse_sequence()
    skip_ws()
    if pos != len(s):
        raise ValueError(f"trailing input at {pos} in {text!r}")
    return result


# -- wreath model of F/F^(n) ----------------------------------------------------


class WreathElement:
    """An element of the model of F/F^(level) (level 0 = trivial group)."""

    __slots__ = ("level", "rank", "tail", "quot", "_hash")

    def __init__(self, level: int, rank: int, tail: frozenset, quot: Optional["WreathElement"]):
        self.level = level
        self.rank = rank
        self.tail = tail
        self.quot = quot
        self._hash: Optional[int] = None

    @classmethod
    def identity(cls, level: int, rank: int) -> "WreathElement":
        if level == 0:
            return cls(0, rank, frozenset(), None)
        return cls(level, rank, frozenset(), cls.identity(level - 1, rank))

    def is_identity(self) -> bool:
        if self.tail:
            return False
        return self.quot is None or self.quot.is_identity()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, WreathElement):
            return NotImplemented
        return (
            self.level == other.level
            and self.rank == other.rank
            and self.tail == other.tail
            and self.quot == other.quot
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.level, self.rank, self.tail, self.quot))
        return self._hash

    def mul(self, other: "WreathElement") -> "WreathElement":
        assert self.level == other.level and self.rank == other.rank
        if self.level == 0:
            return self
        d: Dict[tuple, int] = dict(self.tail)
        q1 = self.quot
        shortcut = q1.is_identity()
        for (q, g), c in other.tail:
            if shortcut:
                key = (q, g)
            elif q.is_identity():
                key = (q1, g)
            else:
                key = (q1.mul(q), g)
            nc = d.get(key, 0) + c
            if nc:
                d[key] = nc
            else:
                del d[key]
        return WreathElement(
            self.level, self.rank, frozenset(d.items()), q1.mul(other.quot)
        )

    def inverse(self) -> "WreathElement":
        if self.level == 0:
            return self
        qi = self.quot.inverse()
        d: Dict[tuple, int] = {}
        shortcut = qi.is_identity()
        for (q, g), c in self.tail:
            if shortcut:
                key = (q, g)
            elif q.is_identity():
                key = (qi, g)
            else:
                key = (qi.mul(q), g)
            d[key] = d.get(key, 0) - c
        return WreathElement(
            self.level, self.rank, frozenset((k, v) for k, v in d.items() if v), qi
        )

    def __repr__(self) -> str:
        return f"WreathElement(level={self.level}, tail_size={len(self.tail)})"


@memo
def _generator_image(level: int, rank: int, g: int, sign: int) -> WreathElement:
    if level == 0:
        return WreathElement.identity(0, rank)
    if sign == 1:
        below = WreathElement.identity(level - 1, rank)
        return WreathElement(
            level, rank,
            frozenset({((below, g), 1)}),
            _generator_image(level - 1, rank, g, 1),
        )
    return _generator_image(level, rank, g, 1).inverse()


def evaluate_in_quotient(word: FreeWord, level: int) -> WreathElement:
    """Image of the word in the model of F/F^(level)."""
    if level > DEPTH_CAP + 1:
        raise ResourceCapExceeded(
            f"quotient level {level} exceeds the cap {DEPTH_CAP + 1}"
        )
    out = WreathElement.identity(level, word.rank)
    for g, s in word.letters:
        out = out.mul(_generator_image(level, word.rank, g, s))
    return out


@dataclass(frozen=True)
class DepthResult:
    """Exact derived-series depth, or a certified lower bound at the cap."""

    value: int
    exact: bool

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">= {self.value}"

    def at_least(self, n: int) -> bool:
        return self.value >= n


def derived_depth(word: FreeWord, n_max: int = DEPTH_CAP) -> DepthResult:
    """The largest n <= n_max with word in F^(n).

    Exact except when the word survives to the cap, in which case the
    result is the certified lower bound n_max (exact=False).  Memoized by
    the value of (word, n_max).
    """
    return _derived_depth(word, n_max)


@memo
def _derived_depth(word: FreeWord, n_max: int) -> DepthResult:
    if n_max < 0:
        raise ValueError(f"depth cap must be >= 0, got {n_max}")
    if n_max > DEPTH_CAP:
        partial = _derived_depth(word, DEPTH_CAP)
        if partial.exact:
            return partial
        raise ResourceCapExceeded(
            f"depth certification beyond {DEPTH_CAP} is out of reach; "
            f"certified lower bound {partial.value}"
        )
    letters = word.letters
    below = [0] * (len(letters) + 1)  # every prefix is trivial in F/F^(0)
    for k in range(1, n_max + 1):
        # the Fox-tail key of each letter: (class of the prefix before a
        # positive letter or after a negative one, generator)
        keys = [(below[j] if s == 1 else below[j + 1], g) for j, (g, s) in enumerate(letters)]
        total: Dict[tuple, int] = {}
        for key, (_, s) in zip(keys, letters):
            total[key] = total.get(key, 0) + s
        # the word is in F^(k-1), so its image in F/F^(k) is its tail alone
        if any(total.values()):
            return DepthResult(k - 1, True)
        if k < n_max:
            below = _prefix_classes(keys, letters, below)
    return DepthResult(n_max, False)


def _prefix_classes(
    keys: List[tuple], letters: Tuple[Tuple[int, int], ...], below: List[int]
) -> List[int]:
    """Level-k classes of the prefixes, given their level-(k-1) classes
    `below` and the letters' Fox-tail keys: the class of a prefix is the
    index of the first prefix with the same (tail, below class).  A prefix
    alone in its class below is alone above too, so its tail is not
    interned."""
    shared = Counter(below)
    tail: Dict[tuple, int] = {}
    seen = {(frozenset(), below[0]): 0}
    out = [0]
    for j, (key, (_, s)) in enumerate(zip(keys, letters), 1):
        c = tail.get(key, 0) + s
        if c:
            tail[key] = c
        else:
            del tail[key]
        b = below[j]
        out.append(j if shared[b] == 1 else seen.setdefault((frozenset(tail.items()), b), j))
    return out


derived_depth.cache_info = _derived_depth.cache_info


# -- doubling curves ---------------------------------------------------------------


def bing_curve(n: int) -> Tuple[FreeWord, int]:
    """The canonical n-fold doubling curve: the commutator of the two
    meridians for n = 1, then each generator is replaced by a commutator
    of the next generation's pair.  Lives in rank 2^n, at derived depth
    exactly n."""
    if n < 1:
        raise ValueError("doubling depth must be >= 1")
    if n > DEPTH_CAP:
        raise ResourceCapExceeded(f"doubling depth {n} exceeds the cap {DEPTH_CAP}")
    word = commutator(FreeWord.generator(2, 0), FreeWord.generator(2, 1))
    rank = 2
    for _ in range(n - 1):
        rank *= 2
        images = [
            commutator(FreeWord.generator(rank, 2 * i), FreeWord.generator(rank, 2 * i + 1))
            for i in range(rank // 2)
        ]
        out = FreeWord.identity(rank)
        for g, s in word.letters:
            out = out * (images[g] if s == 1 else images[g].inverse())
        word = out
    return word, rank
