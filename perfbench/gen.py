"""Seeded inputs for the three workloads, and the integer-polynomial helpers
the benchmark uses to choose them.

Everything here is computed without concord: Alexander polynomials come
from sympy's determinant over Z[t], unit-circle roots from sympy's exact
real-root counting, derived depths from the construction of
the words.  The same seed always gives the same operation list.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

Poly = List[int]  # dense, index = degree

# -- integer polynomials ------------------------------------------------------


def p_trim(p: Sequence[int]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return p_trim(out)


def p_eval(p: Poly, x) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def normal_form(p: Poly) -> Poly:
    """The associate with no factor t, content 1 and positive leading
    coefficient: equality up to units of Q[t, t^-1] is equality of these."""
    p = p_trim(p)
    if not p:
        return []
    low = next(i for i, c in enumerate(p) if c)
    p = p[low:]
    from math import gcd

    g = 0
    for c in p:
        g = gcd(g, c)
    p = [c // g for c in p]
    return p if p[-1] > 0 else [-c for c in p]


def matrix_key(v: Sequence[Sequence[int]]) -> tuple:
    return tuple(tuple(r) for r in v)


def alexander(v: Sequence[Sequence[int]]) -> Poly:
    """normal_form(det(tV - V^T)), computed without concord."""
    return list(_alexander(matrix_key(v)))


@lru_cache(maxsize=None)
def _alexander(key: tuple) -> tuple:
    """sympy's determinant over Z[t]; the checks read it again, so it is kept."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    n = len(key)
    if n == 0:
        return (1,)
    t = sympy.Symbol("t")
    ring = sympy.ZZ[t]
    m = DomainMatrix([[ring.from_sympy(t * key[i][j] - key[j][i]) for j in range(n)]
                      for i in range(n)], (n, n), ring)
    det = sympy.Poly(ring.to_sympy(m.det()), t)
    return tuple(normal_form([int(c) for c in det.all_coeffs()[::-1]]))


def compact_form(delta: Poly) -> List[int]:
    """g with t^-m Delta(t) = g(t + 1/t), for palindromic Delta of degree
    2m, from the recursion P_{j+1} = x P_j - P_{j-1} for t^j + t^-j."""
    d = len(delta) - 1
    assert d % 2 == 0 and delta == delta[::-1], "Alexander polynomials are palindromic"
    m = d // 2
    g = [delta[m]]
    prev, cur = [2], [0, 1]  # P_0 = 2, P_1 = x
    for j in range(1, m + 1):
        coef = delta[m + j]
        g = [(g[i] if i < len(g) else 0) + coef * (cur[i] if i < len(cur) else 0)
             for i in range(max(len(g), len(cur)))]
        nxt = [0] + cur
        nxt = [nxt[i] - (prev[i] if i < len(prev) else 0) for i in range(len(nxt))]
        prev, cur = cur, nxt
    return p_trim(g)


def arf_of(delta: Poly) -> int:
    """0 iff |Delta(-1)| is 1 or 7 mod 8."""
    return 0 if abs(int(p_eval(delta, -1))) % 8 in (1, 7) else 1


# -- Seifert matrices -----------------------------------------------------------


def random_seifert(rng: random.Random, genus: int, spread: int = 2) -> List[List[int]]:
    """A random symmetric integer matrix plus the standard strictly upper
    part, so that V - V^T is the symplectic form (determinant 1)."""
    n = 2 * genus
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rng.randint(-spread, spread)
            v[i][j] += x
            if j != i:
                v[j][i] += x
    for i in range(genus):
        v[2 * i][2 * i + 1] += 1
    return v


def torus_seifert(g: int) -> List[List[int]]:
    """Seifert matrix of the torus knot T(2, 2g+1)."""
    n = 2 * g
    return [[-1 if i == j else (1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]


def mirror(v: Sequence[Sequence[int]]) -> List[List[int]]:
    n = len(v)
    return [[-v[j][i] for j in range(n)] for i in range(n)]


def circle_roots(delta: Poly) -> Tuple[int, int]:
    """(number of distinct unit-circle roots of Delta with Im > 0, number
    of them within 1/16 of x = 2cos(theta) = +-2), counted exactly."""
    import sympy

    if len(delta) <= 1:
        return 0, 0
    x = sympy.Symbol("x")
    g = sympy.Poly(list(reversed(compact_form(delta))), x, domain="ZZ")
    g = sympy.Poly(sympy.quo(g, sympy.gcd(g, g.diff(x))), x, domain="QQ")
    two, edge = sympy.Rational(2), sympy.Rational(31, 16)
    total = g.count_roots(-two, two)
    near = g.count_roots(edge, two) + g.count_roots(-two, -edge)
    return int(total), int(near)


def is_squarefree(delta: Poly) -> bool:
    import sympy

    t = sympy.Symbol("t")
    p = sympy.Poly(list(reversed(delta)), t, domain="QQ")
    return sympy.gcd(p, p.diff(t)).degree() == 0


# -- free words -------------------------------------------------------------------

Word = List[Tuple[int, int]]  # (generator index, +-1), freely reduced


def w_mul(a: Word, b: Word) -> Word:
    out = list(a)
    for let in b:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return out


def w_inv(a: Word) -> Word:
    return [(g, -s) for g, s in reversed(a)]


def w_comm(a: Word, b: Word) -> Word:
    return w_mul(w_mul(w_mul(a, b), w_inv(a)), w_inv(b))


def nested_commutator(depth: int) -> Tuple[Word, int]:
    """[x1,x2] at depth 1; at depth k+1 each generator of the depth-k word
    becomes the commutator of two fresh generators.  The word lies in the
    k-th derived subgroup of the free group of rank 2^k and not in the
    next one."""
    word: Word = w_comm([(0, 1)], [(1, 1)])
    rank = 2
    for _ in range(depth - 1):
        rank *= 2
        out: Word = []
        for g, s in word:
            img = w_comm([(2 * g, 1)], [(2 * g + 1, 1)])
            out = w_mul(out, img if s == 1 else w_inv(img))
        word = out
    return word, rank


def apply_automorphism(word: Word, images: Dict[int, Word]) -> Word:
    out: Word = []
    for g, s in word:
        img = images[g]
        out = w_mul(out, img if s == 1 else w_inv(img))
    return out


def random_word(rng: random.Random, depth: int, moves: int) -> Tuple[Word, int]:
    """The nested commutator of the given depth under a random product of
    Nielsen moves.  Automorphisms preserve every term of the derived
    series, so the derived depth stays exactly `depth`."""
    word, rank = nested_commutator(depth)
    for _ in range(moves):
        i, j = rng.sample(range(rank), 2)
        e = rng.choice((1, -1))
        images = {g: [(g, 1)] for g in range(rank)}
        images[i] = [(i, 1), (j, e)] if rng.random() < 0.5 else [(j, e), (i, 1)]
        word = apply_automorphism(word, images)
    return word, rank


# -- workload operation lists ---------------------------------------------------------

# A fixed genus-3 knot whose top unit-circle root sits at x = 1.957, within
# 1/16 of x = 2: concord's signature_function raises
# AssertionError("empty sampling gap despite disjoint isolation") on it.
SAMPLING_GAP_KNOT = [
    [2, 0, -1, 2, -2, 0], [-1, 2, -1, -1, 2, -1], [-1, -1, 2, -1, -1, 1],
    [2, -1, -2, 2, -2, -2], [-2, 2, -1, -2, -1, -1], [0, -1, 1, -2, -2, 2],
]

# Warm-up inputs, kept out of every timed set.
WARMUP_KNOT = [[-2, 1], [0, -1]]              # Delta = 2t^2 - 3t + 2
WARMUP_TERMINAL = [[-1, 1], [0, 1]]           # Delta = t^2 - 3t + 1, Arf 0


# Entry range of the random symmetric part, per genus: wide enough at
# genus 1 that a run's distinct knots never exhaust the pool.
SPREAD = {1: 6, 2: 2, 3: 2}


class Picker:
    """Distinct random Seifert matrices that satisfy a predicate."""

    def __init__(self, rng: random.Random, exclude=()):
        self.rng = rng
        self.seen = {matrix_key(v) for v in exclude}

    def pick(self, genus: int, accept) -> Tuple[List[List[int]], Poly]:
        for _ in range(100000):
            v = random_seifert(self.rng, genus, spread=SPREAD[genus])
            k = matrix_key(v)
            if k in self.seen:
                continue
            delta = alexander(v)
            if accept(v, delta):
                self.seen.add(k)
                return v, delta
        raise RuntimeError(f"no new genus-{genus} knot found")


def algebra_ops(seed: int, rounds: int, mix=(8, 9, 3)) -> List[dict]:
    """Each round: mix[0] genus-1, mix[1] genus-2, mix[2] genus-3 knots with
    squarefree Delta of positive degree, all distinct, in seeded order."""
    rng = random.Random(f"algebra:{seed}")
    picker = Picker(rng, [WARMUP_KNOT])

    def accept(v, delta):
        return len(delta) > 1 and is_squarefree(delta)

    ops = []
    for _ in range(rounds):
        block = []
        for genus, count in zip((1, 2, 3), mix):
            for _ in range(count):
                v, _ = picker.pick(genus, accept)
                block.append({"kind": "submodules", "genus": genus, "seifert": v})
        rng.shuffle(block)
        ops.extend(block)
    return ops


# (genus, unit-circle roots of Delta, knots per round): the cost of an
# operation grows with the number of arcs, so the mix is fixed per stratum.
# The twelve genus-3 knots with two roots (about 0.38 s each) put the 90th
# percentile inside their cluster; the genus-3 knots with one root split
# into a 0.25 s and a 0.4 s group in seeded proportions.
SIGNATURE_MIX = ((1, 1, 35), (2, 1, 40), (2, 2, 5), (3, 1, 12), (3, 2, 12))


def signature_ops(seed: int, rounds: int, mix=SIGNATURE_MIX, torus_max: int = 4) -> List[dict]:
    """Each round: T(2,2g+1) for g = 1..torus_max and their mirrors, the
    sampling-gap knot, and distinct random knots in the strata of `mix`.
    Random knots with a unit-circle root within 1/16 of x = +-2 are not
    drawn (see SAMPLING_GAP_KNOT)."""
    rng = random.Random(f"signature:{seed}")
    picker = Picker(rng, [WARMUP_KNOT, SAMPLING_GAP_KNOT]
                    + [torus_seifert(g) for g in range(1, torus_max + 1)]
                    + [mirror(torus_seifert(g)) for g in range(1, torus_max + 1)])
    ops = []
    for _ in range(rounds):
        block = []
        for g in range(1, torus_max + 1):
            for mirrored in (False, True):
                v = torus_seifert(g)
                block.append({"kind": "rho0", "family": "torus", "g": g, "mirror": mirrored,
                              "seifert": mirror(v) if mirrored else v})
        block.append({"kind": "rho0", "family": "sampling_gap", "fault": True,
                      "seifert": SAMPLING_GAP_KNOT})
        for genus, roots, count in mix:
            for _ in range(count):
                v, _ = picker.pick(
                    genus, lambda v, d: len(d) > 1 and circle_roots(d) == (roots, 0))
                block.append({"kind": "rho0", "family": "random", "genus": genus,
                              "roots": roots, "seifert": v})
        rng.shuffle(block)
        ops.extend(block)
    return ops


def tower_queries(height: int) -> List[Tuple[str, int]]:
    """A tower's queries, in order: solvable pays the depth certification;
    expand_clones runs at each level 1..3 the tower allows."""
    return ([("solvable", 0), ("verdict", 0), ("canon", 0)]
            + [("expand", level) for level in (1, 2, 3) if level <= height] + [("fos", 0)])


def terminal_knots(rng: random.Random, count: int,
                   exclude=()) -> List[Tuple[List[List[int]], Poly]]:
    """Distinct genus-1 knots with Arf invariant 0 and Delta != 1."""
    picker = Picker(rng, [WARMUP_TERMINAL] + list(exclude))
    return [picker.pick(1, lambda v, d: len(d) > 1 and arf_of(d) == 0) for _ in range(count)]


def distinct_words(rng: random.Random, depths: Sequence[int], exclude=()) -> List[Tuple[Word, int]]:
    seen = {tuple(w) for w in exclude}
    out = []
    for depth in depths:
        while True:
            word, rank = random_word(rng, depth, moves=3 if depth < 3 else 2)
            if tuple(word) not in seen:
                seen.add(tuple(word))
                out.append((word, rank))
                break
    return out


def towers_ops(seed: int, rounds: int, heights=range(6, 13)) -> List[dict]:
    """Each round builds one tower per height: an rdouble tower of that
    height over a distinct Arf-0 knot, fed into a trivial link along a
    distinct word of depth 1 + height % 3, and is asked the queries of
    tower_queries; the towers' order is seeded."""
    rng = random.Random(f"towers:{seed}")
    heights = list(heights)
    knots = terminal_knots(rng, rounds * len(heights))
    words = distinct_words(rng, [1 + h % 3 for _ in range(rounds) for h in heights],
                           exclude=[nested_commutator(1)[0]])
    ops = []
    idx = 0
    for r in range(rounds):
        towers = []
        for h in heights:
            (v, _), (word, rank) = knots[idx], words[idx]
            idx += 1
            tower = {"name": f"K{idx}", "seifert": v, "height": h,
                     "word": word, "rank": rank, "depth": 1 + h % 3}
            towers.append([dict(tower, kind=q, level=level) for q, level in tower_queries(h)])
        rng.shuffle(towers)
        for t in towers:
            ops.extend(t)
    return ops
