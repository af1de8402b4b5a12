import random
from fractions import Fraction

from concord.realroots import (
    IsolatedRoot,
    _scaled_value,
    evaluate,
    isolate_roots,
    squarefree,
    sturm_chain,
    count_roots_half_open,
)


def F(a, b=1):
    return Fraction(a, b)


def test_isolates_known_roots():
    # (x-1)(x+1/2)(x-5/3) = x^3 - 13/6 x^2 + ... expanded via constructor
    roots = [F(1), F(-1, 2), F(5, 3)]
    p = [F(1)]
    for r in roots:
        p = [c * (-r) for c in p] + [F(0)]
        for i, c in enumerate(p[:-1]):
            pass
    # build properly: multiply (x - r)
    p = [F(1)]
    for r in roots:
        new = [F(0)] * (len(p) + 1)
        for i, c in enumerate(p):
            new[i + 1] += c
            new[i] += c * (-r)
        p = new
    found = isolate_roots(p, F(-2), F(2))
    assert len(found) == 3
    for r, iso in zip(sorted(roots), found):
        assert iso.lo <= r <= iso.hi
        if not iso.is_exact():
            assert evaluate(list(iso.poly), iso.lo) * evaluate(list(iso.poly), iso.hi) < 0


def test_exact_rational_root_collapses():
    p = [F(-1), F(0), F(1)]  # x^2 - 1, roots at +-1
    found = isolate_roots(p, F(-2), F(2))
    assert len(found) == 2
    refined = [r.refine(F(1, 64)) for r in found]
    # dyadic bisection lands exactly on the rational roots
    assert all(r.is_exact() for r in refined)
    assert [r.lo for r in refined] == [F(-1), F(1)]


def test_refinement_narrows():
    p = [F(-2), F(0), F(1)]  # x^2 - 2
    found = isolate_roots(p, F(-2), F(2))
    assert len(found) == 2
    r = found[1].refine(F(1, 10**12))
    assert r.width() <= F(1, 10**12)
    assert evaluate([F(-2), F(0), F(1)], r.lo) < 0 or r.is_exact()
    assert r.lo <= F(14142135623730951, 10**16) <= r.hi


def fraction_refine(root: IsolatedRoot, width: Fraction) -> IsolatedRoot:
    """Oracle: bisection on Fraction midpoints."""
    if root.is_exact():
        return root
    p, lo, hi = root.poly, root.lo, root.hi
    flo = _scaled_value(p, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = _scaled_value(p, mid)
        if not fmid:
            return IsolatedRoot(p, mid, mid)
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return IsolatedRoot(p, lo, hi)


def test_refine_equals_fraction_bisection():
    """Seeded squarefree polynomials, some with rational roots that a
    dyadic bisection lands on, isolated from dyadic and from non-dyadic
    endpoints: the integer bisection returns the same (lo, hi)."""
    rng = random.Random(2024)
    seen = exact = 0
    for _ in range(150):
        p = [rng.randrange(-9, 10) for _ in range(rng.randrange(2, 7))]
        p[-1] = p[-1] or 1
        for _ in range(rng.randrange(0, 3)):  # times (den x - num)
            num, den = rng.randrange(-40, 41), rng.choice([1, 2, 4, 8, 3, 5])
            p = [den * b - num * a for a, b in zip(p + [0], [0] + p)]
        sf = squarefree(p)
        if len(sf) < 2:
            continue
        for lo, hi in ((F(-64), F(64)), (F(-61, 3), F(67, 3))):
            if not evaluate(sf, lo) or not evaluate(sf, hi):
                continue
            for root in isolate_roots(sf, lo, hi):
                for width in (F(1, 7), F(1, 10**9), F(3, 2**50), F(1, 10**30)):
                    got, want = root.refine(width), fraction_refine(root, width)
                    assert (got.lo, got.hi) == (want.lo, want.hi), (sf, root, width)
                    seen += 1
                    exact += got.is_exact()
    assert seen > 500 and exact > 50


def test_refine_work_is_independent_of_width():
    """No Fraction is made or combined per bisection step."""
    from test_certified import fraction_calls

    root = isolate_roots([-2, 0, 1], F(0), F(2))[0]
    loose = fraction_calls(root.refine, F(1, 10**9))
    tight = fraction_calls(root.refine, F(1, 10**45))
    assert loose == tight


def test_random_products_count():
    rng = random.Random(77)
    for _ in range(40):
        roots = sorted(set(Fraction(rng.randrange(-30, 31), rng.randrange(1, 16)) for _ in range(rng.randrange(1, 5))))
        p = [F(1)]
        for r in roots:
            new = [F(0)] * (len(p) + 1)
            for i, c in enumerate(p):
                new[i + 1] += c
                new[i] += c * (-r)
            p = new
        lo, hi = F(-40), F(40)
        found = isolate_roots(p, lo, hi)
        assert len(found) == len(roots)
        for r, iso in zip(roots, found):
            assert iso.lo <= r <= iso.hi

        chain = sturm_chain(p)
        assert count_roots_half_open(chain, lo, hi) == len(roots)


def test_squarefree():
    # (x-1)^2 (x+2) -> squarefree part has roots {1, -2}
    p = [F(1)]
    for r in [F(1), F(1), F(-2)]:
        new = [F(0)] * (len(p) + 1)
        for i, c in enumerate(p):
            new[i + 1] += c
            new[i] += c * (-r)
        p = new
    sf = squarefree(p)
    found = isolate_roots(sf, F(-3), F(3))
    assert len(found) == 2


def test_sturm_counts_against_sympy():
    """Seeded compact forms g(x) of random Seifert matrices of genus <= 6
    (Delta = t^g g(t + 1/t)): the roots found in (-2, 2) are as many as
    sympy counts, and each isolating interval holds one sign change."""
    import sympy

    from concord.seifert import _compact_form, alexander_poly
    from test_seifert import random_seifert

    x = sympy.Symbol("x")
    rng = random.Random(4242)
    seen = 0
    for genus in range(1, 7):
        for _ in range(12):
            delta = alexander_poly(random_seifert(rng, genus))
            if delta.degree() == 0:
                continue
            g = _compact_form(delta)
            gs = sympy.Poly(list(reversed(g)), x, domain="QQ")
            gs = gs.quo(gs.gcd(gs.diff(x)))
            roots = isolate_roots(squarefree(g), F(-2), F(2))
            assert len(roots) == gs.count_roots(-2, 2)
            seen += len(roots)
            for r in roots:
                if r.is_exact():
                    assert gs.eval(r.lo) == 0
                    continue
                lo, hi = gs.eval(r.lo), gs.eval(r.hi)
                assert lo * hi < 0 and gs.count_roots(r.lo, r.hi) == 1
    assert seen >= 20
