import math
import random
import time
from fractions import Fraction

import pytest

from concord import catalog, seifert
from concord.laurent import LaurentPoly
from concord.realroots import IsolatedRoot
from concord.seifert import (
    SeifertMatrix,
    alexander_poly,
    arf,
    connected_sum,
    det_integer,
    mirror,
    rho0,
    signature_at,
    signature_function,
    _integer_signature,
)


def lp(d):
    return LaurentPoly(d)


TREFOIL = SeifertMatrix([[-1, 1], [0, -1]], name="trefoil")
FIG8 = SeifertMatrix([[1, 1], [0, -1]], name="figure8")
NINE46 = SeifertMatrix([[0, 2], [1, 0]], name="nine46")
UNKNOT = SeifertMatrix([], name="unknot")
EIGHT9 = catalog.get("eight9")[0]

P_EX = lp({3: 1, 2: -2, 1: 1, 0: -1})
Q_EX = lp({3: 1, 2: -1, 1: 2, 0: -1})


def random_seifert(rng, genus):
    """Random valid Seifert matrix: symmetric part + standard symplectic
    upper blocks, conjugated by a random unimodular matrix."""
    n = 2 * genus
    a = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            a[i][j] = a[j][i]
    for k in range(genus):
        a[2 * k][2 * k + 1] += 1  # skew part J
    v = SeifertMatrix(a)
    # random integer congruence keeps det(V - V^T)
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randrange(-1, 2)
            for k in range(n):
                p[k][i] += c * p[k][j]
    ent = v.entries
    pv = [[sum(p[k][i] * ent[k][l] for k in range(n)) for l in range(n)] for i in range(n)]
    out = [[sum(pv[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return SeifertMatrix(out)


def rho0_riemann_estimate(v: SeifertMatrix, samples: int = 10**6) -> float:
    """Independent numerical oracle for rho0: a Riemann sum of float
    signatures at uniform circle samples."""
    import numpy as np

    n = v.size()
    if n == 0:
        return 0.0
    vm = np.array(v.entries, dtype=np.float64)
    total = 0.0
    chunk = 65536
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        theta = 2.0 * np.pi * (np.arange(done, done + m) + 0.5) / samples
        om = np.exp(1j * theta)
        h = (1 - om)[:, None, None] * vm[None, :, :] + (1 - om.conj())[:, None, None] * vm.T[None, :, :]
        eigs = np.linalg.eigvalsh(h)
        total += float(np.sum(eigs > 1e-12) - np.sum(eigs < -1e-12))
        done += m
    return total / samples


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeifertMatrix([[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            SeifertMatrix([[1, 2], [3]])

    def test_det_integer(self):
        assert det_integer([]) == 1
        assert det_integer([[2]]) == 2
        assert det_integer([[0, 1], [-1, 0]]) == 1
        rng = random.Random(1)
        for _ in range(20):
            m = [[rng.randrange(-4, 5) for _ in range(4)] for _ in range(4)]
            import numpy as np

            assert det_integer(m) == round(np.linalg.det(np.array(m, dtype=float)))


class TestAlexander:
    def test_spec_examples(self):
        assert alexander_poly(NINE46) == lp({2: 2, 1: -5, 0: 2})
        assert alexander_poly(UNKNOT) == LaurentPoly.one()
        assert alexander_poly(EIGHT9).eq_up_to_units(P_EX * Q_EX)

    def test_trefoil_fig8(self):
        assert alexander_poly(TREFOIL) == lp({2: 1, 1: -1, 0: 1})
        assert alexander_poly(FIG8) == lp({2: 1, 1: -3, 0: 1})

    def test_symmetry_and_determinant_1000(self):
        rng = random.Random(2025)
        for i in range(1000):
            v = random_seifert(rng, rng.choice([1, 1, 2, 3]))
            d = alexander_poly(v)
            assert d.evaluate(1) in (1, -1)
            assert d.eq_up_to_units(d.conjugate())

    def test_against_sympy_determinant(self):
        # oracle: sympy's det(tV - V^T), up to the units +-t^k
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        t = sympy.Symbol("t")
        rng = random.Random(31)
        for genus in range(1, 6):
            for _ in range(6):
                v = random_seifert(rng, genus)
                n = v.size()
                e = v.entries
                m = sympy.Matrix(n, n, lambda i, j: t * e[i][j] - e[j][i])
                d = DomainMatrix.from_Matrix(m).det()
                expect = LaurentPoly({k: int(c) for (k,), c in d.terms()})
                assert alexander_poly(v).eq_up_to_units(expect)

    def test_connected_sum_multiplies(self):
        d = alexander_poly(connected_sum(TREFOIL, FIG8))
        assert d.eq_up_to_units(alexander_poly(TREFOIL) * alexander_poly(FIG8))

    def test_connected_sum_with_unknot_is_identity(self):
        assert connected_sum(TREFOIL, UNKNOT).entries == TREFOIL.entries
        assert connected_sum(UNKNOT, TREFOIL).entries == TREFOIL.entries


class TestArf:
    def test_examples(self):
        assert arf(TREFOIL) == 1
        assert arf(NINE46) == 0
        assert arf(UNKNOT) == 0
        assert arf(FIG8) == 1
        assert arf(EIGHT9) == 0

    def test_additivity_xor(self):
        rng = random.Random(7)
        mats = [random_seifert(rng, rng.choice([1, 2])) for _ in range(12)]
        for i in range(len(mats)):
            for j in range(i, len(mats)):
                assert arf(connected_sum(mats[i], mats[j])) == arf(mats[i]) ^ arf(mats[j])


class TestSignatureFunction:
    def test_trefoil(self):
        sf = signature_function(TREFOIL)
        assert len(sf.upper_jumps) == 1
        root = sf.upper_jumps[0].refine(Fraction(1, 64))
        assert root.lo <= 1 <= root.hi  # x = 2cos(pi/3) = 1
        assert sf.upper_values == [0, -2]
        assert sf.full_values() == [0, -2, 0]
        assert sf.value_at_one == 0

    def test_fig8_no_jumps(self):
        sf = signature_function(FIG8)
        assert sf.upper_jumps == []
        assert sf.upper_values == [0]
        assert all(v == 0 for v in sf.upper_values)

    def test_nine46_zero(self):
        assert all(v == 0 for v in signature_function(NINE46).upper_values)

    def test_eight9_zero(self):
        assert all(v == 0 for v in signature_function(EIGHT9).upper_values)

    def test_unknot(self):
        sf = signature_function(UNKNOT)
        assert sf.upper_jumps == [] and sf.upper_values == [0]

    def test_point_values(self):
        # omega = -1 (tau = 1): trefoil form 2(V + V^T) has signature -2
        assert signature_at(TREFOIL, Fraction(1)) == -2
        # omega = i (tau between 0 and pi/3... tan(pi/8) < tan(pi/6)):
        # x(i) = 0 < 1, inside the jump pair, so still -2
        assert signature_at(TREFOIL, Fraction(1, 1)) == -2
        assert signature_at(FIG8, Fraction(1)) == 0
        assert signature_at(FIG8, Fraction(3, 7)) == 0

    def test_mirror_negates(self):
        sf = signature_function(mirror(TREFOIL))
        assert sf.upper_values == [0, 2]

    def test_sum_cancels_mirror(self):
        sf = signature_function(connected_sum(TREFOIL, mirror(TREFOIL)))
        assert all(v == 0 for v in sf.upper_values)

    def test_pointwise_additivity_random(self):
        rng = random.Random(13)
        for _ in range(25):
            v1 = random_seifert(rng, 1)
            v2 = random_seifert(rng, rng.choice([1, 2]))
            vs = connected_sum(v1, v2)
            for _ in range(4):
                tau = Fraction(rng.randrange(1, 64), rng.randrange(1, 64))
                try:
                    s1 = signature_at(v1, tau)
                    s2 = signature_at(v2, tau)
                    ss = signature_at(vs, tau)
                except ValueError:
                    continue  # landed on a jump
                assert ss == s1 + s2

    def test_conjugation_symmetry(self):
        # sigma(omega) = sigma(conj omega): tau and -tau give the same value
        rng = random.Random(3)
        for _ in range(10):
            v = random_seifert(rng, 1)
            tau = Fraction(rng.randrange(1, 20), 7)
            try:
                assert signature_at(v, tau) == signature_at(v, -tau)
            except ValueError:
                pass

    def test_against_numpy_eigenvalues(self, monkeypatch):
        # oracle: eigenvalue signs in floats, on genus 1-5 knots at +-tau;
        # some samples must take the zero-diagonal congruence step
        np = pytest.importorskip("numpy")
        congruences = []
        fold = seifert._congruence_pivot

        def counted(m):
            congruences.append(len(m))
            return fold(m)

        monkeypatch.setattr(seifert, "_congruence_pivot", counted)
        rng = random.Random(21)
        checked = 0
        for _ in range(150):
            v = random_seifert(rng, rng.randrange(1, 6))
            tau = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 200), rng.randrange(1, 60))
            vm = np.array(v.entries, dtype=float)
            for t in (tau, -tau):
                theta = 2 * math.atan(t)
                w = complex(math.cos(theta), math.sin(theta))
                eigs = np.linalg.eigvalsh((1 - w) * vm + (1 - w.conjugate()) * vm.T)
                if np.min(np.abs(eigs)) < 1e-8:
                    continue
                checked += 1
                assert signature_at(v, t) == int(np.sum(eigs > 0) - np.sum(eigs < 0))
        assert checked > 200
        assert congruences, "no sample took the zero-diagonal congruence step"

    def test_singular_form_raises(self):
        with pytest.raises(ValueError):
            _integer_signature([[0, 0], [0, 1]])
        with pytest.raises(ValueError):
            _integer_signature([[1, 2], [2, 4]])

    def test_symmetric_signature_zero_diagonals(self):
        # hollow matrices force the row/col 0 += row/col j congruence
        np = pytest.importorskip("numpy")
        rng = random.Random(5)
        checked = 0
        for _ in range(200):
            n = rng.randrange(2, 7)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    m[i][j] = m[j][i] = rng.randrange(-3, 4)
            eigs = np.linalg.eigvalsh(np.array(m, dtype=float))
            if np.min(np.abs(eigs)) < 1e-8:
                continue
            checked += 1
            assert _integer_signature(m) == np.sum(eigs > 0) - np.sum(eigs < 0)
        assert checked > 50


def torus_2_chain(genus):
    """Plumbing chain with all twists -1: the (2, 2g+1) torus knot."""
    n = 2 * genus
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        ent[i][i] = -1
        if i + 1 < n:
            ent[i][i + 1] = 1
    return SeifertMatrix(ent, name=f"torus_2_{2 * genus + 1}")


class TestRefinementBound:
    def test_stalled_refinement_raises(self, monkeypatch):
        # T(2,5)'s two roots are isolated in [-2, 0] and [0, 2], which touch;
        # a refine that never narrows must end in a fault, not a hang
        monkeypatch.setattr(IsolatedRoot, "refine", lambda self, width: self)
        seifert.signature_function.cache_clear()
        start = time.perf_counter()
        with pytest.raises(AssertionError, match="failed to separate"):
            signature_function(torus_2_chain(2))
        assert time.perf_counter() - start < 1.0


class TestTorusKnotStaircase:
    """Independent closed-form oracle: for the (2, n) torus knot (n odd)
    the signature steps down by 2 at theta = (2j-1)pi/n, so the upper-arc
    values are 0, -2, ..., -(n-1) and the integral is
    (2/n) * sum of those values."""

    @pytest.mark.parametrize("g", range(1, 13))
    def test_torus_2_2g_plus_1(self, g):
        v = torus_2_chain(g)
        # (t^(2g+1) + 1)/(t + 1)
        assert alexander_poly(v) == lp({k: (-1) ** k for k in range(2 * g + 1)})
        sf = signature_function(v)
        assert sf.upper_values == list(range(0, -2 * g - 1, -2))
        val = rho0(v, Fraction(1, 10**10))
        assert val.contains(Fraction(-2 * g * (g + 1), 2 * g + 1))
        if g <= 5:
            # the float oracle holds every sample's 2g x 2g matrix at once
            # per chunk; above genus 5 the closed form stands alone
            est = rho0_riemann_estimate(v, samples=100000)
            assert abs(est - float(val.midpoint)) < 1e-3


class TestOuterSamplingGap:
    """A root of Delta on the unit circle near omega = 1 or -1 has its
    isolating interval end at x = 2 or -2 until refined away from it; the
    arc beyond it must still get a sample point.  These seeded knots are
    the ones whose signature function raised an AssertionError before the
    outer gaps joined the disjointness test."""

    @pytest.mark.parametrize("seed, genus, crashed", [
        (103, 3, (86, 95, 104, 276, 289)),
        (104, 4, (60, 77, 165, 186, 190, 207, 220, 228, 317, 318, 330, 354, 392)),
    ])
    def test_random_knots_finish(self, seed, genus, crashed):
        rng = random.Random(seed)
        tol = Fraction(1, 10**9)
        for i in range(400):
            v = random_seifert(rng, genus)
            val = rho0(v, tol)
            assert val.radius <= tol
            if i in crashed:
                est = rho0_riemann_estimate(v, samples=20000)
                assert abs(est - float(val.midpoint)) < 1e-2


class TestRho0:
    def test_trefoil_value(self):
        val = rho0(TREFOIL, Fraction(1, 10**9))
        assert val.radius <= Fraction(1, 10**9)
        assert val.contains(Fraction(-4, 3))

    def test_fig8_exact_zero(self):
        val = rho0(FIG8, Fraction(1, 10**9))
        assert val.midpoint == 0 and val.radius == 0

    def test_unknot_exact_zero(self):
        val = rho0(UNKNOT)
        assert val.midpoint == 0 and val.radius == 0

    def test_riemann_oracle_agrees(self):
        est = rho0_riemann_estimate(TREFOIL, samples=200000)
        val = rho0(TREFOIL, Fraction(1, 10**9))
        assert abs(est - float(val.midpoint)) < 1e-4

    def test_riemann_oracle_agrees_random(self):
        # only knots whose signature function jumps: elsewhere rho0 is the
        # exact 0 and the comparison shows nothing
        rng = random.Random(600)
        knots = []
        while len(knots) < 3:
            v = random_seifert(rng, rng.choice([1, 2]))
            if signature_function(v).upper_jumps:
                knots.append(v)
        for v in knots:
            val = rho0(v, Fraction(1, 10**9))
            assert val.excludes_zero()
            est = rho0_riemann_estimate(v, samples=100000)
            # 1e5 midpoint samples of a step function: error ~ jumps/samples
            assert abs(est - float(val.midpoint)) < 1e-3

    def test_enclosure_independent_of_call_history(self):
        before = rho0(TREFOIL, Fraction(1, 10**9))
        rho0(torus_2_chain(2), Fraction(1, 10**45))
        after = rho0(TREFOIL, Fraction(1, 10**9))
        assert (after.lo, after.hi) == (before.lo, before.hi)

    def test_signature_function_is_shared_with_rho0(self):
        """rho0 on an equal matrix reuses the memoized signature function,
        and a warm memo gives the same enclosure as a cold one."""
        ent = [list(row) for row in torus_2_chain(3).entries]
        seifert.signature_function.cache_clear()
        cold = rho0(SeifertMatrix(ent), Fraction(1, 10**12))
        sf = signature_function(SeifertMatrix(ent, name="first"))
        hits = signature_function.cache_info().hits
        warm = rho0(SeifertMatrix(ent, name="second"), Fraction(1, 10**12))
        assert signature_function.cache_info().hits == hits + 1
        assert signature_function(SeifertMatrix(ent)) is sf
        assert (warm.lo, warm.hi) == (cold.lo, cold.hi)

    def test_connected_sum_additivity(self):
        both = rho0(connected_sum(TREFOIL, TREFOIL), Fraction(1, 10**12))
        assert both.contains(Fraction(-8, 3))
        one = rho0(TREFOIL, Fraction(1, 10**9))
        # interval containment: sharper sum interval sits inside the coarse sum
        coarse = one + one
        assert coarse.lo <= both.lo and both.hi <= coarse.hi or \
            abs(both.midpoint - coarse.midpoint) <= one.radius * 2

    def test_rho0_additivity_random(self):
        rng = random.Random(99)
        for _ in range(6):
            v1 = random_seifert(rng, 1)
            v2 = random_seifert(rng, 1)
            lhs = rho0(connected_sum(v1, v2), Fraction(1, 10**10))
            rhs = rho0(v1, Fraction(1, 10**7)) + rho0(v2, Fraction(1, 10**7))
            assert rhs.lo <= lhs.lo and lhs.hi <= rhs.hi


def test_eight9_matrix_is_valid():
    assert EIGHT9.size() == 6
    skew = [
        [EIGHT9.entries[i][j] - EIGHT9.entries[j][i] for j in range(6)]
        for i in range(6)
    ]
    assert det_integer(skew) == 1
    d = alexander_poly(EIGHT9)
    assert abs(int(d.evaluate(-1))) == 25
