import random
from fractions import Fraction

import pytest

from concord import catalog
from concord.alexmod import (
    BlanchfieldForm,
    Submodule,
    SubmoduleLattice,
    UnsupportedModule,
    blanchfield_form,
    isotropic_submodules,
    module_from_seifert,
    replay_columns,
    smith_normal_form,
)
from concord.laurent import (
    LaurentPoly, divides, divmod_laurent, exact_div, gcd, is_squarefree, reduce_mod,
)
from concord.seifert import (
    SeifertMatrix, alexander_poly, connected_sum, mirror,
)
from test_seifert import random_seifert


def lp(d):
    return LaurentPoly(d)


def _mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[LaurentPoly.zero() for _ in range(p)] for _ in range(n)]
    for i in range(n):
        for k in range(m):
            for j in range(p):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


NINE46 = SeifertMatrix([[0, 2], [1, 0]], name="nine46")
TREFOIL = SeifertMatrix([[-1, 1], [0, -1]], name="trefoil")
FIG8 = SeifertMatrix([[1, 1], [0, -1]], name="figure8")
UNKNOT = SeifertMatrix([], name="unknot")
EIGHT9 = catalog.get("eight9")[0]

P_EX = lp({3: 1, 2: -2, 1: 1, 0: -1})
Q_EX = lp({3: 1, 2: -1, 1: 2, 0: -1})


def _sympy_det(m):
    """det of a matrix of Laurent polynomials, by sympy, as a LaurentPoly.
    Each row is first multiplied by the power of t that clears its
    negative exponents, and the determinant shifted back."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    rows, shift = [], 0
    for row in m:
        lo = min((x.low() for x in row if x), default=0)
        shift += lo
        rows.append([sum(sympy.Rational(c.numerator, c.denominator) * t**(e - lo)
                         for e, c in x.items()) for x in row])
    d = DomainMatrix.from_Matrix(sympy.Matrix(rows)).convert_to(sympy.QQ[t]).det()
    return LaurentPoly({e + shift: Fraction(int(c.numerator), int(c.denominator))
                        for (e,), c in d.terms()})


# -- the elimination the module basis was first written in ---------------------
#
# A document's alex_class is a coordinate vector in the decomposition basis
# that the Smith form picks: columns of Uinv and W at the nonunit slots.  The
# full-matrix elimination below is kept verbatim as the oracle that pins that
# basis; the program's Smith form must reproduce its d and its kept columns.


def _identity(n):
    return [
        [LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)]
        for i in range(n)
    ]


def reference_smith(mat):
    """Smith normal form over Q[t,t^-1].

    Returns (d, Uinv, W) with U*mat*W diagonal d (canonical, divisibility
    chain d[i] | d[i+1]) for the unimodular U = Uinv^{-1}.
    """
    n = len(mat)
    a = [row[:] for row in mat]
    uinv, w = _identity(n), _identity(n)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            w[r][i], w[r][j] = w[r][j], w[r][i]

    def row_add(i, k, f: LaurentPoly):
        # row_i += f * row_k
        for c in range(n):
            a[i][c] = a[i][c] + f * a[k][c]
        for r in range(n):
            uinv[r][k] = uinv[r][k] - f * uinv[r][i]

    def col_add(j, k, f: LaurentPoly):
        # col_j += f * col_k
        for r in range(n):
            a[r][j] = a[r][j] + f * a[r][k]
            w[r][j] = w[r][j] + f * w[r][k]

    def row_scale(i, c: Fraction, s: int):
        # row_i *= c * t^s  (a unit)
        unit = LaurentPoly({s: c})
        iunit = LaurentPoly({-s: 1 / c})
        for col in range(n):
            a[i][col] = a[i][col] * unit
        for r in range(n):
            uinv[r][i] = uinv[r][i] * iunit

    for k in range(n):
        # nothing left?
        if all(a[i][j].is_zero() for i in range(k, n) for j in range(k, n)):
            break
        while True:
            # move a minimal-span nonzero entry to the pivot seat
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if not a[i][j].is_zero():
                        s = a[i][j].span()
                        if best is None or s < best[0]:
                            best = (s, i, j)
            _, bi, bj = best
            if bi != k:
                row_swap(k, bi)
            if bj != k:
                col_swap(k, bj)
            dirty = False
            for i in range(k + 1, n):
                if a[i][k].is_zero():
                    continue
                q, r = divmod_laurent(a[i][k], a[k][k])
                row_add(i, k, -q)
                if not r.is_zero():
                    dirty = True
            for j in range(k + 1, n):
                if a[k][j].is_zero():
                    continue
                q, r = divmod_laurent(a[k][j], a[k][k])
                col_add(j, k, -q)
                if not r.is_zero():
                    dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if not a[i][j].is_zero() and not divides(a[k][k], a[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(k, offender, LaurentPoly.one())
        # canonicalize the pivot
        piv = a[k][k]
        norm = piv.normalize()
        c, s = piv.unit_quotient_over(norm)
        row_scale(k, 1 / c, -s)

    d = [a[i][i] for i in range(n)]
    return d, uinv, w


def _presentation(v):
    """tV^T - V as a matrix of Laurent polynomials."""
    n = v.size()
    t = LaurentPoly.t()
    return [
        [t.scale(v.entries[j][i]) - LaurentPoly.constant(v.entries[i][j])
         for j in range(n)]
        for i in range(n)
    ]


def _mixed(v):
    """P V P^T for the unimodular P = I + E_03: the same knot, with the two
    summands of a 4x4 block sum mixed."""
    p = [[int(i == j or (i, j) == (0, 3)) for j in range(4)] for i in range(4)]
    return SeifertMatrix([
        [sum(p[i][k] * v.entries[k][l] * p[j][l] for k in range(4) for l in range(4))
         for j in range(4)]
        for i in range(4)
    ])


RANK2_SUMS = [
    connected_sum(TREFOIL, TREFOIL), connected_sum(FIG8, FIG8),
    connected_sum(TREFOIL, mirror(TREFOIL)), connected_sum(NINE46, mirror(NINE46)),
]


def _kept_columns(m):
    """(d, kept Uinv columns, kept W columns) of the program's Smith form,
    at the nonunit slots the module keeps."""
    d, row_ops, col_ops = smith_normal_form(m)
    keep = [i for i, di in enumerate(d) if di.is_zero() or di.degree() > 0]
    n = len(m)
    return d, replay_columns(row_ops, n, keep), replay_columns(col_ops, n, keep)


def _reference_kept(m):
    d, uinv, w = reference_smith(m)
    keep = [i for i, di in enumerate(d) if di.is_zero() or di.degree() > 0]
    n = len(m)
    return (d, [[uinv[r][i] for r in range(n)] for i in keep],
            [[w[r][i] for r in range(n)] for i in keep])


class TestSmithBasis:
    """The decomposition basis is pinned: the invariant factors and the kept
    columns of Uinv and W equal the reference elimination's."""

    def _check(self, v):
        m = _presentation(v)
        assert _kept_columns(m) == _reference_kept(m), v.entries

    def test_catalog(self):
        for name in catalog.BUILTIN:
            self._check(catalog.get(name)[0])

    def test_rank2_sums_and_mixes(self):
        for v in RANK2_SUMS + [connected_sum(TREFOIL, FIG8)]:
            self._check(v)
            self._check(_mixed(v))

    def test_random_1000(self):
        rng = random.Random(2032)
        genera = set()
        for _ in range(1000):
            genus = rng.choice([1, 1, 1, 2, 2, 3, 4])
            genera.add(genus)
            self._check(random_seifert(rng, genus))
        assert genera == {1, 2, 3, 4}


class TestSmith:
    def test_diagonalizes_and_inverses(self):
        rng = random.Random(4)
        for _ in range(25):
            v = random_seifert(rng, rng.choice([1, 2]))
            n = v.size()
            m = _presentation(v)
            d, row_ops, col_ops = smith_normal_form(m)
            # every column replayed: the full transforms, as rows of matrices
            uinv = [list(r) for r in zip(*replay_columns(row_ops, n, range(n)))]
            w = [list(r) for r in zip(*replay_columns(col_ops, n, range(n)))]
            # U m W = diag(d) with U = Uinv^{-1}, i.e. m W = Uinv diag(d)
            diag = [[d[i] if i == j else LaurentPoly.zero() for j in range(n)]
                    for i in range(n)]
            assert _mat_mul(m, w) == _mat_mul(uinv, diag)
            # units of L are the one-term polynomials c*t^k
            assert len(_sympy_det(uinv).items()) == 1
            assert len(_sympy_det(w).items()) == 1
            for i in range(n - 1):
                if not d[i].is_zero() and not d[i + 1].is_zero():
                    assert exact_div(d[i + 1], d[i]) is not None

    def test_divisibility_chain(self):
        # anti-diagonal coprime entries force [1, product]
        m = [
            [LaurentPoly.zero(), lp({1: 1, 0: -2})],
            [lp({1: 2, 0: -1}), LaurentPoly.zero()],
        ]
        d, *_ = smith_normal_form(m)
        assert d[0] == LaurentPoly.one()
        assert d[1] == lp({2: 2, 1: -5, 0: 2})


class TestModule:
    def test_nine46_two_isotypic_pieces(self):
        mod = module_from_seifert(NINE46)
        assert mod.is_cyclic()  # invariant-factor chain has one entry
        assert [str(p) for p in mod.isotypic_orders()] == ["t - 2", "2*t - 1"]
        assert mod.dim_over_q() == 2

    def test_eight9_cyclic_of_order_pq(self):
        mod = module_from_seifert(EIGHT9)
        assert mod.is_cyclic()
        assert mod.orders[0].eq_up_to_units(P_EX * Q_EX)
        assert {str(p) for p in mod.isotypic_orders()} == {str(P_EX), str(Q_EX)}

    def test_unknot_zero_module(self):
        mod = module_from_seifert(UNKNOT)
        assert mod.is_zero_module()
        assert isotropic_submodules(mod) == [
            isotropic_submodules(mod)[0]
        ]

    def test_trefoil_cyclic_irreducible(self):
        mod = module_from_seifert(TREFOIL)
        assert [str(d) for d in mod.orders] == ["t^2 - t + 1"]

    def test_orders_multiply_to_delta_1000(self):
        rng = random.Random(31337)
        for _ in range(1000):
            v = random_seifert(rng, rng.choice([1, 1, 2, 3]))
            mod = module_from_seifert(v)
            assert mod.total_order().eq_up_to_units(alexander_poly(v))


class TestBlanchfield:
    def test_nine46_values(self):
        mod = module_from_seifert(NINE46)
        form = BlanchfieldForm(mod)
        comps = mod.isotypic_components()
        alpha, beta = comps[0].generator, comps[1].generator
        assert form.pairing(alpha, alpha).is_zero()
        assert form.pairing(beta, beta).is_zero()
        assert not form.pairing(alpha, beta).is_zero()

    def test_zero_module_vacuous(self):
        mod = module_from_seifert(UNKNOT)
        form = BlanchfieldForm(mod)
        assert form.pairing(mod.zero(), mod.zero()).is_zero()

    def test_sesqui_hermitian_nonsingular_random(self):
        rng = random.Random(55)
        cases = 0
        while cases < 60:
            v = random_seifert(rng, rng.choice([1, 1, 2]))
            mod = module_from_seifert(v)
            if mod.is_zero_module():
                continue
            cases += 1
            form = BlanchfieldForm(mod)
            # nonsingular on the basis: no gram row is zero
            assert all(any(not e.is_zero() for e in row) for row in form.gram)
            x = mod.element([
                LaurentPoly({rng.randrange(-2, 3): rng.randrange(-3, 4) for _ in range(2)})
                for _ in mod.orders
            ])
            y = mod.element([
                LaurentPoly({rng.randrange(-2, 3): rng.randrange(-3, 4) for _ in range(2)})
                for _ in mod.orders
            ])
            f = LaurentPoly({rng.randrange(-1, 3): rng.randrange(-3, 4) for _ in range(2)})
            lhs = form.pairing(mod.scale(f, x), y)
            rhs = form.pairing(x, y).scale_poly(f)
            assert lhs == rhs
            lhs2 = form.pairing(x, mod.scale(f, y))
            rhs2 = form.pairing(x, y).scale_poly(f.conjugate())
            assert lhs2 == rhs2
            assert form.pairing(y, x) == form.pairing(x, y).conjugate()

    def test_gram_against_sympy_inverse(self):
        # oracle: (1 - t) x^T (tV - V^T)^{-1} conj(y), inverted by sympy over Q(t)
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        t = sympy.Symbol("t")

        def sym(p):
            return sum((sympy.Rational(c.numerator, c.denominator) * t**e
                        for e, c in p.items()), sympy.Integer(0))

        def check(v):
            mod = module_from_seifert(v)
            basis = mod._dec_to_pres
            n = v.size()
            a = sympy.Matrix(n, n, lambda i, j: t * v.entries[i][j] - v.entries[j][i])
            ainv = DomainMatrix.from_Matrix(a).to_field().inv().to_Matrix()
            gram = BlanchfieldForm(mod).gram
            for i, x in enumerate(basis):
                for j, y in enumerate(basis):
                    xs = sympy.Matrix([sym(c) for c in x])
                    ybar = sympy.Matrix([sym(c.conjugate()) for c in y])
                    want = (1 - t) * (xs.T * ainv * ybar)[0]
                    got = sym(gram[i][j].num) / sym(gram[i][j].den)
                    _, den = sympy.fraction(sympy.cancel(want - got))
                    assert sympy.Poly(den, t).is_monomial
            return mod

        rng = random.Random(17)
        # basis vectors with one nonzero coordinate see only part of the
        # inverse, so draw some with wider support on purpose
        wanted = {False: 5, True: 3}
        while any(wanted.values()):
            v = random_seifert(rng, rng.choice([1, 2]))
            mod = module_from_seifert(v)
            if mod.is_zero_module():
                continue
            wide = any(sum(not c.is_zero() for c in x) > 1 for x in mod._dec_to_pres)
            if wanted[wide]:
                wanted[wide] -= 1
                check(v)
        # rank 2: off-diagonal entries pair two different Smith slots.  The
        # plain sums pair their summands orthogonally; the congruent P V P^T
        # (the same knot, P = I + E_03 unimodular) mixes them, which makes
        # the off-diagonal entries nonzero and the gram no longer symmetric
        for v in RANK2_SUMS:
            mixed = _mixed(v)
            assert check(v).rank() == 2
            assert check(mixed).rank() == 2
            gram = BlanchfieldForm(module_from_seifert(mixed)).gram
            assert gram[0][1] != gram[1][0]
        check(connected_sum(TREFOIL, FIG8))

    def test_pairing_kills_orders(self):
        mod = module_from_seifert(EIGHT9)
        form = BlanchfieldForm(mod)
        g = mod.generator(0)
        d = mod.orders[0]
        assert form.pairing(mod.scale(d, g), g).is_zero()


def brute_force_isotropic(module):
    """The lattice oracle: every subset of isotypic components whose
    generators pair to zero with each other, by the n^2 Blanchfield
    pairings and a loop over all 2^n subsets, in the program's order."""
    lattice = SubmoduleLattice(module)
    form = BlanchfieldForm(module)
    comps = lattice.components
    n = len(comps)
    pair_zero = [[form.pairing(comps[i].generator, comps[j].generator).is_zero()
                  for j in range(n)] for i in range(n)]
    out = []
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if all(pair_zero[i][j] for i in idx for j in idx):
            chosen = sorted((comps[i] for i in idx), key=lambda c: c.key())
            out.append(Submodule(tuple(c.key() for c in chosen),
                                 tuple(c.generator for c in chosen)))
    out.sort(key=lambda s: (len(s.component_keys), s.component_keys))
    return out


def _block_sum(k):
    """Block sum of [[0, m+1], [m, 0]] for m = 1..k: Delta is the product of
    the (m t - (m+1)) ((m+1) t - m), 2k components in k conjugate pairs."""
    ent = [[0] * (2 * k) for _ in range(2 * k)]
    for m in range(1, k + 1):
        ent[2 * m - 2][2 * m - 1], ent[2 * m - 1][2 * m - 2] = m + 1, m
    return SeifertMatrix(ent)


class TestIsotropic:
    def test_nine46_three(self):
        mod = module_from_seifert(NINE46)
        subs = isotropic_submodules(mod)
        assert len(subs) == 3
        assert subs[0].is_zero()
        assert all(len(s.component_keys) <= 1 for s in subs)

    def test_eight9_three(self):
        mod = module_from_seifert(EIGHT9)
        subs = isotropic_submodules(mod)
        assert len(subs) == 3
        assert subs[0].is_zero()

    def test_trefoil_only_zero(self):
        mod = module_from_seifert(TREFOIL)
        subs = isotropic_submodules(mod)
        assert len(subs) == 1 and subs[0].is_zero()

    def test_fig8_only_zero(self):
        mod = module_from_seifert(FIG8)
        subs = isotropic_submodules(mod)
        assert len(subs) == 1 and subs[0].is_zero()

    def test_brute_force_divisor_oracle(self):
        # cyclic squarefree modules: submodules <=> divisors; compare lattices
        for v in [NINE46, EIGHT9, TREFOIL, FIG8]:
            mod = module_from_seifert(v)
            form = BlanchfieldForm(mod)
            lat = SubmoduleLattice(mod)
            comps = mod.isotypic_components()
            d = mod.orders[0]
            g = mod.generator(0)
            brute = set()
            for mask in range(1 << len(comps)):
                f = LaurentPoly.one()
                for i in range(len(comps)):
                    if mask >> i & 1:
                        f = f * comps[i].order
                val = form.pairing(mod.scale(f, g), mod.scale(f, g))
                if val.is_zero():
                    # <f*g> spans the components NOT dividing f
                    keys = tuple(sorted(
                        c.key() for i, c in enumerate(comps) if not mask >> i & 1
                    ))
                    brute.add(keys)
            enumerated = {s.component_keys for s in lat.isotropic()}
            assert brute == enumerated

    def test_brute_force_lattice_oracle_random(self):
        rng = random.Random(1977)
        checked, genera = 0, set()
        while checked < 1000:
            genus = rng.choice([1, 1, 1, 2, 2, 3, 4])
            mod = module_from_seifert(random_seifert(rng, genus))
            try:
                want = brute_force_isotropic(mod)
            except UnsupportedModule:
                with pytest.raises(UnsupportedModule):
                    isotropic_submodules(mod)
                continue
            assert isotropic_submodules(mod) == want
            checked += 1
            genera.add(genus)
        assert genera == {1, 2, 3, 4}

    def test_brute_force_lattice_oracle_block_sums(self):
        for k in range(1, 9):
            mod = module_from_seifert(_block_sum(k))
            subs = isotropic_submodules(mod)
            assert len(mod.isotypic_components()) == 2 * k
            assert len(subs) == 3 ** k
            assert subs == brute_force_isotropic(mod)

    def test_no_pairing_needed(self, monkeypatch):
        # the list is read from the conjugate pairs alone
        def refuse(*_):
            raise AssertionError("isotropy must not evaluate the pairing")

        monkeypatch.setattr(BlanchfieldForm, "pairing", refuse)
        monkeypatch.setattr(BlanchfieldForm, "__init__", refuse)
        mod = module_from_seifert(_block_sum(8))
        assert len(SubmoduleLattice(mod).isotropic()) == 3 ** 8

    def test_membership(self):
        mod = module_from_seifert(EIGHT9)
        lat = SubmoduleLattice(mod)
        subs = lat.isotropic()
        g = mod.generator(0)
        nonzero_subs = [s for s in subs if not s.is_zero()]
        for s in nonzero_subs:
            assert not lat.membership(s, g)
            for gen in s.generators:
                assert lat.membership(s, gen)
        zero_sub = subs[0]
        assert lat.membership(zero_sub, mod.zero())
        assert not lat.membership(zero_sub, g)

    def test_membership_against_projections(self):
        # a class lies in a submodule exactly when it projects to zero on
        # every component outside it; block sums give submodules of up to
        # four components
        rng = random.Random(1977)
        modules = [module_from_seifert(_block_sum(k)) for k in (2, 3, 4)]
        while len(modules) < 200:
            mod = module_from_seifert(random_seifert(rng, rng.choice([1, 2, 3, 4])))
            if mod.orders and is_squarefree(mod.total_order()):
                modules.append(mod)
        for mod in modules:
            lat = SubmoduleLattice(mod)
            subs = lat.isotropic()
            for _ in range(3):
                x = mod.zero()
                for c in lat.components:
                    if rng.random() < 0.6:
                        f = LaurentPoly.from_coeffs([rng.randrange(-2, 3) for _ in range(2)])
                        x = mod.add(x, mod.scale(f, c.generator))
                for s in subs:
                    want = all(c.key() in s.component_keys or mod.project(x, c).is_zero()
                               for c in lat.components)
                    assert lat.membership(s, x) == want

    def test_non_squarefree_rejected(self):
        vsum = SeifertMatrix(
            [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
        )  # trefoil # trefoil: order (t^2-t+1)^2
        mod = module_from_seifert(vsum)
        with pytest.raises(UnsupportedModule):
            isotropic_submodules(mod)

    def test_nine46_membership_spec_rows(self):
        mod = module_from_seifert(NINE46)
        lat = SubmoduleLattice(mod)
        subs = lat.isotropic()
        comps = mod.isotypic_components()
        alpha, beta = comps[0].generator, comps[1].generator
        p_alpha = next(s for s in subs if not s.is_zero() and lat.membership(s, alpha))
        assert not lat.membership(p_alpha, beta)


class TestMemo:
    """Modules and forms live in one bounded LRU: equal matrices share a
    module until it is evicted, and an evicted module is rebuilt equal."""

    def test_bounded(self):
        for fn in (module_from_seifert, blanchfield_form):
            assert fn.cache_info().maxsize is not None

    def test_shared_until_evicted(self):
        first = module_from_seifert(NINE46)
        hits = module_from_seifert.cache_info().hits
        assert module_from_seifert(SeifertMatrix(NINE46.entries)) is first
        assert module_from_seifert.cache_info().hits == hits + 1
        form = blanchfield_form(first)
        assert blanchfield_form(first) is form
        maxsize = module_from_seifert.cache_info().maxsize
        rng = random.Random(9)
        seen = {NINE46.entries}
        while len(seen) <= maxsize + 1:
            v = random_seifert(rng, rng.choice([1, 2]))
            if v.entries not in seen:
                seen.add(v.entries)
                blanchfield_form(module_from_seifert(v))
        for fn in (module_from_seifert, blanchfield_form):
            info = fn.cache_info()
            assert info.currsize <= info.maxsize
        fresh = module_from_seifert(NINE46)
        assert fresh is not first
        assert blanchfield_form(fresh).gram == form.gram
