"""Rational Alexander modules, the Blanchfield pairing, and isotropic
submodule lattices.

The module of a knot with Seifert matrix V is presented by tV^T - V over
Q[t,t^-1]; Smith normal form over that PID gives the invariant-factor
chain, refined to isotypic (per-irreducible) components when the total
order is squarefree.  The pairing used is

    Bl(x, y) = (1 - t) x^T (tV - V^T)^{-1} conj(y)   mod Q[t,t^-1],

which is sesquilinear (linear over Q[t,t^-1] in x, conjugate-linear in y)
and hermitian on this presentation.  The inverse comes from the Smith
normal form itself: U (tV^T - V) W = D gives (tV - V^T)^{-1} = U^T D^{-1} W^T,
and basis vector i is column k_i of U^{-1}, so each gram entry is one
reduction in Q(t)/Q[t,t^-1] over the invariant factor d_{k_i}, with no
arithmetic in Q(t).  Any fixed unit change would preserve isotropy,
orthogonality and nonsingularity, which is all the verdict layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from concord.laurent import (
    LaurentPoly,
    RationalFunctionModPoly,
    divides,
    divmod_laurent,
    exact_div,
    factor,
    invert_mod,
    is_squarefree,
    memo,
    reduce_mod,
)
from concord.seifert import SeifertMatrix


class UnsupportedModule(Exception):
    """Raised when the submodule lattice is outside the supported cases
    (non-squarefree total order)."""


PolyMatrix = List[List[LaurentPoly]]


def _identity(n: int) -> PolyMatrix:
    return [
        [LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)]
        for i in range(n)
    ]


def smith_normal_form(mat: PolyMatrix):
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


@dataclass(frozen=True)
class ModElement:
    """An element in decomposition coordinates: one canonical residue per
    nontrivial invariant factor."""

    coords: Tuple[LaurentPoly, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]


@dataclass(frozen=True)
class IsotypicComponent:
    """One irreducible-order cyclic piece of the module (squarefree case)."""

    slot: int                 # which invariant factor it sits inside
    order: LaurentPoly        # normalized irreducible
    generator: "ModElement"   # idempotent generator

    def dim_over_q(self) -> int:
        return self.order.degree()

    def key(self) -> tuple:
        return (
            self.slot,
            tuple((e, (c.numerator, c.denominator)) for e, c in self.order.items()),
        )


class AlexModule:
    """Rational Alexander module with its cyclic decomposition.

    `orders` is the invariant-factor chain (nontrivial factors only,
    d_i | d_{i+1}); `isotypic_orders` refines it per irreducible factor
    when the total order is squarefree.
    """

    def __init__(self, seifert: SeifertMatrix, delta: LaurentPoly,
                 orders: List[LaurentPoly], dec_to_pres: PolyMatrix,
                 dual: PolyMatrix):
        self.seifert = seifert
        self.alexander = delta
        self.orders = orders
        # basis vector i sits at slot k_i of the Smith normal form:
        # column k_i of Uinv (its presentation coords) and column k_i of W
        self._dec_to_pres = dec_to_pres
        self._dual = dual
        self._components: Optional[List[IsotypicComponent]] = None

    # -- structure ----------------------------------------------------------

    def rank(self) -> int:
        return len(self.orders)

    def is_zero_module(self) -> bool:
        return not self.orders

    def is_cyclic(self) -> bool:
        return len(self.orders) <= 1

    def total_order(self) -> LaurentPoly:
        out = LaurentPoly.one()
        for d in self.orders:
            out = out * d
        return out.normalize()

    def dim_over_q(self) -> int:
        return sum(d.degree() for d in self.orders)

    # -- elements -------------------------------------------------------------

    def element(self, coords: Sequence[LaurentPoly]) -> ModElement:
        if len(coords) != len(self.orders):
            raise ValueError(
                f"expected {len(self.orders)} coordinates, got {len(coords)}"
            )
        return ModElement(
            tuple(reduce_mod(c, d) for c, d in zip(coords, self.orders))
        )

    def zero(self) -> ModElement:
        return ModElement(tuple(LaurentPoly.zero() for _ in self.orders))

    def generator(self, i: int) -> ModElement:
        coords = [LaurentPoly.zero()] * len(self.orders)
        coords[i] = LaurentPoly.one()
        return self.element(coords)

    def scale(self, f: LaurentPoly, x: ModElement) -> ModElement:
        return self.element([f * c for c in x.coords])

    def add(self, x: ModElement, y: ModElement) -> ModElement:
        return self.element([a + b for a, b in zip(x.coords, y.coords)])

    # -- isotypic refinement ------------------------------------------------------

    def isotypic_components(self) -> List[IsotypicComponent]:
        """Per-irreducible cyclic pieces; requires squarefree total order."""
        if self._components is not None:
            return self._components
        total = self.total_order()
        if not self.orders:
            self._components = []
            return self._components
        if not is_squarefree(total):
            raise UnsupportedModule(
                "isotypic decomposition needs a squarefree total order; "
                f"got {total}"
            )
        comps: List[IsotypicComponent] = []
        for slot, d in enumerate(self.orders):
            for p, mult in factor(d):
                assert mult == 1
                cofactor = exact_div(d, p)
                # idempotent: e = cofactor * (cofactor^{-1} mod p), reduced mod d
                inv = invert_mod(reduce_mod(cofactor, p), p)
                coords = [LaurentPoly.zero()] * len(self.orders)
                coords[slot] = cofactor * inv
                comps.append(IsotypicComponent(slot, p, self.element(coords)))
        comps.sort(key=lambda c: (c.order.degree(), c.order.to_json(), c.slot))
        self._components = comps
        return comps

    def isotypic_orders(self) -> List[LaurentPoly]:
        return [c.order for c in self.isotypic_components()]

    def project(self, x: ModElement, comp: IsotypicComponent) -> LaurentPoly:
        """Component of x in the given isotypic piece (a residue mod its
        order); zero iff x has no part there."""
        c = x.coords[comp.slot]
        return reduce_mod(c * comp.generator.coords[comp.slot], comp.order)

    def __repr__(self) -> str:
        if not self.orders:
            return "AlexModule(0)"
        parts = " + ".join(f"L/({d})" for d in self.orders)
        return f"AlexModule({parts})"


@memo
def module_from_seifert(v: SeifertMatrix) -> AlexModule:
    """Alexander module presented by tV^T - V, in Smith normal form.

    Memoized by the value of the matrix: modules are immutable, so
    repeated calls on equal matrices share one instance until the LRU
    evicts it; a later call then builds an equal, fresh module."""
    from concord.seifert import alexander_poly

    n = v.size()
    delta = alexander_poly(v)
    t = LaurentPoly.t()
    pres = [
        [t.scale(v.entries[j][i]) - LaurentPoly.constant(v.entries[i][j]) for j in range(n)]
        for i in range(n)
    ]
    if n == 0:
        return AlexModule(v, delta, [], [], [])
    d, uinv, w = smith_normal_form(pres)
    keep = [i for i, di in enumerate(d) if di.is_zero() or di.degree() > 0]
    for i in keep:
        if d[i].is_zero():
            raise AssertionError("Alexander module must be torsion (Delta(1)=+-1)")
    orders = [d[i] for i in keep]
    dec_to_pres = [[uinv[r][i] for r in range(n)] for i in keep]
    dual = [[w[r][i] for r in range(n)] for i in keep]
    mod = AlexModule(v, delta, orders, dec_to_pres, dual)
    total = mod.total_order()
    if not total.eq_up_to_units(delta):
        raise AssertionError("product of cyclic orders must match Delta")
    return mod


@memo
def blanchfield_form(module: AlexModule) -> "BlanchfieldForm":
    """Shared pairing instance for a module (the gram matrix is costly).

    Memoized by module identity (`AlexModule` has no value equality); the
    LRU holds each module it keys, so an id is never reused while cached."""
    return BlanchfieldForm(module)


# -- Blanchfield form -----------------------------------------------------------


class BlanchfieldForm:
    """The pairing on decomposition coordinates, stored as a gram matrix of
    values in Q(t)/Q[t,t^-1]."""

    def __init__(self, module: AlexModule):
        self.module = module
        # (tV - V^T)^{-1} = U^T D^{-1} W^T and U x_i = e_{k_i}, so
        # Bl(x_i, x_j) = (1 - t) (W^T conj(x_j))_{k_i} / d_{k_i}
        one_minus_t = LaurentPoly({0: 1, 1: -1})
        conj_basis = [[c.conjugate() for c in x] for x in module._dec_to_pres]
        self.gram: List[List[RationalFunctionModPoly]] = [
            [
                RationalFunctionModPoly(
                    one_minus_t * sum(
                        (wr * yr for wr, yr in zip(wcol, ybar)), LaurentPoly.zero()
                    ),
                    d,
                )
                for ybar in conj_basis
            ]
            for wcol, d in zip(module._dual, module.orders)
        ]

    def pairing(self, x: ModElement, y: ModElement) -> RationalFunctionModPoly:
        out = RationalFunctionModPoly.zero()
        for i, xi in enumerate(x.coords):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y.coords):
                if yj.is_zero():
                    continue
                out = out + self.gram[i][j].scale_poly(xi * yj.conjugate())
        return out


# -- submodules -----------------------------------------------------------------


@dataclass(frozen=True)
class Submodule:
    """A submodule spanned by a subset of isotypic components (the full
    lattice in the squarefree case)."""

    component_keys: Tuple[tuple, ...]          # canonical, sorted
    generators: Tuple[ModElement, ...]

    def is_zero(self) -> bool:
        return not self.component_keys

    def __str__(self) -> str:
        if not self.component_keys:
            return "0"
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


class SubmoduleLattice:
    """Helper binding a module + form to its enumerated submodules."""

    def __init__(self, module: AlexModule, form: Optional[BlanchfieldForm] = None):
        self.module = module
        self.form = form or blanchfield_form(module)
        self.components = module.isotypic_components()

    def submodule_from_components(self, comps: Sequence[IsotypicComponent]) -> Submodule:
        comps = sorted(comps, key=lambda c: c.key())
        return Submodule(
            tuple(c.key() for c in comps), tuple(c.generator for c in comps)
        )

    def isotropic(self) -> List[Submodule]:
        n = len(self.components)
        pair_zero = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                val = self.form.pairing(
                    self.components[i].generator, self.components[j].generator
                )
                pair_zero[i][j] = val.is_zero()
        out = []
        for mask in range(1 << n):
            idx = [i for i in range(n) if mask >> i & 1]
            if all(pair_zero[i][j] for i in idx for j in idx):
                out.append(
                    self.submodule_from_components([self.components[i] for i in idx])
                )
        out.sort(key=lambda s: (len(s.component_keys), s.component_keys))
        return out

    def membership(self, p: Submodule, x: ModElement) -> bool:
        keys = set(p.component_keys)
        for comp in self.components:
            if comp.key() in keys:
                continue
            if not self.module.project(x, comp).is_zero():
                return False
        return True


def isotropic_submodules(module: AlexModule, form: Optional[BlanchfieldForm] = None) -> List[Submodule]:
    """All submodules P with P inside P-perp, zero submodule first.

    Supported exactly when the total order is squarefree (all paper-scale
    cases); other inputs raise UnsupportedModule.
    """
    return SubmoduleLattice(module, form).isotropic()
