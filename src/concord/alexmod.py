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

The elimination records its elementary operations instead of updating
U^{-1} and W: the module reads only the columns at its nonunit slots
(one on the supported class), and `replay_columns` builds just those.
The pivot choices fix the decomposition basis in which a document's
alex_class is written, so they are part of the interface.

The isotropic submodules are read from the factorization: the pairing
joins the p-primary part only to the conj(p)-primary part and is
nonsingular (Levine, "Knot modules I", 1977), so they are the choices of
none, p or conj(p) from each conjugate pair of components.

The same fact makes every other question the program asks of the form a
question about supports.  `support(module, x)` is the set of components on
which x projects to nonzero.  A class lies in a submodule spanned by
components exactly when its support does, and a set of classes pairs to
nonzero exactly when its joint support holds some component together with
its conjugate partner (`conjugate_keys`), the component itself when it is
self-conjugate.  No command evaluates `BlanchfieldForm`: its gram stays as
the oracle that the tests and the benchmark check supports against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from types import MappingProxyType
from typing import List, Mapping, Optional, Sequence, Tuple

from concord.laurent import (
    LaurentPoly,
    RationalFunctionModPoly,
    conjugate_normalized,
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


# An elementary operation of the elimination, stored in the form its replay
# applies to one column v of Uinv (row operations) or of W (column
# operations), replayed last to first:
#   (_ADD, i, j, f)    v[i] += f * v[j]
#   (_SWAP, i, j)      v[i], v[j] = v[j], v[i]
#   (_SCALE, i, u)     v[i] *= u
_ADD, _SWAP, _SCALE = range(3)
SmithOps = List[tuple]

_MINUS_ONE = LaurentPoly({0: -1})


def smith_normal_form(mat: PolyMatrix) -> Tuple[List[LaurentPoly], SmithOps, SmithOps]:
    """Smith normal form over Q[t,t^-1].

    Returns (d, row_ops, col_ops): U*mat*W is diagonal d (canonical,
    divisibility chain d[i] | d[i+1]) for unimodular U and W, and the two
    records hold the elementary operations that built U and W.  The
    transforms themselves are not formed; `replay_columns(row_ops, n, cols)`
    gives the chosen columns of Uinv = U^{-1}, and
    `replay_columns(col_ops, n, cols)` those of W.
    """
    n = len(mat)
    a = [row[:] for row in mat]
    row_ops: SmithOps = []
    col_ops: SmithOps = []

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        row_ops.append((_SWAP, i, j))

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        col_ops.append((_SWAP, i, j))

    def row_sub(i, k, q: LaurentPoly, r: LaurentPoly):
        # row_i -= q * row_k, whose entry in column k is the remainder r;
        # on Uinv, column k += q * column i, which a column replays (right
        # to left) as v_i += q * v_k
        ai, ak = a[i], a[k]
        for c in range(n):
            if c != k and ak[c]:
                ai[c] = ai[c] - q * ak[c]
        ai[k] = r
        row_ops.append((_ADD, i, k, q))

    def col_sub(j, k, q: LaurentPoly, r: LaurentPoly):
        # col_j -= q * col_k, whose entry in row k is the remainder r; on W
        # the same, replayed as v_k -= q * v_j
        for i, row in enumerate(a):
            if i != k and row[k]:
                row[j] = row[j] - q * row[k]
        a[k][j] = r
        col_ops.append((_ADD, k, j, -q))

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
            span, bi, bj = best
            if bi != k:
                row_swap(k, bi)
            if bj != k:
                col_swap(k, bj)
            dirty = False
            for i in range(k + 1, n):
                if a[i][k].is_zero():
                    continue
                q, r = divmod_laurent(a[i][k], a[k][k])
                row_sub(i, k, q, r)
                if not r.is_zero():
                    dirty = True
            for j in range(k + 1, n):
                if a[k][j].is_zero():
                    continue
                q, r = divmod_laurent(a[k][j], a[k][k])
                col_sub(j, k, q, r)
                if not r.is_zero():
                    dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block; a unit does
            if span == 0:
                break
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
            # row_k += row_offender, replayed as v_k -= v_offender
            ak, ao = a[k], a[offender]
            for c in range(n):
                if ao[c]:
                    ak[c] = ak[c] + ao[c]
            row_ops.append((_ADD, k, offender, _MINUS_ONE))
        # canonicalize the pivot: row_k *= c^-1 t^-s, so Uinv's column k
        # is multiplied by c t^s
        piv = a[k][k]
        c, s = piv.unit_quotient_over(piv.normalize())
        if c != 1 or s != 0:
            a[k][k] = piv * LaurentPoly({-s: 1 / c})
            row_ops.append((_SCALE, k, LaurentPoly({s: c})))

    d = [a[i][i] for i in range(n)]
    return d, row_ops, col_ops


def replay_columns(ops: SmithOps, n: int, cols: Sequence[int]) -> PolyMatrix:
    """Columns `cols` of the n x n transform recorded in `ops` (Uinv from
    `row_ops`, W from `col_ops`), each as a list of n entries.

    A column is the identity column pushed through the operations last to
    first, so it costs one entry update per operation rather than n."""
    out = []
    for col in cols:
        v = [LaurentPoly.zero()] * n
        v[col] = LaurentPoly.one()
        for op in reversed(ops):
            if op[0] == _ADD:
                _, i, j, f = op
                if v[j]:
                    v[i] = v[i] + f * v[j]
            elif op[0] == _SWAP:
                _, i, j = op
                v[i], v[j] = v[j], v[i]
            else:
                _, i, u = op
                v[i] = v[i] * u
        out.append(v)
    return out


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
    d_i | d_{i+1}); `isotypic_components` refines it per irreducible
    factor when the total order is squarefree.
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
    if n == 0:
        return AlexModule(v, delta, [], [], [])
    e = v.entries
    pres = [[LaurentPoly.from_coeffs((-e[i][j], e[j][i])) for j in range(n)]
            for i in range(n)]
    d, row_ops, col_ops = smith_normal_form(pres)
    keep = [i for i, di in enumerate(d) if di.is_zero() or di.degree() > 0]
    for i in keep:
        if d[i].is_zero():
            raise AssertionError("Alexander module must be torsion (Delta(1)=+-1)")
    orders = [d[i] for i in keep]
    mod = AlexModule(v, delta, orders, replay_columns(row_ops, n, keep),
                     replay_columns(col_ops, n, keep))
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
    """A module's isotypic components and the submodules they span."""

    def __init__(self, module: AlexModule):
        self.module = module
        self.components = module.isotypic_components()

    def isotropic(self) -> List[Submodule]:
        """All submodules P with P inside P-perp, ordered by size, then by
        component keys; the zero submodule comes first.

        The Blanchfield form pairs the p-primary part only with the
        conj(p)-primary part, and it is nonsingular (Levine, "Knot modules
        I", 1977).  So a self-conjugate component lies in no isotropic
        submodule, a component with conj(p) != p pairs nontrivially only
        with its partner, and the isotropic submodules are the choices of
        none, p or conj(p) from each conjugate pair."""
        partner = conjugate_keys(self.module)
        gens = {c.key(): c.generator for c in self.components}
        choices = [((), ((k, gens[k]),), ((bar, gens[bar]),))
                   for k, bar in partner.items() if k < bar]
        out = []
        for pick in product(*choices):
            chosen = sorted(kg for part in pick for kg in part)
            out.append(Submodule(tuple(k for k, _ in chosen), tuple(g for _, g in chosen)))
        out.sort(key=lambda s: (len(s.component_keys), s.component_keys))
        return out

    def membership(self, p: Submodule, x: ModElement) -> bool:
        return support(self.module, x).issubset(p.component_keys)


@memo
def support(module: AlexModule, x: ModElement) -> frozenset:
    """The keys of the isotypic components on which x projects to nonzero
    (empty for the zero class); requires a squarefree total order.

    Memoized by module identity and the value of x: a curve class asked
    about by every query on a tower is projected once."""
    return frozenset(c.key() for c in module.isotypic_components()
                     if not module.project(x, c).is_zero())


@memo
def conjugate_keys(module: AlexModule) -> Mapping[tuple, tuple]:
    """Each isotypic component's key mapped to the key of its conjugate
    partner, the component of order conj(p); a self-conjugate component
    maps to itself.  Memoized by module identity, and read-only, since
    every caller shares it."""
    comps = module.isotypic_components()
    by_order = {c.order: c.key() for c in comps}
    out = {}
    for c in comps:
        partner = by_order.get(conjugate_normalized(c.order))
        assert partner is not None, "Delta is symmetric: conj(p) divides it"
        out[c.key()] = partner
    return MappingProxyType(out)


@memo
def isotropy(module: AlexModule) -> Tuple[SubmoduleLattice, Tuple[Submodule, ...]]:
    """The module's lattice and its isotropic submodules, zero first.

    Memoized by module identity, as `blanchfield_form` is: every caller
    (first-order signatures, the `submodules` command) reads one
    enumeration per module."""
    lattice = SubmoduleLattice(module)
    return lattice, tuple(lattice.isotropic())


def isotropic_submodules(module: AlexModule, form: Optional[BlanchfieldForm] = None) -> List[Submodule]:
    """All submodules P with P inside P-perp, zero submodule first.

    Supported exactly when the total order is squarefree (all paper-scale
    cases); other inputs raise UnsupportedModule.  The list is read from
    the factorization of the module, so a caller's `form` is not needed
    to compute it.
    """
    return list(isotropy(module)[1])
