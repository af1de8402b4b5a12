"""Classical abelian knot invariants from Seifert matrices.

A knot enters the library as a Seifert matrix V (square, integer,
det(V - V^T) = +-1).  Everything downstream is exact and runs on
integers: the Alexander polynomial is interpolated from integer Bareiss
determinants det(xV - V^T) at x = 0..n; the Levine signature function is
computed with an exact jump locus (Sturm isolation of the unit-circle
zeros of the Alexander polynomial under x = t + 1/t) and exact arc values
(the inertia of an integer Hermitian form at a rational point of the
circle, by fraction-free symmetric elimination); the signature integral
rho0 carries a certified error bound.

Sign convention: sigma(omega) is the signature of (1-omega)V +
(1-conj(omega))V^T.  Mirroring (V -> -V^T) negates sigma and rho0.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Optional, Sequence, Tuple

from concord import realroots
from concord.certified import (
    Interval,
    acos_of_enclosure,
    pi_interval,
)
from concord.laurent import LaurentPoly, memo
from concord.realroots import IsolatedRoot

class SeifertMatrix:
    """An integer Seifert matrix; det(V - V^T) = +-1 is checked on build.

    >>> SeifertMatrix([[-1, 1], [0, -1]], name="trefoil").genus()
    1
    """

    __slots__ = ("entries", "name")

    def __init__(self, entries: Sequence[Sequence[int]], name: Optional[str] = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("Seifert matrix must be square")
        skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
        d = det_integer(skew)
        if d not in (1, -1):
            raise ValueError(
                f"det(V - V^T) = {d}; a Seifert matrix needs +-1 (size {n})"
            )
        self.entries = rows
        self.name = name

    def size(self) -> int:
        return len(self.entries)

    def genus(self) -> int:
        return len(self.entries) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeifertMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        label = self.name or "V"
        return f"SeifertMatrix({label}, {len(self.entries)}x{len(self.entries)})"


def _exact(a: int, b: int) -> int:
    """a / b, which must be an integer."""
    q, r = divmod(a, b)
    if r:
        raise AssertionError(f"inexact division {a} / {b}")
    return q


def det_integer(m: List[List[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix; every
    division in it is exact."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0  # no pivot in column k
        piv, rowk = m[k][k], m[k]
        for i in range(k + 1, n):
            ri = m[i]
            mik = ri[k]
            for j in range(k + 1, n):
                ri[j] = _exact(ri[j] * piv - mik * rowk[j], prev)
        prev = piv
    return sign * m[-1][-1]


def mirror(v: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix of the mirror image: -V^T."""
    n = v.size()
    ent = [[-v.entries[j][i] for j in range(n)] for i in range(n)]
    name = f"mirror({v.name})" if v.name else None
    return SeifertMatrix(ent, name=name)


def connected_sum(v1: SeifertMatrix, v2: SeifertMatrix) -> SeifertMatrix:
    """Block sum; Alexander polynomials multiply, signatures add."""
    n1, n2 = v1.size(), v2.size()
    ent = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            ent[i][j] = v1.entries[i][j]
    for i in range(n2):
        for j in range(n2):
            ent[n1 + i][n1 + j] = v2.entries[i][j]
    name = None
    if v1.name and v2.name:
        name = f"{v1.name}#{v2.name}"
    return SeifertMatrix(ent, name=name)


@memo
def alexander_poly(v: SeifertMatrix) -> LaurentPoly:
    """normalize(det(tV - V^T)); satisfies Delta(1) = +-1.  Memoized by the
    matrix's entries, so the module built next from the same matrix reuses it.

    The determinant has degree <= n in t, so it is read off its integer
    values at t = 0..n by Newton interpolation; the divided differences of
    an integer polynomial at consecutive integers are integers.
    """
    n = v.size()
    e = v.entries
    c = [det_integer([[x * e[i][j] - e[j][i] for j in range(n)] for i in range(n)])
         for x in range(n + 1)]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            c[i] = _exact(c[i] - c[i - 1], j)
    # Newton form c0 + c1 t + c2 t(t-1) + ... to monomials, by Horner
    poly = [c[n]]
    for k in range(n - 1, -1, -1):
        poly = [c[k] - k * poly[0]] + [
            poly[i - 1] - k * poly[i] for i in range(1, len(poly))] + [poly[-1]]
    return LaurentPoly.from_coeffs(poly).normalize()


@memo
def arf(v: SeifertMatrix) -> int:
    """0 iff |Delta(-1)| is +-1 mod 8 (the determinant criterion);
    memoized by the matrix, so a tower's terminal knot is evaluated once."""
    d = alexander_poly(v).evaluate(-1)
    assert d.denominator == 1
    return 0 if abs(int(d)) % 8 in (1, 7) else 1


# -- exact signatures at rational points of the circle --------------------------


def _congruence_pivot(m: List[List[int]]) -> None:
    """For a symmetric matrix with zero diagonal: row/col 0 += row/col j,
    a congruence that makes the (0, 0) entry 2 m[0][j] nonzero.  Raises
    if row 0 is zero (the form is singular)."""
    n = len(m)
    j = next((j for j in range(1, n) if m[0][j]), None)
    if j is None:
        raise ValueError("singular Hermitian form (sample point on the jump locus)")
    for k in range(n):
        m[0][k] += m[j][k]
    for k in range(n):
        m[k][0] += m[k][j]


def _integer_signature(m: List[List[int]]) -> int:
    """Signature of a nonsingular symmetric integer matrix.

    Fraction-free symmetric elimination (Bareiss): the remaining block is
    always d times the rational Schur complement, d the last pivot, so
    each update (piv m[i][k] - m[i][p] m[p][k]) / d is exact.  Taking any
    diagonal pivot is a symmetric permutation, and it and the zero-diagonal
    step are congruences, so by Sylvester's law of inertia the signs of the
    rational pivots d_k / d_(k-1) give the signature.
    """
    m = [row[:] for row in m]
    sig, prev = 0, 1
    while m:
        n = len(m)
        p = next((i for i in range(n) if m[i][i]), None)
        if p is None:
            _congruence_pivot(m)
            p = 0
        rowp = m[p]
        piv = rowp[p]
        sig += 1 if (piv > 0) == (prev > 0) else -1
        rest = [i for i in range(n) if i != p]
        new = [[0] * (n - 1) for _ in rest]
        for a, i in enumerate(rest):
            ri, na = m[i], new[a]
            mip = ri[p]
            for b in range(a, n - 1):
                k = rest[b]
                na[b] = new[b][a] = _exact(piv * ri[k] - mip * rowp[k], prev)
        m, prev = new, piv
    return sig


def signature_at(v: SeifertMatrix, tau: Fraction) -> int:
    """Levine signature at the exact circle point with tan(theta/2) = tau.

    For tau = p/q the form (1-omega)V + (1-conj(omega))V^T is 2p/(p^2+q^2)
    times the integer Hermitian matrix p(V+V^T) - q i(V-V^T).  Its
    realification [[A, -B], [B, A]] (A = p(V+V^T), B = -q(V-V^T)) is a
    symmetric integer matrix with twice its spectrum.

    tau = 0 is omega = 1, where the form degenerates; not allowed.
    """
    tau = Fraction(tau)
    p, q = tau.numerator, tau.denominator
    if p == 0:
        raise ValueError("omega = 1 is excluded")
    n = v.size()
    if n == 0:
        return 0
    e = v.entries
    a = [[p * (e[i][j] + e[j][i]) for j in range(n)] for i in range(n)]
    b = [[q * (e[i][j] - e[j][i]) for j in range(n)] for i in range(n)]  # = -B
    big = [a[i] + b[i] for i in range(n)] + [[-x for x in b[i]] + a[i] for i in range(n)]
    sig2 = _integer_signature(big)
    assert sig2 % 2 == 0
    return sig2 // 2 if p > 0 else -sig2 // 2


# -- signature function -----------------------------------------------------------


def _compact_form(delta: LaurentPoly) -> Tuple[int, ...]:
    """Write the (normalized, palindromic, even-degree) polynomial as
    p(t) = t^m g(t + 1/t) and return g as a dense integer tuple in x."""
    m, odd = divmod(delta.degree(), 2)
    assert not odd and delta.low() == 0, "normalized palindromic polynomial of even degree"
    a = [int(delta.coeff(e)) for e in range(2 * m + 1)]
    g = [0] * (m + 1)
    for k in range(m, -1, -1):
        # subtract g_k t^m (t + 1/t)^k = g_k sum_j C(k, j) t^(m - k + 2j)
        g[k] = c = a[m + k]
        for j in range(k + 1):
            a[m - k + 2 * j] -= c * comb(k, j)
    assert not any(a), "compact form verification failed"
    return tuple(g)


class SignatureFunction:
    """Piecewise-constant signature on the circle with exact jump locus.

    Jumps are stored for the upper half circle as isolated real algebraic
    numbers x = 2 cos(theta) (decreasing x = increasing theta); values are
    the constant signatures on the open arcs of (0, pi).  The lower half
    is the conjugate mirror.  The value at omega = 1 is 0.

    `signature_function` memoizes one instance per matrix value and hands
    it to every caller, so no caller may mutate `upper_jumps` or
    `upper_values`.
    """

    def __init__(self, upper_jumps: List[IsolatedRoot], upper_values: List[int]):
        assert len(upper_values) == len(upper_jumps) + 1
        self.upper_jumps = upper_jumps      # theta-increasing (x decreasing)
        self.upper_values = upper_values    # arc values on (0, pi)
        self.value_at_one = 0

    # -- structure ---------------------------------------------------------

    def jump_count_full_circle(self) -> int:
        return 2 * len(self.upper_jumps)

    def full_values(self) -> List[int]:
        """Arc values all the way around, cut at omega = 1 (a new list)."""
        up = self.upper_values
        return up + up[-2::-1]

    def theta_enclosures(self, err: Fraction, width: Fraction) -> List[Interval]:
        """Certified enclosures of the jump angles in (0, pi)."""
        out = []
        for root in self.upper_jumps:
            r = root.refine(width)
            lo, hi = r.lo, r.hi
            lo = max(lo, Fraction(-2))
            hi = min(hi, Fraction(2))
            out.append(acos_of_enclosure(Interval(lo / 2, hi / 2), err))
        return out

    def integrate(self, err: Fraction = Fraction(1, 10**12)) -> Interval:
        """rho0: the circle integral, normalized to total length 1."""
        r = len(self.upper_jumps)
        if r == 0 or all(val == 0 for val in self.upper_values):
            return Interval.point(0)
        # sum sigma_i (theta_{i+1} - theta_i) over (0, pi), telescoped:
        #   sum_j (sigma_{j-1} - sigma_j) theta_j + sigma_r * pi
        # and rho0 = that / pi.
        thetas = self.theta_enclosures(err, width=err)
        total = Interval.point(0)
        for j in range(1, r + 1):
            dv = self.upper_values[j - 1] - self.upper_values[j]
            if dv:
                total = total + thetas[j - 1].scale(dv)
        pi = pi_interval(err)
        return total / pi + Interval.point(self.upper_values[-1])

    def __repr__(self) -> str:
        return (
            f"SignatureFunction(jumps={self.jump_count_full_circle()}, "
            f"values={self.full_values()})"
        )


def _find_tau_for_gap(x_lo: Fraction, x_hi: Fraction) -> Fraction:
    """A rational tan-half-angle tau > 0 with 2(1-tau^2)/(1+tau^2) inside
    the open x-interval (x_lo, x_hi) of (-2, 2): the first midpoint of a
    bisection of (0, 2^e) on the decreasing x(tau) that lands inside.

    The bisection runs on integers: tau = m/den with den a power of two,
    and x(m/den) - a/b has the sign of 2b(den^2 - m^2) - a(den^2 + m^2)."""
    def above(m: int, den: int, x: Fraction) -> int:
        d2, m2 = den * den, m * m
        return 2 * x.denominator * (d2 - m2) - x.numerator * (d2 + m2)

    lo, hi, den = 0, 1, 1
    while above(hi, den, x_hi) >= 0:   # push hi until x(hi) < x_hi
        hi *= 2
    # invariant: x(lo) >= x_hi > x_lo... bisect on decreasing x(tau)
    for _ in range(10000):
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) >> 1
        if above(mid, den, x_hi) >= 0:
            lo = mid
        elif above(mid, den, x_lo) <= 0:
            hi = mid
        else:
            return Fraction(mid, den)
    raise AssertionError("tau search failed to converge")


@memo
def signature_function(v: SeifertMatrix) -> SignatureFunction:
    """The signature function of v, memoized by the matrix's entries: a
    caller and the `rho0` it then asks for share one instance."""
    delta = alexander_poly(v)
    if delta.degree() == 0:
        return SignatureFunction([], [0])
    assert delta == LaurentPoly(
        {delta.degree() - e: c for e, c in delta.items()}
    ), "Alexander polynomial of a valid Seifert matrix is palindromic"
    g = _compact_form(delta)
    g_sf = realroots.squarefree(g)
    if realroots.evaluate(g_sf, Fraction(2)) == 0 or realroots.evaluate(g_sf, Fraction(-2)) == 0:
        raise AssertionError("Delta(1) = +-1 and odd determinant exclude x = +-2")
    roots = realroots.isolate_roots(g_sf, Fraction(-2), Fraction(2))
    if not roots:
        return SignatureFunction([], [0])
    # refine until pairwise disjoint and clear of x = +-2 so every arc gap,
    # the two outer ones included, is visible: widths 1/16, 1/64, ...; a
    # refinement that stops separating the roots is a fault
    for step in range(10000):
        refined = [r.refine(Fraction(1, 16 << 2 * step)) for r in roots]
        if refined[-1].hi < 2 and refined[0].lo > -2 and all(
                refined[i].hi < refined[i + 1].lo for i in range(len(refined) - 1)):
            roots = refined
            break
    else:
        raise AssertionError("root refinement failed to separate the roots")
    # theta-increasing order = x-decreasing
    roots_desc = list(reversed(roots))
    bounds: List[Fraction] = [Fraction(2)]
    for r in roots_desc:
        bounds.append(r.hi)
        bounds.append(r.lo)
    bounds.append(Fraction(-2))
    values: List[int] = []
    for k in range(len(roots_desc) + 1):
        x_hi = bounds[2 * k]      # upper x bound of this arc (exclusive)
        x_lo = bounds[2 * k + 1]  # lower x bound
        tau = _find_tau_for_gap(x_lo, x_hi)
        values.append(signature_at(v, tau))
    assert values[0] == 0, "signature must vanish on the arc at omega = 1"
    assert all(val % 2 == 0 for val in values), "knot signatures are even"
    return SignatureFunction(roots_desc, values)


# -- rho0 --------------------------------------------------------------------------


def rho0(v: SeifertMatrix, tol: Fraction = Fraction(1, 10**9)) -> Interval:
    """The integral of the signature function over the circle of length 1,
    certified to radius <= tol."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    sf = signature_function(v)
    err = min(tol / 4, Fraction(1, 2**20))
    for _ in range(64):
        out = sf.integrate(err)
        if out.radius <= tol:
            return out
        err /= 16
    raise AssertionError("rho0 refinement failed to reach tolerance")
