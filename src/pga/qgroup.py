"""Finite-dimensional quantum 2x2 matrix groups from the nilpotent oscillator.

The four generators are realized on the p+1 ladder states as

    a = g**alpha partial,   b = beta g**(1/2),   c = gamma g**(1/2),
    d = beta gamma (q**(1/2) - q**(-1/2)) theta g**(-alpha),

with alpha a half-integer and beta, gamma invertible scalars.  These satisfy
the standard relation set at deformation parameter q**(1/2), and the quantum
determinant a d - q**(1/2) b c is the central scalar -q**(-1/2) beta gamma.
Setting gamma = -q**(1/2)/beta pins the determinant to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .opmatrix import OpMatrix
from .qarith import CycloContext, CycloElement
from .single_mode import build_rep


@dataclass
class QGroupRep:
    ctx: CycloContext
    alpha: Fraction
    beta: CycloElement
    gamma: CycloElement
    a: OpMatrix
    b: OpMatrix
    c: OpMatrix
    d: OpMatrix
    qdet: CycloElement


def _g_power(ctx, alpha: Fraction) -> OpMatrix:
    twice = alpha * 2
    if twice.denominator != 1:
        raise ValueError("alpha must be a half-integer")
    k = twice.numerator
    dim = ctx.p + 1
    return OpMatrix.diagonal(ctx, [ctx.q_half_power(k * n) for n in range(dim)])


def build_glq2(ctx: CycloContext, alpha, beta, gamma) -> QGroupRep:
    """The (p+1)-dimensional generator quadruple for given parameters."""
    alpha = Fraction(alpha)
    beta = ctx.lift(beta)
    gamma = ctx.lift(gamma)
    if not beta or not gamma:
        raise errors.ZeroParameter("beta and gamma must be nonzero")
    rep = build_rep(ctx)
    lam = ctx.q_half_power(1) - ctx.q_half_power(-1)
    a = _g_power(ctx, alpha) @ rep.partial
    b = rep.g_half.scale(beta)
    c = rep.g_half.scale(gamma)
    d = (rep.theta @ _g_power(ctx, -alpha)).scale(beta * gamma * lam)
    qdet_mat = a @ d - (b @ c).scale(ctx.q_half_power(1))
    qdet = qdet_mat.entry(0, 0)
    if qdet_mat != OpMatrix.identity(ctx, ctx.p + 1).scale(qdet):
        raise errors.PgaError("quantum determinant is not scalar")
    return QGroupRep(ctx, alpha, beta, gamma, a, b, c, d, qdet)


def build_slq2(ctx: CycloContext, alpha, beta) -> QGroupRep:
    """Unimodular case: gamma is forced to -q**(1/2)/beta and qdet = 1."""
    beta = ctx.lift(beta)
    if not beta:
        raise errors.ZeroParameter("beta must be nonzero")
    gamma = -ctx.q_half_power(1) / beta
    return build_glq2(ctx, alpha, beta, gamma)


def check_glq2_relations(rep: QGroupRep) -> list[dict]:
    """All six defining relations plus centrality and value of qdet, exactly."""
    ctx = rep.ctx
    qh = ctx.q_half_power(1)
    lam = qh - ctx.q_half_power(-1)
    a, b, c, d = rep.a, rep.b, rep.c, rep.d
    checks = []

    def add(name, lhs, rhs):
        checks.append({"name": name, "passed": lhs == rhs, "detail": "exact matrix identity"})

    add("a b = q^(1/2) b a", a @ b, (b @ a).scale(qh))
    add("a c = q^(1/2) c a", a @ c, (c @ a).scale(qh))
    add("b d = q^(1/2) d b", b @ d, (d @ b).scale(qh))
    add("c d = q^(1/2) d c", c @ d, (d @ c).scale(qh))
    add("b c = c b", b @ c, c @ b)
    add("[a, d] = (q^(1/2)-q^(-1/2)) b c", a @ d - d @ a, (b @ c).scale(lam))

    qdet_mat = a @ d - (b @ c).scale(qh)
    for name, x in (("a", a), ("b", b), ("c", c), ("d", d)):
        add(f"qdet commutes with {name}", qdet_mat @ x, x @ qdet_mat)
    expected = -ctx.q_half_power(-1) * rep.beta * rep.gamma
    checks.append(
        {
            "name": "qdet = -q^(-1/2) beta gamma",
            "passed": rep.qdet == expected,
            "detail": "scalar identity",
        }
    )
    return checks
