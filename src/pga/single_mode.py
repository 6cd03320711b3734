"""Ladder representation of a single nilpotent q-oscillator pair.

On the p+1 states |0>, ..., |p> the raising generator theta acts as
theta|n> = beta_{n+1}|n+1> and the derivative as partial|n> = (n)_q/beta_n
|n-1>, which realizes

    partial theta - q theta partial = 1,    theta**(p+1) = partial**(p+1) = 0,

with theta**p and partial**p nonzero.  The grading operator
g = partial theta - theta partial is diagonal with entries q**n and
satisfies g**(p+1) = 1; its square root is taken spectrally as q**(n/2).

Conjugation: the adjoint determined by theta^+ = g**(-1/2) partial (and
partial^+ = theta g**(-1/2)) extends to the full matrix algebra as an
antilinear antiautomorphism A -> M**(-1) A^*T M for a diagonal metric M,
which dagger() implements; it is gated to the principal root where the
adjoint needs no extra dressing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .opmatrix import OpMatrix
from .qarith import CycloContext, CycloElement


@dataclass(frozen=True)
class SingleModeRep:
    ctx: CycloContext
    betas: tuple[CycloElement, ...]
    theta: OpMatrix
    partial: OpMatrix
    g: OpMatrix
    g_half: OpMatrix
    g_inv: OpMatrix
    g_half_inv: OpMatrix

    @property
    def dim(self) -> int:
        return self.ctx.p + 1


def build_rep(ctx: CycloContext, betas=None) -> SingleModeRep:
    """Construct the p+1 dimensional ladder representation.

    betas may be any sequence of p nonzero exact scalars (see
    CycloContext.lift); they drop out of all vacuum pairings and default to 1.
    """
    p = ctx.p
    if betas is None:
        betas = [1] * p
    betas = tuple(ctx.lift(b) for b in betas)
    if len(betas) != p:
        raise errors.WrongLength(f"need {p} beta coefficients, got {len(betas)}")
    if not all(betas):
        raise errors.ZeroBeta("all beta coefficients must be nonzero")

    dim = p + 1
    theta = OpMatrix(ctx, dim, {(n + 1, n): betas[n] for n in range(p)})
    partial = OpMatrix(
        ctx, dim, {(n - 1, n): ctx.q_number(n) / betas[n - 1] for n in range(1, p + 1)}
    )
    g = OpMatrix.diagonal(ctx, [ctx.q_power(n) for n in range(dim)])
    g_half = OpMatrix.diagonal(ctx, [ctx.q_half_power(n) for n in range(dim)])
    g_inv = OpMatrix.diagonal(ctx, [ctx.q_power(-n) for n in range(dim)])
    g_half_inv = OpMatrix.diagonal(ctx, [ctx.q_half_power(-n) for n in range(dim)])
    rep = SingleModeRep(ctx, betas, theta, partial, g, g_half, g_inv, g_half_inv)
    _validate(rep)
    return rep


def _validate(rep: SingleModeRep) -> None:
    ctx, p = rep.ctx, rep.ctx.p
    ident = OpMatrix.identity(ctx, p + 1)
    if rep.partial @ rep.theta - rep.theta.scale(ctx.q) @ rep.partial != ident:
        raise errors.PgaError("ladder matrices violate the defining relation")
    if not (rep.theta ** (p + 1)).is_zero() or (rep.theta**p).is_zero():
        raise errors.PgaError("theta nilpotency of degree p+1 violated")
    if not (rep.partial ** (p + 1)).is_zero() or (rep.partial**p).is_zero():
        raise errors.PgaError("partial nilpotency of degree p+1 violated")
    if rep.partial @ rep.theta - rep.theta @ rep.partial != rep.g:
        raise errors.PgaError("grading operator mismatch")
    if rep.g_half @ rep.g_half != rep.g:
        raise errors.PgaError("g_half is not a square root of g")


def vacuum_pairing(rep: SingleModeRep, n: int, m: int) -> CycloElement:
    """<0| partial**n theta**m |0>; equals delta_{n,m} (n)_q! independently of betas."""
    p = rep.ctx.p
    if not (0 <= n <= p and 0 <= m <= p):
        raise errors.RangeError(f"exponents must lie in [0, {p}]")
    return ((rep.partial**n) @ (rep.theta**m)).entry(0, 0)


def _require_principal(rep: SingleModeRep) -> None:
    if rep.ctx.root_index != 1:
        raise errors.UnsupportedRoot(
            "conjugation is only defined here at the principal root"
        )


def conjugate(rep: SingleModeRep, which: str) -> OpMatrix:
    """Adjoint of a generator: theta -> g**(-1/2) partial, partial -> theta g**(-1/2)."""
    _require_principal(rep)
    if which == "theta":
        return rep.g_half_inv @ rep.partial
    if which == "partial":
        return rep.theta @ rep.g_half_inv
    raise ValueError("which must be 'theta' or 'partial'")


def _metric(rep: SingleModeRep) -> list[CycloElement]:
    """Diagonal metric whose twisted adjoint extends the generator conjugation."""
    ctx = rep.ctx
    diag = [ctx.one]
    for n in range(1, ctx.p + 1):
        beta = rep.betas[n - 1]
        diag.append(diag[-1] * ctx.sym_q_number(n) / (beta * beta.conjugate()))
    return diag


def dagger(rep: SingleModeRep, mat: OpMatrix) -> OpMatrix:
    """Antilinear antiautomorphism extending the generator conjugation.

    Implemented as M**(-1) mat^*T M with the diagonal metric fixed by
    requiring dagger(theta) == conjugate(rep, 'theta').
    """
    _require_principal(rep)
    diag = _metric(rep)
    m = OpMatrix.diagonal(rep.ctx, diag)
    m_inv = OpMatrix.diagonal(rep.ctx, [v.inverse() for v in diag])
    return m_inv @ mat.conj_transpose() @ m


def check_q_oscillator(rep: SingleModeRep) -> list[dict]:
    """Verify theta* theta - q**(1/2) theta theta* = g**(-1/2) exactly."""
    _require_principal(rep)
    star = conjugate(rep, "theta")
    lhs = star @ rep.theta - (rep.theta.scale(rep.ctx.q_half_power(1))) @ star
    return [
        {
            "name": "q-oscillator form of the defining relation",
            "passed": lhs == rep.g_half_inv,
            "detail": "theta* theta - q^(1/2) theta theta* == g^(-1/2)",
        }
    ]
