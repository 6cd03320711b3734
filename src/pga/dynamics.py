"""Diagonal Hamiltonians on the nilpotent oscillator and their heat kernels.

The Hamiltonian family

    H = sum_n h_n theta**n (g**(-1/2) partial)**n
      = sum_n h_n q**(n(1-n)/4) theta**n g**(-n/2) partial**n

is diagonal in the number basis; its entries E_m are real for real h_n, and
hermiticity under the ladder conjugation reduces to exactly that.  The time
evolution exp(i t H) is composed from short-time kernels whose per-level
factors t_m carry the phase Delta * E_m.  Using the closed exponential factor
the composition is exact for any step count; the first-order (Euler) factor
1 + i Delta E_m reproduces the same limit with O(1/steps) error and is what
the convergence study exercises.  The literal short-time phase carries the
opposite sign (exp(-i Delta ...)); both conventions are exposed through the
sign argument and the default is reconciled to U(t) = exp(i t H).

This module works in embedded complex arithmetic (time evolution is
transcendental); the coherent-state and resolution-of-identity checks below
stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integration import (
    CoeffMatrix,
    convolve_via_integral,
    default_normalization,
    integrate_all,
    measure_poly,
)
from .multimode import PGAlgebra
from .opmatrix import OpMatrix
from .qarith import CycloContext
from .single_mode import SingleModeRep, build_rep
from . import errors


@dataclass
class PGHamiltonian:
    ctx: CycloContext
    h: tuple
    matrix: np.ndarray
    energies: np.ndarray


def build_hamiltonian(ctx: CycloContext, h) -> PGHamiltonian:
    """Assemble the diagonal Hamiltonian for coefficient sequence h_0..h_p."""
    if ctx.root_index != 1:
        raise errors.UnsupportedRoot("dynamics requires the principal root")
    h = tuple(h)
    if len(h) != ctx.p + 1:
        raise errors.WrongLength(f"need {ctx.p + 1} coefficients h_0..h_p")
    rep = build_rep(ctx)
    theta = np.array([[v.embed() for v in row] for row in rep.theta.to_dense()])
    partial = np.array([[v.embed() for v in row] for row in rep.partial.to_dense()])
    dim = ctx.p + 1
    mat = np.zeros((dim, dim), dtype=complex)
    for n, hn in enumerate(h):
        if not hn:
            continue
        ghalf = np.diag([ctx.q_half_power(-n * m).embed() for m in range(dim)])
        piece = np.linalg.matrix_power(theta, n) @ ghalf @ np.linalg.matrix_power(partial, n)
        mat += hn * ctx.q_quarter_power(n * (1 - n)).embed() * piece
    energies = np.diag(mat).copy()
    return PGHamiltonian(ctx, h, mat, energies)


def exact_propagator(ham: PGHamiltonian, t: float) -> np.ndarray:
    """Per-level entries of exp(i t H): exp(i t E_m)."""
    return np.exp(1j * t * ham.energies)


def step_phases(ham: PGHamiltonian) -> np.ndarray:
    """Arguments of the short-time factors; agree with the diagonal energies."""
    ctx = ham.ctx
    p = ctx.p
    out = np.zeros(p + 1, dtype=complex)
    for m in range(p + 1):
        s = 0j
        for n in range(m + 1):
            s += (
                ham.h[n]
                * ctx.q_quarter_power(n * (n + 1 - 2 * m)).embed()
                * ctx.inv_q_factorial(m - n).embed()
            )
        out[m] = ctx.q_factorial(m).embed() * s
    return out


def step_kernel(ham: PGHamiltonian, delta: float, sign: int = 1) -> np.ndarray:
    """Per-level short-time factors t_m = exp(i sign delta * phase_m).

    sign=+1 matches U(t) = exp(i t H); sign=-1 is the opposite convention.
    """
    return np.exp(1j * sign * delta * step_phases(ham))


def discretized_propagator(
    ham: PGHamiltonian, t: float, steps: int, kernel: str = "expm", sign: int = 1
) -> np.ndarray:
    """Compose `steps` short-time kernels through the integral pairing.

    The pairing collapses to per-level products, so the composition is the
    steps-th power of the chosen single-step factor.  kernel="expm" uses the
    closed exponential factor (exact for every step count); kernel="euler"
    uses the first-order factor 1 + i sign delta E_m.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    delta = t / steps
    if kernel == "expm":
        single = step_kernel(ham, delta, sign)
    elif kernel == "euler":
        single = 1 + 1j * sign * delta * step_phases(ham)
    else:
        raise ValueError("kernel must be 'expm' or 'euler'")
    return single**steps


def compose_steps_via_integral(ham: PGHamiltonian, delta: float, sign: int = 1) -> np.ndarray:
    """Cross-check: glue two short-time kernels with the two-variable integral.

    The glue is the exact convolution of two identity coefficient arrays
    through the mode-2 integral; contracting it with the kernel factors must
    give the per-level product t_m**2.
    """
    ident = CoeffMatrix.identity(ham.ctx)
    glue = convolve_via_integral(ident, ident).rows
    t = step_kernel(ham, delta, sign)
    return np.array(
        [t[a] * sum(g.embed() * t[b] for b, g in enumerate(row)) for a, row in enumerate(glue)]
    )


def hermiticity_check(ham: PGHamiltonian, tol: float = 1e-12) -> list[dict]:
    """Compare H against its ladder-conjugation adjoint in embedded arithmetic.

    The adjoint is the metric-twisted conjugate transpose fixed by the
    generator conjugation rules; for the diagonal H this is diag(conj(E_m)),
    so real coefficients pass and complex ones fail.
    """
    ctx = ham.ctx
    dim = ctx.p + 1
    metric = np.ones(dim)
    for n in range(1, dim):
        metric[n] = metric[n - 1] * ctx.sym_q_number(n).embed().real
    m = np.diag(metric)
    m_inv = np.diag(1 / metric)
    adjoint = m_inv @ ham.matrix.conj().T @ m
    err = float(np.max(np.abs(adjoint - ham.matrix)))
    return [
        {
            "name": "hamiltonian equals its adjoint",
            "passed": err <= tol,
            "detail": f"max entry deviation {err:.3e}",
            "max_error": err,
        }
    ]


# ---------------------------------------------------------------------------
# coherent states (exact arithmetic)


def resolution_of_identity(rep: SingleModeRep, xi: int = 1) -> list[dict]:
    """Both forms of the completeness relation, exactly.

    Operator form: sum_k theta**k |0><0| partial**k / (k)_q! equals the
    identity.  Integral form: pairing the coherent ket-bra against the
    measure reproduces the same operator sum term by term; moving the
    scalar variables past the bra operators costs the grading phase
    q**(xi (l**2 - k l)), which is trivial on the surviving diagonal.
    """
    ctx = rep.ctx
    p = ctx.p
    dim = p + 1
    ident = OpMatrix.identity(ctx, dim)
    e00 = OpMatrix.unit(ctx, dim, 0, 0)

    operator_sum = OpMatrix(ctx, dim)
    for k in range(dim):
        piece = (rep.theta**k) @ e00 @ (rep.partial**k)
        operator_sum = operator_sum + piece.scale(ctx.inv_q_factorial(k))
    operator_ok = operator_sum == ident

    alg = PGAlgebra(ctx, 1)
    mu = measure_poly(alg, 1)
    norm = default_normalization(ctx)
    integral_sum = OpMatrix(ctx, dim)
    for k in range(dim):
        for l in range(dim):
            pair = integrate_all(
                alg.monomial({("tbar", 1): k}) * alg.monomial({("theta", 1): l}) * mu,
                norm,
            )
            if not pair:
                continue
            phase = ctx.q_power(xi * (l * l - k * l))
            weight = phase * pair * ctx.inv_q_factorial(k) * ctx.inv_q_factorial(l)
            integral_sum = integral_sum + (
                (rep.theta**k) @ e00 @ (rep.partial**l)
            ).scale(weight)
    integral_ok = integral_sum == ident

    return [
        {"name": "operator completeness sum equals identity", "passed": operator_ok,
         "detail": "exact matrix identity"},
        {"name": "integral of coherent ket-bra equals identity", "passed": integral_ok,
         "detail": f"xi = {xi}"},
    ]


def _ladder_products(rep: SingleModeRep) -> list:
    """beta_1 * ... * beta_k for k = 0..p."""
    acc = [rep.ctx.one]
    for b in rep.betas:
        acc.append(acc[-1] * b)
    return acc


def coherent_state_check(rep: SingleModeRep) -> list[dict]:
    """Defining eigen-properties of the coherent ket and bra, exactly.

    The ket |tbar> = sum_k theta**k |0> tbar**k / (k)_q! is represented as a
    column of scalar polynomials in tbar (scalars kept to the right of the
    operators, where no grading phase arises); applying the derivative matrix
    must equal right multiplication by tbar, and iterating gives every power
    up to p.  The bra check mirrors this with theta powers on the left.
    """
    ctx = rep.ctx
    p = ctx.p
    alg = PGAlgebra(ctx, 1)
    lp = _ladder_products(rep)

    ket = [alg.monomial({("tbar", 1): m}, lp[m] * ctx.inv_q_factorial(m))
           for m in range(p + 1)]
    tbar = alg.tbar(1)

    def apply_matrix(mat, col):
        out = [alg.zero() for _ in range(p + 1)]
        for (r, c), v in mat.entries.items():
            out[r] = out[r] + col[c].scale(v)
        return out

    ket_ok = True
    current = ket
    for _ in range(p):
        current = apply_matrix(rep.partial, current)
        ket = [entry * tbar for entry in ket]
        ket_ok = ket_ok and all(a == b for a, b in zip(current, ket))

    bra = [alg.monomial({("theta", 1): n}, ctx.inv_q_factorial(n) *
                        ((rep.partial**n).entry(0, n)))
           for n in range(p + 1)]
    theta = alg.theta(1)

    def apply_row(row, mat):
        out = [alg.zero() for _ in range(p + 1)]
        for (r, c), v in mat.entries.items():
            out[c] = out[c] + row[r].scale(v)
        return out

    bra_ok = True
    current = bra
    for _ in range(p):
        current = apply_row(current, rep.theta)
        bra = [theta * entry for entry in bra]
        bra_ok = bra_ok and all(a == b for a, b in zip(current, bra))

    return [
        {"name": "derivative acts on the coherent ket as its eigenvalue",
         "passed": ket_ok, "detail": "all powers up to p, exact"},
        {"name": "theta acts on the coherent bra as its eigenvalue",
         "passed": bra_ok, "detail": "all powers up to p, exact"},
    ]
