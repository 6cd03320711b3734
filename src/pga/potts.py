"""Closed Z_{p+1} Potts chain: four independent partition-function routes.

Spins take p+1 values, neighbours couple through a Kronecker delta, and the
chain closes on itself.  With x = exp(K) the four routes are: the closed form
(x+p)**N + p(x-1)**N, the trace of the N-th transfer-matrix power, the raw
sum over all spin configurations, and a 2N-fold integral over nilpotent
variables whose site factors carry the weights t_0 = (p+x)/(p+1) and
t_n = (x-1)/(p+1).  Each site factor is the coefficient array
diag(t_0, ..., t_p); the open chain of N-1 sites is N-2 glue integrals over
the shared modes (the convolution = coefficient-matrix product identity),
and the last site closes it in a two-mode algebra with tbar on the left.
The (p+1)**N-term product is never formed.  In exact-rational mode all four
agree identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import errors
from .integration import (
    CoeffMatrix,
    convolve_via_integral,
    default_normalization,
    integrate_mode,
    measure_poly,
)
from .multimode import PGAlgebra
from .qarith import CycloContext, make_context


@dataclass(frozen=True)
class PottsInstance:
    p: int
    sites: int
    x: Fraction | float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.sites < 2:
            raise ValueError("need at least two sites")
        if not self.x > 0:  # also rejects a float NaN
            raise ValueError("Boltzmann factor must be positive")

    @property
    def exact(self) -> bool:
        return isinstance(self.x, Fraction)


def transfer_weights(inst: PottsInstance) -> tuple:
    """Site weights (t_0, t_1, ..., t_p); exact when x is a Fraction."""
    p, x = inst.p, inst.x
    return ((p + x) / (p + 1),) + ((x - 1) / (p + 1),) * p


def z_closed(inst: PottsInstance):
    p, n, x = inst.p, inst.sites, inst.x
    return (x + p) ** n + p * (x - 1) ** n


def transfer_matrix(inst: PottsInstance):
    d = inst.p + 1
    return [[inst.x if i == j else type(inst.x)(1) for j in range(d)] for i in range(d)]


def _mat_mul(a, b):
    d = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def z_transfer(inst: PottsInstance):
    v = transfer_matrix(inst)
    acc = v
    for _ in range(inst.sites - 1):
        acc = _mat_mul(acc, v)
    return sum(acc[i][i] for i in range(len(acc)))


def z_bruteforce(inst: PottsInstance, cap: int = 10**7):
    """Direct sum over all spin configurations of x**(#equal neighbour pairs)."""
    p, n = inst.p, inst.sites
    if (p + 1) ** n > cap:
        raise errors.TooLarge(f"{(p + 1) ** n} configurations exceed cap {cap}")
    counts = [0] * (n + 1)
    for config in product(range(p + 1), repeat=n):
        k = sum(config[i] == config[(i + 1) % n] for i in range(n))
        counts[k] += 1
    return sum(c * inst.x**k for k, c in enumerate(counts) if c)


def z_paragrassmann(inst: PottsInstance, term_cap: int = 200_000):
    """Partition function as a 2N-fold integral over nilpotent variables.

    Site i contributes sum_m (t_m/(m)_q!) theta_i**m tbar_{i+1}**m, which is
    the CoeffMatrix diag(t_0, ..., t_p).  Sites 1..N-1 are glued by N-2
    integrals over the shared modes 2..N-1, each a three-mode
    convolve_via_integral, leaving a function of theta_1 and tbar_N.  Site N
    wraps onto mode 1 as sum_m (t_m/(m)_q!) tbar_1**m (...) theta_N**m, with
    tbar on the left as in the full product, and the two remaining modes are
    integrated in a two-mode algebra.  All root-of-unity phases cancel and
    the result is the exact rational (p+1)**N sum_m t_m**N.

    term_cap bounds the (N-1)(p+1)**2 coefficient entries the route builds.
    """
    if not inst.exact:
        raise ValueError("the integral route needs an exact rational x")
    p, n = inst.p, inst.sites
    entries = (n - 1) * (p + 1) ** 2
    if entries > term_cap:
        raise errors.DimensionCap(f"{entries} coefficient entries exceed cap {term_cap}")
    ctx = make_context(p)
    norm = default_normalization(ctx)
    t = [ctx.lift(c) for c in transfer_weights(inst)]
    site = CoeffMatrix(ctx, [[t[i] if i == j else ctx.zero for j in range(p + 1)]
                             for i in range(p + 1)])

    chain = site
    for _ in range(n - 2):
        chain = convolve_via_integral(chain, site, norm)
    alg = PGAlgebra(ctx, 2)
    poly = chain.to_poly(alg, 1, 2)
    closed = sum(
        (alg.monomial({("tbar", 1): m}, t[m] * ctx.inv_q_factorial(m)) * poly
         * alg.monomial({("theta", 2): m}) for m in range(p + 1)),
        alg.zero(),
    )
    # a measure pair has zero net phase against the other mode, so one mode
    # at a time equals integrate_all(mu_1 * mu_2 * closed) with far fewer
    # scalar products
    for mode in (1, 2):
        closed = integrate_mode(measure_poly(alg, mode) * closed, mode, norm)
    value = closed.constant()

    return Fraction(p + 1) ** n * value.to_rational()


def delta_expansion_check(ctx: CycloContext) -> list[dict]:
    """Finite-sum representation of the Kronecker delta on spin values.

    (1/(p+1)) sum_m q**(m(s-s')) equals 1 on the diagonal and 0 off it.
    """
    p = ctx.p
    checks = []
    inv = Fraction(1, p + 1)
    for s in range(p + 1):
        for s2 in range(p + 1):
            acc = ctx.zero
            for m in range(p + 1):
                acc = acc + ctx.q_power(m * (s - s2))
            acc = inv * acc
            expect = ctx.one if s == s2 else ctx.zero
            checks.append(
                {
                    "name": f"delta({s},{s2})",
                    "passed": acc == expect,
                    "detail": "finite q-power sum",
                }
            )
    return checks
