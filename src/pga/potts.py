"""Closed Z_{p+1} Potts chain: four independent partition-function routes.

Spins take p+1 values, neighbours couple through a Kronecker delta, and the
chain closes on itself.  With x = exp(K) the four routes are: the closed form
(x+p)**N + p(x-1)**N, the trace of the N-th transfer-matrix power, the raw
sum over all spin configurations, and a 2N-fold integral over nilpotent
variables whose site factors carry the weights t_0 = (p+x)/(p+1) and
t_n = (x-1)/(p+1).  The integral is swept along the chain, one shared mode
at a time, which is the convolution = coefficient-matrix product identity
applied site by site, so the (p+1)**N-term product is never formed.  In
exact-rational mode all four agree identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import errors
from .integration import default_normalization, integrate_mode, measure_poly
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


def z_paragrassmann(inst: PottsInstance, term_cap: int = 200_000, shift: int = 0):
    """Partition function as a 2N-fold integral over nilpotent variables.

    Site i contributes sum_m (t_m/(m)_q!) theta_i**m tbar_{i+1}**m; the last
    site wraps onto mode 1.  Mode i is integrated against its measure as soon
    as site i, its second factor, is multiplied in, so at most three modes
    are live at once.  This is exact: the pair theta_i**p tbar_i**p picks up
    phases eps and -eps against any other generator, a zero net phase, so
    integrating it early commutes with every factor still to come.  The wrap
    sum_m w_m tbar_{mode(1)}**m (...) theta_{mode(N)}**m keeps tbar on the
    left of the swept product, as in the full product, and modes mode(1) and
    mode(N) are integrated last.  All root-of-unity phases cancel and the
    result is the exact rational (p+1)**N sum_m t_m**N.

    shift relabels the chain sites cyclically; the result must not change.
    """
    if not inst.exact:
        raise ValueError("the integral route needs an exact rational x")
    p, n = inst.p, inst.sites
    if (p + 1) ** n > term_cap:
        raise errors.DimensionCap(
            f"{(p + 1) ** n} spin configurations exceed cap {term_cap}"
        )
    ctx = make_context(p)
    alg = PGAlgebra(ctx, n)
    norm = default_normalization(ctx)
    t = [ctx.lift(c) for c in transfer_weights(inst)]
    weights = [t[m] * ctx.inv_q_factorial(m) for m in range(p + 1)]

    def mode(i):
        return (i - 1 + shift) % n + 1

    def integrate(poly, i):
        return integrate_mode(measure_poly(alg, mode(i)) * poly, mode(i), norm)

    # site factors are built as products so that relabeled mode pairs in
    # non-canonical order still pick up their reordering phases
    def site(i):
        return sum(
            (alg.monomial({("theta", mode(i)): m}, weights[m])
             * alg.monomial({("tbar", mode(i + 1)): m}) for m in range(p + 1)),
            alg.zero(),
        )

    poly = site(1)
    for i in range(2, n):
        poly = integrate(poly * site(i), i)
    closed = sum(
        (alg.monomial({("tbar", mode(1)): m}, weights[m]) * poly
         * alg.monomial({("theta", mode(n)): m}) for m in range(p + 1)),
        alg.zero(),
    )
    value = integrate(integrate(closed, 1), n).constant()

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
