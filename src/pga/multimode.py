"""Many-mode nilpotent algebra: tensor matrices and symbolic rewriting.

The 4N generators theta_i, tbar_i, partial_i, pbar_i (i = 1..N) are realized
on (p+1)**(2N) dimensions by sandwiching the single-mode pair between
diagonal grading factors,

    theta_i = G^{a_1} x ... x G^{a_{i-1}} x (theta x 1) x I x ... x I,
    tbar_i  = G^{b_1} x ... x G^{b_{i-1}} x (g x theta) x I x ... x I,

with derivative partners carrying the inverse prefactors, where
G^{a} = g**(a1) x g**(a2) for sign vectors a = (a1, a2).  The consistent
choice is b_i = -a_i with a_i = (1, -1); check_relations verifies the full
reordering table this produces:

    theta_i theta_j = q**(eps_ij + delta_ij) theta_j theta_i
    tbar_i  theta_j = q**(-eps_ij)           theta_j tbar_i
    partial_i theta_j = q**(-eps_ij) theta_j partial_i + delta_ij
    ... (and the barred / mixed copies)

with eps_ij = +1 for i > j and -1 for i <= j.

The symbolic engine rewrites words in the theta/tbar generators only (this
covers every integrand that appears downstream); words containing derivatives
are evaluated through the matrix representation instead.  Canonical order
interleaves by mode: theta_1, tbar_1, theta_2, tbar_2, ...
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .opmatrix import OpMatrix
from .qarith import CycloContext, CycloElement
from .single_mode import build_rep

THETA = 0
TBAR = 1

_KIND_NAMES = {"theta": THETA, "tbar": TBAR}


# ---------------------------------------------------------------------------
# matrix representation


@dataclass(frozen=True)
class MultiModeRep:
    ctx: CycloContext
    modes: int
    a_vectors: tuple[tuple[int, int], ...]
    b_vectors: tuple[tuple[int, int], ...]
    theta_ops: tuple[OpMatrix, ...]
    tbar_ops: tuple[OpMatrix, ...]
    partial_ops: tuple[OpMatrix, ...]
    pbar_ops: tuple[OpMatrix, ...]

    @property
    def dim(self) -> int:
        return (self.ctx.p + 1) ** (2 * self.modes)

    def generator(self, kind: str, i: int) -> OpMatrix:
        return {
            "theta": self.theta_ops,
            "tbar": self.tbar_ops,
            "partial": self.partial_ops,
            "pbar": self.pbar_ops,
        }[kind][i - 1]


def _check_signs(vectors, n, what):
    vectors = tuple(tuple(v) for v in vectors)
    if len(vectors) != n:
        raise errors.WrongLength(f"{what} needs {n} sign vectors")
    for v in vectors:
        if len(v) != 2 or any(s not in (1, -1) for s in v):
            raise errors.PgaError(f"{what} entries must be the signs +1/-1")
    return vectors


def build_multimode(
    ctx: CycloContext,
    modes: int,
    a_vectors=None,
    b_vectors=None,
    cap: int = 4096,
) -> MultiModeRep:
    """Tensor-product realization of all 4N generators.

    Raises DimensionCap when (p+1)**(2N) exceeds cap (override via cap=...).
    """
    if modes < 1:
        raise ValueError("need at least one mode")
    p = ctx.p
    dim = (p + 1) ** (2 * modes)
    if dim > cap:
        raise errors.DimensionCap(f"dimension {dim} exceeds cap {cap}")

    if a_vectors is None:
        a_vectors = ((1, -1),) * modes
    a_vectors = _check_signs(a_vectors, modes, "a_vectors")
    if b_vectors is None:
        b_vectors = tuple((-s1, -s2) for s1, s2 in a_vectors)
    b_vectors = _check_signs(b_vectors, modes, "b_vectors")

    rep1 = build_rep(ctx)
    one = OpMatrix.identity(ctx, p + 1)
    gpow = {1: rep1.g, -1: rep1.g_inv}

    def slab(vec):
        return gpow[vec[0]].kron(gpow[vec[1]])

    def neg(vec):
        return (-vec[0], -vec[1])

    ident_slab = one.kron(one)
    cores = {
        "theta": rep1.theta.kron(one),
        "tbar": rep1.g.kron(rep1.theta),
        "partial": rep1.partial.kron(one),
        "pbar": rep1.g_inv.kron(rep1.partial),
    }

    def assemble(kind, i, prefix_vecs, invert):
        mat = None
        for j in range(modes):
            if j < i - 1:
                vec = prefix_vecs[j]
                piece = slab(neg(vec) if invert else vec)
            elif j == i - 1:
                piece = cores[kind]
            else:
                piece = ident_slab
            mat = piece if mat is None else mat.kron(piece)
        return mat

    theta_ops, tbar_ops, partial_ops, pbar_ops = [], [], [], []
    for i in range(1, modes + 1):
        theta_ops.append(assemble("theta", i, a_vectors, False))
        tbar_ops.append(assemble("tbar", i, b_vectors, False))
        partial_ops.append(assemble("partial", i, a_vectors, True))
        pbar_ops.append(assemble("pbar", i, b_vectors, True))

    return MultiModeRep(
        ctx,
        modes,
        a_vectors,
        b_vectors,
        tuple(theta_ops),
        tuple(tbar_ops),
        tuple(partial_ops),
        tuple(pbar_ops),
    )


def _eps(i: int, j: int) -> int:
    return 1 if i > j else -1


def check_relations(rep: MultiModeRep) -> list[dict]:
    """Exact verification of every pairwise reordering identity.

    Returns one entry per identity with a passed flag; nothing raises, so a
    deliberately inconsistent sign choice can be inspected.
    """
    ctx, n = rep.ctx, rep.modes
    p = ctx.p
    ident = OpMatrix.identity(ctx, rep.dim)
    checks = []

    def add(name, lhs, rhs):
        checks.append({"name": name, "passed": lhs == rhs, "detail": "exact matrix identity"})

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e = _eps(i, j)
            d = 1 if i == j else 0
            t_i, t_j = rep.theta_ops[i - 1], rep.theta_ops[j - 1]
            b_i, b_j = rep.tbar_ops[i - 1], rep.tbar_ops[j - 1]
            d_i, d_j = rep.partial_ops[i - 1], rep.partial_ops[j - 1]
            db_i, db_j = rep.pbar_ops[i - 1], rep.pbar_ops[j - 1]
            qed = ctx.q_power(e + d)
            qme = ctx.q_power(-e)
            qpe = ctx.q_power(e)
            delta_term = ident if i == j else OpMatrix.zeros(ctx, rep.dim)

            add(f"theta{i} theta{j}", t_i @ t_j, (t_j @ t_i).scale(qed))
            add(f"partial{i} partial{j}", d_i @ d_j, (d_j @ d_i).scale(qed))
            add(f"partial{i} theta{j}", d_i @ t_j, (t_j @ d_i).scale(qme) + delta_term)
            add(f"tbar{i} tbar{j}", b_i @ b_j, (b_j @ b_i).scale(qed))
            add(f"pbar{i} pbar{j}", db_i @ db_j, (db_j @ db_i).scale(qed))
            add(f"pbar{i} tbar{j}", db_i @ b_j, (b_j @ db_i).scale(qme) + delta_term)
            add(f"tbar{i} theta{j}", b_i @ t_j, (t_j @ b_i).scale(qme))
            add(f"pbar{i} partial{j}", db_i @ d_j, (d_j @ db_i).scale(qme))
            add(f"pbar{i} theta{j}", db_i @ t_j, (t_j @ db_i).scale(qpe))
            add(f"tbar{i} partial{j}", b_i @ d_j, (d_j @ b_i).scale(qpe))

    for kind in ("theta", "tbar", "partial", "pbar"):
        for i in range(1, n + 1):
            x = rep.generator(kind, i)
            checks.append(
                {
                    "name": f"{kind}{i} nilpotency",
                    "passed": (x ** (p + 1)).is_zero() and not (x**p).is_zero(),
                    "detail": f"degree exactly {p + 1}",
                }
            )
    return checks


def all_passed(checks: list[dict]) -> bool:
    return all(c["passed"] for c in checks)


# ---------------------------------------------------------------------------
# symbolic engine


def _symbol(sym) -> tuple[int, int]:
    kind, mode = sym
    if isinstance(kind, str):
        if kind not in _KIND_NAMES:
            raise errors.UnsupportedSymbol(
                f"cannot rewrite {kind!r}; only theta/tbar words are supported"
            )
        kind = _KIND_NAMES[kind]
    elif kind not in (THETA, TBAR):
        raise errors.UnsupportedSymbol(f"unknown generator kind {kind!r}")
    return kind, mode


def _swap_exponent(left: tuple[int, int], right: tuple[int, int]) -> int:
    """Exponent e with (left right) = q**e (right left), left/right = (kind, mode)."""
    ka, i = left
    kb, j = right
    if i == j:
        if ka == kb:
            return 0
        return 1 if ka == TBAR else -1
    same_kind = ka == kb
    return _eps(i, j) if same_kind else -_eps(i, j)


class PGAlgebra:
    """Normal-ordering engine for words in theta_i / tbar_i.

    Exponent tuples are flattened as (n_1, m_1, n_2, m_2, ...) with n_i the
    theta_i power and m_i the tbar_i power; the flattened index order is the
    canonical symbol order.
    """

    def __init__(self, ctx: CycloContext, modes: int):
        self.ctx = ctx
        self.modes = modes
        self.width = 2 * modes
        self._zero_exps = (0,) * self.width

    def _index(self, kind: int, mode: int) -> int:
        if not 1 <= mode <= self.modes:
            raise ValueError(f"mode {mode} out of range 1..{self.modes}")
        return 2 * (mode - 1) + kind

    def _sym_at(self, idx: int) -> tuple[int, int]:
        return idx % 2, idx // 2 + 1

    # -- constructors --------------------------------------------------------

    def zero(self) -> "PGPolynomial":
        return PGPolynomial(self, {})

    def one(self) -> "PGPolynomial":
        return PGPolynomial(self, {self._zero_exps: self.ctx.one})

    def monomial(self, powers: dict, coeff=1) -> "PGPolynomial":
        """powers maps (kind, mode) -> exponent, e.g. {("theta", 2): 1}."""
        exps = [0] * self.width
        for sym, e in powers.items():
            kind, mode = _symbol(sym)
            exps[self._index(kind, mode)] += e
        if any(e > self.ctx.p for e in exps):
            return self.zero()
        coeff = self.ctx.lift(coeff)
        if not coeff:
            return self.zero()
        return PGPolynomial(self, {tuple(exps): coeff})

    def theta(self, mode: int) -> "PGPolynomial":
        return self.monomial({(THETA, mode): 1})

    def tbar(self, mode: int) -> "PGPolynomial":
        return self.monomial({(TBAR, mode): 1})

    # -- rewriting -------------------------------------------------------------

    def normal_order(self, word) -> "PGPolynomial":
        """Canonically order a word of (kind, mode) symbols, collecting phases.

        The result is a single monomial (possibly zero) times a power of q.
        """
        syms = [_symbol(s) for s in word]
        keys = [(mode, kind) for kind, mode in syms]
        phase = 0
        changed = True
        while changed:
            changed = False
            for k in range(len(syms) - 1):
                if keys[k] > keys[k + 1]:
                    phase += _swap_exponent(syms[k], syms[k + 1])
                    syms[k], syms[k + 1] = syms[k + 1], syms[k]
                    keys[k], keys[k + 1] = keys[k + 1], keys[k]
                    changed = True
        exps = [0] * self.width
        for kind, mode in syms:
            exps[self._index(kind, mode)] += 1
        if any(e > self.ctx.p for e in exps):
            return self.zero()
        return PGPolynomial(self, {tuple(exps): self.ctx.q_power(phase)})

    def _mono_mul(self, a: tuple[int, ...], b: tuple[int, ...]):
        """Product of canonical monomials: (phase exponent, exps) or None."""
        phase = 0
        for sb in range(self.width):
            eb = b[sb]
            if not eb:
                continue
            sym_b = self._sym_at(sb)
            for sa in range(sb + 1, self.width):
                ea = a[sa]
                if ea:
                    phase += ea * eb * _swap_exponent(self._sym_at(sa), sym_b)
        exps = tuple(x + y for x, y in zip(a, b))
        if any(e > self.ctx.p for e in exps):
            return None
        return phase, exps


class PGPolynomial:
    """Linear combination of canonical monomials with exact coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: PGAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = {e: c for e, c in terms.items() if c}

    # -- ring operations -------------------------------------------------------

    def _compat(self, other: "PGPolynomial"):
        if other.algebra is not self.algebra and (
            other.algebra.modes != self.algebra.modes
            or other.algebra.ctx != self.algebra.ctx
        ):
            raise ValueError("polynomials from different algebras")

    def __add__(self, other):
        if not isinstance(other, PGPolynomial):
            return NotImplemented
        self._compat(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return PGPolynomial(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PGPolynomial(self.algebra, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        alg = self.algebra
        if not isinstance(other, PGPolynomial):
            return self.scale(other)
        self._compat(other)
        acc: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                got = alg._mono_mul(ea, eb)
                if got is None:
                    continue
                phase, exps = got
                val = ca * cb * alg.ctx.q_power(phase)
                s = acc.get(exps)
                acc[exps] = val if s is None else s + val
        return PGPolynomial(alg, acc)

    def __rmul__(self, other):
        # scalars commute with everything the engine stores
        return self.scale(other)

    def scale(self, c) -> "PGPolynomial":
        c = self.algebra.ctx.lift(c)
        if not c:
            return self.algebra.zero()
        return PGPolynomial(self.algebra, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int):
        acc = self.algebra.one()
        for _ in range(n):
            acc = acc * self
        return acc

    # -- structure ---------------------------------------------------------------

    def coefficient(self, powers: dict) -> CycloElement:
        exps = [0] * self.algebra.width
        for sym, e in powers.items():
            kind, mode = _symbol(sym)
            exps[self.algebra._index(kind, mode)] = e
        return self.terms.get(tuple(exps), self.algebra.ctx.zero)

    def constant(self) -> CycloElement:
        return self.terms.get(self.algebra._zero_exps, self.algebra.ctx.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree_truncate(self, degree: int) -> "PGPolynomial":
        return PGPolynomial(
            self.algebra, {e: c for e, c in self.terms.items() if sum(e) <= degree}
        )

    def __eq__(self, other):
        if not isinstance(other, PGPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "PGPolynomial(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            name = []
            for idx, power in enumerate(e):
                if power:
                    kind, mode = idx % 2, idx // 2 + 1
                    base = "th" if kind == THETA else "tb"
                    name.append(f"{base}{mode}^{power}")
            bits.append(f"{c!r}*{'.'.join(name) if name else '1'}")
        return "PGPolynomial(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# symbolic / matrix bridge


def word_matrix(rep: MultiModeRep, word) -> OpMatrix:
    """Ordered product of generator matrices for a theta/tbar word."""
    names = {THETA: "theta", TBAR: "tbar"}
    acc = OpMatrix.identity(rep.ctx, rep.dim)
    for sym in word:
        kind, mode = _symbol(sym)
        acc = acc @ rep.generator(names[kind], mode)
    return acc


def poly_matrix(rep: MultiModeRep, poly: PGPolynomial) -> OpMatrix:
    """Matrix of a canonical polynomial under the tensor representation."""
    acc = OpMatrix.zeros(rep.ctx, rep.dim)
    for exps, coeff in poly.terms.items():
        mat = OpMatrix.identity(rep.ctx, rep.dim)
        for idx, power in enumerate(exps):
            if power:
                kind, mode = idx % 2, idx // 2 + 1
                gen = rep.theta_ops[mode - 1] if kind == THETA else rep.tbar_ops[mode - 1]
                mat = mat @ gen**power
        acc = acc + mat.scale(coeff)
    return acc
