"""Sparse square matrices over the exact cyclotomic scalars.

Operator matrices in this package are built from ladder and diagonal pieces,
so they stay extremely sparse even after Kronecker products; entries are held
in a dict keyed by (row, col) with exact zeros dropped.  Equality is exact
and entrywise.
"""

from __future__ import annotations

from .qarith import CycloContext, CycloElement


class OpMatrix:
    __slots__ = ("ctx", "dim", "entries")

    def __init__(self, ctx: CycloContext, dim: int, entries=None):
        self.ctx = ctx
        self.dim = dim
        self.entries: dict[tuple[int, int], CycloElement] = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    self.entries[(r, c)] = v

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, ctx, dim):
        one = ctx.one
        return cls(ctx, dim, {(i, i): one for i in range(dim)})

    @classmethod
    def diagonal(cls, ctx, diag):
        diag = list(diag)
        return cls(ctx, len(diag), {(i, i): v for i, v in enumerate(diag)})

    @classmethod
    def unit(cls, ctx, dim, r, c):
        """Matrix with a single 1 at (r, c)."""
        return cls(ctx, dim, {(r, c): ctx.one})

    # -- access ------------------------------------------------------------

    def entry(self, r: int, c: int) -> CycloElement:
        return self.entries.get((r, c), self.ctx.zero)

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim or self.ctx.order != other.ctx.order:
            raise ValueError("matrix shape/field mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return OpMatrix(self.ctx, self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OpMatrix(self.ctx, self.dim, {k: -v for k, v in self.entries.items()})

    def scale(self, s) -> "OpMatrix":
        s = self.ctx.lift(s)
        if not s:
            return OpMatrix(self.ctx, self.dim)
        return OpMatrix(self.ctx, self.dim, {k: s * v for k, v in self.entries.items()})

    def __matmul__(self, other):
        self._check(other)
        by_col: dict[int, list] = {}
        for (r, k), v in self.entries.items():
            by_col.setdefault(k, []).append((r, v))
        acc: dict[tuple[int, int], CycloElement] = {}
        for (k, c), bv in other.entries.items():
            rows = by_col.get(k)
            if not rows:
                continue
            for r, av in rows:
                key = (r, c)
                prod = av * bv
                s = acc.get(key)
                acc[key] = prod if s is None else s + prod
        return OpMatrix(self.ctx, self.dim, acc)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative matrix power not supported")
        acc = OpMatrix.identity(self.ctx, self.dim)
        base = self
        while n:
            if n & 1:
                acc = acc @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return acc

    def kron(self, other: "OpMatrix") -> "OpMatrix":
        d2 = other.dim
        out = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in other.entries.items():
                out[(r1 * d2 + r2, c1 * d2 + c2)] = v1 * v2
        return OpMatrix(self.ctx, self.dim * d2, out)

    # -- structure -------------------------------------------------------

    def conj_transpose(self) -> "OpMatrix":
        return OpMatrix(
            self.ctx, self.dim, {(c, r): v.conjugate() for (r, c), v in self.entries.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, OpMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    # -- export ---------------------------------------------------------------

    def to_dense(self) -> list[list[CycloElement]]:
        z = self.ctx.zero
        rows = [[z] * self.dim for _ in range(self.dim)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [[v.to_json() for v in row] for row in self.to_dense()],
        }

    def __repr__(self):
        return f"OpMatrix(dim={self.dim}, nnz={len(self.entries)})"
