"""Exact arithmetic with roots of unity and their q-combinatorics.

All scalars live in the cyclotomic field Q(w), where w is a primitive root
of unity of order 4*(p+1).  The deformation parameter is q = w**(4*n) for a
root index n coprime to p+1 (n = 1 picks the principal root exp(2*pi*i/(p+1))),
so q**(p+1) = 1 while q, q**2, ..., q**p are all different from 1.  Working
with the order-4(p+1) root means q**(1/2) = w**(2n) and q**(1/4) = w**n are
ordinary field elements; no branch cuts or floating point enter anywhere.

Elements are rational coordinate vectors in the power basis
{1, w, ..., w**(deg-1)}, reduced modulo the cyclotomic polynomial of order
4*(p+1).  Reduction is canonical: two elements are equal iff their
coordinates are equal, and every nonzero element is invertible.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)

def _exact_int_div(num: list[int], den) -> list[int]:
    """Divide num by the monic polynomial den, requiring zero remainder."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    if dn < dd:
        raise ArithmeticError("degree of numerator too small")
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[dd + k]
        quot[k] = c
        if c:
            for i, dc in enumerate(den):
                num[i + k] -= c * dc
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Computed by exact division of x**n - 1 by the cyclotomic polynomials of
    all proper divisors of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_int_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# ---------------------------------------------------------------------------
# rational polynomial helpers used by the inverse

def _ptrim(a: list[Fraction]) -> list[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a


def _pmul(a, b):
    out = [_F0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _psub(a, b):
    out = list(a) + [_F0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _ptrim(out)


def _pdivmod(a, b):
    a = list(a)
    db = len(b) - 1
    inv_lead = 1 / b[-1]
    quot = [_F0] * max(len(a) - db, 0)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[db + k] * inv_lead
        if c:
            quot[k] = c
            for i, bc in enumerate(b):
                a[i + k] -= c * bc
    return _ptrim(quot), _ptrim(a[:db])


# ---------------------------------------------------------------------------


class CycloContext:
    """Arithmetic context for one nilpotency order p and one choice of q.

    Holds the cyclotomic modulus, reduction tables for the power basis, the
    designated root q = w**(4*root_index), and caches for q-factorials.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, p: int, root_index: int = 1):
        if p < 1:
            raise ValueError("order of parastatistics p must be >= 1")
        if root_index < 1 or gcd(root_index, p + 1) != 1:
            raise ValueError("root_index must be coprime to p+1 and >= 1")
        self.p = p
        self.root_index = root_index
        self.order = 4 * (p + 1)
        self.modulus = cyclotomic_polynomial(self.order)
        self.degree = len(self.modulus) - 1

        # reduction table: w**j mod modulus for j up to max(order, 2*deg-1) - 1
        d = self.degree
        mod = self.modulus
        top = max(self.order, 2 * d - 1)
        rows = []
        vec = [_F0] * d
        vec[0] = _F1
        rows.append(tuple(vec))
        for _ in range(1, top):
            lead = vec[d - 1]
            vec = [_F0] + vec[: d - 1]
            if lead:
                vec = [vec[i] - lead * mod[i] for i in range(d)]
            rows.append(tuple(vec))
        self._pow = rows
        self._root_c = cmath.exp(2j * cmath.pi / self.order)

        self.zero = CycloElement(self, (_F0,) * d)
        self.one = CycloElement(self, rows[0])
        self.q = self.q_power(1)
        # factorial tables filled up front so instances never mutate later
        fact = [self.one]
        for k in range(1, p + 2):
            fact.append(fact[-1] * self.q_number(k))
        self._fact = tuple(fact)
        self._inv_fact = tuple(f.inverse() for f in fact[: p + 1])

    # -- designated powers ---------------------------------------------------

    def omega_power(self, j: int) -> "CycloElement":
        """w**j as a field element (j arbitrary, reduced mod the order)."""
        return CycloElement(self, self._pow[j % self.order])

    def q_power(self, k: int) -> "CycloElement":
        return self.omega_power(4 * self.root_index * k)

    def q_half_power(self, k: int) -> "CycloElement":
        """q**(k/2), exactly; q_half_power(2) == q."""
        return self.omega_power(2 * self.root_index * k)

    def q_quarter_power(self, k: int) -> "CycloElement":
        """q**(k/4), exactly; q_quarter_power(4) == q."""
        return self.omega_power(self.root_index * k)

    def from_rational(self, r) -> "CycloElement":
        vec = [_F0] * self.degree
        vec[0] = Fraction(r)
        return CycloElement(self, vec)

    def lift(self, value) -> "CycloElement":
        """value as an element of this field; ints and Fractions become constants.

        Raises ValueError for an element of another field and TypeError for
        anything that is not an exact scalar.
        """
        if isinstance(value, CycloElement):
            if value.ctx.order != self.order:
                raise ValueError("elements from incompatible fields")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        raise TypeError(f"cannot lift {type(value).__name__} into {self!r}")

    # -- q-combinatorics -----------------------------------------------------

    def q_number(self, n: int) -> "CycloElement":
        """1 + q + ... + q**(n-1); zero for n = 0 and for n = p+1."""
        if n < 0:
            raise ValueError("q_number takes a non-negative integer")
        acc = self.zero
        for k in range(n):
            acc = acc + self.q_power(k)
        return acc

    def q_factorial(self, n: int) -> "CycloElement":
        """Product of the first n q-numbers; equals 0 once n exceeds p."""
        if n < 0:
            raise ValueError("q_factorial takes a non-negative integer")
        if n > self.p:
            return self.zero  # the (p+1)-th q-number vanishes
        return self._fact[n]

    def inv_q_factorial(self, n: int) -> "CycloElement":
        if not 0 <= n <= self.p:
            raise ValueError("q_factorial is invertible only for 0 <= n <= p")
        return self._inv_fact[n]

    def sym_q_number(self, n: int) -> "CycloElement":
        """q**((1-n)/2) * (n)_q, the symmetric form; real under conjugation."""
        return self.q_half_power(1 - n) * self.q_number(n)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, CycloContext)
            and other.p == self.p
            and other.root_index == self.root_index
        )

    def __hash__(self):
        return hash((self.p, self.root_index))

    def __repr__(self):
        return f"CycloContext(p={self.p}, root_index={self.root_index})"


@lru_cache(maxsize=None)
def make_context(p: int, root_index: int = 1) -> CycloContext:
    """Shared, cached context for the given parameters."""
    return CycloContext(p, root_index)


class CycloElement:
    """An element of Q(w), stored as reduced rational coordinates.

    Supports +, -, *, /, integer powers, exact equality and hashing.
    Mixed arithmetic with int and Fraction lifts them to constants.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycloContext, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    def _lift(self, other):
        try:
            return self.ctx.lift(other)
        except TypeError:
            return NotImplemented

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return b
        return CycloElement(self.ctx, (x + y for x, y in zip(self.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return b
        return CycloElement(self.ctx, (x - y for x, y in zip(self.coeffs, b.coeffs)))

    def __rsub__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return b
        return b - self

    def __neg__(self):
        return CycloElement(self.ctx, (-x for x in self.coeffs))

    def _scale(self, c: Fraction):
        if not c:
            return self.ctx.zero
        return CycloElement(self.ctx, (c * x for x in self.coeffs))

    def _is_constant(self) -> bool:
        return not any(self.coeffs[1:])

    def __mul__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return b
        if b._is_constant():
            return self._scale(b.coeffs[0])
        if self._is_constant():
            return b._scale(self.coeffs[0])
        d = self.ctx.degree
        conv = [_F0] * (2 * d - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:d]
        pw = self.ctx._pow
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                row = pw[k]
                for i in range(d):
                    out[i] += ck * row[i]
        return CycloElement(self.ctx, out)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElement":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        if self._is_constant():
            return ctx.from_rational(1 / self.coeffs[0])
        m = [Fraction(c) for c in ctx.modulus]
        a = _ptrim(list(self.coeffs))
        r0, r1 = m, a
        s0, s1 = [], [_F1]
        while len(r1) - 1 > 0:
            quot, rem = _pdivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _psub(s0, _pmul(quot, s1))
            if not r1:
                raise ArithmeticError("element not invertible")
        c = r1[0]
        inv = [x / c for x in s1]
        inv += [_F0] * (ctx.degree - len(inv))
        return CycloElement(ctx, inv[: ctx.degree])

    def __truediv__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return b
        return self * b.inverse()

    def __rtruediv__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return b
        return b * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.ctx.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- structure -----------------------------------------------------------

    def conjugate(self) -> "CycloElement":
        """Image under w -> w**(-1) (complex conjugation of the embedding)."""
        ctx = self.ctx
        d = ctx.degree
        out = [_F0] * d
        for k, ck in enumerate(self.coeffs):
            if ck:
                row = ctx._pow[(-k) % ctx.order]
                for i in range(d):
                    out[i] += ck * row[i]
        return CycloElement(ctx, out)

    def embed(self) -> complex:
        """Evaluate at the principal complex root w = exp(2*pi*i/order)."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * self.ctx._root_c + complex(c)
        return acc

    def is_rational(self) -> bool:
        return self._is_constant()

    def to_rational(self) -> Fraction:
        if not self._is_constant():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        try:
            b = self.ctx.lift(other)
        except TypeError:
            return NotImplemented
        except ValueError:
            return False  # elements of different fields are never equal
        return self.coeffs == b.coeffs

    def __hash__(self):
        # a constant hashes like the rational it equals
        if self._is_constant():
            return hash(self.coeffs[0])
        return hash((self.ctx.order, self.coeffs))

    def to_json(self) -> dict:
        return {
            "order": self.ctx.order,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, ctx: CycloContext, obj: dict) -> "CycloElement":
        if obj["order"] != ctx.order:
            raise ValueError("order mismatch")
        return cls(ctx, (Fraction(s) for s in obj["coeffs"]))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*w")
            else:
                terms.append(f"{c}*w^{k}")
        return "<" + (" + ".join(terms) if terms else "0") + ">"


def complex_to_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}
