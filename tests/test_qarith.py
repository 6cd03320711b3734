"""Exact field arithmetic, q-numbers, and the factorial splitting identity."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pga.qarith import CycloElement, cyclotomic_polynomial, make_context

small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def elements(p):
    ctx = make_context(p)
    return st.lists(
        small_fractions, min_size=ctx.degree, max_size=ctx.degree
    ).map(lambda cs: CycloElement(ctx, cs))


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(16) == (1, 0, 0, 0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("n", [8, 12, 16, 20, 24, 28])
def test_cyclotomic_product_recovers_xn_minus_1(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
    assert prod == [-1] + [0] * (n - 1) + [1]


@pytest.mark.parametrize("n", [8, 12, 16, 20, 24, 28])
def test_primitive_root_annihilates_modulus(n):
    w = cmath.exp(2j * cmath.pi / n)
    val = sum(c * w**k for k, c in enumerate(cyclotomic_polynomial(n)))
    assert abs(val) < 1e-9


# ---------------------------------------------------------------------------
# context and designated powers


def test_context_validation():
    with pytest.raises(ValueError):
        make_context(0)
    with pytest.raises(ValueError):
        make_context(3, root_index=2)  # gcd(2, 4) != 1
    ctx = make_context(4, root_index=3)
    assert abs(ctx.q.embed() - cmath.exp(2j * cmath.pi * 3 / 5)) < 1e-12


@pytest.mark.parametrize("p", range(1, 7))
def test_primitivity(p):
    ctx = make_context(p)
    assert ctx.q_power(p + 1) == 1
    for k in range(1, p + 1):
        assert ctx.q_power(k) != 1
        assert ctx.q_number(k)  # nonzero
    assert not ctx.q_number(p + 1)


def test_q_number_examples():
    assert make_context(2).q_number(0) == 0
    ctx3 = make_context(3)
    assert ctx3.q_number(2) == ctx3.one + ctx3.q
    assert abs(ctx3.q_number(2).embed() - (1 + 1j)) < 1e-12
    assert ctx3.q_number(4) == 0


def test_q_factorial_examples():
    ctx2 = make_context(2)
    assert ctx2.q_factorial(0) == 1
    assert ctx2.q_factorial(2) == ctx2.one + ctx2.q
    assert make_context(3).q_factorial(4) == 0


@pytest.mark.parametrize(
    "p,root_index", [(p, 1) for p in range(1, 11)] + [(4, 2), (6, 5)]
)
def test_inv_q_factorial_table(p, root_index):
    ctx = make_context(p, root_index)
    for n in range(p + 1):
        assert ctx.inv_q_factorial(n) * ctx.q_factorial(n) == 1, n
    for n in (p + 1, -1):
        with pytest.raises(ValueError):
            ctx.inv_q_factorial(n)


@pytest.mark.parametrize("p", range(1, 7))
def test_q_number_against_closed_form(p):
    # independent route: (1 - q**n) / (1 - q) evaluated numerically
    ctx = make_context(p)
    qc = ctx.q.embed()
    for n in range(1, p + 1):
        expect = (1 - qc**n) / (1 - qc)
        assert abs(ctx.q_number(n).embed() - expect) < 1e-12


def test_half_and_quarter_powers():
    ctx1 = make_context(1)
    assert ctx1.q_half_power(0) == 1
    assert abs(ctx1.q_half_power(1).embed() - 1j) < 1e-12
    for p in (1, 2, 3, 5):
        ctx = make_context(p)
        assert ctx.q_half_power(2) == ctx.q
        assert ctx.q_quarter_power(4) == ctx.q
        assert ctx.q_quarter_power(2) == ctx.q_half_power(1)


def test_embed_examples():
    assert abs(make_context(1).one.embed() - 1) < 1e-15
    assert abs(make_context(1).q.embed() + 1) < 1e-12
    assert abs(make_context(3).q.embed() - 1j) < 1e-12


# ---------------------------------------------------------------------------
# the factorial splitting identity and the spin sum


@pytest.mark.parametrize("p", range(1, 7))
def test_factorial_splitting_identity(p):
    ctx = make_context(p)
    top = ctx.q_factorial(p)
    for n in range(p + 1):
        half = (n * (n + 1)) // 2  # n(n+1) is always even
        rhs = (
            (-1) ** n
            * ctx.q_power(-half)
            * ctx.q_factorial(n)
            * ctx.q_factorial(p - n)
        )
        assert top == rhs


@pytest.mark.parametrize("p", range(1, 7))
def test_geometric_spin_sum(p):
    ctx = make_context(p)
    for k in range(p + 1):
        acc = ctx.zero
        for sigma in range(p + 1):
            acc = acc + ctx.q_power(k * sigma)
        assert acc == (p + 1 if k == 0 else 0)


# ---------------------------------------------------------------------------
# field structure


@given(a=elements(2), b=elements(2))
def test_embed_is_additive_and_multiplicative(a, b):
    assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-12
    assert abs((a * b).embed() - (a.embed() * b.embed())) < 1e-12


@given(a=elements(3))
def test_inverse(a):
    if a:
        assert a * a.inverse() == 1


@given(a=elements(2), b=elements(2), c=elements(2))
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a


@given(a=elements(2))
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a
    assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-12


def test_rational_extraction():
    ctx = make_context(2)
    e = ctx.from_rational(Fraction(7, 3))
    assert e.is_rational() and e.to_rational() == Fraction(7, 3)
    with pytest.raises(ValueError):
        ctx.q.to_rational()


def test_json_roundtrip():
    ctx = make_context(2)
    e = ctx.q + ctx.from_rational(Fraction(1, 2))
    assert CycloElement.from_json(ctx, e.to_json()) == e
    blob = e.to_json()
    assert blob["order"] == 12
    assert all("/" in s for s in blob["coeffs"])


# ---------------------------------------------------------------------------
# lifting scalars, equality and hashing


def test_lift():
    ctx = make_context(2)
    assert ctx.lift(ctx.q) is ctx.q
    assert ctx.lift(3) == ctx.from_rational(3)
    assert ctx.lift(Fraction(-1, 2)).to_rational() == Fraction(-1, 2)
    with pytest.raises(ValueError):
        ctx.lift(make_context(3).q)
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            ctx.lift(bad)
    with pytest.raises(TypeError):
        ctx.q + 0.5


def test_equal_elements_hash_equal():
    ctx = make_context(2)
    assert ctx.one == 1 and len({ctx.one, 1}) == 1
    half = ctx.from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({ctx.zero, 0, ctx.q, ctx.q_power(1)}) == 2


def test_elements_of_different_fields_are_unequal():
    one1, one3 = make_context(1).one, make_context(3).one
    assert one1 != one3
    assert not one1 == make_context(3).q
    with pytest.raises(ValueError):
        one1 + one3


# ---------------------------------------------------------------------------
# the two representations: tags lam*w**k and coordinate vectors

# p = 1..10 at the principal root, and non-principal roots
FIELDS = [(p, 1) for p in range(1, 11)] + [(4, 2), (6, 5), (10, 3)]


def operands(ctx):
    """A scaled power of w (a tag) or a coordinate vector (a general element)."""
    tags = st.builds(
        lambda c, k: c * ctx.omega_power(k),
        small_fractions,
        st.integers(-ctx.order, 2 * ctx.order),
    )
    vectors = st.lists(
        small_fractions, min_size=ctx.degree, max_size=ctx.degree
    ).map(lambda cs: CycloElement(ctx, cs))
    return tags | vectors


def as_vector(x):
    return CycloElement(x.ctx, x.coeffs)


@pytest.mark.parametrize("p,root_index", FIELDS)
@settings(max_examples=10)
@given(data=st.data())
def test_tag_and_vector_forms_agree(p, root_index, data):
    ctx = make_context(p, root_index)
    a = data.draw(operands(ctx))
    # a rational multiple of a shares its form and, for a tag, its power of w
    b = data.draw(operands(ctx) | small_fractions.map(lambda c: c * a))
    va, vb = as_vector(a), as_vector(b)
    assert a == va and hash(a) == hash(va)
    results = [
        (a + b, va + vb),
        (a - b, va - vb),
        (a * b, va * vb),
        (a.conjugate(), va.conjugate()),
    ]
    if a:
        results.append((a.inverse(), va.inverse()))
    for got, want in results:
        assert got == want
        assert hash(got) == hash(want) == hash(as_vector(got))
    # the complex embedding is a route independent of both forms
    assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9
    assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-9


@pytest.mark.parametrize("p,root_index", FIELDS)
def test_half_turn_is_minus_one(p, root_index):
    ctx = make_context(p, root_index)
    half = ctx.order // 2
    minus_one = ctx.omega_power(half)
    assert minus_one == -1
    assert minus_one.is_rational() and minus_one.to_rational() == -1
    assert hash(minus_one) == hash(Fraction(-1))
    for k in range(ctx.order):
        w_k = ctx.omega_power(k)
        assert ctx.omega_power(k + half) == -w_k
        assert abs(w_k.embed() - cmath.exp(2j * cmath.pi * k / ctx.order)) < 1e-12
        assert w_k.is_rational() == (k % half == 0)
    assert ctx.q_power(p + 1) == ctx.one
    assert ctx.zero == CycloElement(ctx, [0] * ctx.degree)
    assert not ctx.from_rational(0)
