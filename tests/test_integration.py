"""Integration calculus: pairings, measure, derivative route, convolution."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pga import errors
from pga.integration import (
    CoeffMatrix,
    IntegralNormalization,
    berezin,
    convolve_via_integral,
    default_normalization,
    derivative_action,
    derivative_integral_checks,
    expq_addition_check,
    expq_poly,
    integral_via_derivatives,
    integrate_all,
    measure,
    measure_poly,
    pairing_integral,
)
from pga.multimode import PGAlgebra, all_passed
from pga.qarith import make_context
from pga.single_mode import build_rep, vacuum_pairing


def monomial_coeffs(p, n):
    return [0] * n + [1] + [0] * (p - n)


def random_coeffs(rng, p):
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p + 1)]


# ---------------------------------------------------------------------------
# one-variable integral


def test_berezin_picks_top_power():
    ctx = make_context(2)
    norm = default_normalization(ctx)
    assert berezin(ctx, [0, 1, 0], norm) == 0
    assert berezin(ctx, [0, 0, 1], norm) == norm.x_p
    assert berezin(ctx, [0, 0, 1], norm, var="tbar") == norm.xbar_p


def test_berezin_of_derivative_vanishes():
    rng = random.Random(3)
    for p in (1, 2, 3):
        ctx = make_context(p)
        g = random_coeffs(rng, p)
        assert berezin(ctx, derivative_action(ctx, g)) == 0


def test_derivative_action_weights():
    ctx = make_context(3)
    out = derivative_action(ctx, [5, 0, 0, 1])
    assert out[2] == ctx.q_number(3)
    assert out[3] == 0


# ---------------------------------------------------------------------------
# the measure


def test_measure_grassmann_case():
    mu = measure(make_context(1))
    assert mu.rows[0][0] == 1
    assert mu.rows[1][1] == -1
    assert mu.rows[0][1] == 0 and mu.rows[1][0] == 0


def test_measure_is_diagonal():
    for p in (2, 3):
        mu = measure(make_context(p))
        for n in range(p + 1):
            for m in range(p + 1):
                if n != m:
                    assert not mu.rows[n][m]
        assert mu.rows[0][0] == 1


# ---------------------------------------------------------------------------
# the pairing


@pytest.mark.parametrize("p", range(1, 5))
def test_pairing_table(p):
    ctx = make_context(p)
    for n in range(p + 1):
        for m in range(p + 1):
            got = pairing_integral(
                ctx, monomial_coeffs(p, n), monomial_coeffs(p, m)
            )
            assert got == (ctx.q_factorial(n) if n == m else ctx.zero)


def test_pairing_trivial_and_oracle():
    ctx = make_context(2)
    assert pairing_integral(ctx, [1, 0, 0], [1, 0, 0]) == 1
    # independent oracle: vacuum matrix element in the ladder representation
    rep = build_rep(ctx)
    got = pairing_integral(ctx, [0, 0, 1], [0, 0, 1])
    assert got == vacuum_pairing(rep, 2, 2) == ctx.one + ctx.q


@pytest.mark.parametrize("p", (1, 2, 3))
def test_pairing_split_independence(p):
    ctx = make_context(p)
    top = ctx.q_factorial(p)
    splits = [
        (top, ctx.one),
        (ctx.one, top),
        (ctx.q, ctx.q_power(-1) * top),
    ]
    rng = random.Random(p)
    f, g = random_coeffs(rng, p), random_coeffs(rng, p)
    values = {
        pairing_integral(ctx, f, g, IntegralNormalization(xp, xbp))
        for xp, xbp in splits
    }
    assert len(values) == 1


def test_bad_normalization_rejected():
    ctx = make_context(2)
    with pytest.raises(errors.BadNormalization):
        IntegralNormalization(ctx.one, ctx.one)


# ---------------------------------------------------------------------------
# derivative form of the integral


def test_derivative_route_examples():
    ctx1 = make_context(1)
    assert integral_via_derivatives(ctx1, [0, 1], [0, 1]) == 1
    ctx2 = make_context(2)
    assert integral_via_derivatives(ctx2, [0, 0, 1], [0, 1, 0]) == 0


@pytest.mark.parametrize("p", (1, 2, 3))
def test_derivative_route_equals_pairing_exhaustive(p):
    ctx = make_context(p)
    for n in range(p + 1):
        for m in range(p + 1):
            f, g = monomial_coeffs(p, n), monomial_coeffs(p, m)
            assert integral_via_derivatives(ctx, f, g) == pairing_integral(ctx, f, g)


@pytest.mark.parametrize("p", (1, 2, 3))
def test_derivative_route_random(p):
    rng = random.Random(31 + p)
    ctx = make_context(p)
    for _ in range(5):
        f, g = random_coeffs(rng, p), random_coeffs(rng, p)
        assert integral_via_derivatives(ctx, f, g) == pairing_integral(ctx, f, g)


@pytest.mark.parametrize("p", (1, 2, 3))
def test_total_derivative_integrals_vanish(p):
    rng = random.Random(41 + p)
    ctx = make_context(p)
    for _ in range(4):
        f, g = random_coeffs(rng, p), random_coeffs(rng, p)
        assert all(c["passed"] for c in derivative_integral_checks(ctx, f, g))


# ---------------------------------------------------------------------------
# convolution


def random_matrix(rng, ctx):
    d = ctx.p + 1
    return CoeffMatrix(
        ctx,
        [
            [ctx.from_rational(Fraction(rng.randint(-2, 2))) for _ in range(d)]
            for _ in range(d)
        ],
    )


def test_convolve_identity():
    ctx = make_context(2)
    rng = random.Random(5)
    f = random_matrix(rng, ctx)
    ident = CoeffMatrix.identity(ctx)
    assert f @ ident == f
    assert ident @ f == f
    assert ident @ ident == ident
    assert convolve_via_integral(f, ident) == f


@pytest.mark.parametrize("p", (1, 2, 3))
def test_convolve_integral_route_equals_matrix_product(p):
    rng = random.Random(61 + p)
    ctx = make_context(p)
    for _ in range(6):
        f1, f2 = random_matrix(rng, ctx), random_matrix(rng, ctx)
        assert convolve_via_integral(f1, f2) == f1 @ f2


@given(seed=st.integers(0, 10**6))
def test_convolve_associativity(seed):
    rng = random.Random(seed)
    ctx = make_context(2)
    f1, f2, f3 = (random_matrix(rng, ctx) for _ in range(3))
    assert (f1 @ f2) @ f3 == f1 @ (f2 @ f3)


def test_coeff_matrix_poly_roundtrip():
    ctx = make_context(2)
    rng = random.Random(9)
    f = random_matrix(rng, ctx)
    alg = PGAlgebra(ctx, 1)
    assert CoeffMatrix.from_poly(ctx, f.to_poly(alg)) == f


# ---------------------------------------------------------------------------
# addition law of the truncated exponential


@pytest.mark.parametrize("p", range(1, 5))
def test_expq_addition_law(p):
    report = expq_addition_check(make_context(p))
    assert all_passed(report), report


@pytest.mark.parametrize("p", (2, 3))
def test_expq_addition_law_is_order_sensitive(p):
    # multiplying the exponentials in the opposite order must NOT satisfy
    # the law; this guards the check against being vacuous
    ctx = make_context(p)
    alg = PGAlgebra(ctx, 1)
    u, v = alg.theta(1), alg.tbar(1)
    wrong = expq_poly(alg, v) * expq_poly(alg, u)
    rhs = expq_poly(alg, u + v)
    assert wrong.total_degree_truncate(ctx.p) != rhs


def test_multimode_integral_pipeline_equals_full_build():
    # integrating mode by mode with interleaved measures equals building the
    # complete integrand first
    ctx = make_context(2)
    alg = PGAlgebra(ctx, 2)
    rng = random.Random(2)
    poly = alg.zero()
    for _ in range(6):
        poly = poly + alg.monomial(
            {
                ("theta", 1): rng.randint(0, 2),
                ("tbar", 1): rng.randint(0, 2),
                ("theta", 2): rng.randint(0, 2),
                ("tbar", 2): rng.randint(0, 2),
            },
            Fraction(rng.randint(-2, 2)),
        )
    full = measure_poly(alg, 1) * (measure_poly(alg, 2) * poly)
    expected = integrate_all(full)
    staged = poly
    from pga.integration import integrate_mode

    for i in (1, 2):
        staged = measure_poly(alg, i) * staged
        staged = integrate_mode(staged, i)
    assert staged.constant() == expected
