"""Ladder representation: defining relations, pairings, conjugation."""

import random
from fractions import Fraction

import pytest

from pga import errors
from pga.multimode import all_passed
from pga.opmatrix import OpMatrix
from pga.qarith import make_context
from pga.single_mode import (
    build_rep,
    check_q_oscillator,
    conjugate,
    dagger,
    vacuum_pairing,
)


def random_betas(rng, p):
    return [
        Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 3))
        for _ in range(p)
    ]


def test_grassmann_case_matrices():
    rep = build_rep(make_context(1))
    assert rep.theta.to_dense()[0][0] == 0
    assert rep.theta.entry(1, 0) == 1
    assert rep.theta.entry(0, 1) == 0
    assert rep.partial.entry(0, 1) == 1
    assert rep.partial.entry(1, 0) == 0


def test_grading_diagonal():
    ctx = make_context(2)
    rep = build_rep(ctx)
    for n in range(3):
        assert rep.g.entry(n, n) == ctx.q_power(n)
    assert (rep.g ** 3) == OpMatrix.identity(ctx, 3)


def test_derivative_kills_vacuum():
    for p in (1, 2, 4):
        rep = build_rep(make_context(p))
        assert all(c != 0 for (r, c) in rep.partial.entries)


@pytest.mark.parametrize("p", range(1, 7))
def test_defining_relations_random_betas(p):
    rng = random.Random(p)
    ctx = make_context(p)
    for _ in range(3):
        rep = build_rep(ctx, random_betas(rng, p))
        ident = OpMatrix.identity(ctx, p + 1)
        assert rep.partial @ rep.theta == ident + (rep.theta @ rep.partial).scale(ctx.q)
        assert (rep.theta ** (p + 1)).is_zero()
        assert not (rep.theta ** p).is_zero()
        assert (rep.partial ** (p + 1)).is_zero()
        assert not (rep.partial ** p).is_zero()
        # graded pushing of the derivative through powers
        for i in range(1, p + 1):
            lhs = rep.partial @ (rep.theta ** i)
            rhs = (rep.theta ** (i - 1)).scale(ctx.q_number(i)) + (
                (rep.theta ** i) @ rep.partial
            ).scale(ctx.q_power(i))
            assert lhs == rhs
        # grading automorphism
        assert rep.g @ rep.theta @ rep.g_inv == rep.theta.scale(ctx.q)
        assert rep.g @ rep.partial @ rep.g_inv == rep.partial.scale(ctx.q_power(-1))


@pytest.mark.parametrize("p", range(1, 5))
def test_vacuum_pairing_table_beta_independent(p):
    rng = random.Random(17 + p)
    ctx = make_context(p)
    for _ in range(3):
        rep = build_rep(ctx, random_betas(rng, p))
        for n in range(p + 1):
            for m in range(p + 1):
                want = ctx.q_factorial(n) if n == m else ctx.zero
                assert vacuum_pairing(rep, n, m) == want


def test_vacuum_pairing_examples():
    ctx = make_context(2)
    rep = build_rep(ctx)
    assert vacuum_pairing(rep, 1, 2) == 0
    assert vacuum_pairing(rep, 0, 0) == 1
    assert vacuum_pairing(rep, 2, 2) == ctx.one + ctx.q


def test_vacuum_pairing_range_errors():
    rep = build_rep(make_context(2))
    with pytest.raises(errors.RangeError):
        vacuum_pairing(rep, 3, 1)
    with pytest.raises(errors.RangeError):
        vacuum_pairing(rep, 0, -1)


def test_build_errors():
    ctx = make_context(3)
    with pytest.raises(errors.ZeroBeta):
        build_rep(ctx, [1, 0, 1])
    with pytest.raises(errors.WrongLength):
        build_rep(ctx, [1, 1])


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_grassmann_case():
    rep = build_rep(make_context(1))
    adj = conjugate(rep, "theta")
    assert adj.entry(0, 1) == 1 and adj.entry(1, 0) == 0


@pytest.mark.parametrize("p", (1, 2, 3, 4))
def test_dagger_extends_the_generator_rules(p):
    ctx = make_context(p)
    rng = random.Random(p + 99)
    for betas in (None, random_betas(rng, p)):
        rep = build_rep(ctx, betas)
        assert dagger(rep, rep.theta) == conjugate(rep, "theta")
        assert dagger(rep, rep.partial) == conjugate(rep, "partial")
        # involution and grading conjugation
        assert dagger(rep, dagger(rep, rep.theta)) == rep.theta
        assert dagger(rep, dagger(rep, rep.partial)) == rep.partial
        assert dagger(rep, rep.g) == rep.g_inv
        # antiautomorphism on a product
        prod = rep.theta @ rep.partial
        assert dagger(rep, prod) == dagger(rep, rep.partial) @ dagger(rep, rep.theta)


def test_conjugate_rejects_nonprincipal_roots():
    rep = build_rep(make_context(4, root_index=2))
    with pytest.raises(errors.UnsupportedRoot):
        conjugate(rep, "theta")
    with pytest.raises(errors.UnsupportedRoot):
        dagger(rep, rep.g)


@pytest.mark.parametrize("p", (1, 2, 3))
def test_q_oscillator_form(p):
    rep = build_rep(make_context(p))
    assert all_passed(check_q_oscillator(rep))
