"""Quantum-group generator quadruples and their relation set."""

import dataclasses
import random
from fractions import Fraction

import pytest

from pga import errors
from pga.opmatrix import OpMatrix
from pga.qarith import make_context
from pga.qgroup import build_glq2, build_slq2, check_glq2_relations


def test_grassmann_case_explicitly():
    ctx = make_context(1)  # q = -1, q**(1/2) = i
    rep = build_glq2(ctx, Fraction(1, 2), 1, 1)
    qh = ctx.q_half_power(1)
    assert rep.a @ rep.b == (rep.b @ rep.a).scale(qh)
    assert rep.b @ rep.c == rep.c @ rep.b
    assert rep.qdet == -ctx.q_half_power(-1)


@pytest.mark.parametrize("p", range(1, 6))
@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(1)])
def test_relation_sweep(p, alpha):
    rng = random.Random(100 * p + int(2 * alpha))
    ctx = make_context(p)
    for _ in range(2):
        beta = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        gamma = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        rep = build_glq2(ctx, alpha, beta, gamma)
        checks = check_glq2_relations(rep)
        assert all(c["passed"] for c in checks), [
            c["name"] for c in checks if not c["passed"]
        ]


def test_qdet_value_and_centrality():
    ctx = make_context(3)
    rep = build_glq2(ctx, Fraction(1), Fraction(2), Fraction(3, 2))
    assert rep.qdet == -ctx.q_half_power(-1) * rep.beta * rep.gamma
    ident = OpMatrix.identity(ctx, 4).scale(rep.qdet)
    for mat in (rep.a, rep.b, rep.c, rep.d):
        assert ident @ mat == mat @ ident


def test_sl_constraint():
    ctx = make_context(2)
    rep = build_slq2(ctx, Fraction(1, 2), 1)
    assert rep.gamma == -ctx.q_half_power(1)
    assert rep.qdet == ctx.one
    rep2 = build_slq2(ctx, Fraction(1, 2), 2)
    assert rep2.qdet == ctx.one
    assert all(c["passed"] for c in check_glq2_relations(rep2))


def test_zero_parameters_rejected():
    ctx = make_context(2)
    with pytest.raises(errors.ZeroParameter):
        build_glq2(ctx, Fraction(1, 2), 0, 1)
    with pytest.raises(errors.ZeroParameter):
        build_glq2(ctx, Fraction(1, 2), 1, 0)
    with pytest.raises(errors.ZeroParameter):
        build_slq2(ctx, Fraction(1, 2), 0)


def test_alpha_must_be_half_integer():
    with pytest.raises(ValueError):
        build_glq2(make_context(2), Fraction(1, 3), 1, 1)


def test_perturbed_d_fails_commutator_relation():
    ctx = make_context(2)
    rep = build_glq2(ctx, Fraction(1, 2), 1, 1)
    broken = dataclasses.replace(
        rep, d=rep.d + OpMatrix.unit(ctx, ctx.p + 1, 0, 0)
    )
    checks = check_glq2_relations(broken)
    failed = {c["name"] for c in checks if not c["passed"]}
    assert any("[a, d]" in name for name in failed)


@pytest.mark.parametrize("p", (1, 2, 3))
def test_perturbed_d_breaks_qdet_centrality(p):
    # the quantum determinant is rebuilt from the generators, so a tampered d
    # must show up in the centrality checks, not only in [a, d]
    ctx = make_context(p)
    rep = build_glq2(ctx, Fraction(1, 2), 1, 1)
    broken = dataclasses.replace(rep, d=rep.d + OpMatrix.unit(ctx, p + 1, 1, 0))
    failed = {c["name"] for c in check_glq2_relations(broken) if not c["passed"]}
    assert {"qdet commutes with a", "qdet commutes with d"} <= failed
