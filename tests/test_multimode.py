"""Tensor representations, the reordering table, and the symbolic engine."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pga import errors
from pga.multimode import (
    PGAlgebra,
    all_passed,
    build_multimode,
    check_relations,
    poly_matrix,
    word_matrix,
)
from pga.opmatrix import OpMatrix
from pga.qarith import make_context
from pga.single_mode import build_rep


def symbols(modes):
    return [(k, m) for m in range(1, modes + 1) for k in ("theta", "tbar")]


def words(modes, max_len=5):
    return st.lists(
        st.sampled_from(symbols(modes)), min_size=0, max_size=max_len
    )


# ---------------------------------------------------------------------------
# matrix construction


def test_single_mode_cores():
    ctx = make_context(2)
    rep = build_multimode(ctx, 1)
    s = build_rep(ctx)
    one = OpMatrix.identity(ctx, 3)
    assert rep.theta_ops[0] == s.theta.kron(one)
    assert rep.tbar_ops[0] == s.g.kron(s.theta)
    assert rep.partial_ops[0] == s.partial.kron(one)
    assert rep.pbar_ops[0] == s.g_inv.kron(s.partial)


def test_plane_relation_p1():
    ctx = make_context(1)
    rep = build_multimode(ctx, 1)
    t, b = rep.theta_ops[0], rep.tbar_ops[0]
    assert b @ t == (t @ b).scale(ctx.q)


@pytest.mark.parametrize("p,modes", [(1, 2), (2, 1), (2, 2), (3, 2)])
def test_relation_table(p, modes):
    rep = build_multimode(make_context(p), modes)
    checks = check_relations(rep)
    assert all_passed(checks), [c["name"] for c in checks if not c["passed"]]


def test_relation_table_2_3_within_cap():
    rep = build_multimode(make_context(2), 3)
    assert all_passed(check_relations(rep))


def test_plane_derivative_relations_n1():
    # the four cross relations of the two-variable calculus at N=1
    ctx = make_context(2)
    rep = build_multimode(ctx, 1)
    t, b = rep.theta_ops[0], rep.tbar_ops[0]
    d, db = rep.partial_ops[0], rep.pbar_ops[0]
    q = ctx.q
    assert d @ b == (b @ d).scale(q)
    assert db @ t == (t @ db).scale(ctx.q_power(-1))
    assert db @ d == (d @ db).scale(q)
    ident = OpMatrix.identity(ctx, rep.dim)
    assert db @ b == ident + (b @ db).scale(q)


def test_flipped_sign_convention_fails_for_p_ge_2():
    ctx = make_context(2)
    same = ((1, -1), (1, -1))
    rep = build_multimode(ctx, 2, a_vectors=same, b_vectors=same)
    assert not all_passed(check_relations(rep))


def test_flipped_sign_convention_degenerates_at_p1():
    # q = -1 equals its own inverse, so the wrong pairing is invisible there
    ctx = make_context(1)
    same = ((1, -1), (1, -1))
    rep = build_multimode(ctx, 2, a_vectors=same, b_vectors=same)
    assert all_passed(check_relations(rep))


def test_dimension_cap():
    with pytest.raises(errors.DimensionCap):
        build_multimode(make_context(2), 4)  # 3**8 = 6561 > 4096
    with pytest.raises(errors.WrongLength):
        build_multimode(make_context(1), 2, a_vectors=((1, -1),))


# ---------------------------------------------------------------------------
# symbolic engine


def test_normal_order_cross_mode_example():
    ctx = make_context(2)
    alg = PGAlgebra(ctx, 2)
    out = alg.normal_order([("tbar", 2), ("theta", 1)])
    assert out.coefficient({("theta", 1): 1, ("tbar", 2): 1}) == ctx.q_power(-1)
    assert len(out.terms) == 1


def test_normal_order_nilpotency():
    alg = PGAlgebra(make_context(2), 1)
    word = [("theta", 1)] * 3
    assert alg.normal_order(word).is_zero()


def test_normal_order_same_symbol_is_degenerate():
    # eps_ii + delta_ii = 0: reordering theta_i theta_i is the identity
    ctx = make_context(3)
    alg = PGAlgebra(ctx, 1)
    out = alg.normal_order([("theta", 1), ("theta", 1)])
    assert out.coefficient({("theta", 1): 2}) == ctx.one


def test_normal_order_rejects_derivatives():
    alg = PGAlgebra(make_context(1), 1)
    for sym in [("partial", 1), (0, 1)]:
        with pytest.raises(errors.UnsupportedSymbol):
            alg.normal_order([sym])


@pytest.mark.parametrize("mode", [0, 3])
def test_out_of_range_mode_rejected_by_both_routes(mode):
    ctx = make_context(2)
    rep = build_multimode(ctx, 2)
    alg = PGAlgebra(ctx, 2)
    word = [("theta", mode)]
    with pytest.raises(ValueError, match=f"mode {mode} out of range 1..2"):
        alg.normal_order(word)
    with pytest.raises(ValueError, match=f"mode {mode} out of range 1..2"):
        word_matrix(rep, word)


@pytest.mark.parametrize("p,modes", [(1, 2), (2, 2)])
def test_word_agreement_exhaustive(p, modes):
    ctx = make_context(p)
    rep = build_multimode(ctx, modes)
    alg = PGAlgebra(ctx, modes)
    syms = symbols(modes)
    for length in range(0, 2 * p + 1):
        for word in itertools.product(syms, repeat=length):
            ordered = alg.normal_order(word)
            assert poly_matrix(rep, ordered) == word_matrix(rep, word), word


@pytest.mark.parametrize("p,modes", [(3, 2), (1, 3)])
def test_word_agreement_random(p, modes):
    ctx = make_context(p)
    rep = build_multimode(ctx, modes)
    alg = PGAlgebra(ctx, modes)
    rng = random.Random(7)
    syms = symbols(modes)
    for _ in range(25):
        word = [rng.choice(syms) for _ in range(rng.randint(1, 6))]
        ordered = alg.normal_order(word)
        assert poly_matrix(rep, ordered) == word_matrix(rep, word), word


@given(w1=words(2), w2=words(2))
def test_monomial_product_matches_word_concatenation(w1, w2):
    alg = PGAlgebra(make_context(2), 2)
    assert alg.normal_order(w1) * alg.normal_order(w2) == alg.normal_order(w1 + w2)


@given(w1=words(2, 3), w2=words(2, 3), w3=words(2, 3))
def test_product_associativity(w1, w2, w3):
    alg = PGAlgebra(make_context(2), 2)
    a, b, c = (alg.normal_order(w) for w in (w1, w2, w3))
    s = a + b
    assert (s * c) * a == s * (c * a)


def test_polynomial_ring_basics():
    ctx = make_context(2)
    alg = PGAlgebra(ctx, 1)
    t = alg.theta(1)
    b = alg.tbar(1)
    poly = 2 * t + b * t
    assert poly.coefficient({("theta", 1): 1}) == 2
    # b t reorders to q t b
    assert poly.coefficient({("theta", 1): 1, ("tbar", 1): 1}) == ctx.q
    assert (poly - poly).is_zero()
    assert (t ** 3).is_zero()
    assert alg.one().constant() == 1
