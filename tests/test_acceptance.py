"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; exact means exact.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np

from pga.cli import main as cli_main
from pga.dynamics import (
    build_hamiltonian,
    coherent_state_check,
    discretized_propagator,
    exact_propagator,
    hermiticity_check,
    resolution_of_identity,
)
from pga.integration import (
    CoeffMatrix,
    IntegralNormalization,
    convolve_via_integral,
    expq_addition_check,
    integral_via_derivatives,
    pairing_integral,
)
from pga.multimode import (
    PGAlgebra,
    all_passed,
    build_multimode,
    check_relations,
    poly_matrix,
    word_matrix,
)
from pga.opmatrix import OpMatrix
from pga.potts import PottsInstance, z_bruteforce, z_closed, z_paragrassmann, z_transfer
from pga.qarith import make_context
from pga.qgroup import build_slq2, build_glq2, check_glq2_relations
from pga.single_mode import build_rep


def _report(criterion: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}")
    assert passed, criterion


def test_criterion_1_potts_four_route_agreement():
    start = time.monotonic()
    ok = True
    for p in (1, 2, 3):
        for n in (2, 3, 4, 5):
            for x in (Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)):
                inst = PottsInstance(p, n, x)
                zc = z_closed(inst)
                ok = ok and z_transfer(inst) == zc
                ok = ok and z_bruteforce(inst) == zc
                ok = ok and z_paragrassmann(inst) == zc
    ok = ok and z_closed(PottsInstance(1, 2, Fraction(2))) == 10
    ok = ok and z_closed(PottsInstance(2, 3, Fraction(2))) == 66
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(
        f"criterion 1: four-route agreement, p<=3, N<=5, four x values ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_relation_suites():
    ok = True
    # single-mode relations with random betas, p <= 6
    rng = random.Random(2024)
    for p in range(1, 7):
        ctx = make_context(p)
        betas = [
            Fraction(rng.choice([x for x in range(-4, 5) if x]), rng.randint(1, 3))
            for _ in range(p)
        ]
        rep = build_rep(ctx, betas)
        ident = OpMatrix.identity(ctx, p + 1)
        ok = ok and rep.partial @ rep.theta == ident + (rep.theta @ rep.partial).scale(ctx.q)
        ok = ok and (rep.theta ** (p + 1)).is_zero() and not (rep.theta**p).is_zero()
        for i in range(1, p + 1):
            lhs = rep.partial @ (rep.theta**i)
            rhs = (rep.theta ** (i - 1)).scale(ctx.q_number(i)) + (
                (rep.theta**i) @ rep.partial
            ).scale(ctx.q_power(i))
            ok = ok and lhs == rhs
        ok = ok and rep.g == rep.partial @ rep.theta - rep.theta @ rep.partial
    # many-mode relation table
    for p, modes in ((1, 2), (2, 2), (3, 2), (2, 3)):
        ok = ok and all_passed(check_relations(build_multimode(make_context(p), modes)))
    # two-variable calculus at N=1
    ctx = make_context(2)
    rep1 = build_multimode(ctx, 1)
    t, b = rep1.theta_ops[0], rep1.tbar_ops[0]
    d, db = rep1.partial_ops[0], rep1.pbar_ops[0]
    ok = ok and d @ b == (b @ d).scale(ctx.q)
    ok = ok and db @ d == (d @ db).scale(ctx.q)
    # negative control: identical sign vectors must break the table (p >= 2;
    # at p = 1 the flip is invisible because q = -1 is its own inverse)
    same = ((1, -1), (1, -1))
    flipped = build_multimode(make_context(2), 2, a_vectors=same, b_vectors=same)
    ok = ok and not all_passed(check_relations(flipped))
    _report("criterion 2: algebra relation suites + negative control", ok)


def test_criterion_3_integral_calculus():
    ok = True
    # pairing table, exhaustive p <= 4
    for p in range(1, 5):
        ctx = make_context(p)
        for n in range(p + 1):
            for m in range(p + 1):
                f = [0] * n + [1] + [0] * (p - n)
                g = [0] * m + [1] + [0] * (p - m)
                want = ctx.q_factorial(n) if n == m else ctx.zero
                ok = ok and pairing_integral(ctx, f, g) == want
    # split independence across three factorizations
    rng = random.Random(3)
    for p in (1, 2, 3):
        ctx = make_context(p)
        top = ctx.q_factorial(p)
        f = [Fraction(rng.randint(-3, 3)) for _ in range(p + 1)]
        g = [Fraction(rng.randint(-3, 3)) for _ in range(p + 1)]
        values = set()
        for xp, xbp in ((top, ctx.one), (ctx.one, top), (ctx.q, ctx.q_power(-1) * top)):
            values.add(pairing_integral(ctx, f, g, IntegralNormalization(xp, xbp)))
        ok = ok and len(values) == 1
    # derivative-operator route equals the pairing route on all monomials
    for p in (1, 2, 3):
        ctx = make_context(p)
        for n in range(p + 1):
            for m in range(p + 1):
                f = [0] * n + [1] + [0] * (p - n)
                g = [0] * m + [1] + [0] * (p - m)
                ok = ok and integral_via_derivatives(ctx, f, g) == pairing_integral(ctx, f, g)
    # convolution vs coefficient product on 100 random pairs
    for k in range(100):
        p = (k % 3) + 1
        ctx = make_context(p)
        d = p + 1
        f1 = CoeffMatrix(
            ctx,
            [[ctx.from_rational(Fraction(rng.randint(-2, 2))) for _ in range(d)] for _ in range(d)],
        )
        f2 = CoeffMatrix(
            ctx,
            [[ctx.from_rational(Fraction(rng.randint(-2, 2))) for _ in range(d)] for _ in range(d)],
        )
        ok = ok and convolve_via_integral(f1, f2) == f1 @ f2
    _report("criterion 3: pairing table, splits, derivative route, convolution", ok)


def test_criterion_4_factorial_identity_and_delta_sum():
    ok = True
    for p in range(1, 7):
        ctx = make_context(p)
        top = ctx.q_factorial(p)
        for n in range(p + 1):
            rhs = (
                (-1) ** n
                * ctx.q_power(-(n * (n + 1)) // 2)
                * ctx.q_factorial(n)
                * ctx.q_factorial(p - n)
            )
            ok = ok and top == rhs
        for k in range(p + 1):
            acc = ctx.zero
            for sigma in range(p + 1):
                acc = acc + ctx.q_power(k * sigma)
            ok = ok and acc == (p + 1 if k == 0 else 0)
    _report("criterion 4: factorial splitting identity and delta expansion, p<=6", ok)


def test_criterion_5_expq_addition_law():
    ok = all(all_passed(expq_addition_check(make_context(p))) for p in range(1, 5))
    _report("criterion 5: q-exponential addition law, p<=4", ok)


def test_criterion_6_completeness_and_coherent_states():
    ok = True
    rng = random.Random(6)
    for p in range(1, 6):
        ctx = make_context(p)
        betas = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(p)]
        ok = ok and all_passed(resolution_of_identity(build_rep(ctx, betas)))
    for p in range(1, 4):
        ok = ok and all_passed(coherent_state_check(build_rep(make_context(p))))
    _report("criterion 6: resolution of identity p<=5, coherent states p<=3", ok)


def test_criterion_7_heat_kernel():
    ok = True
    ctx = make_context(2)
    ham = build_hamiltonian(ctx, (0.0, 1.0, 1.0))
    exact = exact_propagator(ham, 1.0)
    errs = []
    for steps in (16, 32, 64, 128):
        d = discretized_propagator(ham, 1.0, steps, kernel="euler")
        errs.append(float(max(abs(d - exact))))
    ok = ok and all(b < a for a, b in zip(errs, errs[1:]))
    ok = ok and all(b / a <= 0.75 for a, b in zip(errs, errs[1:]))
    # constant-coefficient case is exact for any step count
    ham0 = build_hamiltonian(ctx, (0.9, 0.0, 0.0))
    target = np.exp(1j * 1.7 * 0.9)
    for steps in (1, 7, 40):
        d = discretized_propagator(ham0, 1.7, steps)
        ok = ok and float(max(abs(d - target))) <= 1e-12
    # hermiticity at 1e-12 for real coefficients
    for h in ((0.0, 1.0, 1.0), (2.0, 0.5, 1.5)):
        ok = ok and all_passed(hermiticity_check(build_hamiltonian(ctx, h), tol=1e-12))
    _report("criterion 7: heat-kernel convergence, exact phases, hermiticity", ok)


def test_criterion_8_quantum_group():
    ok = True
    rng = random.Random(8)
    for p in range(1, 6):
        ctx = make_context(p)
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
            beta = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            gamma = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            rep = build_glq2(ctx, alpha, beta, gamma)
            ok = ok and all(c["passed"] for c in check_glq2_relations(rep))
        sl = build_slq2(ctx, Fraction(1, 2), Fraction(rng.randint(1, 4)))
        ok = ok and sl.qdet == ctx.one
    # negative control
    import dataclasses

    ctx = make_context(2)
    rep = build_glq2(ctx, Fraction(1, 2), 1, 1)
    broken = dataclasses.replace(rep, d=rep.d + OpMatrix.unit(ctx, 3, 0, 0))
    ok = ok and not all(c["passed"] for c in check_glq2_relations(broken))
    _report("criterion 8: quantum-group relations p<=5, SL constraint, control", ok)


def test_criterion_9_cli_determinism(capsys):
    ok = True
    for argv in (
        ["potts", "--p", "2", "--sites", "3", "--x", "2", "--method", "all", "--exact"],
        ["verify", "--p", "1", "--modes", "2", "--seed", "0"],
        ["qgroup", "--p", "2", "--alpha", "1/2", "--beta", "2", "--sl"],
    ):
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        second = capsys.readouterr().out
        ok = ok and first == second and first
        json.loads(first)  # well-formed
    with capsys.disabled():
        _report("criterion 9: CLI byte-identical reruns", ok)
