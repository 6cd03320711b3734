"""Heat kernels, propagator convergence, coherent-state identities."""

import random
from fractions import Fraction

import numpy as np
import pytest

from pga import errors
from pga.dynamics import (
    build_hamiltonian,
    coherent_state_check,
    compose_steps_via_integral,
    discretized_propagator,
    exact_propagator,
    hermiticity_check,
    resolution_of_identity,
    step_kernel,
    step_phases,
)
from pga.multimode import all_passed
from pga.opmatrix import OpMatrix
from pga.qarith import make_context
from pga.single_mode import build_rep


def test_hamiltonian_is_diagonal_with_real_energies():
    ctx = make_context(2)
    ham = build_hamiltonian(ctx, (0.0, 1.0, 1.0))
    off = ham.matrix - np.diag(np.diag(ham.matrix))
    assert np.max(np.abs(off)) == 0
    assert np.max(np.abs(ham.energies.imag)) < 1e-12
    assert np.allclose(ham.energies.real, [0.0, 1.0, 2.0])


def test_hamiltonian_validation():
    ctx = make_context(2)
    with pytest.raises(errors.WrongLength):
        build_hamiltonian(ctx, (1.0,))
    with pytest.raises(errors.UnsupportedRoot):
        build_hamiltonian(make_context(4, root_index=2), (1.0,) * 5)


def test_exact_propagator():
    ctx = make_context(2)
    ham = build_hamiltonian(ctx, (1.0, 0.0, 0.0))
    assert np.allclose(exact_propagator(ham, 0.0), 1)
    assert np.allclose(exact_propagator(ham, np.pi), -1)
    for t in (0.3, 1.7, 12.0):
        assert np.allclose(np.abs(exact_propagator(ham, t)), 1)


def test_step_phases_match_energies():
    for p, h in [(2, (0.0, 1.0, 0.0)), (2, (0.0, 1.0, 1.0)), (3, (0.5, 1.0, 0.25, 2.0))]:
        ham = build_hamiltonian(make_context(p), h)
        assert np.max(np.abs(step_phases(ham) - ham.energies)) < 1e-9


def test_step_kernel_examples():
    ctx = make_context(2)
    ham = build_hamiltonian(ctx, (0.7, 0.0, 0.0))
    k = step_kernel(ham, 0.25)
    assert np.allclose(k, np.exp(1j * 0.25 * 0.7))
    assert np.allclose(step_kernel(ham, 0.0), 1)
    assert np.allclose(np.abs(step_kernel(ham, 3.0)), 1)
    # the opposite sign convention is the complex conjugate
    assert np.allclose(step_kernel(ham, 0.25, sign=-1), k.conj())


def test_discretized_single_step_is_the_kernel():
    ham = build_hamiltonian(make_context(2), (0.0, 1.0, 1.0))
    assert np.allclose(
        discretized_propagator(ham, 0.8, 1), step_kernel(ham, 0.8)
    )


def test_constant_hamiltonian_exact_for_any_steps():
    ham = build_hamiltonian(make_context(3), (1.3, 0.0, 0.0, 0.0))
    target = np.exp(1j * 2.0 * 1.3)
    for steps in (1, 3, 10, 57):
        d = discretized_propagator(ham, 2.0, steps)
        assert np.max(np.abs(d - target)) < 1e-12


def test_euler_kernel_first_order_convergence():
    ham = build_hamiltonian(make_context(2), (0.0, 1.0, 1.0))
    exact = exact_propagator(ham, 1.0)
    errs = []
    for steps in (16, 32, 64, 128):
        d = discretized_propagator(ham, 1.0, steps, kernel="euler")
        errs.append(float(max(abs(d - exact))))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert all(b / a <= 0.75 for a, b in zip(errs, errs[1:]))


def test_kernel_name_validation():
    ham = build_hamiltonian(make_context(1), (1.0, 0.0))
    with pytest.raises(ValueError):
        discretized_propagator(ham, 1.0, 4, kernel="magic")
    with pytest.raises(ValueError):
        discretized_propagator(ham, 1.0, 0)


@pytest.mark.parametrize("p", (1, 2))
def test_composition_through_the_integral(p):
    h = tuple(float(k) for k in range(p + 1))
    ham = build_hamiltonian(make_context(p), h)
    composed = compose_steps_via_integral(ham, 0.2)
    expected = step_kernel(ham, 0.2) ** 2
    assert np.max(np.abs(composed - expected)) < 1e-12


def test_hermiticity():
    ctx = make_context(2)
    assert all_passed(hermiticity_check(build_hamiltonian(ctx, (1.0, 1.0, 0.0))))
    assert all_passed(hermiticity_check(build_hamiltonian(ctx, (0.0, 1.0, 0.0))))
    bad = build_hamiltonian(ctx, (0.0, 1.0 + 0.4j, 0.0))
    assert not all_passed(hermiticity_check(bad))


# ---------------------------------------------------------------------------
# coherent states (exact)


@pytest.mark.parametrize("p", range(1, 6))
def test_resolution_of_identity_random_betas(p):
    rng = random.Random(p * 13)
    ctx = make_context(p)
    betas = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(p)]
    report = resolution_of_identity(build_rep(ctx, betas))
    assert all_passed(report), report


def test_resolution_of_identity_other_xi():
    # the grading constant cancels on the surviving diagonal
    rep = build_rep(make_context(2))
    assert all_passed(resolution_of_identity(rep, xi=2))


def test_zeroth_completeness_term_is_the_vacuum_projector():
    ctx = make_context(3)
    rep = build_rep(ctx)
    e00 = OpMatrix.unit(ctx, 4, 0, 0)
    term = (rep.theta**0) @ e00 @ (rep.partial**0)
    assert term == e00


@pytest.mark.parametrize("p", (1, 2, 3))
def test_coherent_state_eigen_properties(p):
    rng = random.Random(p + 5)
    ctx = make_context(p)
    betas = [Fraction(rng.randint(1, 3)) for _ in range(p)]
    for rep in (build_rep(ctx), build_rep(ctx, betas)):
        assert all_passed(coherent_state_check(rep))
