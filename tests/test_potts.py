"""Potts chain: route agreement, transfer spectrum, delta expansion."""

from fractions import Fraction

import pytest

from pga import errors
from pga.potts import (
    PottsInstance,
    delta_expansion_check,
    transfer_matrix,
    transfer_weights,
    z_bruteforce,
    z_closed,
    z_paragrassmann,
    z_transfer,
)
from pga.qarith import make_context


def test_transfer_coefficients():
    inst = PottsInstance(2, 3, Fraction(2))
    t = transfer_weights(inst)
    assert t[0] == Fraction(4, 3)
    assert t[1] == t[2] == Fraction(1, 3)
    assert (inst.p + 1) * t[0] == inst.p + inst.x


def test_closed_form_spots():
    assert z_closed(PottsInstance(1, 3, Fraction(1))) == 8
    assert z_closed(PottsInstance(1, 2, Fraction(2))) == 10
    assert z_closed(PottsInstance(2, 3, Fraction(2))) == 66
    assert z_closed(PottsInstance(3, 4, Fraction(3))) == 1344


def test_transfer_matrix_form():
    inst = PottsInstance(1, 2, Fraction(3))
    v = transfer_matrix(inst)
    assert v == [[3, 1], [1, 3]]
    assert z_transfer(inst) == 2 * 9 + 2


def test_transfer_eigenstructure():
    # one eigenvalue x+p (uniform vector), p eigenvalues x-1 (differences)
    inst = PottsInstance(3, 2, Fraction(5, 2))
    v = transfer_matrix(inst)
    d = inst.p + 1
    ones = [Fraction(1)] * d
    out = [sum(v[i][j] * ones[j] for j in range(d)) for i in range(d)]
    assert out == [(inst.x + inst.p) * w for w in ones]
    for j in range(1, d):
        vec = [Fraction(0)] * d
        vec[0], vec[j] = Fraction(1), Fraction(-1)
        out = [sum(v[i][k] * vec[k] for k in range(d)) for i in range(d)]
        assert out == [(inst.x - 1) * w for w in vec]


def test_bruteforce_spots():
    assert z_bruteforce(PottsInstance(1, 2, Fraction(2))) == 10
    assert z_bruteforce(PottsInstance(2, 4, Fraction(1))) == 81
    assert z_bruteforce(PottsInstance(3, 4, Fraction(3))) == 1344


def test_bruteforce_cap():
    with pytest.raises(errors.TooLarge):
        z_bruteforce(PottsInstance(5, 12, Fraction(2)))


def test_integral_route_spots():
    assert z_paragrassmann(PottsInstance(1, 2, Fraction(2))) == 10
    assert z_paragrassmann(PottsInstance(2, 3, Fraction(2))) == 66
    # x = 1 kills every off-diagonal weight, leaving (p+1)**N
    assert z_paragrassmann(PottsInstance(2, 3, Fraction(1))) == 27


def test_integral_route_requires_exact():
    with pytest.raises(ValueError):
        z_paragrassmann(PottsInstance(2, 3, 2.0))


def test_integral_route_term_cap():
    with pytest.raises(errors.DimensionCap):
        z_paragrassmann(PottsInstance(2, 3, Fraction(2)), term_cap=10)


def test_integral_route_cyclic_relabeling():
    inst = PottsInstance(2, 3, Fraction(5, 2))
    base = z_paragrassmann(inst)
    for shift in (1, 2):
        assert z_paragrassmann(inst, shift=shift) == base


def test_integral_route_long_chains():
    # chains whose full (p+1)**N-term expansion was out of reach
    for p, n in ((1, 40), (3, 12), (6, 6)):
        inst = PottsInstance(p, n, Fraction(7, 3))
        assert z_paragrassmann(inst, term_cap=(p + 1) ** n) == z_closed(inst)
    inst = PottsInstance(3, 12, Fraction(5, 2))
    assert z_paragrassmann(inst, term_cap=4**12, shift=5) == z_closed(inst)


@pytest.mark.parametrize("p", (1, 2))
@pytest.mark.parametrize("n", (2, 3))
def test_level_sum_form(p, n):
    # Z = (p+1)**N (t_0**N + p t_1**N)
    inst = PottsInstance(p, n, Fraction(7, 3))
    t = transfer_weights(inst)
    assert z_closed(inst) == (p + 1) ** n * (t[0] ** n + p * t[1] ** n)
    assert t[0] + p * t[1] == inst.x


def test_float_mode_three_routes():
    import math

    inst = PottsInstance(2, 3, math.e)
    zc = z_closed(inst)
    assert abs(z_transfer(inst) - zc) <= 1e-10 * abs(zc)
    assert abs(z_bruteforce(inst) - zc) <= 1e-10 * abs(zc)


def test_instance_validation():
    with pytest.raises(ValueError):
        PottsInstance(0, 3, Fraction(2))
    with pytest.raises(ValueError):
        PottsInstance(2, 1, Fraction(2))
    with pytest.raises(ValueError):
        PottsInstance(2, 3, -1.0)
    with pytest.raises(ValueError):
        PottsInstance(2, 3, Fraction(0))
    with pytest.raises(ValueError):
        PottsInstance(2, 3, Fraction(-1))
    with pytest.raises(ValueError):
        PottsInstance(2, 3, float("nan"))


@pytest.mark.parametrize("p", (1, 2, 3))
def test_delta_expansion(p):
    checks = delta_expansion_check(make_context(p))
    assert all(c["passed"] for c in checks)
    assert len(checks) == (p + 1) ** 2


def test_delta_expansion_specific_sums():
    # off-diagonal: full geometric sums of the primitive root vanish
    ctx2 = make_context(2)
    assert ctx2.one + ctx2.q + ctx2.q_power(2) == 0
    ctx3 = make_context(3)
    acc = ctx3.zero
    for m in range(4):
        acc = acc + ctx3.q_power(2 * m)
    assert acc == 0
