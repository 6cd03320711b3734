"""Nilpotent q-oscillator algebras at roots of unity, exactly.

Builds the p+1 dimensional ladder representations of the deformed oscillator
pair, their many-mode tensor extensions, a generalized Berezin integral with
the q-exponential measure, and three applications: the closed Potts chain
partition function (four independent routes), discretized heat kernels on the
nilpotent configuration space, and finite-dimensional quantum-group
representations.  All algebraic statements are verified in exact cyclotomic
arithmetic; floats appear only where time evolution makes them unavoidable.
"""

from .qarith import CycloContext, CycloElement, cyclotomic_polynomial, make_context
from .opmatrix import OpMatrix
from .single_mode import (
    SingleModeRep,
    build_rep,
    check_q_oscillator,
    conjugate,
    dagger,
    vacuum_pairing,
)
from .multimode import (
    MultiModeRep,
    PGAlgebra,
    PGPolynomial,
    all_passed,
    build_multimode,
    check_relations,
    poly_matrix,
    word_matrix,
)
from .integration import (
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
    integrate_mode,
    measure,
    measure_poly,
    pairing_integral,
)
from .potts import (
    PottsInstance,
    delta_expansion_check,
    transfer_matrix,
    transfer_weights,
    z_bruteforce,
    z_closed,
    z_paragrassmann,
    z_transfer,
)
from .qgroup import QGroupRep, build_glq2, build_slq2, check_glq2_relations

__version__ = "0.1.0"

# dynamics is the only module that needs numpy, so it loads on first use
_DYNAMICS_NAMES = frozenset({
    "PGHamiltonian",
    "build_hamiltonian",
    "coherent_state_check",
    "compose_steps_via_integral",
    "discretized_propagator",
    "exact_propagator",
    "hermiticity_check",
    "resolution_of_identity",
    "step_kernel",
    "step_phases",
})


def __getattr__(name):
    if name == "dynamics" or name in _DYNAMICS_NAMES:
        import importlib

        dynamics = importlib.import_module(".dynamics", __name__)
        return dynamics if name == "dynamics" else getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
