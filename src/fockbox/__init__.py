"""fockbox: normal-ordered Coulomb interactions for the Dirac field on
truncated Fock spaces in a periodic box."""

from .algebra import (
    Ladder,
    OperatorExpr,
    Term,
    adjoint,
    canonicalize,
    multiply,
    normal_order_prescription,
    vacuum_expectation,
    wick_reorder,
)
from .fock import (
    Sector,
    SparseOperator,
    enumerate_basis,
    evolve,
    expectation,
    ground_state,
    to_matrix,
)
from .model import (
    ModelConfig,
    bad_electron_term,
    coulomb_full,
    coulomb_kernel,
    coulomb_partial,
    coulomb_pieces,
    dispersion,
    free_hamiltonian,
    modes_for,
)
from .modes import Mode, ModeSet, Species
from .optext import parse_expr, print_expr

__version__ = "0.1.0"

__all__ = [
    "Ladder",
    "OperatorExpr",
    "Term",
    "Mode",
    "ModeSet",
    "Species",
    "ModelConfig",
    "Sector",
    "SparseOperator",
    "adjoint",
    "bad_electron_term",
    "canonicalize",
    "coulomb_full",
    "coulomb_kernel",
    "coulomb_partial",
    "coulomb_pieces",
    "dispersion",
    "enumerate_basis",
    "evolve",
    "expectation",
    "free_hamiltonian",
    "ground_state",
    "modes_for",
    "multiply",
    "normal_order_prescription",
    "parse_expr",
    "print_expr",
    "to_matrix",
    "vacuum_expectation",
    "wick_reorder",
]
