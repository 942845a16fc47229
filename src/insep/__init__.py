"""Detection of n-qubit full (n-partite) inseparability of density operators.

Two one-sided criterion families are provided: off-diagonal magnitude bounds
keyed to the Hamming distance between basis indices, and negativity of the
operator after partial application of positive single-qubit maps, chiefly
the population-averaging map P.
"""

from .criteria import (
    TOL_CRIT,
    Criterion,
    DetectionReport,
    EigenvalueWitness,
    OffDiagonalWitness,
    Verdict,
    equal_argument_check,
    hamming_offdiagonal_check,
    lemma1_bound_check,
    lemma2_witness_value,
    lz_antidiagonal_check,
    map_negativity_check,
)
from .linalg import (
    MAX_QUBITS,
    TOL_HERM,
    TOL_PSD,
    TOL_TRACE,
    BlochVector,
    DensityOperator,
    HermitianOperator,
    bloch_from_density,
    density_from_bloch,
    hamming,
    min_eigenvalue,
    tensor,
)
from .maps import (
    MapKind,
    MapSpec,
    apply_on_qubit,
    apply_on_qubit_dense,
    apply_product,
    lambda_p,
)
from .states import (
    Bell,
    bell_ket,
    bell_state,
    ghz,
    horodecki_b,
    isotropic,
    mixture_rng,
    product_state,
    pure_superposition,
    random_bloch,
    random_multiseparable,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "Bell",
    "Criterion",
    "DensityOperator",
    "DetectionReport",
    "EigenvalueWitness",
    "HermitianOperator",
    "MapKind",
    "MapSpec",
    "MAX_QUBITS",
    "OffDiagonalWitness",
    "TOL_CRIT",
    "TOL_HERM",
    "TOL_PSD",
    "TOL_TRACE",
    "Verdict",
    "apply_on_qubit",
    "apply_on_qubit_dense",
    "apply_product",
    "bell_ket",
    "bell_state",
    "bloch_from_density",
    "density_from_bloch",
    "equal_argument_check",
    "ghz",
    "hamming",
    "hamming_offdiagonal_check",
    "horodecki_b",
    "isotropic",
    "lambda_p",
    "lemma1_bound_check",
    "lemma2_witness_value",
    "lz_antidiagonal_check",
    "map_negativity_check",
    "min_eigenvalue",
    "mixture_rng",
    "product_state",
    "pure_superposition",
    "random_bloch",
    "random_multiseparable",
    "tensor",
]
