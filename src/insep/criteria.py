"""One-sided inseparability checks and their numeric witnesses.

Every check either returns an INSEPARABLE verdict backed by concrete numeric
evidence (an off-diagonal element exceeding its product-state bound, or a
negative eigenvalue after a positive-map application) or INCONCLUSIVE.
Inconclusive never asserts separability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    TOL_PSD,
    DensityOperator,
    HermitianOperator,
    _psd_certified,
    hamming,
)
from .maps import MapKind, MapSpec, apply_product

# Strict-inequality margin: elements within TOL_CRIT of a bound are treated
# as not exceeding it, so the checks never over-claim.
TOL_CRIT = 1e-9

# The all-pairs scan is O(4^n); cap the dense scan well below the package's
# qubit cap.
FULL_SCAN_MAX_QUBITS = 8


class Verdict(Enum):
    INSEPARABLE = "inseparable"
    INCONCLUSIVE = "inconclusive"


class Criterion(Enum):
    LZ_ANTIDIAGONAL = "lz-antidiagonal"
    HAMMING_OFFDIAGONAL = "hamming-offdiagonal"
    MAP_NEGATIVITY = "map-negativity"


@dataclass(frozen=True)
class OffDiagonalWitness:
    """Element (a, b) whose modulus exceeds the product-state bound 1/2^h(a,b)."""

    a: int
    b: int
    value: complex
    hamming_distance: int
    bound: float

    @property
    def margin(self) -> float:
        return abs(self.value) - self.bound


@dataclass(frozen=True)
class EigenvalueWitness:
    """Negative minimum eigenvalue with its eigenvector."""

    min_eigenvalue: float
    eigenvector: np.ndarray


@dataclass(frozen=True)
class DetectionReport:
    verdict: Verdict
    criterion: Criterion
    witness: OffDiagonalWitness | EigenvalueWitness | None = None
    map_spec: MapSpec | None = None

    def __post_init__(self):
        if self.verdict is Verdict.INSEPARABLE and self.witness is None:
            raise ValueError("an inseparability verdict requires a witness")


def _lower_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair d > a > b in row-major (lexicographic) order.

    Hermiticity makes the upper triangle redundant.
    """
    i = np.arange(d)
    return np.nonzero(i[:, None] > i)


def _best_offdiagonal(matrix: np.ndarray, a: np.ndarray, b: np.ndarray) -> OffDiagonalWitness | None:
    """Largest bound violation |m_ab| - 2^-h(a,b) over the given pairs.

    The pairs come in lexicographic order, so the first maximal margin is the
    smallest (a, b) among ties, which keeps witnesses deterministic.
    """
    h = np.bitwise_count(a ^ b)
    margins = np.abs(matrix[a, b]) - 0.5**h
    k = int(np.argmax(margins))
    if margins[k] <= TOL_CRIT:
        return None
    a, b = int(a[k]), int(b[k])
    return OffDiagonalWitness(
        a=a, b=b, value=complex(matrix[a, b]), hamming_distance=int(h[k]), bound=float(0.5 ** h[k])
    )


def _offdiagonal_report(criterion: Criterion, witness: OffDiagonalWitness | None) -> DetectionReport:
    if witness is None:
        return DetectionReport(Verdict.INCONCLUSIVE, criterion)
    return DetectionReport(Verdict.INSEPARABLE, criterion, witness)


def lz_antidiagonal_check(rho: DensityOperator) -> DetectionReport:
    """Full-split antidiagonal criterion.

    Inseparable if some antidiagonal element (a, 2^n-1-a) has modulus above
    (1/2)^n; product mixtures cannot exceed that bound.
    """
    d = 1 << rho.n_qubits
    a = np.arange(d // 2, d)
    witness = _best_offdiagonal(rho.matrix, a, d - 1 - a)
    return _offdiagonal_report(Criterion.LZ_ANTIDIAGONAL, witness)


def hamming_offdiagonal_check(rho: DensityOperator) -> DetectionReport:
    """General off-diagonal criterion, bound 1/2^h(a,b) per element.

    Subsumes lz_antidiagonal_check (its h = n case). Reports the witness
    maximizing |c_ab| - 1/2^h(a,b) when any margin exceeds TOL_CRIT.
    """
    if rho.n_qubits > FULL_SCAN_MAX_QUBITS:
        raise ValueError(
            f"dense all-pairs scan is capped at {FULL_SCAN_MAX_QUBITS} qubits, got {rho.n_qubits}"
        )
    witness = _best_offdiagonal(rho.matrix, *_lower_pairs(1 << rho.n_qubits))
    return _offdiagonal_report(Criterion.HAMMING_OFFDIAGONAL, witness)


def map_negativity_check(
    rho: DensityOperator, spec: MapSpec, tol: float = TOL_PSD
) -> DetectionReport:
    """Inseparable if the mapped operator has an eigenvalue below -tol.

    Positive single-qubit maps keep product mixtures positive, so negativity
    after partial application rules out a product decomposition. A negative
    tol would call positive operators negative, so tol must be finite and >= 0.
    A shifted-Cholesky certificate of lambda_min >= -3*tol/4 decides
    inconclusive without an eigensolve; otherwise the full eigensystem
    decides, and supplies the witness.
    """
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    sigma = apply_product(rho, spec)
    if not _psd_certified(sigma.matrix, tol):
        w, v = np.linalg.eigh(sigma.matrix)
        if w[0] < -tol:
            witness = EigenvalueWitness(min_eigenvalue=float(w[0]), eigenvector=v[:, 0].copy())
            return DetectionReport(Verdict.INSEPARABLE, Criterion.MAP_NEGATIVITY, witness, spec)
    return DetectionReport(Verdict.INCONCLUSIVE, Criterion.MAP_NEGATIVITY, map_spec=spec)


def lemma2_witness_value(sigma: HermitianOperator, a: int, b: int) -> float:
    """Quadratic form <v|sigma|v> for |v> = |a> - (s_ab*/|s_ab|)|b>.

    Equals s_aa + s_bb - 2|s_ab|; when all diagonal entries are 1/2^n this is
    2(1/2^n - |s_ab|), negative as soon as the element beats 1/2^n.
    """
    if a == b:
        raise ValueError("witness needs two distinct basis indices")
    m = sigma.matrix
    d = m.shape[0]
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"indices ({a}, {b}) out of range for dimension {d}")
    s_ab = m[a, b]
    if s_ab == 0:
        raise ValueError(f"element ({a}, {b}) is zero; witness vector undefined")
    return float((m[a, a] + m[b, b]).real - 2 * abs(s_ab))


def equal_argument_check(
    rho: HermitianOperator, tol_arg: float = 1e-9, zero_tol: float = 1e-12
) -> bool:
    """True iff all nonzero lower-triangle elements share one complex argument.

    Elements with modulus <= zero_tol are exempt (their argument is
    undefined). Phases are compared as angles between complex numbers, so the
    +-pi wraparound is handled.
    """
    c = rho.matrix[_lower_pairs(rho.matrix.shape[0])]
    c = c[np.abs(c) > zero_tol]
    return c.size == 0 or not np.any(np.abs(np.angle(c * np.conj(c[0]))) > tol_arg)


def lemma1_bound_check(rho: HermitianOperator, a: int, b: int) -> bool:
    """Check |c~_ab| >= |c_ab| / 2^(n - h(a,b)) under the all-qubit P map.

    Requires an equal-argument input: each partial application then shrinks
    a bit-matched element by at most a factor of two and bit-mismatched
    elements are untouched.
    """
    if a == b:
        raise ValueError("bound is about off-diagonal elements; need a != b")
    if not equal_argument_check(rho):
        raise ValueError("input does not satisfy the equal-argument precondition")
    n = rho.n_qubits
    h = hamming(a, b, n)
    mapped = apply_product(rho, MapSpec.all_qubits(n, MapKind.P))
    lower = abs(rho.matrix[a, b]) / 2 ** (n - h)
    return abs(mapped.matrix[a, b]) >= lower - TOL_CRIT
