"""One-sided inseparability checks and their numeric witnesses.

Every check either returns an INSEPARABLE verdict backed by concrete numeric
evidence (an off-diagonal element exceeding its product-state bound, or a
negative eigenvalue after a positive-map application) or INCONCLUSIVE.
Inconclusive never asserts separability. The checks take only a
DensityOperator: their bounds hold for states, and a trace or eigenvalue
outside a state's would give an inseparable verdict to a matrix that is none.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    MAX_QUBITS,
    TOL_PSD,
    DensityOperator,
    HermitianOperator,
    _antidiagonal_pairs,
    _finite_real,
    _integer_in,
    _lemma2_values,
    _lower_triangle,
    _psd_certified,
    _require,
    hamming,
)
from .maps import MapKind, MapSpec, apply_product

__all__ = [
    "TOL_CRIT",
    "Criterion",
    "DetectionReport",
    "EigenvalueWitness",
    "OffDiagonalWitness",
    "Verdict",
    "equal_argument_check",
    "hamming_offdiagonal_check",
    "lemma1_bound_check",
    "lemma2_witness_value",
    "lz_antidiagonal_check",
    "map_negativity_check",
]

# Strict-inequality margin: elements within TOL_CRIT of a bound are treated
# as not exceeding it, so the checks never over-claim.
TOL_CRIT = 1e-9

# Rows per block of the all-pairs scan: its scratch arrays hold 256·2^n
# entries, so it runs to the package's 12-qubit cap.
_BLOCK_ROWS = 256

# 2^-h for every Hamming distance h a scan can meet. Indexing it with the
# popcounts costs about half the float power it replaces, with the same values.
_HALF_POWERS = 0.5 ** np.arange(MAX_QUBITS + 1)


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

    def lines(self) -> list[tuple[str, object]]:
        """The (label, value) pairs a report prints, in order, with raw values."""
        return [
            ("witness-element", (self.a, self.b)),
            ("witness-value", self.value),
            ("witness-abs", abs(self.value)),
            ("hamming-distance", self.hamming_distance),
            ("bound", self.bound),
        ]


@dataclass(frozen=True)
class EigenvalueWitness:
    """Negative minimum eigenvalue with its eigenvector."""

    min_eigenvalue: float
    eigenvector: np.ndarray

    def lines(self) -> list[tuple[str, object]]:
        """The (label, value) pairs a report prints, in order, with raw values."""
        return [("min-eigenvalue", self.min_eigenvalue), ("eigenvector", self.eigenvector)]


@dataclass(frozen=True, kw_only=True)
class DetectionReport:
    """A check's outcome: inseparable exactly when it holds a witness."""

    criterion: Criterion
    witness: OffDiagonalWitness | EigenvalueWitness | None = None
    map_spec: MapSpec | None = None

    @property
    def verdict(self) -> Verdict:
        return Verdict.INCONCLUSIVE if self.witness is None else Verdict.INSEPARABLE

    def lines(self) -> list[tuple[str, object]]:
        """The (label, value) pairs insep detect prints, in order, with raw values."""
        spec = [] if self.map_spec is None else [("map-spec", self.map_spec)]
        witness = [] if self.witness is None else self.witness.lines()
        return [("verdict", self.verdict.value), ("criterion", self.criterion.value), *spec, *witness]


def _violates(margin):
    """The off-diagonal checks' one acceptance rule: a margin above TOL_CRIT."""
    return margin > TOL_CRIT


def _lz_blocks(m):
    """lz's one block for an (..., d, d) array: its d/2 pairs a > b = d - 1 - a, bound 2^-n.

    A block is (values, a, b, bound): a, b and bound are 2-D and broadcast
    to values' last two axes, and values[..., i, j] = m[..., a, b] at their
    entry (i, j).
    """
    d = m.shape[-1]
    a, b = _antidiagonal_pairs(d)
    yield m[..., a, b], a, b, _HALF_POWERS[d.bit_length() - 1, None, None]


def _hamming_blocks(m):
    """hamming's blocks of _BLOCK_ROWS rows for an (..., d, d) array, bound 2^-h(a,b).

    The bound is +inf on and above the diagonal, as Hermiticity makes those
    pairs redundant, so only the lower triangle can violate it.
    """
    i = np.arange(m.shape[-1])
    for a0 in range(0, m.shape[-1], _BLOCK_ROWS):
        a, b = i[a0 : a0 + _BLOCK_ROWS, None], i[None, : a0 + _BLOCK_ROWS]
        bound = _HALF_POWERS[np.bitwise_count(a ^ b)]
        np.copyto(bound, np.inf, where=a <= b)
        yield m[..., a0 : a0 + _BLOCK_ROWS, : a0 + _BLOCK_ROWS], a, b, bound


def _best_offdiagonal(blocks) -> OffDiagonalWitness | None:
    """The pair of largest margin |m_ab| - bound over blocks, if it violates its bound.

    Each block is (values, a, b, bound) as _lz_blocks and _hamming_blocks
    yield them for one matrix. Blocks come in lexicographic order and only
    a strictly larger margin replaces the best, so the smallest (a, b) wins
    a tie, which keeps witnesses deterministic.
    """
    best, found = -np.inf, None
    for values, a, b, bound in blocks:
        margins = np.abs(values)
        margins -= bound  # in place: one block-sized allocation fewer
        k = int(margins.argmax())
        if margins.item(k) > best:
            best, found = margins.item(k), (values, a, b, bound, k)
    if not _violates(best):
        return None
    values, a, b, bound, k = found
    # Entry (i, j) of each 2-D array broadcast to values' shape.
    i, j = divmod(k, values.shape[1])
    a, b, bound = (x.item(i % x.shape[0], j % x.shape[1]) for x in (a, b, bound))
    return OffDiagonalWitness(a=a, b=b, value=values.item(k), hamming_distance=(a ^ b).bit_count(), bound=bound)


def lz_antidiagonal_check(rho: DensityOperator) -> DetectionReport:
    """Full-split antidiagonal criterion.

    Inseparable if some antidiagonal element (a, 2^n-1-a) has modulus above
    (1/2)^n; product mixtures cannot exceed that bound.
    """
    _require(rho, DensityOperator)
    witness = _best_offdiagonal(_lz_blocks(rho.matrix))
    return DetectionReport(criterion=Criterion.LZ_ANTIDIAGONAL, witness=witness)


def hamming_offdiagonal_check(rho: DensityOperator) -> DetectionReport:
    """General off-diagonal criterion, bound 1/2^h(a,b) per element.

    Subsumes lz_antidiagonal_check (its h = n case). Reports the witness
    maximizing |c_ab| - 1/2^h(a,b) when any margin exceeds TOL_CRIT. Scans
    the lower triangle in blocks of _BLOCK_ROWS rows.
    """
    _require(rho, DensityOperator)
    witness = _best_offdiagonal(_hamming_blocks(rho.matrix))
    return DetectionReport(criterion=Criterion.HAMMING_OFFDIAGONAL, witness=witness)


def map_negativity_check(
    rho: DensityOperator, spec: MapSpec, tol: float = TOL_PSD
) -> DetectionReport:
    """Inseparable if the mapped operator has an eigenvalue below -tol.

    Positive single-qubit maps keep product mixtures positive, so negativity
    after partial application rules out a product decomposition. tol must be
    finite and at least TOL_PSD: a smaller one would take eigensolver
    rounding on a product state, or an eigenvalue a DensityOperator accepts,
    for a witness. A bool or non-number tol is a TypeError (_finite_real).
    A shifted-Cholesky certificate of lambda_min >= -3*tol/4 decides
    inconclusive without an eigensolve; otherwise the full eigensystem
    decides, and supplies the witness.
    """
    _require(rho, DensityOperator)
    tol = _finite_real(tol, "tolerance", TOL_PSD)
    sigma = apply_product(rho, spec)
    witness = None
    if not _psd_certified(sigma._real, tol):
        w, v = np.linalg.eigh(sigma.matrix)
        if w[0] < -tol:
            witness = EigenvalueWitness(min_eigenvalue=float(w[0]), eigenvector=v[:, 0].copy())
    return DetectionReport(criterion=Criterion.MAP_NEGATIVITY, witness=witness, map_spec=spec)


def _lemma1_holds(c_abs, s_abs, n: int, h):
    """Lemma 1's bound s_abs >= c_abs / 2^(n - h) within TOL_CRIT, element-wise.

    c_abs and s_abs are |c_ab| before and after the all-qubit P map, h the
    Hamming distance h(a, b). A NaN fails the comparison, so it never passes.
    """
    return s_abs >= c_abs / 2.0 ** (n - h) - TOL_CRIT


def lemma2_witness_value(sigma: HermitianOperator, a: int, b: int) -> float:
    """Quadratic form <v|sigma|v> for |v> = |a> - (s_ab*/|s_ab|)|b>.

    Equals s_aa + s_bb - 2|s_ab|; when all diagonal entries are 1/2^n this is
    2(1/2^n - |s_ab|), negative as soon as the element beats 1/2^n. a and b
    are basis indices in 0..d - 1 by _integer_in's rule, so a bool or a float
    is a TypeError.
    """
    _require(sigma, HermitianOperator)
    m = sigma.matrix
    top = m.shape[0] - 1
    a, b = _integer_in(a, 0, top, "basis index"), _integer_in(b, 0, top, "basis index")
    if a == b:
        raise ValueError("witness needs two distinct basis indices")
    if m[a, b] == 0:
        raise ValueError(f"element ({a}, {b}) is zero; witness vector undefined")
    return float(_lemma2_values(m[a, a], m[b, b], m[a, b]))


def equal_argument_check(rho: HermitianOperator) -> bool:
    """True iff all nonzero lower-triangle elements share one complex argument.

    Elements with modulus <= 1e-12 are exempt (their argument is undefined).
    Phases are compared as angles between complex numbers, to within 1e-9
    rad, so the +-pi wraparound is handled.
    """
    _require(rho, HermitianOperator)
    c = rho.matrix[_lower_triangle(rho.matrix.shape[0])]
    c = c[np.abs(c) > 1e-12]
    return c.size == 0 or not np.any(np.abs(np.angle(c * np.conj(c[0]))) > 1e-9)


def lemma1_bound_check(rho: HermitianOperator, a: int, b: int) -> bool:
    """Check |c~_ab| >= |c_ab| / 2^(n - h(a,b)) under the all-qubit P map.

    Requires an equal-argument input: each partial application then shrinks
    a bit-matched element by at most a factor of two and bit-mismatched
    elements are untouched. a and b are basis indices by hamming's rule, so
    a bool or a float is a TypeError.
    """
    _require(rho, HermitianOperator)
    n = rho.n_qubits
    h = hamming(a, b, n)
    if h == 0:
        raise ValueError("bound is about off-diagonal elements; need a != b")
    if not equal_argument_check(rho):
        raise ValueError("input does not satisfy the equal-argument precondition")
    mapped = apply_product(rho, MapSpec.all_qubits(n, MapKind.P))
    return bool(_lemma1_holds(abs(rho.matrix[a, b]), abs(mapped.matrix[a, b]), n, h))
