"""One-sided inseparability checks and their numeric witnesses.

Every check either returns an INSEPARABLE verdict backed by concrete numeric
evidence (an off-diagonal element exceeding its product-state bound, or a
negative eigenvalue after a positive-map application) or INCONCLUSIVE.
Inconclusive never asserts separability.
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


def _margins(values, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Bound violations |m_ab| - 2^-h(a,b), -inf at the pairs a <= b, and a ^ b.

    values[..., i, j] = m[..., a[i, 0], b[i, j]]: a is a column of row
    indices and b broadcasts against it. Pairs with a <= b are masked out,
    as Hermiticity makes them redundant.
    """
    ab = a ^ b
    margins = np.abs(values) - _HALF_POWERS[np.bitwise_count(ab)]
    np.copyto(margins, -np.inf, where=a <= b)
    return margins, ab


def _violates(margin):
    """The off-diagonal checks' one acceptance rule: a margin above TOL_CRIT."""
    return margin > TOL_CRIT


def _best_offdiagonal(blocks) -> OffDiagonalWitness | None:
    """The pair a > b of largest margin over blocks, if that margin violates its bound.

    Each block is (values, a, b) as _margins takes them. Blocks come in
    lexicographic order and only a strictly larger margin replaces the best,
    so the smallest (a, b) wins a tie, which keeps witnesses deterministic.
    """
    best, found = -np.inf, None
    for values, a, b in blocks:
        margins, ab = _margins(values, a, b)
        k = int(margins.argmax())
        if margins.item(k) > best:
            best, found = margins.item(k), (values, a, ab, k)
    if not _violates(best):
        return None
    values, a, ab, k = found
    row, diff = a.item(k // values.shape[1]), ab.item(k)
    h = diff.bit_count()
    return OffDiagonalWitness(a=row, b=row ^ diff, value=values.item(k), hamming_distance=h, bound=0.5**h)


def _stack_best_margins(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix's largest lz and hamming margin, for an (m, d, d) stack.

    The margins are those lz_antidiagonal_check and hamming_offdiagonal_check
    take their witnesses from, so _violates(margin) is their verdict. The
    whole stack is scanned at once, so it suits small d only.
    """
    a, b = _antidiagonal_pairs(stack.shape[-1])
    i = np.arange(stack.shape[-1])
    lz = _margins(stack[:, a, b], a, b)[0].max(axis=(1, 2))
    return lz, _margins(stack, i[:, None], i)[0].max(axis=(1, 2))


def _require_state(rho) -> None:
    # A check's bounds hold for states only: a trace or eigenvalue outside a
    # state's would give an inseparable verdict to a matrix that is none.
    if not isinstance(rho, DensityOperator):
        raise TypeError(f"expected a DensityOperator, got {type(rho).__name__}")


def lz_antidiagonal_check(rho: DensityOperator) -> DetectionReport:
    """Full-split antidiagonal criterion.

    Inseparable if some antidiagonal element (a, 2^n-1-a) has modulus above
    (1/2)^n; product mixtures cannot exceed that bound.
    """
    _require_state(rho)
    a, b = _antidiagonal_pairs(1 << rho.n_qubits)
    witness = _best_offdiagonal([(rho.matrix[a, b], a, b)])
    return DetectionReport(criterion=Criterion.LZ_ANTIDIAGONAL, witness=witness)


def hamming_offdiagonal_check(rho: DensityOperator) -> DetectionReport:
    """General off-diagonal criterion, bound 1/2^h(a,b) per element.

    Subsumes lz_antidiagonal_check (its h = n case). Reports the witness
    maximizing |c_ab| - 1/2^h(a,b) when any margin exceeds TOL_CRIT. Scans
    the lower triangle in blocks of _BLOCK_ROWS rows.
    """
    _require_state(rho)
    m = rho.matrix
    i = np.arange(m.shape[0])
    rows = (slice(a0, a0 + _BLOCK_ROWS) for a0 in range(0, m.shape[0], _BLOCK_ROWS))
    witness = _best_offdiagonal((m[r, : r.stop], i[r, None], i[: r.stop]) for r in rows)
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
    _require_state(rho)
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
    n = rho.n_qubits
    h = hamming(a, b, n)
    if h == 0:
        raise ValueError("bound is about off-diagonal elements; need a != b")
    if not equal_argument_check(rho):
        raise ValueError("input does not satisfy the equal-argument precondition")
    mapped = apply_product(rho, MapSpec.all_qubits(n, MapKind.P))
    return bool(_lemma1_holds(abs(rho.matrix[a, b]), abs(mapped.matrix[a, b]), n, h))
