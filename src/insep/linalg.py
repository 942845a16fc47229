"""Dense complex linear algebra for n-qubit Hermitian operators.

Conventions used throughout the package:

* Basis indices are binary strings read with qubit 1 as the MOST significant
  bit, so an n-qubit basis state |i1 i2 ... in> has index
  i1*2^(n-1) + i2*2^(n-2) + ... + in.
* Matrices are numpy complex128 arrays, row-major.
* A single-qubit state is written I/2 + x*sigma_X + y*sigma_Y + z*sigma_Z,
  so Bloch coordinates live in the ball of radius 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# All quantities handled here are O(1), which leaves several digits of
# double-precision headroom under these tolerances.
TOL_HERM = 1e-12
TOL_TRACE = 1e-10
TOL_PSD = 1e-9

# Dense 2^n x 2^n storage; 12 qubits (4096^2 complex doubles) is the
# practical desk-scale limit.
MAX_QUBITS = 12


class HermitianOperator:
    """A 2^n x 2^n complex Hermitian matrix tagged with its qubit count.

    The wrapped array is a read-only complex128 copy; instances are immutable
    values and safe to share across threads. Outputs of the positive maps in
    :mod:`insep.maps` live here and may be non-positive.
    """

    __slots__ = ("matrix", "n_qubits")

    def __init__(self, matrix, n_qubits: int | None = None):
        m = np.array(matrix, dtype=np.complex128, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dim = m.shape[0]
        if n_qubits is None:
            n_qubits = dim.bit_length() - 1
        if n_qubits < 1 or dim != 1 << n_qubits:
            raise ValueError(f"dimension {dim} is not 2^n for n >= 1 qubits")
        if n_qubits > MAX_QUBITS:
            raise ValueError(f"{n_qubits} qubits exceeds the cap of {MAX_QUBITS}")
        # A NaN or infinite entry makes dev NaN or infinite, so this one pass
        # also rejects non-finite matrices (dev > TOL_HERM is false for NaN).
        # An inf entry may make numpy warn of inf - inf first. It is not
        # silenced here: an np.errstate costs about 2 us per construction, a
        # third of the whole check on an 8x8 matrix. cli.load_operator, where
        # such matrices come in from files, silences it.
        dev = float(np.max(np.abs(m - m.conj().T)))
        if not math.isfinite(dev):
            raise ValueError("matrix has NaN or infinite entries")
        if dev > TOL_HERM:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        m.setflags(write=False)
        self.matrix = m
        self.n_qubits = n_qubits

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def __repr__(self):
        return f"{type(self).__name__}(n_qubits={self.n_qubits})"


def _psd_certified(matrix: np.ndarray, tol: float) -> bool:
    """True only if a shifted Cholesky proves lambda_min(matrix) >= -3*tol/4.

    Factors A + (tol/2) I, reading the lower triangle as eigh and eigvalsh
    do. A computed factor R satisfies R*R = A + (tol/2) I + E with
    |E| <= gamma |R*||R| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3), plus the rounding of the shifted
    diagonal, so lambda_min(A) >= -tol/2 - err with
    err = gamma ||R||_F^2 + u (max|a_ii| + tol/2). gamma_{4(d+1)} is taken
    in place of gamma_{d+1} to cover complex arithmetic. The certificate is
    given when err <= tol/4. ||R||_F^2 is about trace(A), which is at least
    ||A||_2 for a matrix that factors, so the bound holds only where tol/4
    exceeds eigh's own error, and eigh would also find lambda_min >= -tol.
    A failed factorization, a failed bound, a NaN and a shift that is not
    > 0 (tol = 0 among them) all return False: the caller then runs its
    exact eigensolver path. False says nothing about the sign of lambda_min.
    """
    shift = tol / 2
    if not shift > 0:
        return False
    d = matrix.shape[0]
    shifted = matrix.copy()
    shifted.flat[:: d + 1] += shift
    try:
        r = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    u = np.finfo(np.float64).eps / 2
    k = 4 * (d + 1)
    gamma = k * u / (1 - k * u)
    diag = float(np.abs(matrix.diagonal()).max())
    err = gamma * float(np.vdot(r, r).real) + u * (diag + shift)
    return err <= tol / 4


class DensityOperator(HermitianOperator):
    """A HermitianOperator additionally validated trace-one and PSD.

    The PSD check is certified by a shifted Cholesky when it can be, and
    otherwise decided by the minimum eigenvalue against -TOL_PSD.
    """

    __slots__ = ()

    def __init__(self, matrix, n_qubits: int | None = None):
        super().__init__(matrix, n_qubits)
        tr = self.trace()
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"trace {tr!r} is not 1 within {TOL_TRACE}")
        if _psd_certified(self.matrix, TOL_PSD):
            return
        lo = float(np.linalg.eigvalsh(self.matrix)[0])
        if lo < -TOL_PSD:
            raise ValueError(f"minimum eigenvalue {lo:.3e} is below -{TOL_PSD}")


@dataclass(frozen=True)
class BlochVector:
    """Coordinates (x, y, z) of a single-qubit state in the radius-1/2 ball."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        r2 = self.x * self.x + self.y * self.y + self.z * self.z
        if r2 > 0.25 + TOL_PSD:
            raise ValueError(f"point ({self.x}, {self.y}, {self.z}) is outside the Bloch ball")

    def __iter__(self):
        return iter((self.x, self.y, self.z))


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; qubit 1 of ``a`` becomes qubit 1 of the result."""
    return HermitianOperator(np.kron(a.matrix, b.matrix), a.n_qubits + b.n_qubits)


def min_eigenvalue(op: HermitianOperator) -> float:
    return float(np.linalg.eigvalsh(op.matrix)[0])


def hamming(a: int, b: int, n: int) -> int:
    """Number of differing bits between the n-bit expansions of a and b."""
    top = 1 << n
    if not 0 <= a < top:
        raise ValueError(f"index {a} out of range for {n} qubits")
    if not 0 <= b < top:
        raise ValueError(f"index {b} out of range for {n} qubits")
    return (a ^ b).bit_count()


def bloch_from_density(sigma: HermitianOperator) -> BlochVector:
    """Bloch coordinates of a single-qubit operator, rho = I/2 + x X + y Y + z Z."""
    if sigma.n_qubits != 1:
        raise ValueError("Bloch coordinates are defined for a single qubit")
    m = sigma.matrix
    return BlochVector(
        x=float(m[1, 0].real),
        y=float(m[1, 0].imag),
        z=float((m[0, 0] - m[1, 1]).real / 2),
    )


def _bloch_matrix(v) -> np.ndarray:
    """The 2x2 array I/2 + x X + y Y + z Z at Bloch point v, radius checked.

    The radius check r^2 <= 1/4 + TOL_PSD bounds the smaller eigenvalue
    1/2 - r below by -TOL_PSD, so the array is PSD within TOL_PSD with trace
    one, without an eigensolve.
    """
    x, y, z = BlochVector(*v)
    return np.array([[0.5 + z, x - 1j * y], [x + 1j * y, 0.5 - z]])


def density_from_bloch(v) -> DensityOperator:
    """Single-qubit density operator at Bloch point v = (x, y, z)."""
    return DensityOperator(_bloch_matrix(v), 1)
