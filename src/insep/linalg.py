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

import numbers
import operator
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "TOL_HERM",
    "TOL_PSD",
    "TOL_TRACE",
    "BlochVector",
    "DensityOperator",
    "HermitianOperator",
    "bloch_from_density",
    "hamming",
    "min_eigenvalue",
    "tensor",
]

# All quantities handled here are O(1), which leaves several digits of
# double-precision headroom under these tolerances.
TOL_HERM = 1e-12
TOL_TRACE = 1e-10
TOL_PSD = 1e-9

# Dense 2^n x 2^n storage; 12 qubits (4096^2 complex doubles) is the
# practical desk-scale limit.
MAX_QUBITS = 12


def _integer_in(q, lo, hi, what: str) -> int:
    """q as a Python int in lo..hi (hi may be math.inf): the package's one integer rule.

    A bool or a non-integer is a TypeError and a value outside lo..hi a
    ValueError, each naming ``what``: a qubit index, a basis index, n_qubits
    or terms.
    """
    if type(q) is not int:
        # A bool is an int to operator.index, so True would be qubit 1.
        if isinstance(q, bool):
            raise TypeError(f"{what} must be an integer, got {q!r}")
        try:
            q = operator.index(q)
        except TypeError:
            raise TypeError(f"{what} must be an integer, got {q!r}") from None
    if not lo <= q <= hi:
        raise ValueError(f"{what} {q} is outside {lo}..{hi}")
    return q


def _finite_real(x, what: str, lo: float = -sys.float_info.max) -> float:
    """x as a float in lo..max float: the one number rule, for tolerances, offsets and family parameters.

    A bool (True would run as 1) or a non-numbers.Real is a TypeError, and
    NaN or a number out of range a ValueError, each naming ``what``.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{what} must be a number, got {x!r}")
    if not lo <= x <= sys.float_info.max:
        bound = "" if lo == -sys.float_info.max else f" and >= {lo!r}"
        raise ValueError(f"{what} must be finite{bound}, got {x!r}")
    return float(x)


def _require(obj, cls) -> None:
    """The one type rule for operator and spec arguments: obj must be a cls.

    Operators are validated when built and map images are wrapped unchecked,
    so only an instance may come in; anything else is a TypeError, not a
    numpy error from deep inside.
    """
    if not isinstance(obj, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(obj).__name__}")


def _qubit_count(n) -> int:
    """A qubit count as a Python int in 1..MAX_QUBITS, by _integer_in's rule.

    Applied where a count enters the library (HermitianOperator, hamming,
    MapSpec.all_qubits, the state builders and the file readers), before
    any 1 << n is built.
    """
    return _integer_in(n, 1, MAX_QUBITS, "n_qubits")


# Smallest d at which _real_valued's scan of the imaginary parts pays for
# itself; from it _psd_certified screens, and factors a stack matrix by matrix.
_REAL_PATH_MIN_DIM = 64


def _real_valued(m: np.ndarray) -> np.ndarray:
    """m.real if the (..., d, d) array m has d >= _REAL_PATH_MIN_DIM and no
    nonzero imaginary part (-0.0 counts as zero); otherwise m itself.

    Called only where a matrix enters the library (HermitianOperator and
    _validate_density_stack), which keep the result as the view that
    _hermitian_deviation and _psd_certified read; map images inherit it
    (see HermitianOperator._derived). So real-valued matrices (GHZ, the
    b-family and their images) are checked and certified in real arithmetic
    and no matrix is scanned twice. Measured on a 2-core Xeon VM with one
    BLAS thread, complex -> real: the factorization 59 -> 37 us at d = 64
    and 2.7 -> 0.75 ms at d = 256, the deviation 23 -> 11 us and 1.03 ->
    0.17 ms. The full scan costs 6 and 84 us (58 and 243 us at d = 256 and
    512 for a complex one); row 0, read first, settles most complex matrices
    in 1.6-1.8 us. At d = 32 the scan costs about what the real work saves,
    so smaller matrices stay complex. The results are the same either
    way: |a - b| of real-valued entries is the number the complex route
    computes, and the certificate's bounds cover real arithmetic (see
    _psd_certified), so a verdict cannot move. eigh and eigvalsh stay
    complex, as real LAPACK rounds their printed values differently.
    """
    if m.shape[-1] >= _REAL_PATH_MIN_DIM and not m[..., :1, :].imag.any() and not m.imag.any():
        return m.real
    return m


def _hermitian_deviation(m: np.ndarray) -> np.ndarray:
    """max|A - A^H| of each matrix A of an (..., d, d) array or its real view.

    NaN or inf for a matrix with a NaN or infinite entry, so one pass checks
    both finiteness and Hermiticity; inf also for a finite matrix whose
    entries are so large that their difference overflows. numpy's warnings
    of an inf - inf and of that overflow are silenced, so the caller's
    ValueError is what comes out under any warning filter.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


@cache
def _lower_triangle(d: int) -> np.ndarray:
    """np.tri(d, k=-1) as a read-only bool mask; building it costs more than its uses.

    It selects the entries below the diagonal, which eigh, eigvalsh and
    Cholesky read, and gathers np.tril_indices(d, -1)'s elements in their
    order, in d^2 bytes, not 8 d (d - 1).
    """
    mask = np.tri(d, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


@cache
def _antidiagonal_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of lz's antidiagonal pairs a > b = d - 1 - a, as read-only (d/2, 1) views of one column."""
    i = np.arange(d)[:, None]
    i.setflags(write=False)
    return i[d // 2 :], i[d // 2 - 1 :: -1]


def _lemma2_values(s_aa, s_bb, s_ab) -> np.ndarray:
    """s_aa + s_bb - 2|s_ab|, element-wise, from diagonal entries and the element (a, b).

    For a Hermitian s this is twice <v|s|v> at the unit vector
    v = (|a> - (s_ab*/|s_ab|)|b>)/sqrt(2), so half of it bounds lambda_min(s)
    from above.
    """
    return (s_aa + s_bb).real - 2 * np.abs(s_ab)


class HermitianOperator:
    """A 2^n x 2^n complex Hermitian matrix tagged with its qubit count.

    The wrapped array is a read-only complex128 copy; instances are immutable
    values and safe to share across threads. Outputs of the positive maps in
    :mod:`insep.maps` live here and may be non-positive; they are built by
    _derived, which skips the checks their validated input already passed.
    """

    # _real is the view the checks and the certificate read, as _real_valued
    # returned it in __init__ or as _derived inherited it; never None.
    __slots__ = ("matrix", "n_qubits", "_real")

    def __init__(self, matrix, n_qubits: int | None = None):
        m = np.array(matrix, dtype=np.complex128, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dim = m.shape[0]
        # An inferred count is at least 1, so the dimension check names a 1x1 or 0x0 matrix.
        n_qubits = _qubit_count(max(dim.bit_length() - 1, 1) if n_qubits is None else n_qubits)
        if dim != 1 << n_qubits:
            raise ValueError(f"dimension {dim} is not 2^n for n >= 1 qubits")
        # Read-only before _real_valued may take a view of it.
        m.setflags(write=False)
        real = _real_valued(m)
        dev = float(_hermitian_deviation(real))
        # NaN fails the comparison too. Only a failed matrix pays for the
        # finiteness pass, as a finite deviation implies finite entries.
        if not dev <= TOL_HERM:
            if not np.isfinite(m).all():
                raise ValueError("matrix has NaN or infinite entries")
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        self.matrix = m
        self.n_qubits = n_qubits
        self._real = real

    @classmethod
    def _derived(cls, matrix: np.ndarray, source: HermitianOperator) -> HermitianOperator:
        """Wrap a complex128 matrix derived from a validated ``source`` operator, unchecked.

        Skips __init__ and its scans. The caller vouches that ``matrix`` has
        the source's shape, is no further from Hermitian, and is real-valued
        if the source is: P, T, H, X and I never make an imaginary part from
        real entries. So ``_real`` is ``matrix.real`` where the source's is a
        real view, else the matrix (complex arithmetic is as sound). The
        matrix is copied (before .real is taken) when it is strided or may
        share memory with the source, so it is always fresh, read-only and
        C-contiguous.
        """
        if not matrix.flags.c_contiguous or np.may_share_memory(matrix, source.matrix):
            matrix = matrix.copy()
        matrix.setflags(write=False)
        op = cls.__new__(cls)
        op.matrix = matrix
        op.n_qubits = source.n_qubits
        op._real = matrix if source._real is source.matrix else matrix.real
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def __repr__(self):
        return f"{type(self).__name__}(n_qubits={self.n_qubits})"


# float64's unit roundoff.
_U = 2.0**-53


def _gamma(d: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) at k = 4(d + 1), the certificate's rounding factor."""
    k = 4 * (d + 1)
    return k * _U / (1 - k * _U)


def _psd_certified(matrix: np.ndarray, tol: float) -> np.ndarray:
    """True only if lambda_min >= -3*tol/4 is proven.

    Takes one (d, d) matrix or an (..., d, d) stack and returns one numpy
    bool per matrix (a 0-d bool for a single matrix). A is the Hermitian
    matrix its lower triangle defines, as eigh and eigvalsh read it; callers
    pass an operator's _real view, so a real-valued matrix, input or map
    image, is screened and factored in real arithmetic. False says nothing
    about the sign of lambda_min: the caller then runs its exact eigensolver
    path. A shift tol/2 that is not > 0 (tol = 0 among them) gives False.

    From d = _REAL_PATH_MIN_DIM two screens run first, in this order; where
    neither decides, and for every smaller d, the shifted Cholesky of
    _factored decides. From d = 64 a stack is certified matrix by matrix, so
    each matrix gets its own answer and none is factored twice: there a
    stacked factorization was slower and held 190x the scratch (127 matrices
    at d = 256: 274 against 179 ms, 400 against 2.1 MB). A smaller stack is
    factored in one call, 18x faster than 50 single calls at d = 4. The
    bounds hold in float64's standard model (unit roundoff u = 2^-53, no
    underflow). A NaN or inf entry on or below the diagonal never gives
    True: each test it enters fails, and the factorization declines it.

    1. Probe, O(d): False where an antidiagonal pair (lz's pairs a > b =
       d - 1 - a) proves lambda_min < -tol. v = Re a_aa + Re a_bb - 2|a_ab|
       (_lemma2_values) is twice the Rayleigh quotient of a unit vector on
       |a> and |b>, so lambda_min <= v/2. With |a_ab| rounded within 2u (one
       ulp) and two further roundings, |v^ - v| <= u (1 + 2u) |v^| +
       u |Re a_aa + Re a_bb| + 4u |a_ab|; as |Re a_aa + Re a_bb| <= 2D, with
       D = max_i |Re a_ii|, and 2|a_ab| <= 2D + |v|, that is at most
       4u (|v^| + 2D). So for v^ < 0, v <= v^ (1 - 4u) + 8uD, and the test
       v^ (1 - 8u) + 16uD < -2 tol, whose constants are doubled to cover its
       own two roundings, proves lambda_min < -tol. The steps after it only
       certify lambda_min >= -3 tol/4, so they would have declined too: the
       probe moves no answer, it skips a factorization bound to fail. The
       P, T and H images of GHZ states stop here.
    2. Gershgorin, O(d), then O(d^2): True where lambda_min >= min_i
       (Re a_ii - R_i), R_i = sum_{j<i} |a_ij| + sum_{j>i} |a_ji|, proves
       lambda_min >= -3 tol/4. The row with the smallest diagonal entry is
       tried first; if it alone falls below -3 tol/4 (up to its rounding;
       the factorization is sound either way), the factorization decides
       without the O(d^2) pass. Otherwise every R_i is summed from one d x d
       float array that holds |a_ij| below the diagonal and zeros elsewhere.
       Each |a_ij| is within 2u, each of the two sums of d nonnegative terms
       within gamma_d in any order of addition, and their sum within u, so
       R_i <= (1 + gamma_{2(d+3)}) R^_i. The test min_i (Re a_ii - R^_i -
       gamma (|Re a_ii| + R^_i)) >= -3 tol/4 with gamma = gamma_{4(d+1)},
       the factorization's own factor, therefore proves the floor; its
       excess over gamma_{2(d+3)}, at least 126u from d = 64, covers the
       rounding of forming and comparing the test. Diagonally dominant
       matrices, GHZ states among them, are certified here.
    """
    batch, d = matrix.shape[:-2], matrix.shape[-1]
    shift = tol / 2
    if not shift > 0:
        return np.zeros(batch, dtype=bool)
    if d < _REAL_PATH_MIN_DIM:
        return _factored(matrix, shift)
    if batch:
        return np.array([_psd_certified(m, tol) for m in matrix.reshape(-1, d, d)], dtype=bool).reshape(batch)
    # Steps 1 and 2. numpy's warnings of an inf - inf or an overflow are
    # silenced: the inf or NaN they leave fails the tests it enters.
    with np.errstate(invalid="ignore", over="ignore"):
        diag = matrix.diagonal().real
        a, b = _antidiagonal_pairs(d)
        low = float(_lemma2_values(diag[a], diag[b], matrix[a, b]).min())
        # The test below can only hold when this does; PSD matrices stop here.
        if -np.inf < low < -2 * tol:
            top = float(np.abs(diag).max())
            if low * (1 - 8 * _U) + 16 * _U * top < -2 * tol:
                return np.False_
        floor = -0.75 * tol
        i = int(diag.argmin())
        if diag[i] - np.abs(matrix[i, :i]).sum() - np.abs(matrix[i + 1 :, i]).sum() >= floor:
            lower = np.zeros((d, d))
            np.abs(matrix, out=lower, where=_lower_triangle(d))
            # Row and column sums as matrix-vector products, which BLAS does
            # faster than two reductions.
            ones = np.ones(d)
            radius = lower @ ones + ones @ lower
            bound = diag - radius - _gamma(d) * (np.abs(diag) + radius)
            if bound.min() >= floor:
                return np.True_
    return _factored(matrix, shift)


def _factored(matrix: np.ndarray, shift: float) -> np.ndarray:
    """True only if a Cholesky factorization of A + shift I proves lambda_min >= -3*shift/2.

    Takes one (d, d) matrix or an (..., d, d) stack, with shift = tol/2 > 0,
    and reads the lower triangle as eigh and eigvalsh do. A computed factor R
    satisfies R*R = A + (tol/2) I + E with |E| <= gamma |R*||R| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3), plus
    the rounding of the shifted diagonal, so lambda_min(A) >= -tol/2 - err
    with err = gamma ||R||_F^2 + u (max|a_ii| + tol/2). gamma_{4(d+1)} is
    taken in place of gamma_{d+1} to cover the larger rounding of complex
    arithmetic. A real-valued matrix from d = 64 is factored in real
    arithmetic (see _real_valued), for which Thm 10.3 holds with gamma_{d+1}
    itself; gamma_{d+1} < gamma_{4(d+1)}, so the same test is sound for it.
    The certificate is given when err <= tol/4. ||R||_F^2 is about trace(A),
    which is at least ||A||_2 for a matrix that factors, so the bound holds
    only where tol/4 exceeds eigh's own error, and eigh would also find
    lambda_min >= -tol. A failed factorization, a failed bound and a NaN
    all give False. A stack reaches it only below d = 64.
    """
    batch, d = matrix.shape[:-2], matrix.shape[-1]
    shifted = matrix.copy()
    shifted.reshape(*batch, d * d)[..., :: d + 1] += shift
    try:
        r = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        # numpy raises for the whole stack when one matrix does not factor.
        if not batch:
            return np.False_
        flat = [_factored(m, shift) for m in matrix.reshape(-1, d, d)]
        return np.array(flat, dtype=bool).reshape(batch)
    r = r.reshape(*batch, d * d)
    diag = np.abs(matrix.diagonal(axis1=-2, axis2=-1)).max(axis=-1)
    return _gamma(d) * np.vecdot(r, r).real + _U * (diag + shift) <= shift / 2


class DensityOperator(HermitianOperator):
    """A HermitianOperator additionally validated trace-one and PSD.

    The PSD check is certified by _psd_certified (from d = 64 its screens,
    then a shifted Cholesky) when it can be, and otherwise decided by the
    minimum eigenvalue against -TOL_PSD. The certificate reads the
    operator's _real view, so no matrix is scanned here. Given a
    HermitianOperator and no qubit count or its own, it shares that
    operator's read-only matrix and view, with no copy and no second check;
    under another count its matrix fails the dimension check.
    """

    __slots__ = ()

    def __init__(self, matrix, n_qubits: int | None = None):
        if not isinstance(matrix, HermitianOperator):
            super().__init__(matrix, n_qubits)
        elif n_qubits is None or _qubit_count(n_qubits) == matrix.n_qubits:
            self.matrix, self.n_qubits, self._real = matrix.matrix, matrix.n_qubits, matrix._real
        else:
            super().__init__(matrix.matrix, n_qubits)
        tr = self.trace()
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"trace {tr!r} is not 1 within {TOL_TRACE}")
        if _psd_certified(self._real, TOL_PSD):
            return
        lo = min_eigenvalue(self)
        if lo < -TOL_PSD:
            raise ValueError(f"minimum eigenvalue {lo:.3e} is below -{TOL_PSD}")


def _validate_density_stack(stack: np.ndarray) -> None:
    """Check every matrix of an (m, 2^n, 2^n) stack by DensityOperator's rules.

    Finiteness, Hermiticity within TOL_HERM, the trace within TOL_TRACE and
    the shifted-Cholesky certificate are each decided for the whole stack at
    once. A matrix these do not settle is handed to DensityOperator, in stack
    order, which decides it by its eigensolve fallback or raises its own
    ValueError, so the first rejected matrix of the stack raises what it
    would raise alone.
    """
    real = _real_valued(stack)
    tr = stack.trace(axis1=-2, axis2=-1).real
    # NaN fails both comparisons, so a non-finite matrix is never settled.
    settled = (_hermitian_deviation(real) <= TOL_HERM) & (np.abs(tr - 1.0) <= TOL_TRACE)
    settled[settled] = _psd_certified(real[settled], TOL_PSD)
    for matrix in stack[~settled]:
        DensityOperator(matrix)


@dataclass(frozen=True)
class BlochVector:
    """Coordinates (x, y, z) of a single-qubit state in the radius-1/2 ball.

    Each coordinate takes _finite_real's rule and is stored as its float.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, _finite_real(getattr(self, name), name))
        r2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not r2 <= 0.25 + TOL_PSD:
            raise ValueError(f"point ({self.x}, {self.y}, {self.z}) is outside the Bloch ball")

    def __iter__(self):
        return iter((self.x, self.y, self.z))


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; qubit 1 of ``a`` becomes qubit 1 of the result."""
    _require(a, HermitianOperator)
    _require(b, HermitianOperator)
    return HermitianOperator(np.kron(a.matrix, b.matrix), a.n_qubits + b.n_qubits)


def min_eigenvalue(op: HermitianOperator) -> float:
    _require(op, HermitianOperator)
    return float(np.linalg.eigvalsh(op.matrix)[0])


def hamming(a: int, b: int, n: int) -> int:
    """Number of differing bits between the n-bit expansions of a and b.

    n is a qubit count by _qubit_count's rule, and a and b are basis indices
    in 0..2^n - 1 by _integer_in's, so a bool is a TypeError.
    """
    n = _qubit_count(n)
    top = (1 << n) - 1
    a, b = _integer_in(a, 0, top, "basis index"), _integer_in(b, 0, top, "basis index")
    return (a ^ b).bit_count()


def bloch_from_density(sigma: HermitianOperator) -> BlochVector:
    """Bloch coordinates of a single-qubit operator, rho = I/2 + x X + y Y + z Z."""
    _require(sigma, HermitianOperator)
    if sigma.n_qubits != 1:
        raise ValueError("Bloch coordinates are defined for a single qubit")
    m = sigma.matrix
    return BlochVector(
        x=float(m[1, 0].real),
        y=float(m[1, 0].imag),
        z=float((m[0, 0] - m[1, 1]).real / 2),
    )


def _bloch_matrix(x, y, z) -> np.ndarray:
    """I/2 + x X + y Y + z Z, unchecked: the caller vouches for the radius.

    Scalar coordinates give one 2x2 array; coordinate arrays of one shape S
    give an S + (2, 2) stack. Within the radius-1/2 ball (BlochVector's
    check, r^2 <= 1/4 + TOL_PSD) the smaller eigenvalue 1/2 - r is at least
    -TOL_PSD, so each array is PSD within TOL_PSD with trace one, without an
    eigensolve.
    """
    m = np.empty((*np.shape(x), 2, 2), dtype=np.complex128)
    m[..., 0, 0] = 0.5 + z
    m[..., 0, 1] = x - 1j * y
    m[..., 1, 0] = x + 1j * y
    m[..., 1, 1] = 0.5 - z
    return m

